"""The benchmark's workloads.

Each workload makes its inputs from a seed, times one operation at a time
(``run``), and checks every result exactly outside the timed section
(``check``).  ``prepare`` does per-operation set-up that is not timed.
Calls into adjkit go through module attributes (``factor.quotient_matrix``,
``cli.main``), so the layer tracer's runtime wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from adjkit import cli, factor, specialize
from adjkit.factor import AlternatingMatrix

import oracle
from oracle import P

# number of terms of det(X)^(n-1), the right-hand side of the det(adj X) law
DET_POWER_TERMS = {3: 21, 4: 1848, 5: 2_224_955}

MODP_IDENTITIES = ("fundamental", "multiplicativity", "conjugation",
                   "sandwich_divisibility", "factor_product", "compound_det",
                   "complementary_compound", "corrupted_adj_det")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base class: one closed-loop client issuing a fixed list of ops."""

    name = ""
    why = ""
    # op times are scaled to the reference host speed (see hostspeed.py);
    # a workload whose time does not follow the calibration loop opts out
    host_scaled = True
    setup_n: int | None = None          # n of the GenericContext in setup_s
    entry_span = ""                     # the span every op opens
    expected_spans: tuple = ()          # spans that must fire at full size

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.ops = self.make_ops(random.Random(seed))

    def make_ops(self, rng: random.Random) -> list:
        raise NotImplementedError

    def start(self) -> None:
        """Untimed set-up before the first op."""

    def prepare(self, op):
        """Untimed per-op set-up; returns the argument of ``run``."""
        return op

    def run(self, args):
        raise NotImplementedError

    def check(self, index: int, op, result) -> tuple[bool, str]:
        """(result is exactly right, digest of the result)."""
        raise NotImplementedError

    def key(self, op):
        """Ops with equal keys must produce equal digests."""
        return repr(op)

    def point_rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# n4-requests: in-process CLI requests
# ---------------------------------------------------------------------------

def _fmt(k: int) -> list[str]:
    return ["--format", ("text", "json")[k % 2]]


def _compound_m(k: int, n: int) -> int:
    """m = 1 and n twice as often as the costlier 2 <= m < n."""
    cycle = [1, n, 1, n] + list(range(2, n))
    return cycle[k % len(cycle)]


class N4Requests(Workload):
    name = "n4-requests"
    why = ("small n<=4 CLI requests: tuple kernels only, Fraction sparse "
           "elimination and output serialization; per-call overhead")
    setup_n = 4
    entry_span = "cli.main"
    expected_spans = (
        "cli.main", "identities.symbolic_suite",
        "identities.compound_det_check", "factor.context",
        "factor.certificate", "factor.refine", "matrix.mul",
        "matrix.det_laplace", "matrix.adjugate", "matrix.compound",
        "matrix.to_json", "polyring.mul", "polyring.str", "kernels.mul",
        "kernels.fma", "kernels.det_tuple", "kernels.addscale",
        "kernels.sub_scaled")

    def make_ops(self, rng):
        smoke = self.smoke
        fn = 2 if smoke else 4          # n of factor and refine (even)
        cn = 3 if smoke else 4          # n of compound
        # seeds of the random alternating A; each gives one factor request
        # per side and format and one refine request per format
        seeds = [str(rng.randrange(1, 10**6)) for _ in range(2 if smoke else 8)]
        gen_ns = (2, 3) if smoke else (2, 3, 4)
        reqs = []

        def add(count, argv_of, code=0):
            # spread each kind evenly over the run, in the same order for
            # every seed: only the seeded matrices differ between seeds
            reqs.extend(((k + 0.5) / count, argv_of(k), code) for k in range(count))

        # Full mix, 200 requests.  70 fast ones (gen, compound m = 1 and n,
        # the usage error) sit below the 60 verify --n 3 requests, so the
        # median lands in the middle of that seed-independent block; the 30
        # refine and verify --n 4 requests hold p95 and most of the wall time.
        add(2 if smoke else 42, lambda k: ["gen", "--n", str(gen_ns[k % len(gen_ns)])]
            + _fmt(k // len(gen_ns)))
        add(cn if smoke else 24, lambda k: [
            "compound", "--n", str(cn), "--m", str(_compound_m(k, cn))]
            + _fmt(k // 6))
        add(1 if smoke else 12, lambda k: ["factor", "--n", "3"], 2)
        add(2 if smoke else 48, lambda k: ["verify", "--n", "3"] + _fmt(k))
        add(1 if smoke else 12,
            lambda k: ["verify", "--n", "3", "--negative-control"] + _fmt(k), 1)
        add(0 if smoke else 14, lambda k: ["verify", "--n", "4"] + _fmt(k))
        add(4 * len(seeds), lambda k: [
            "factor", "--n", str(fn), "--A", "random", "--seed", seeds[k // 4],
            "--side", ("right", "left")[k % 2]] + _fmt(k // 2))
        add(2 * len(seeds), lambda k: [
            "refine", "--n", str(fn), "--A", "random", "--seed", seeds[k // 2],
            "--Aprime", "J"] + _fmt(k))
        reqs.sort(key=lambda r: r[0])
        return [(argv, code) for _, argv, code in reqs]

    def run(self, op):
        argv, _ = op
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def key(self, op):
        return " ".join(op[0])

    def check(self, index, op, result):
        argv, expected = op
        code, out = result
        ok = code == expected and _request_output_ok(
            argv, code, out, self.point_rng(index))
        return ok, sha(out)


def _matrix_at(obj: dict, point: dict) -> list[list[int]]:
    return [[oracle.eval_str(v, point) for v in row] for row in obj["entries"]]


def _text_matrix(s: str) -> list[list[str]]:
    """Parse the CLI's text matrix form [[a, b], [c, d]]."""
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ValueError(f"not a matrix: {s[:40]!r}")
    return [row.split(", ") for row in s[2:-2].split("], [")]


def _request_output_ok(argv, code, out, rng) -> bool:
    kind = argv[0]
    n = int(argv[argv.index("--n") + 1])
    as_json = "json" in argv
    if code == 2:
        return out == ""
    point = oracle.generic_point(n, rng)
    x = oracle.point_matrix(n, point)
    adj = oracle.adj_mod(x)
    lines = out.splitlines()
    if kind == "gen":
        if as_json:
            obj = json.loads(out)
            det_s, adj_m = obj["det"], _matrix_at(obj["adj"], point)
            x_m = _matrix_at(obj["X"], point)
        else:
            det_s = lines[1].removeprefix("det(X): ")
            adj_m = [[oracle.eval_str(v, point) for v in row]
                     for row in _text_matrix(lines[2].removeprefix("adj(X): "))]
            x_m = [[oracle.eval_str(v, point) for v in row]
                   for row in _text_matrix(lines[0].removeprefix("X: "))]
        return (x_m == x and oracle.eval_str(det_s, point) == oracle.det_mod(x)
                and adj_m == adj)
    if kind == "verify":
        negative = "--negative-control" in argv
        if as_json:
            obj = json.loads(out)
            status = {r["identity"]: r["passed"] for r in obj["reports"]}
            suite = obj["passed"]
        else:
            body = [ln.strip().split(": ") for ln in lines[1:-1]]
            status = {k: v.startswith("PASS") for k, v in body}
            suite = lines[-1] == "suite: PASS"
        want = {name: True for name in status}
        if negative:
            want["corrupted_adj_det"] = False
        return (len(status) == 8 + negative and status == want
                and suite == (not negative) and code == (1 if negative else 0))
    if kind == "compound":
        m = int(argv[argv.index("--m") + 1])
        expected = oracle.compound_mod(x, m)
        if not as_json:
            size = len(expected)
            return (lines[0] == f"compound(X,{m}): {size}x{size}"
                    and lines[1].endswith(": PASS"))
        payload = json.loads(out)
        return (payload["det_check"]["passed"]
                and _matrix_at(payload["compound"], point) == expected)
    payload = json.loads(out if as_json else lines[-1])
    if kind == "factor":
        side = argv[argv.index("--side") + 1]
        a = payload["A"]["entries"]
        y = _matrix_at(payload["Y"], point)
        z = _matrix_at(payload["Z"], point)
        xt = oracle.transpose(x)
        form = (z == oracle.matmul_mod(xt, a) if side == "right"
                else y == oracle.matmul_mod(a, xt))
        return (all(payload["checks"].values()) and payload["side"] == side
                and payload["d"] == (n - 2 if side == "right" else 1)
                and form and oracle.matmul_mod(y, z) == adj)
    if kind == "refine":
        a = payload["A"]["entries"]
        a2 = payload["Aprime"]["entries"]
        r = oracle.eval_str(payload["r"], point)
        w = _matrix_at(payload["W"], point)
        xt = oracle.transpose(x)
        inner = oracle.matmul_mod(oracle.matmul_mod(xt, w), xt)
        inner = [[(r * u + v) % P for u, v in zip(ru, rv)]
                 for ru, rv in zip(xt, inner)]
        rebuilt = oracle.matmul_mod(oracle.matmul_mod(a, inner), a2)
        return all(payload["checks"].values()) and rebuilt == adj
    raise ValueError(f"unknown request kind {kind!r}")


# ---------------------------------------------------------------------------
# n5-sandwich: exact division of the alternating sandwich by det(X)
# ---------------------------------------------------------------------------

class N5Sandwich(Workload):
    name = "n5-sandwich"
    why = ("quotient_matrix at n=5: exact heap division of degree-8 sandwich "
           "entries by det(X) plus fma products")
    setup_n = 5
    entry_span = "factor.quotient"
    expected_spans = ("factor.quotient", "factor.sandwich", "matrix.mul",
                      "polyring.exact_div", "kernels.fma", "kernels.sub_scaled")

    @property
    def n(self) -> int:
        return 4 if self.smoke else 5

    def make_ops(self, rng):
        # nonzero entries above the diagonal: every A gives the same term
        # structure, so the seed changes values, not the amount of work
        n = self.n
        values = [v for v in range(-5, 6) if v]
        out = []
        for _ in range(1 if self.smoke else 5):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = rng.choice(values)
                    rows[i][j], rows[j][i] = v, -v
            out.append(rows)
        return out

    def start(self):
        self.ctx = factor.GenericContext(self.n)

    def prepare(self, op):
        return AlternatingMatrix.from_rows(op)

    def run(self, alt):
        return factor.quotient_matrix(self.ctx, alt)

    def check(self, index, op, q):
        n = self.n
        point = oracle.generic_point(n, self.point_rng(index))
        values = [point[name] for name in q.domain.ring.names]
        x = oracle.point_matrix(n, point)
        adj = oracle.adj_mod(x)
        det = oracle.det_mod(x)
        rhs = oracle.matmul_mod(oracle.matmul_mod(adj, op), oracle.transpose(adj))
        ok = (q.rows, q.cols) == (n, n) and all(
            oracle.eval_terms(q[i, j].terms, values) * det % P == rhs[i][j]
            for i in range(n) for j in range(n))
        digest = sha("\n".join(repr(sorted(e.terms.items())) for e in q.entries))
        return ok, digest


# ---------------------------------------------------------------------------
# n5-det-law: det(adj X) = det(X)^4 through the packed kernels
# ---------------------------------------------------------------------------

class N5DetLaw(Workload):
    name = "n5-det-law"
    why = ("verify_fundamental at n=5: packed Laplace and the 15.2M-pair "
           "det(X)^4 product; large-accumulator, memory-bound path")
    setup_n = 5
    entry_span = "factor.fundamental"
    # memory-bound: over ten runs its raw wall time spread 5 % (IQR/median)
    # and 14 % once scaled by the CPU-bound calibration loop
    host_scaled = False
    expected_spans = ("factor.fundamental", "factor.det_power",
                      "matrix.det_laplace", "matrix.eq", "polyring.mul",
                      "polyring.eq", "kernels.packed_mul", "kernels.packed_det")

    @property
    def n(self) -> int:
        return 3 if self.smoke else 5

    def make_ops(self, rng):
        # the generic matrix has no free input; one verification per pass
        return [self.n]

    def prepare(self, n):
        # a fresh context, so det(X)^(n-1) is never served from its cache
        return factor.GenericContext(n)

    def run(self, ctx):
        return factor.verify_fundamental(ctx), ctx

    def check(self, index, n, result):
        report, ctx = result
        terms = ctx.det_power(n - 1).terms
        ok = (report["passed"] and all(report["checks"].values())
              and len(terms) == DET_POWER_TERMS[n])
        # order-independent digest; tuple and int hashes are not salted
        fold = sum(map(hash, terms.items())) & (2**64 - 1)
        return ok, sha(json.dumps(report, sort_keys=True) + f"|{len(terms)}|{fold}")


# ---------------------------------------------------------------------------
# modp-n10: seeded GF(p) trials at n = 10 (no polynomial kernels)
# ---------------------------------------------------------------------------

class ModpN10(Workload):
    name = "modp-n10"
    why = ("sz_check at n=10 over GF(2^31-1): field paths of matrix and "
           "specialize, zero kernel calls; the control for kernel changes")
    setup_n = None
    entry_span = "specialize.sz_check"
    expected_spans = ("specialize.sz_check", "matrix.det_field",
                      "matrix.inverse", "matrix.rank", "matrix.adjugate")

    @property
    def n(self) -> int:
        return 4 if self.smoke else 10

    def make_ops(self, rng):
        count = 16 if self.smoke else 200
        return [(MODP_IDENTITIES[i % len(MODP_IDENTITIES)], rng.randrange(2**31))
                for i in range(count)]

    def run(self, op):
        identity, seed = op
        return specialize.sz_check(identity, self.n, P, 1, seed)

    def check(self, index, op, report):
        identity, _ = op
        ok = (report["identity"] == identity and report["trials"] == 1
              and report["passed"] == (identity != "corrupted_adj_det"))
        return ok, sha(json.dumps(report, sort_keys=True))


WORKLOADS = {w.name: w for w in (N4Requests, N5Sandwich, N5DetLaw, ModpN10)}
