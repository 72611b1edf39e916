"""Registered identity suite: symbolic verification and mod-p trials.

Each registered identity knows how to verify itself symbolically on the
generic matrix (exactly, at small n) and how to run one randomized GF(p)
trial (for dimensions far beyond symbolic reach; corroboration, not proof).
A deliberately corrupted identity is registered as a negative control; it
must fail.  The symbolic suite draws no random numbers; a law it derives
from other exact checks names its theorem in its report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from .domains import GF, ZZ, PolynomialDomain
from .factor import (GenericContext, factor_left, factor_right,
                     diagonal_factorization, random_unimodular,
                     standard_symplectic, verify_fundamental)
from .matrix import Matrix
from .polyring import PolyRing


# ---------------------------------------------------------------------------
# random GF(p) instances of the mod-p trials
# ---------------------------------------------------------------------------

def rand_gfp_matrix(rng: random.Random, n: int, p: int) -> Matrix:
    dom = GF(p)
    return Matrix.from_rows(dom, [[rng.randrange(p) for _ in range(n)]
                                  for _ in range(n)])


def rand_gfp_invertible(rng: random.Random, n: int, p: int):
    """(random invertible matrix over GF(p), its determinant)."""
    while True:
        m = rand_gfp_matrix(rng, n, p)
        if (det := m.det()) != 0:
            return m, det


def rand_gfp_singular(rng: random.Random, n: int, p: int) -> Matrix:
    """Random rank-(n-1) matrix over GF(p)."""
    dom = GF(p)
    while True:
        u = [[rng.randrange(p) for _ in range(n - 1)] for _ in range(n)]
        v = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        m = Matrix.from_rows(dom, u) * Matrix.from_rows(dom, v)
        if m.rank() == n - 1:
            return m


def rand_gfp_alternating(rng: random.Random, n: int, p: int) -> Matrix:
    dom = GF(p)
    m = Matrix.zeros(dom, n, n)
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randrange(p)
            m.entries[i * n + j] = c
            m.entries[j * n + i] = (-c) % p
    return m


# ---------------------------------------------------------------------------
# compound determinant law
# ---------------------------------------------------------------------------

def compound_det_check(ctx: GenericContext, m: int,
                       cmp_m: Matrix | None = None) -> dict:
    """Prove det(compound(X, m)) = det(X)^e, e = C(n-1, m-1), exactly.

    ``cmp_m`` is compound(X, m) when the caller has already built it.

    The law is derived, never expanded: det(X)^e has about 2.2 million
    terms at (5, 2) and 1.6e8 at (5, 3).  Four exact checks on
    C = compound(X, m), with D = complementary_compound(m) and
    N = C(n, m), prove it:

    1. ``complement_product``: C * D^T = det(X) * I, so det(C) * det(D) =
       det(X)^N.
    2. ``entries_homogeneous``: every entry of C is homogeneous of degree
       m, so det(C) is homogeneous of degree m * N.
    3. ``exponent_arithmetic``: n * e = m * N.
    4. ``value_at_identity``: C at x_i_j = delta_ij is the identity.

    det(X) is irreducible over ZZ and over every field, and the polynomial
    ring is a UFD, so by 1 det(C) = u * det(X)^a with u a unit.  Comparing
    degrees, 2 gives n * a = m * N, hence a = e by 3; evaluating at X = I,
    4 gives u = det(C)(I) = 1.
    """
    n = ctx.n
    e = comb(n - 1, m - 1)
    big_n = comb(n, m)
    if cmp_m is None:
        cmp_m = ctx.X.compound(m)
    d = ctx.X.complementary_compound(m)
    ident = Matrix.identity(ctx.domain, big_n).scale(ctx.detX)
    point = {f"x_{i}_{j}": int(i == j)
             for i in range(1, n + 1) for j in range(1, n + 1)}
    at_eye = cmp_m.map_entries(lambda c: c.evaluate(point), ZZ)
    checks = {
        "complement_product": cmp_m * d.transpose() == ident,
        "entries_homogeneous": all(c.is_homogeneous(m)
                                   for c in cmp_m.entries),
        "exponent_arithmetic": n * e == m * big_n,
        "value_at_identity": at_eye == Matrix.identity(ZZ, big_n),
    }
    return {"identity": "compound_det", "n": n, "m": m, "exponent": e,
            "route": "derived", "theorem": "det(X) is irreducible",
            "checks": checks, "passed": all(checks.values())}


# ---------------------------------------------------------------------------
# symbolic suite runners: ctx -> report dict
# ---------------------------------------------------------------------------

def _memo(ctx: GenericContext, key: str, build: Callable):
    """build(ctx), built once per context and kept in ``ctx.memo``."""
    if key not in ctx.memo:
        ctx.memo[key] = build(ctx)
    return ctx.memo[key]


def _sym_fundamental(ctx: GenericContext) -> dict:
    rep = verify_fundamental(ctx)
    rep["identity"] = "fundamental"
    return rep


def _adj_reverses_products(ctx: GenericContext) -> bool:
    """adj(X*Y) == adj(Y)*adj(X) for two generic n-by-n matrices.

    X = (x_i_j) and Y = (y_i_j) share one ring of 2n^2 variables with the
    coefficients of ``ctx``, so this is the polynomial identity itself, and
    it holds at every pair of matrices over every commutative ring with
    those coefficients.
    """
    idx = range(1, ctx.n + 1)
    ring = PolyRing([f"{v}_{i}_{j}" for v in "xy" for i in idx for j in idx],
                    p=ctx.ring.p)
    x, y = (Matrix.from_rows(PolynomialDomain(ring), [
        [ring.var(f"{v}_{i}_{j}") for j in idx] for i in idx]) for v in "xy")
    return (x * y).adjugate() == y.adjugate() * x.adjugate()


def _sym_multiplicativity(ctx: GenericContext) -> dict:
    ok = _memo(ctx, "adj_reverses_products", _adj_reverses_products)
    return {"identity": "multiplicativity", "n": ctx.n, "route": "generic",
            "checks": {"adj_reverses_products": ok}, "passed": ok}


def _sym_conjugation(ctx: GenericContext) -> dict:
    """adj(U*A*U^-1) = U*adj(A)*U^-1 for every A and every U with det U = 1.

    Derived from two exact checks: multiplicativity turns the left side
    into adj(U^-1)*adj(A)*adj(U), and X*adj(X) = det(X)*I, taken at U and
    at U^-1 (both of determinant 1), gives adj(U) = U^-1 and adj(U^-1) = U.
    """
    checks = {"adj_reverses_products": _memo(ctx, "adj_reverses_products",
                                             _adj_reverses_products),
              "fundamental_products": all(ctx.products.values())}
    return {"identity": "conjugation", "n": ctx.n, "route": "derived",
            "theorem": "identities of generic matrices hold at every "
                       "specialization",
            "checks": checks, "passed": all(checks.values())}


def _sym_sandwich(ctx: GenericContext) -> dict:
    """det(X) divides adj(X)*A*adj(X)^T for every alternating A at once.

    For i < j, (adj*A*adj^T)_ij is the sum over k < l of A_kl times
    C[{i,j}, {k,l}], with C = compound(adj X, 2); the entries with i > j
    are their negatives and the diagonal is zero.  Jacobi's theorem at
    order 2, C = det(X) * complementary_compound(X, 2)^T, checked exactly,
    makes every such sum a multiple of det(X).  The two sides are compared
    entry by entry, each entry of det(X) * D^T (D the complementary
    compound) formed as it is compared, so only C is held whole.  At n = 1
    there are no 2-by-2 minors, and the only alternating matrix is zero.
    """
    n = ctx.n
    ok = True
    if n >= 2:
        c, d = ctx.adjX.compound(2), ctx.X.complementary_compound(2)
        ok = all(c[i, j] == ctx.detX * d[j, i]
                 for i in range(c.rows) for j in range(c.cols))
    return {"identity": "sandwich_divisibility", "n": n, "route": "derived",
            "theorem": "Jacobi's theorem on the minors of the adjugate",
            "checks": {"compound_of_adjugate": ok}, "passed": ok}


def _sym_factor_product(ctx: GenericContext) -> dict:
    n = ctx.n
    if n % 2:
        return {"identity": "factor_product", "n": n, "checks": {},
                "passed": True, "skipped": "odd n admits no factorization"}
    j = standard_symplectic(n)
    checks = {}
    cert_r = factor_right(ctx, j)
    checks["right_certificate"] = cert_r.passed
    cert_l = factor_left(ctx, j)
    checks["left_certificate"] = cert_l.passed
    return {"identity": "factor_product", "n": n,
            "checks": checks, "passed": all(checks.values())}


def _sym_diagonal(ctx: GenericContext) -> dict:
    mats = diagonal_factorization(ctx)
    prod = mats[0]
    for m in mats[1:]:
        prod = prod * m
    ok_prod = prod == ctx.identity.scale(ctx.detX)
    ok_dets = all(m.det_laplace() == ctx.detX for m in mats)
    checks = {"product_is_det_identity": ok_prod, "factor_dets": ok_dets}
    return {"identity": "diagonal_factorization", "n": ctx.n,
            "checks": checks, "passed": all(checks.values())}


def _compound_reports(ctx: GenericContext) -> list[dict]:
    """compound_det_check(ctx, m) for m = 1..n, built once per context."""
    return _memo(ctx, "compound_reports", lambda c: [
        compound_det_check(c, m) for m in range(1, c.n + 1)])


def _sym_compound(ctx: GenericContext) -> dict:
    reports = _compound_reports(ctx)
    checks = {f"m_{rep['m']}": rep["passed"] for rep in reports}
    return {"identity": "compound_det", "n": ctx.n, "checks": checks,
            "reports": reports, "passed": all(checks.values())}


def _sym_complementary(ctx: GenericContext) -> dict:
    reports = _compound_reports(ctx)
    checks = {f"m_{rep['m']}": rep["checks"]["complement_product"]
              for rep in reports}
    return {"identity": "complementary_compound", "n": ctx.n,
            "checks": checks, "passed": all(checks.values())}


def _sym_corrupted(ctx: GenericContext) -> dict:
    # deliberately wrong exponent: det(adj X) = det(X)^n; true value is n-1.
    # det(X)^n is passed as det(X)^(n-2) * det(X)^2, which verify_fundamental
    # has cached at n >= 4; its degree n^2 is above the n(n-1) that adj(X)'s
    # rows allow, so det_equals refuses it without expanding anything
    n = ctx.n
    factors = (ctx.det_power(n - 2), ctx.det_power(2)) if n > 1 else (ctx.detX,)
    wrong = ctx.adjX.det_equals(*factors)
    return {"identity": "corrupted_adj_det", "n": ctx.n,
            "checks": {"wrong_exponent_holds": wrong}, "passed": wrong,
            "expected_failure": True}


# ---------------------------------------------------------------------------
# mod-p trial runners: (n, p, rng) -> whether the trial holds; the
# compound runners use order m = 2
# ---------------------------------------------------------------------------

def _modp_fundamental(n, p, rng):
    b = rand_gfp_matrix(rng, n, p)
    dom = GF(p)
    adj = b.adjugate()
    det = b.det()
    det_i = Matrix.identity(dom, n).scale(det)
    return (b * adj == det_i and adj * b == det_i
            and adj.det() == pow(det, n - 1, p))


def _modp_multiplicativity(n, p, rng):
    a = rand_gfp_matrix(rng, n, p)
    b = rand_gfp_matrix(rng, n, p)
    return (a * b).adjugate() == b.adjugate() * a.adjugate()


def _modp_conjugation(n, p, rng):
    a = rand_gfp_matrix(rng, n, p)
    u = random_unimodular(n, rng).map_entries(GF(p).coerce, GF(p))
    u_inv = u.adjugate()  # det = 1 mod p
    return (u * a * u_inv).adjugate() == u * a.adjugate() * u_inv


def _modp_sandwich(n, p, rng):
    # finite-field content of the sandwich lemma: for singular B the
    # alternating sandwich vanishes identically
    b = rand_gfp_singular(rng, n, p)
    alt = rand_gfp_alternating(rng, n, p)
    adj = b.adjugate()
    prod = adj * alt * adj.transpose()
    return all(v == 0 for v in prod.entries)


def _modp_factor_product(n, p, rng):
    if n % 2:
        raise ValueError("factor identities need even n")
    alt = standard_symplectic(n)
    a_p = alt.matrix.map_entries(GF(p).coerce, GF(p))
    a_inv = a_p.inverse()
    b, det_b = rand_gfp_invertible(rng, n, p)
    adj = b.adjugate()
    y = _modp_quotient_factor(adj, det_b, a_inv)
    return y * (b.transpose() * a_p) == adj


def _modp_quotient_factor(adj, det_b, a_inv):
    """L A^-1 L^T / det(B) over GF(p), L = adj(B): the image at B of
    factor_right's Y, and with L = adj(B)^T of factor_left's Z."""
    return (adj * a_inv * adj.transpose()).scale(adj.domain.inv(det_b))


def _modp_compound_det(n, p, rng):
    b = rand_gfp_matrix(rng, n, p)
    # the exponent C(n-1, m-1) at m = 2
    return b.compound(2).det() == pow(b.det(), n - 1, p)


def _modp_complementary(n, p, rng):
    b = rand_gfp_matrix(rng, n, p)
    dom = GF(p)
    big_n = comb(n, 2)
    ident = Matrix.identity(dom, big_n).scale(b.det())
    return b.compound(2) * b.complementary_compound(2).transpose() == ident


def _modp_corrupted(n, p, rng):
    # det(B)^(n-1) * (det(B) - 1) is nonzero for det(B) outside {0, 1},
    # so every trial must fail; over GF(2) no such B exists
    while True:
        b, det_b = rand_gfp_invertible(rng, n, p)
        if det_b != 1:
            break
    return b.adjugate().det_bareiss() == pow(det_b, n, p)


@dataclass(frozen=True)
class IdentitySpec:
    name: str
    symbolic: Callable | None
    modp: Callable | None
    expected_failure: bool = False


REGISTRY: dict[str, IdentitySpec] = {
    spec.name: spec for spec in [
        IdentitySpec("fundamental", _sym_fundamental, _modp_fundamental),
        IdentitySpec("multiplicativity", _sym_multiplicativity,
                     _modp_multiplicativity),
        IdentitySpec("conjugation", _sym_conjugation, _modp_conjugation),
        IdentitySpec("sandwich_divisibility", _sym_sandwich, _modp_sandwich),
        IdentitySpec("factor_product", _sym_factor_product,
                     _modp_factor_product),
        IdentitySpec("diagonal_factorization", _sym_diagonal, None),
        IdentitySpec("compound_det", _sym_compound, _modp_compound_det),
        IdentitySpec("complementary_compound", _sym_complementary,
                     _modp_complementary),
        IdentitySpec("corrupted_adj_det", _sym_corrupted, _modp_corrupted,
                     expected_failure=True),
    ]
}

# the order the CLI runs the full suite in
SUITE = ["fundamental", "multiplicativity", "conjugation",
         "sandwich_divisibility", "factor_product", "diagonal_factorization",
         "compound_det", "complementary_compound"]


def run_symbolic_suite(n: int, include_corrupted: bool = False,
                       allow_large: bool = False) -> dict:
    """Run every registered symbolic identity on the generic n-by-n matrix.

    Every check is exact, and none draws a random number.
    """
    ctx = GenericContext(n, allow_large=allow_large)
    names = list(SUITE) + (["corrupted_adj_det"] if include_corrupted else [])
    reports = []
    for name in names:
        spec = REGISTRY[name]
        rep = spec.symbolic(ctx)
        rep.setdefault("expected_failure", spec.expected_failure)
        reports.append(rep)
    # a corrupted identity is supposed to fail, and its failure must surface
    # as a failing suite: that is what the negative control demonstrates
    passed = all(rep["passed"] for rep in reports)
    return {"mode": "symbolic", "n": n, "reports": reports, "passed": passed}


def run_modp_suite(n: int, p: int, trials: int, seed: int,
                   include_corrupted: bool = False) -> dict:
    """Run the registered mod-p trials; identity order is fixed."""
    from .specialize import sz_check
    names = [name for name in SUITE if REGISTRY[name].modp is not None]
    if n % 2:
        names.remove("factor_product")
    if include_corrupted:
        names.append("corrupted_adj_det")
    reports = []
    for i, name in enumerate(names):
        reports.append(sz_check(name, n, p, trials, seed + i))
    passed = all(rep["passed"] for rep in reports)
    return {"mode": "mod-p", "n": n, "p": p, "trials": trials, "seed": seed,
            "reports": reports, "passed": passed}
