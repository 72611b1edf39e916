"""Command-line front end.

Subcommands: gen, verify, factor, refine, rank-check, compound.  Output is
exact and textual (canonical polynomial strings or JSON); identical
command lines with identical seeds produce byte-identical output.

Exit codes: 0 all checks verified, 1 a mathematical check failed,
2 input/usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .domains import QQ
from .factor import (AlternatingMatrix, FactorizationCertificate,
                     GenericContext, factor_left, factor_right,
                     reverify_certificate, solve_common_refinement,
                     standard_symplectic, random_alternating,
                     theorem_main_guard)
from .identities import compound_det_check, run_modp_suite, run_symbolic_suite
from .matrix import Matrix
from .polyring import SYMBOLIC_CAP, ExactDivisionError
from .specialize import MultiplicityError, SpecPoint, lemma_rk_check

OK, CHECK_FAILED, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _matrix_text(m: Matrix) -> str:
    to = m.domain.to_json
    rows = ["[" + ", ".join(str(to(m[i, j])) for j in range(m.cols)) + "]"
            for i in range(m.rows)]
    return "[" + ", ".join(rows) + "]"


def _load_alternating(source: str, n: int, seed, bound: int) -> AlternatingMatrix:
    if source in ("symplectic", "J"):
        if n % 2:
            raise UsageError("the standard symplectic matrix needs even n")
        return standard_symplectic(n)
    if source == "random":
        if seed is None:
            raise UsageError("--seed is required with a random matrix")
        return random_alternating(n, seed, bound=bound)
    try:
        with open(source) as fh:
            obj = json.load(fh)
        alt = AlternatingMatrix.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load alternating matrix from {source!r}: {exc}")
    if alt.n != n:
        raise UsageError(f"matrix in {source!r} is {alt.n}x{alt.n}, expected n={n}")
    return alt


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    ctx = GenericContext(args.n, allow_large=args.allow_large)
    payload = {
        "n": args.n,
        "X": ctx.X.to_json(),
        "det": str(ctx.detX),
        "adj": ctx.adjX.to_json(),
    }
    _emit(args, payload, [
        f"X: {_matrix_text(ctx.X)}",
        f"det(X): {ctx.detX}",
        f"adj(X): {_matrix_text(ctx.adjX)}",
    ])
    return OK


def cmd_verify(args) -> int:
    if args.prime is not None:
        if args.seed is None:
            raise UsageError("--seed is required for mod-p verification")
        if args.n < 2:
            # its trials include order-2 compounds and rank n-1 samples
            raise UsageError("mod-p verification needs n >= 2")
        report = run_modp_suite(args.n, args.prime, args.trials, args.seed,
                                include_corrupted=args.negative_control)
    else:
        if args.seed is not None:
            raise UsageError("--seed goes with --prime: it seeds only the "
                             "mod-p trials, and symbolic verification draws "
                             "no random numbers")
        report = run_symbolic_suite(args.n,
                                    include_corrupted=args.negative_control,
                                    allow_large=args.allow_large)
    lines = [f"identity suite ({report['mode']}), n={args.n}:"]
    for rep in report["reports"]:
        status = "PASS" if rep["passed"] else "FAIL"
        suffix = " (negative control)" if rep.get("expected_failure") else ""
        lines.append(f"  {rep['identity']}: {status}{suffix}")
    lines.append(f"suite: {'PASS' if report['passed'] else 'FAIL'}")
    _emit(args, report, lines)
    return OK if report["passed"] else CHECK_FAILED


def cmd_factor(args) -> int:
    if args.n % 2:
        raise UsageError(
            f"n={args.n} is odd: the adjugate of the generic matrix admits "
            "no factorization into noninvertible factors for odd n")
    alt = _load_alternating(args.A, args.n, args.seed, args.bound)
    if not alt.invertible:
        raise UsageError("the alternating matrix must be invertible")
    ctx = GenericContext(args.n, allow_large=args.allow_large)
    try:
        if args.side == "right":
            cert = factor_right(ctx, alt)
        else:
            cert = factor_left(ctx, alt)
    except ExactDivisionError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    payload = cert.to_json()
    lines = [f"side={cert.side} d={cert.d} guard="
             f"{theorem_main_guard(cert.n, cert.d) if 0 < cert.d < cert.n - 1 else 'trivial'}"]
    lines += [f"  check {k}: {'ok' if v else 'FAILED'}"
              for k, v in cert.checks.items()]
    lines.append(json.dumps(payload, sort_keys=True))
    _emit(args, payload, lines)
    return OK if cert.passed else CHECK_FAILED


def cmd_refine(args) -> int:
    if args.n % 2:
        raise UsageError("refinement needs even n")
    alt = _load_alternating(args.A, args.n, args.seed, args.bound)
    # A' draws from the next seed, so two random matrices differ
    seed2 = None if args.seed is None else args.seed + 1
    alt2 = _load_alternating(args.Aprime, args.n, seed2, args.bound)
    if not (alt.invertible and alt2.invertible):
        raise UsageError("both alternating matrices must be invertible")
    ctx = GenericContext(args.n, allow_large=args.allow_large)
    witness = solve_common_refinement(ctx, alt, alt2)
    if witness is None:
        _emit(args, {"n": args.n, "result": "no_solution"},
              ["no solution: the coefficient-matching system is inconsistent"])
        return CHECK_FAILED
    payload = witness.to_json()
    lines = [f"r = {witness.r}",
             f"solution_space_dim = {witness.solution_space_dim}"]
    lines += [f"  check {k}: {'ok' if v else 'FAILED'}"
              for k, v in witness.checks.items()]
    lines.append(json.dumps(payload, sort_keys=True))
    _emit(args, payload, lines)
    return OK if witness.passed else CHECK_FAILED


def cmd_rank_check(args) -> int:
    try:
        with open(args.cert) as fh:
            cert_obj = json.load(fh)
        ctx = GenericContext(cert_obj["n"], allow_large=args.allow_large)
        cert = FactorizationCertificate.from_json(cert_obj, ctx)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load certificate: {exc}")
    try:
        with open(args.point) as fh:
            point_obj = json.load(fh)
        point = Matrix.from_json(point_obj, QQ)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load point: {exc}")
    revalidation = reverify_certificate(cert, ctx)
    if not revalidation["passed"]:
        _emit(args, revalidation,
              ["certificate failed re-verification:"] +
              [f"  {k}: {'ok' if v else 'FAILED'}"
               for k, v in revalidation["checks"].items()])
        return CHECK_FAILED
    pt = SpecPoint(point)
    try:
        report = lemma_rk_check(cert, pt)
    except MultiplicityError as exc:
        raise UsageError(str(exc))
    lines = [f"rank {k} = {v} (expected {report['expected'][k]})"
             for k, v in report["ranks"].items()]
    lines.append("constant-rank law: " + ("PASS" if report["holds"] else "FAIL"))
    _emit(args, report, lines)
    return OK if report["holds"] else CHECK_FAILED


def cmd_compound(args) -> int:
    if not 1 <= args.m <= args.n:
        raise UsageError(f"m must be within 1..{args.n}")
    ctx = GenericContext(args.n, allow_large=args.allow_large)
    cmp_m = ctx.X.compound(args.m)
    report = compound_det_check(ctx, args.m, cmp_m=cmp_m)
    payload = {"n": args.n, "m": args.m, "compound": cmp_m.to_json(),
               "det_check": report}
    lines = [f"compound(X,{args.m}): {cmp_m.rows}x{cmp_m.cols}",
             f"det check route={report['route']}: "
             + ("PASS" if report["passed"] else "FAIL")]
    _emit(args, payload, lines)
    return OK if report["passed"] else CHECK_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adjkit",
        description="Exact adjugate factorizations of the generic matrix")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--allow-large", action="store_true",
                       help=f"override the symbolic cap n <= {SYMBOLIC_CAP}")
        if seeded:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--bound", type=int, default=2,
                           help="entry bound for random constructions")

    p = sub.add_parser("gen", help="emit X, det(X), adj(X)")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, default=None,
                   help="verify by seeded random GF(p) evaluation")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--negative-control", action="store_true",
                   help="include the deliberately corrupted identity")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the mod-p trials; needs --prime")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("factor", help="factor adj(X) through an alternating matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--A", default="symplectic",
                   help="symplectic | random | path to a matrix JSON file")
    p.add_argument("--side", choices=("right", "left"), default="right")
    common(p, seeded=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("refine", help="solve adj(X) = A (r X^T + X^T W X^T) A'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--A", default="symplectic",
                   help="symplectic | random | path to a matrix JSON file; "
                        "random draws from --seed")
    p.add_argument("--Aprime", default="symplectic",
                   help="as --A; random draws from --seed + 1, so "
                        "--A random --Aprime random gives two matrices")
    common(p, seeded=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("rank-check",
                       help="constant-rank law of a certificate at a point")
    p.add_argument("--cert", required=True)
    p.add_argument("--point", required=True)
    common(p)
    p.set_defaults(func=cmd_rank_check)

    p = sub.add_parser("compound", help="compound matrix and its determinant law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_compound)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first ``main`` call: a
    parse leaves no state in it, so every request shares it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except ArithmeticError as exc:
        # a verified identity failed to verify: a defect, not a usage problem
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
