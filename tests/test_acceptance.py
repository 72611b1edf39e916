"""Acceptance suite: one test per criterion, exact assertions throughout.

Every mathematical assertion is exact (tolerance zero).  Each criterion
prints a PASS line with its measured runtime; the stated runtime budgets
are soft targets on this hardware and a WARN line is printed when one is
exceeded (the exactness checks are never weakened).  Run with ``-s`` to see
the per-criterion lines.

The n = 6 stress factorization is opt-in: set ADJKIT_STRESS=1.
"""

import json
import math
import random
import time
from fractions import Fraction
from math import comb

import pytest

from adjkit import (GF, QQ, ZZ, AlternatingMatrix, GenericContext, Matrix,
                    MultiplicityError, PolyRing, PolynomialDomain,
                    ProjectorPoint, SpecPoint, factor_left, factor_right,
                    grassmann_map_sample, lemma_rk_check, phi_apply, psi_apply,
                    quotient_matrix, random_alternating,
                    solve_common_refinement, standard_symplectic, sz_check,
                    theorem_main_guard, verify_dvr_bound, verify_ufd_bound,
                    zero_alternating)
from adjkit.cli import main as cli_main
from adjkit.factor import FEASIBLE, INFEASIBLE_EXPONENT, INFEASIBLE_ODD
from adjkit.identities import compound_det_check

P31 = 2_147_483_647


@pytest.fixture(scope="module")
def actx():
    return {n: GenericContext(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def actx5():
    return GenericContext(5)


def finish(number, name, t0, budget=None):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")
    if budget is not None and elapsed > budget:
        print(f"ACCEPTANCE {number} WARN: runtime target {budget:.0f}s "
              f"exceeded on this hardware ({elapsed:.1f}s)")


def seeded_alternating(rng, n):
    m = Matrix.zeros(ZZ, n, n)
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(-5, 5)
            m.entries[i * n + j] = c
            m.entries[j * n + i] = -c
    return AlternatingMatrix(m)


def mult1_point(rng, n):
    while True:
        b = Matrix.from_rows(QQ, [[Fraction(rng.randint(-3, 3))
                                   for _ in range(n)] for _ in range(n)])
        if b.det() != 0:
            break
    diag = Matrix.diagonal(
        QQ, [Fraction(0)] + [Fraction(rng.choice([1, -1, 2, -2, 3]))
                             for _ in range(n - 1)])
    return SpecPoint(b * diag * b.inverse())


def test_criterion_01_fundamental_identities(actx, actx5):
    t0 = time.time()
    for n in (1, 2, 3, 4, 5):
        ctx = actx5 if n == 5 else actx[n]
        det_i = ctx.identity.scale(ctx.detX)
        assert ctx.X * ctx.adjX == det_i, f"n={n} right product"
        assert ctx.adjX * ctx.X == det_i, f"n={n} left product"
        # det(X)^(n-1) as the product det(X)^(n-2) * det(X), as
        # verify_fundamental passes it; det(X)^0 at n = 1
        factors = (ctx.det_power(n - 2), ctx.detX) if n > 1 else (ctx.ring.one,)
        assert ctx.adjX.det_equals(*factors), f"n={n} det law"
    finish(1, "fundamental identities n=1..5", t0, budget=5)


def test_criterion_02_multiplicativity_and_conjugation():
    t0 = time.time()
    from adjkit.factor import random_unimodular
    for n in (2, 3, 4):
        rng = random.Random(1000 + n)
        for _ in range(100):
            a = Matrix.from_rows(ZZ, [[rng.randint(-5, 5) for _ in range(n)]
                                      for _ in range(n)])
            b = Matrix.from_rows(ZZ, [[rng.randint(-5, 5) for _ in range(n)]
                                      for _ in range(n)])
            assert (a * b).adjugate() == b.adjugate() * a.adjugate()
        for _ in range(50):
            a = Matrix.from_rows(ZZ, [[rng.randint(-5, 5) for _ in range(n)]
                                      for _ in range(n)])
            u = random_unimodular(n, rng)
            u_inv = u.adjugate()
            assert (u * a * u_inv).adjugate() == u * a.adjugate() * u_inv
    finish(2, "adj multiplicativity + conjugation", t0, budget=5)


def test_criterion_03_sandwich_divisibility(actx, actx5):
    t0 = time.time()
    for n in (2, 3, 4, 5):
        ctx = actx5 if n == 5 else actx[n]
        rng = random.Random(2000 + n)
        alts = [zero_alternating(n)]
        if n % 2 == 0:
            alts.append(standard_symplectic(n))
        if n > 2:
            singular = Matrix.zeros(ZZ, n, n)
            singular.entries[1] = 1
            singular.entries[n] = -1
            alts.append(AlternatingMatrix(singular))
        while len(alts) < 10:
            alts.append(seeded_alternating(rng, n))
        assert len(alts) == 10
        for alt in alts:
            q = quotient_matrix(ctx, alt)  # raises on any failed division
            assert q.scale(ctx.detX) == ctx.adjX * ctx.lift(alt.matrix) \
                * ctx.adjX.transpose()
    finish(3, "sandwich divisibility by det(X)", t0, budget=60)


def test_criterion_04_factorization_certificates(actx):
    t0 = time.time()
    for n in (2, 4):
        ctx = actx[n]
        alts = [standard_symplectic(n)] + \
            [random_alternating(n, seed=s) for s in (11, 12, 13)]
        for alt in alts:
            c = alt.det
            cert_r = factor_right(ctx, alt)
            assert cert_r.Y * cert_r.Z == ctx.adjX
            assert cert_r.Y.det_laplace()._scaled(c) == ctx.det_power(n - 2)
            assert cert_r.Z.det_laplace() == ctx.detX._scaled(c)
            cert_l = factor_left(ctx, alt)
            assert cert_l.Y * cert_l.Z == ctx.adjX
            assert cert_l.Y.det_laplace() == ctx.detX._scaled(c)
            assert cert_l.Z.det_laplace()._scaled(c) == ctx.det_power(n - 2)
    # oracle for n=2, A=J: direct expansion gives Y = -J
    ctx2 = actx[2]
    j = standard_symplectic(2)
    cert = factor_right(ctx2, j)
    assert cert.Y == ctx2.lift(j.matrix).scale(ctx2.ring.const(-1))
    finish(4, "factorization certificates n=2,4", t0)


def test_criterion_05_rank_laws(actx):
    t0 = time.time()
    ctx = actx[4]
    j = standard_symplectic(4)
    certs = [factor_right(ctx, j), factor_left(ctx, j)]
    diag = SpecPoint(Matrix.diagonal(
        QQ, [Fraction(v) for v in (0, 1, 1, 1)]))
    rng = random.Random(500)
    points = [diag] + [mult1_point(rng, 4) for _ in range(20)]
    for cert in certs:
        for pt in points:
            rep = lemma_rk_check(cert, pt)
            assert rep["holds"], rep
    jordan = SpecPoint(Matrix.from_rows(
        QQ, [[Fraction(1) if j_ == i + 1 else Fraction(0) for j_ in range(4)]
             for i in range(4)]))
    with pytest.raises(MultiplicityError):
        lemma_rk_check(certs[0], jordan)
    finish(5, "constant-rank laws at 21 points + Jordan rejection", t0,
           budget=30)


def test_criterion_06_valuation_laws(actx):
    t0 = time.time()
    ctx = actx[4]
    j = standard_symplectic(4)
    certs = [factor_right(ctx, j), factor_left(ctx, j)]
    rng = random.Random(600)
    points = [SpecPoint(Matrix.diagonal(QQ, [Fraction(v) for v in (0, 1, 1, 1)]))]
    points += [mult1_point(rng, 4) for _ in range(20)]
    for cert in certs:
        for pt in points:
            assert psi_apply(cert.Y, pt).det().t_valuation() == cert.d
    tring = PolyRing(("t",))
    pd = PolynomialDomain(tring)
    t = tring.var("t")
    for _ in range(100):
        m = Matrix.from_rows(pd, [
            [tring.const(rng.randint(-5, 5)) + t._scaled(rng.randint(-5, 5))
             if rng.randint(0, 9) else tring.const(rng.randint(-5, 5))
             for _ in range(4)] for _ in range(4)])
        assert verify_dvr_bound(m)["holds"]
        assert verify_ufd_bound(m)["holds"]
    finish(6, "t-adic valuation laws", t0, budget=30)


def test_criterion_07_grassmann_samples(actx):
    t0 = time.time()
    ctx = actx[4]
    j = standard_symplectic(4)
    rng = random.Random(700)
    for cert in (factor_right(ctx, j), factor_left(ctx, j)):
        done = 0
        while done < 20:
            cols = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                    for _ in range(4)]
            try:
                pp = ProjectorPoint(cols[0], cols[1:])
            except ValueError:
                continue
            rep = grassmann_map_sample(cert, pp)
            assert rep["dimension"] == 4 - 1 - cert.d
            assert rep["contained_in_complement"]
            done += 1
    finish(7, "sampled subspace map dimensions + containment", t0, budget=30)


def test_criterion_08_refinement(actx):
    t0 = time.time()
    ctx2, ctx4 = actx[2], actx[4]
    j2 = standard_symplectic(2)
    w2 = solve_common_refinement(ctx2, j2, j2)
    assert w2 is not None and w2.passed
    assert w2.r == w2.r.ring.const(-1)
    assert all(e.is_zero() for e in w2.W.entries)
    j4 = standard_symplectic(4)
    w4 = solve_common_refinement(ctx4, j4, j4)
    assert w4 is not None
    assert w4.checks["back_multiplication"]
    assert w4.passed
    finish(8, "common refinement n=2 (r=-1, W=0) and n=4", t0, budget=60)


def test_criterion_09_compound_identities(actx, actx5):
    t0 = time.time()
    for n in (2, 3, 4, 5):
        ctx = actx5 if n == 5 else actx[n]
        for m in range(1, n + 1):
            rep = compound_det_check(ctx, m)
            assert rep["passed"], rep
            # the criterion names the complementary product; assert it
            # here as well as through the report's complement_product
            cmp_m = ctx.X.compound(m)
            d = ctx.X.complementary_compound(m)
            ident = Matrix.identity(ctx.domain, comb(n, m)).scale(ctx.detX)
            assert cmp_m * d.transpose() == ident, (n, m)
    finish(9, "compound determinant + complementary product, n<=5", t0,
           budget=120)


def test_criterion_10_guard_table_and_cli(capsys, tmp_path):
    t0 = time.time()
    for n in range(2, 9):
        for d in range(0, n):
            got = theorem_main_guard(n, d)
            if not 0 < d < n - 1:
                assert got == INFEASIBLE_EXPONENT
            elif n % 2:
                assert got == INFEASIBLE_ODD
            else:
                assert got == (FEASIBLE if d in (1, n - 2)
                               else INFEASIBLE_EXPONENT)

    def cli(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    assert cli("gen", "--n", "2")[0] == 0
    assert cli("gen", "--n", "7")[0] == 2
    assert cli("verify", "--n", "3")[0] == 0
    assert cli("verify", "--n", "3", "--negative-control")[0] == 1
    code, cert_out = cli("factor", "--n", "4", "--A", "symplectic",
                         "--format", "json")
    assert code == 0
    assert cli("factor", "--n", "3", "--A", "symplectic")[0] == 2
    assert cli("refine", "--n", "2", "--A", "J", "--Aprime", "J")[0] == 0
    assert cli("compound", "--n", "3", "--m", "2")[0] == 0

    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert_out)
    good_pt = tmp_path / "good.json"
    good_pt.write_text(json.dumps(
        {"rows": 4, "cols": 4,
         "entries": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}))
    jordan_pt = tmp_path / "jordan.json"
    jordan_pt.write_text(json.dumps(
        {"rows": 4, "cols": 4,
         "entries": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]}))
    assert cli("rank-check", "--cert", str(cert_path),
               "--point", str(good_pt))[0] == 0
    assert cli("rank-check", "--cert", str(cert_path),
               "--point", str(jordan_pt))[0] == 2
    tampered = json.loads(cert_out)
    tampered["Y"]["entries"][0][0] = "x_1_1^2"
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    assert cli("rank-check", "--cert", str(bad_path),
               "--point", str(good_pt))[0] == 1
    assert cli("refine", "--n", "2", "--A", str(tmp_path / "missing.json"),
               "--Aprime", "J")[0] == 2
    finish(10, "feasibility guard table + CLI exit-code matrix", t0)


def test_criterion_11_modp_corroboration():
    t0 = time.time()
    identities = ["fundamental", "multiplicativity", "conjugation",
                  "sandwich_divisibility", "factor_product", "compound_det"]
    for n in (8, 10):
        for i, name in enumerate(identities):
            rep = sz_check(name, n, P31, trials=50, seed=1100 + i)
            assert rep["failures"] == [], rep
    control = sz_check("corrupted_adj_det", 3, P31, trials=5, seed=42)
    assert control["failures"], "injected bug was not detected"
    finish(11, "mod-p corroboration n=8,10 + injected-bug control", t0,
           budget=60)


@pytest.mark.stress
def test_stress_n6_factorization():
    """Opt-in n=6 certificates on both sides: exact product and linear
    factor laws, and the quotient factor's law derived from them.  The
    t-valuation law and mod-p evaluation of det(Y) stay as independent
    oracles of the derived law."""
    t0 = time.time()
    ctx = GenericContext(6)
    j = standard_symplectic(6)
    cert = factor_right(ctx, j)
    assert cert.checks == {"product": True, "det_y_exponent": True,
                           "det_z": True}
    assert cert.Y * cert.Z == ctx.adjX
    assert cert.Z.det_laplace() == ctx.detX  # det(A) = 1
    cert_l = factor_left(ctx, j)
    assert cert_l.checks == {"product": True, "det_y": True,
                             "det_z_exponent": True}
    assert cert_l.Y * cert_l.Z == ctx.adjX
    assert cert_l.Y.det_laplace() == ctx.detX
    pt = SpecPoint(Matrix.diagonal(QQ, [Fraction(v)
                                        for v in (0, 1, 1, 1, 1, 1)]))
    assert psi_apply(cert.Y, pt).det().t_valuation() == cert.d == 4
    assert psi_apply(cert_l.Y, pt).det().t_valuation() == cert_l.d == 1
    for c in (cert, cert_l):
        rep = lemma_rk_check(c, pt)
        assert rep["holds"], rep
    rng = random.Random(66)
    dom = GF(P31)
    for _ in range(10):
        b = Matrix.from_rows(dom, [[rng.randrange(P31) for _ in range(6)]
                                   for _ in range(6)])
        y0 = phi_apply(cert.Y, SpecPoint(b))
        assert y0.det() == pow(b.det(), 4, P31)
    finish("stress", "n=6 factorizations (<10 min budget)", t0, budget=600)
