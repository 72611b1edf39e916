"""Specialization: the evaluation homomorphisms, valuation bounds, the
constant-rank law with its multiplicity-one hypothesis, projector points,
and the sampled subspace map."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from adjkit import (GF, QQ, ZZ, GenericContext, Matrix, MultiplicityError,
                    PolyRing, PolynomialDomain, ProjectorPoint, SpecPoint,
                    factor_left, factor_right, grassmann_map_sample,
                    lemma_rk_check, phi_apply, psi_apply, standard_symplectic,
                    sz_check, verify_dvr_bound, verify_ufd_bound)
from adjkit import matrix


@pytest.fixture(scope="module")
def certs(ctx4):
    j = standard_symplectic(4)
    return factor_right(ctx4, j), factor_left(ctx4, j)


def diag_point(*values):
    return SpecPoint(Matrix.diagonal(QQ, [Fraction(v) for v in values]))


def jordan_block_point(n):
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    return SpecPoint(Matrix.from_rows(QQ, [[Fraction(v) for v in r]
                                           for r in rows]))


def rand_mult1_point(rng, n):
    """B diag(0, r2..rn) B^-1 with nonzero r_i: multiplicity exactly 1."""
    while True:
        b = Matrix.from_rows(QQ, [[Fraction(rng.randint(-3, 3))
                                   for _ in range(n)] for _ in range(n)])
        if b.det() != 0:
            break
    diag = Matrix.diagonal(
        QQ, [Fraction(0)] + [Fraction(rng.choice([1, -1, 2, -2, 3]))
                             for _ in range(n - 1)])
    return SpecPoint(b * diag * b.inverse())


# ---------------------------------------------------------------------------
# phi and psi
# ---------------------------------------------------------------------------

def test_phi_sends_x_to_the_point(ctx3):
    rng = random.Random(0)
    a = Matrix.from_rows(QQ, [[Fraction(rng.randint(-5, 5)) for _ in range(3)]
                              for _ in range(3)])
    pt = SpecPoint(a)
    assert phi_apply(ctx3.X, pt) == a


def test_phi_of_adjugate_is_numeric_adjugate(ctx3):
    rng = random.Random(1)
    for _ in range(6):
        a = Matrix.from_rows(QQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                   for _ in range(3)] for _ in range(3)])
        assert phi_apply(ctx3.adjX, pt := SpecPoint(a)) == a.adjugate()
        assert phi_apply(ctx3.X * ctx3.adjX, pt) == a * a.adjugate()


def test_phi_is_multiplicative_on_matrices(ctx3):
    rng = random.Random(2)
    a = Matrix.from_rows(QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(3)]
                              for _ in range(3)])
    pt = SpecPoint(a)
    lhs = phi_apply(ctx3.adjX * ctx3.X, pt)
    assert lhs == phi_apply(ctx3.adjX, pt) * phi_apply(ctx3.X, pt)


def test_phi_det_identity(ctx3):
    pt = diag_point(2, 3, 4)
    det_i = ctx3.identity.scale(ctx3.detX)
    assert phi_apply(det_i, pt) == Matrix.identity(QQ, 3).scale(Fraction(24))


def test_phi_at_a_gfp_point_refuses_non_integral_coefficients():
    ring = PolyRing.generic(2, rational=True)
    pd = PolynomialDomain(ring)
    pt = SpecPoint(Matrix.from_rows(GF(7), [[1, 2], [3, 4]]))
    # x_1_1 / 2 at x_1_1 = 1 is 1/2, which has no image in GF(7)
    half = Matrix.from_rows(pd, [[ring.parse("1/2*x_1_1")]])
    with pytest.raises(ValueError,
                       match=r"non-integral coefficient 1/2 in a GF\(7\) ring"):
        phi_apply(half, pt)
    # an integral value maps as its integer: 4/2 * 4 + 1/3 * 1 + 2/3 = 9
    whole = Matrix.from_rows(pd, [[ring.parse("4/2*x_2_2 + 1/3*x_1_1 + 2/3")]])
    got = phi_apply(whole, pt)
    assert got.domain is GF(7) and got.entries == [2]


def test_phi_rejects_t():
    # the generic ring has no t; on a ring that does, neither phi nor psi
    # gives t a value
    ring = PolyRing(("x_1_1", "x_1_2", "x_2_1", "x_2_2", "t"))
    t_mat = Matrix.from_rows(PolynomialDomain(ring), [[ring.var("t"), ring.zero],
                                                      [ring.zero, ring.one]])
    for apply in (phi_apply, psi_apply):
        with pytest.raises(ValueError, match="no value for t"):
            apply(t_mat, diag_point(1, 2))


def test_phi_and_psi_refuse_gf_p_at_another_characteristic():
    # no ring map GF(7) -> QQ: 9 would reduce mod 7, but 1/2 has no residue
    ctx = GenericContext(2, p=7)
    pt = SpecPoint(Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(3)],
                                         [Fraction(5), Fraction(9)]]))
    for apply in (phi_apply, psi_apply):
        for m in (ctx.X, ctx.identity.scale(ctx.detX)):
            with pytest.raises(ValueError, match="modulus does not match"):
                apply(m, pt)
    at_gf7 = SpecPoint(Matrix.from_rows(GF(7), [[4, 3], [5, 9]]))
    assert phi_apply(ctx.X, at_gf7).entries == [4, 3, 5, 2]
    at_gf5 = SpecPoint(Matrix.from_rows(GF(5), [[4, 3], [5, 9]]))
    for apply in (phi_apply, psi_apply):
        with pytest.raises(ValueError, match="modulus does not match"):
            apply(ctx.X, at_gf5)


def test_psi_sends_x_to_shifted_point(ctx3):
    pt = diag_point(0, 1, 1)
    m = psi_apply(ctx3.X, pt)
    tring = m.domain.ring
    t = tring.var("t")
    assert m[0, 0] == t
    assert m[1, 1] == t + 1
    assert m[0, 1] == tring.zero


def test_psi_det_is_char_poly(ctx3):
    rng = random.Random(3)
    a = Matrix.from_rows(QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(3)]
                              for _ in range(3)])
    pt = SpecPoint(a)
    assert psi_apply(ctx3.X, pt).det() == pt.char_poly_shifted


def test_psi_then_t_to_zero_is_phi(ctx3):
    rng = random.Random(4)
    a = Matrix.from_rows(QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(3)]
                              for _ in range(3)])
    pt = SpecPoint(a)
    m = psi_apply(ctx3.adjX, pt)
    at_zero = m.map_entries(lambda e: Fraction(e.constant_term()), QQ)
    assert at_zero == phi_apply(ctx3.adjX, pt)


def test_psi_valuation_of_diag_0111(ctx4):
    pt = diag_point(0, 1, 1, 1)
    assert psi_apply(ctx4.X, pt).det().t_valuation() == 1


# ---------------------------------------------------------------------------
# valuation bounds
# ---------------------------------------------------------------------------

def tpoly_matrix(rows):
    tring = PolyRing(("t",))
    pd = PolynomialDomain(tring)
    t = tring.var("t")
    out = []
    for row in rows:
        out_row = []
        for (a, b) in row:
            out_row.append(tring.const(a) + t._scaled(b) if b else tring.const(a))
        out.append(out_row)
    return Matrix.from_rows(pd, out)


def test_dvr_bound_diagonal_examples():
    m = tpoly_matrix([[(0, 1), (0, 0)], [(0, 0), (1, 0)]])  # diag(t, 1)
    rep = verify_dvr_bound(m)
    assert rep == {"lemma": "dvr_valuation_bound", "n": 2,
                   "nullity_mod_t": 1, "det_valuation": 1, "holds": True}
    m2 = tpoly_matrix([[(0, 1), (0, 0)], [(0, 0), (0, 1)]])  # diag(t, t)
    rep2 = verify_dvr_bound(m2)
    assert rep2["nullity_mod_t"] == 2 and rep2["det_valuation"] == 2
    assert rep2["holds"]


def test_bounds_on_100_random_t_matrices():
    rng = random.Random(5)
    for _ in range(100):
        m = tpoly_matrix([[(rng.randint(-5, 5), rng.randint(-5, 5))
                           for _ in range(4)] for _ in range(4)])
        assert verify_dvr_bound(m)["holds"]
        assert verify_ufd_bound(m)["holds"]


def test_zero_determinant_valuation_is_infinite():
    m = tpoly_matrix([[(0, 1), (0, 1)], [(0, 1), (0, 1)]])
    assert m.det().t_valuation() == math.inf
    assert verify_dvr_bound(m)["holds"]  # inf >= anything


# ---------------------------------------------------------------------------
# multiplicity and the constant-rank law
# ---------------------------------------------------------------------------

def test_multiplicity_examples():
    assert diag_point(0, 1, 1, 1).zero_multiplicity == 1
    jb = jordan_block_point(4)
    assert jb.matrix.rank() == 3
    assert jb.zero_multiplicity == 4
    assert diag_point(2, 1, 1, 1).zero_multiplicity == 0


def test_rank_law_right_cert_at_diag(certs):
    cert_r, _ = certs
    rep = lemma_rk_check(cert_r, diag_point(0, 1, 1, 1))
    assert rep["ranks"] == {"Y": 2, "Z": 3, "XY": 1, "ZX": 2}
    assert rep["holds"]


def test_rank_law_left_cert_at_diag(certs):
    _, cert_l = certs
    rep = lemma_rk_check(cert_l, diag_point(0, 1, 1, 1))
    assert rep["ranks"] == {"Y": 3, "Z": 2, "XY": 2, "ZX": 1}
    assert rep["holds"]


def test_rank_law_checks_the_dimension_first(certs):
    cert_r, _ = certs
    # diag(0, 0, 1) has multiplicity 2, diag(0, 1, 1) multiplicity 1
    for pt in (diag_point(0, 0, 1), diag_point(0, 1, 1)):
        with pytest.raises(ValueError, match="point dimension") as info:
            lemma_rk_check(cert_r, pt)
        assert not isinstance(info.value, MultiplicityError)


def test_rank_law_rejects_jordan_block(certs):
    cert_r, _ = certs
    with pytest.raises(MultiplicityError):
        lemma_rk_check(cert_r, jordan_block_point(4))


def test_rank_law_at_random_points(certs):
    rng = random.Random(6)
    for cert in certs:
        for _ in range(8):
            rep = lemma_rk_check(cert, rand_mult1_point(rng, 4))
            assert rep["holds"], rep


def test_rank_sum_law(certs):
    # nullity(A) + nullity(Y0) + nullity(Z0) = n at multiplicity-1 points
    rng = random.Random(7)
    for cert in certs:
        for _ in range(5):
            pt = rand_mult1_point(rng, 4)
            y0 = phi_apply(cert.Y, pt)
            z0 = phi_apply(cert.Z, pt)
            total = (pt.matrix.nullity() + y0.nullity() + z0.nullity())
            assert total == 4


def test_valuation_law_matches_d(certs):
    rng = random.Random(8)
    for cert in certs:
        for _ in range(5):
            pt = rand_mult1_point(rng, 4)
            v = psi_apply(cert.Y, pt).det().t_valuation()
            assert v == cert.d


# ---------------------------------------------------------------------------
# projector points and the sampled subspace map
# ---------------------------------------------------------------------------

def unit(n, i):
    return [Fraction(1) if j == i else Fraction(0) for j in range(n)]


def test_projector_coordinate_case():
    pp = ProjectorPoint(unit(4, 0), [unit(4, 1), unit(4, 2), unit(4, 3)])
    expected = Matrix.diagonal(QQ, [Fraction(0), Fraction(1),
                                    Fraction(1), Fraction(1)])
    assert pp.E == expected


def test_projector_oblique_case():
    v = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    basis = [unit(4, 1), unit(4, 2), unit(4, 3)]
    pp = ProjectorPoint(v, basis)
    e = pp.E
    # kernel and fixed subspace, via the defining linear relations
    zero = [Fraction(0)] * 4
    assert [sum(e[i, j] * v[j] for j in range(4)) for i in range(4)] == zero
    for w in basis:
        assert [sum(e[i, j] * w[j] for j in range(4)) for i in range(4)] == w
    assert e * e == e
    assert e.rank() == 3
    assert pp.spec_point.zero_multiplicity == 1


def test_projector_rejects_dependent_inputs():
    with pytest.raises(ValueError):
        ProjectorPoint(unit(3, 0), [unit(3, 0), unit(3, 1)])


def test_projector_inverts_its_basis_with_one_reduction(monkeypatch):
    calls = []
    reduce = matrix._row_reduce

    def counting(*args, **kwargs):
        calls.append(args[1])
        return reduce(*args, **kwargs)

    monkeypatch.setattr(matrix, "_row_reduce", counting)
    v = [Fraction(1), Fraction(2), Fraction(0), Fraction(-1)]
    pp = ProjectorPoint(v, [unit(4, 1), unit(4, 2), unit(4, 3)])
    assert calls == [4]
    calls.clear()
    with pytest.raises(ValueError, match="linearly dependent"):
        ProjectorPoint(unit(3, 0), [unit(3, 0), unit(3, 1)])
    assert calls == [3]
    monkeypatch.undo()
    assert pp.E * pp.E == pp.E and pp.E.rank() == 3


def rand_projector(rng, n):
    while True:
        cols = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)]
        try:
            return ProjectorPoint(cols[0], cols[1:])
        except ValueError:
            continue


def test_grassmann_dimensions(certs):
    cert_r, cert_l = certs
    pp = ProjectorPoint(unit(4, 0), [unit(4, 1), unit(4, 2), unit(4, 3)])
    rep = grassmann_map_sample(cert_r, pp)
    assert rep["dimension"] == 1 and rep["holds"]
    rep = grassmann_map_sample(cert_l, pp)
    assert rep["dimension"] == 2 and rep["holds"]


def constant_cert():
    """A certificate stand-in with a constant Y: with E zeroing row 0, in
    E*Y column 0 is zero and column 2 is twice column 1."""
    ring = PolyRing.generic(4)
    y = Matrix.from_rows(PolynomialDomain(ring), [
        [ring.const(c) for c in row]
        for row in ([5, 1, 2, 0], [0, 1, 2, 0], [0, 0, 0, 1], [0, 3, 6, 1])])
    return SimpleNamespace(Y=y, n=4, d=1)


def test_grassmann_basis_is_the_pivot_columns():
    pp = ProjectorPoint(unit(4, 0), [unit(4, 1), unit(4, 2), unit(4, 3)])
    rep = grassmann_map_sample(constant_cert(), pp)
    assert rep["basis"] == [["0", "1", "0", "3"], ["0", "0", "1", "1"]]
    assert rep["dimension"] == 2 and rep["holds"]


def test_grassmann_sample_outside_the_basis_span_fails():
    # a planted fault: the basis of the hyperplane x_1 = 0 in place of the
    # projector's, which holds (0, 0, 1, 1) but not (0, 1, 0, 3)
    pp = ProjectorPoint(unit(4, 0), [unit(4, 1), unit(4, 2), unit(4, 3)])
    pp.basis = [unit(4, 0), unit(4, 2), unit(4, 3)]
    rep = grassmann_map_sample(constant_cert(), pp)
    assert rep["dimension"] == rep["expected_dimension"] == 2
    assert not rep["contained_in_complement"] and not rep["holds"]
    # while the hyperplane x_0 + 3 x_1 + x_2 = x_3 holds both
    pp.basis = [[1, 0, 0, 1], [0, 1, 0, 3], [0, 0, 1, 1]]
    assert grassmann_map_sample(constant_cert(), pp)["holds"]


def test_grassmann_random_samples(certs):
    rng = random.Random(9)
    for cert in certs:
        for _ in range(10):
            pp = rand_projector(rng, 4)
            rep = grassmann_map_sample(cert, pp)
            assert rep["holds"], rep


# ---------------------------------------------------------------------------
# sz_check plumbing
# ---------------------------------------------------------------------------

def test_sz_fundamental_clean():
    rep = sz_check("fundamental", 8, 2_147_483_647, 25, seed=7)
    assert rep["failures"] == []
    assert rep["passed"]


def test_sz_multiplicativity_clean():
    rep = sz_check("multiplicativity", 10, 2_147_483_647, 25, seed=7)
    assert rep["failures"] == []


def test_sz_corrupted_detected_fast():
    rep = sz_check("corrupted_adj_det", 3, 2_147_483_647, 5, seed=42)
    assert rep["expected_failure"]
    assert len(rep["failures"]) >= 1
    assert rep["failures"][0]["trial"] < 5


def test_sz_deterministic():
    a = sz_check("fundamental", 6, 31, 10, seed=3)
    b = sz_check("fundamental", 6, 31, 10, seed=3)
    assert a == b


def test_sz_unknown_identity():
    with pytest.raises(KeyError):
        sz_check("no_such_identity", 4, 31, 5, seed=0)
