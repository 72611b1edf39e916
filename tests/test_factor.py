"""Factorization core: generic contexts, the feasibility guard, alternating
matrices, sandwich divisibility, both factorization sides, the diagonal
factorization, and the common refinement with its closed form, checked
against the coefficient-matching solver it replaced."""

import json
import random
from dataclasses import replace
from itertools import combinations
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from adjkit import (AlternatingMatrix, ExactDivisionError,
                    FactorizationCertificate, GenericContext, Matrix, QQ, ZZ,
                    diagonal_factorization, factor_left, factor_right,
                    quotient_matrix, random_alternating,
                    reverify_certificate, sandwich, solve_common_refinement,
                    standard_symplectic, theorem_main_guard,
                    verify_fundamental, zero_alternating)
from adjkit import factor
from adjkit.domains import PolynomialDomain
from adjkit.factor import (FEASIBLE, INFEASIBLE_EXPONENT, INFEASIBLE_ODD,
                           RefinementWitness)
from adjkit.matrix import _row_reduce, lift_int_matrix
from adjkit.polyring import PolyRing, Polynomial, aligned


# ---------------------------------------------------------------------------
# generic context and fundamental identities
# ---------------------------------------------------------------------------

def test_make_generic_n2(ctx2):
    assert str(ctx2.detX) == "x_1_1*x_2_2 - x_1_2*x_2_1"
    adj = ctx2.adjX
    r = ctx2.ring
    assert adj.to_rows() == [
        [r.var("x_2_2"), -r.var("x_1_2")],
        [-r.var("x_2_1"), r.var("x_1_1")],
    ]


def test_make_generic_n1():
    ctx = GenericContext(1)
    assert ctx.detX == ctx.ring.var("x_1_1")
    assert ctx.adjX.to_rows() == [[ctx.ring.one]]


def test_make_generic_n3_adj_det(ctx3):
    assert ctx3.adjX.det_laplace() == ctx3.det_power(2)


def test_make_generic_cap():
    with pytest.raises(ValueError):
        GenericContext(7)


def test_verify_fundamental(ctx2, ctx3, ctx4):
    for ctx in (ctx2, ctx3, ctx4):
        report = verify_fundamental(ctx)
        assert report["passed"], report


def test_verify_fundamental_reports_the_constructor_products(monkeypatch):
    ctx = GenericContext(3)
    assert ctx.products == {"right_product": True, "left_product": True}
    calls = []
    mul = Matrix.__mul__

    def counting(self, other):
        calls.append((self.rows, other.cols))
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    report = verify_fundamental(ctx)
    # the two products were built and compared once, in the constructor
    assert calls == []
    assert list(report["checks"]) == ["right_product", "left_product",
                                      "adj_det_exponent"]
    assert report["passed"], report


def laplace_calls(monkeypatch, answer=None):
    """Wrap both names of the Laplace kernel; the list of the ``expect``
    each call gets.  Given ``answer``, a call returns it without running."""
    from adjkit import kernels
    calls = []
    for name in ("det_laplace_terms", "packed_det_laplace"):
        def kernel(rows, p=0, expect=None, _real=getattr(kernels, name)):
            calls.append(expect)
            return _real(rows, p, expect) if answer is None else answer
        monkeypatch.setattr(kernels, name, kernel)
    return calls


def test_det_law_is_decided_inside_the_laplace_kernel(monkeypatch):
    """det(adj X) is never built: det_equals hands det(X)^(n-2) and det(X)
    to the kernel as the pair ``expect``, which it multiplies itself.  No
    product that verify_fundamental runs yields det(X)^(n-1).  Its negative
    control, det(X)^n, has a degree no term of det(adj X) reaches, so it is
    refused with no kernel call and no product."""
    from adjkit import identities, kernels
    ctx = GenericContext(4)
    dets, products = [], []
    det_laplace = Matrix.det_laplace

    def counting_det(self):
        dets.append(self)
        return det_laplace(self)

    monkeypatch.setattr(Matrix, "det_laplace", counting_det)
    expects = laplace_calls(monkeypatch)
    for name in ("mul_terms", "packed_mul_terms"):
        def mul(a, b, p=0, _real=getattr(kernels, name)):
            products.append(out := _real(a, b, p))
            return out
        monkeypatch.setattr(kernels, name, mul)
    assert verify_fundamental(ctx)["passed"]
    law_products = list(products)
    control = identities._sym_corrupted(ctx)
    assert products == law_products
    assert not any(m is ctx.adjX for m in dets)
    assert expects == [(ctx.det_power(2).packed, ctx.detX.packed)]
    cube = ctx.det_power(3).packed
    assert law_products and all(out != cube for out in law_products)
    assert control == {"identity": "corrupted_adj_det", "n": 4,
                       "checks": {"wrong_exponent_holds": False},
                       "passed": False, "expected_failure": True}


@pytest.mark.parametrize("p", [None, 3])
def test_det_equals_refuses_a_degree_too_high_without_the_kernel(
        monkeypatch, p):
    """adj(X) at n = 3 has rows of degree 2, so no term of its determinant
    has a degree above 6.  Nonzero factors of a higher degree, one or a
    pair, are False with no kernel call.  A zero factor still goes to the
    kernel, since 0 may be the determinant, and so does a degree at the
    bound."""
    ctx = GenericContext(3, p=p)
    adj, det, zero = ctx.adjX, ctx.detX, ctx.ring.zero
    x = ctx.ring.var("x_1_1")
    calls = laplace_calls(monkeypatch)
    assert not adj.det_equals(ctx.det_power(3))
    assert not adj.det_equals(ctx.det_power(2), x)
    assert not adj.det_equals(det, ctx.det_power(2))
    assert calls == []
    singular = Matrix.from_rows(ctx.domain, [[x, x], [x, x]])
    assert singular.det_equals(ctx.det_power(3), zero)
    assert not adj.det_equals(ctx.det_power(3), zero)
    assert adj.det_equals(det, det)
    assert not adj.det_equals(det, det + x * x)
    assert len(calls) == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_det_law_at_the_degree_bound_goes_to_the_kernel(
        monkeypatch, n, ctx3, ctx4, ctx5):
    """det(X)^(n-2) * det(X) has degree n(n-1), the sum of the degrees of
    adj(X)'s rows: the bound itself, so the kernel decides the law (here a
    stand-in that answers True without expanding)."""
    ctx = {3: ctx3, 4: ctx4, 5: ctx5}[n]
    law = (ctx.det_power(n - 2), ctx.detX)
    rows = sum(max(e.total_degree() for e in row)
               for row in ctx.adjX.to_rows())
    assert rows == sum(f.total_degree() for f in law) == n * (n - 1)
    calls = laplace_calls(monkeypatch, answer=True)
    assert ctx.adjX.det_equals(*law)
    assert calls == [tuple(f.packed for f in law)]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_negative_control_is_refused_by_degree(monkeypatch, n, ctx2,
                                                   ctx3, ctx5):
    """det(adj X) = det(X)^n fails at every n, from the degrees alone: at
    n = 1 det(X) has degree 1 against adj(X) = [1]."""
    from adjkit import identities
    ctx = {1: GenericContext(1), 2: ctx2, 3: ctx3, 5: ctx5}[n]
    calls = laplace_calls(monkeypatch)
    control = identities._sym_corrupted(ctx)
    assert calls == []
    assert control == {"identity": "corrupted_adj_det", "n": n,
                       "checks": {"wrong_exponent_holds": False},
                       "passed": False, "expected_failure": True}


def test_det_equals_takes_one_factor_or_two(ctx2, ctx3):
    """det(adj X) = det(X)^2 at n = 3 as one polynomial or as a product,
    in either order; a wrong product, a zero factor and another ring are
    refused as with one factor."""
    adj, det = ctx3.adjX, ctx3.detX
    assert adj.det_equals(ctx3.det_power(2))
    assert adj.det_equals(det, det) and adj.det_equals(ctx3.ring.one, det * det)
    assert not adj.det_equals(det, ctx3.det_power(2))
    assert not adj.det_equals(det, ctx3.ring.zero)
    assert not adj.det_equals(det, det + ctx3.ring.one)
    with pytest.raises(ValueError):
        adj.det_equals(det, ctx2.detX)
    with pytest.raises(TypeError):
        Matrix.identity(ZZ, 2).det_equals(ctx2.detX, ctx2.detX)


def test_det_equals_raises_as_det_laplace_does(ctx2, ctx3):
    with pytest.raises(ValueError):
        ctx3.adjX.submatrix([0, 1], [0, 1, 2]).det_equals(ctx3.detX)
    with pytest.raises(ValueError):     # another ring
        ctx3.adjX.det_equals(ctx2.detX)
    with pytest.raises(TypeError):
        Matrix.identity(ZZ, 2).det_equals(ctx2.detX)
    empty = ctx3.adjX.submatrix([], [])
    assert empty.det_equals(ctx3.ring.one)
    assert not empty.det_equals(ctx3.ring.zero)
    assert not empty.det_equals(ctx3.detX)


def test_entries_are_the_named_variables(ctx3):
    for i in range(3):
        for j in range(3):
            assert ctx3.X[i, j] == ctx3.ring.var(f"x_{i + 1}_{j + 1}")


# ---------------------------------------------------------------------------
# feasibility guard
# ---------------------------------------------------------------------------

def test_guard_examples():
    assert theorem_main_guard(3, 1) == INFEASIBLE_ODD
    assert theorem_main_guard(4, 2) == FEASIBLE
    assert theorem_main_guard(6, 3) == INFEASIBLE_EXPONENT


def test_guard_table_up_to_8():
    for n in range(2, 9):
        for d in range(-1, n + 2):
            got = theorem_main_guard(n, d)
            if not 0 < d < n - 1:
                assert got == INFEASIBLE_EXPONENT, (n, d)
            elif n % 2:
                assert got == INFEASIBLE_ODD, (n, d)
            elif d in (1, n - 2):
                assert got == FEASIBLE, (n, d)
            else:
                assert got == INFEASIBLE_EXPONENT, (n, d)


def test_guard_rejects_tiny_n():
    with pytest.raises(ValueError):
        theorem_main_guard(1, 0)


# ---------------------------------------------------------------------------
# alternating matrices
# ---------------------------------------------------------------------------

def test_standard_symplectic():
    j2 = standard_symplectic(2)
    assert j2.matrix.to_rows() == [[0, 1], [-1, 0]]
    j4 = standard_symplectic(4)
    assert j4.det == 1
    jm = j4.matrix
    assert jm.transpose() == -jm
    assert jm * jm == Matrix.identity(ZZ, 4).scale(-1)
    with pytest.raises(ValueError):
        standard_symplectic(3)


def test_alternating_validation():
    with pytest.raises(ValueError):
        AlternatingMatrix.from_rows([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        AlternatingMatrix.from_rows([[0, 1], [1, 0]])
    zero = zero_alternating(3)
    assert not zero.invertible


def test_random_alternating_deterministic():
    a1 = random_alternating(4, seed=7)
    a2 = random_alternating(4, seed=7)
    assert a1.matrix == a2.matrix
    assert a1.matrix.to_json() == a2.matrix.to_json()
    b = random_alternating(4, seed=8)
    assert b.matrix != a1.matrix


def list_unimodular(n, rng, bound=2):
    """random_unimodular as it drew its shears: rng.choice from the list of
    nonzero integers in [-bound, bound]."""
    m = Matrix.identity(ZZ, n)
    if n == 1:
        return m
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        c = rng.choice([k for k in range(-bound, bound + 1) if k])
        for col in range(n):
            m.entries[i * n + col] += c * m.entries[j * n + col]
    return m


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 1000])
def test_random_unimodular_draws_as_the_list_choice_did(bound):
    for seed in range(20):
        for n in (1, 2, 4):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = factor.random_unimodular(n, got_rng, bound)
            want = list_unimodular(n, want_rng, bound)
            assert got.entries == want.entries
            # the same stream is left for the next draw
            assert got_rng.random() == want_rng.random()


def test_random_unimodular_at_a_huge_bound_builds_no_list():
    # a list of 2 * 10**12 candidates would not fit in memory
    m = factor.random_unimodular(4, random.Random(1), bound=10**12)
    assert m.det_bareiss() == 1
    assert max(map(abs, m.entries)) > 10**6


def test_random_alternating_properties():
    for seed in range(6):
        a = random_alternating(4, seed=seed)
        m = a.matrix
        assert m.transpose() == -m
        assert all(m[i, i] == 0 for i in range(4))
        assert m.det_bareiss() == 1  # S^T J S with unimodular S


# ---------------------------------------------------------------------------
# sandwich and quotient
# ---------------------------------------------------------------------------

def test_sandwich_n2_is_det_times_j(ctx2):
    # oracle: M J M^T = det(M) J for any 2x2 M, applied to M = adj(X)
    j = standard_symplectic(2)
    s = sandwich(ctx2, j)
    assert s == ctx2.lift(j.matrix).scale(ctx2.detX)
    d = ctx2.detX
    assert s.to_rows() == [[ctx2.ring.zero, d], [-d, ctx2.ring.zero]]


def test_sandwich_singular_alternating_n3(ctx3):
    a = AlternatingMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    q = quotient_matrix(ctx3, a)  # raises if any entry fails to divide
    assert q.scale(ctx3.detX) == sandwich(ctx3, a)


def test_sandwich_zero_matrix(ctx4):
    z = zero_alternating(4)
    s = sandwich(ctx4, z)
    assert all(e.is_zero() for e in s.entries)
    assert quotient_matrix(ctx4, z) == Matrix.zeros(ctx4.domain, 4, 4)


def random_alternating_rows(rng, n, bound=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(-bound, bound)
            rows[i][j], rows[j][i] = c, -c
    return rows


def test_sandwich_divisibility_random_alternating(ctx3, ctx4):
    rng = random.Random(13)
    for ctx in (ctx3, ctx4):
        for _ in range(4):
            rows = random_alternating_rows(rng, ctx.n)
            quotient_matrix(ctx, AlternatingMatrix.from_rows(rows))


def test_quotient_n2_is_j(ctx2):
    j = standard_symplectic(2)
    assert quotient_matrix(ctx2, j) == ctx2.lift(j.matrix)


def test_quotient_specializes_to_scaled_inverse_sandwich(ctx4):
    # at B with det(B) != 0: Q(B) = det(B) * B^-1 * A * B^-T, exact rationals
    from fractions import Fraction

    from adjkit import SpecPoint, phi_apply
    j = standard_symplectic(4)
    q = quotient_matrix(ctx4, j)
    rng = random.Random(14)
    for _ in range(5):
        b = Matrix.from_rows(QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(4)]
                                  for _ in range(4)])
        det = b.det()
        if det == 0:
            continue
        jq = j.matrix.map_entries(Fraction, QQ)
        binv = b.inverse()
        expect = (binv * jq * binv.transpose()).scale(det)
        assert phi_apply(q, SpecPoint(b)) == expect


def full_sandwich(left, b):
    """The oracle: the whole triple product L * B * L^T."""
    return left * b * left.transpose()


def divided(s, divisor):
    """The oracle: every entry of s divided exactly by divisor."""
    return s.map_entries(lambda e: e.exact_div_or_raise(divisor))


def is_alternating(m):
    return (m.transpose() == -m
            and all(m[i, i].is_zero() for i in range(m.rows)))


def oracle_cases(n):
    """Seeded random alternating A, the zero A and a singular nonzero A."""
    rng = random.Random(100 + n)
    singular = [[0] * n for _ in range(n)]
    singular[0][n - 1], singular[n - 1][0] = 3, -3
    return [AlternatingMatrix.from_rows(random_alternating_rows(rng, n)),
            zero_alternating(n), AlternatingMatrix.from_rows(singular)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sandwich_and_quotient_match_the_full_product(request, n):
    ctx = request.getfixturevalue(f"ctx{n}")
    for alt in oracle_cases(n):
        full = full_sandwich(ctx.adjX, ctx.lift(alt.matrix))
        s, q = sandwich(ctx, alt), quotient_matrix(ctx, alt)
        assert s == full
        assert q == divided(full, ctx.detX)
        assert is_alternating(s) and is_alternating(q)


def scaled_alternating_cases():
    """2J (det 16) and 3 * S^T J S (det 81): det(A) is not a unit of ZZ."""
    return [AlternatingMatrix(standard_symplectic(4).matrix.scale(2)),
            AlternatingMatrix(random_alternating(4, seed=5).matrix.scale(3))]


@pytest.mark.parametrize("p", [31, 2_147_483_647])
def test_factor_quotients_match_the_division_oracle(p):
    # over GF(p) det(A) is invertible, so both quotient factors exist and
    # the division by det(A) * det(X) is exercised on both sides
    ctx = GenericContext(4, p=p)
    for alt in scaled_alternating_cases():
        adj_a = ctx.lift(alt.matrix.adjugate())
        divisor = ctx.detX._scaled(ctx.ring.coeff(alt.det))
        right, left = factor_right(ctx, alt), factor_left(ctx, alt)
        assert right.Y == divided(full_sandwich(ctx.adjX, adj_a), divisor)
        assert left.Z == divided(
            full_sandwich(ctx.adjX.transpose(), adj_a), divisor)
        assert is_alternating(right.Y) and is_alternating(left.Z)


def test_factor_over_zz_refuses_a_non_unit_det_a(ctx4):
    # Y = adj(X) * A^-1 * adj(X)^T / det(X) has a non-integral coefficient
    # when det(A) is not +-1: the oracle's division fails as the routine's
    for alt in scaled_alternating_cases():
        adj_a = ctx4.lift(alt.matrix.adjugate())
        divisor = ctx4.detX._scaled(alt.det)
        for left, side in ((ctx4.adjX, factor_right),
                           (ctx4.adjX.transpose(), factor_left)):
            with pytest.raises(ExactDivisionError):
                divided(full_sandwich(left, adj_a), divisor)
            with pytest.raises(ExactDivisionError):
                side(ctx4, alt)


def test_alternating_routines_read_the_upper_triangle(ctx3):
    # a B that is not alternating and an S whose lower entries do not
    # divide: the results are built from the entries above the diagonal
    ring, n = ctx3.ring, 3
    b = ctx3.lift(Matrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
    s = factor._alternating_sandwich(ctx3.adjX, b)
    full = full_sandwich(ctx3.adjX, b)
    d = ctx3.detX
    for i in range(n):
        assert s[i, i].is_zero()
        for j in range(i + 1, n):
            assert s[i, j] == full[i, j] and s[j, i] == -full[i, j]
    lower = Matrix(ctx3.domain, n, n, [
        d._scaled(i * n + j + 1) if i < j else ring.one
        for i in range(n) for j in range(n)])
    q = factor._alternating_quotient(lower, d)
    assert q.to_rows() == [[ring.zero, ring.const(2), ring.const(3)],
                           [ring.const(-2), ring.zero, ring.const(6)],
                           [ring.const(-3), ring.const(-6), ring.zero]]


def count_exact_divisions(monkeypatch, compute):
    """(compute(), the number of Polynomial.exact_div calls it made)."""
    calls = []
    exact_div = Polynomial.exact_div

    def counting(self, divisor):
        calls.append(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(Polynomial, "exact_div", counting)
    out = compute()
    monkeypatch.undo()
    return out, len(calls)


def test_quotients_divide_only_above_the_diagonal(monkeypatch, ctx4):
    # C(4, 2) = 6 divisions per quotient matrix, not 16
    alt = random_alternating(4, seed=2)
    q, calls = count_exact_divisions(
        monkeypatch, lambda: quotient_matrix(ctx4, alt))
    assert calls == 6
    assert q == divided(sandwich(ctx4, alt), ctx4.detX)
    for side in (factor_right, factor_left):
        cert, calls = count_exact_divisions(monkeypatch,
                                            lambda: side(ctx4, alt))
        assert calls == 6
        assert cert.passed


# ---------------------------------------------------------------------------
# factorization certificates
# ---------------------------------------------------------------------------

def test_factor_right_n2_yields_minus_j(ctx2):
    j = standard_symplectic(2)
    cert = factor_right(ctx2, j)
    neg_j = ctx2.lift(j.matrix).scale(ctx2.ring.const(-1))
    assert cert.Y == neg_j
    assert cert.Z == ctx2.X.transpose() * ctx2.lift(j.matrix)
    assert cert.d == 0
    assert cert.passed


def test_factor_left_n2(ctx2):
    j = standard_symplectic(2)
    cert = factor_left(ctx2, j)
    assert cert.Y == ctx2.lift(j.matrix) * ctx2.X.transpose()
    assert cert.Y * cert.Z == ctx2.adjX
    assert cert.d == 1


def test_factor_right_n4_exponents(ctx4):
    j = standard_symplectic(4)
    cert = factor_right(ctx4, j)
    assert cert.d == 2
    assert cert.Y.det_laplace() == ctx4.det_power(2)   # det(A) = 1
    assert cert.Z.det_laplace() == ctx4.detX
    assert cert.checks == {"product": True, "det_y_exponent": True,
                           "det_z": True}


def test_factor_left_n4(ctx4):
    j = standard_symplectic(4)
    cert = factor_left(ctx4, j)
    assert cert.d == 1
    assert cert.Y * cert.Z == ctx4.adjX
    assert cert.Y.det_laplace() == ctx4.detX
    assert cert.Z.det_laplace() == ctx4.det_power(2)


def test_factor_random_alternating_n4(ctx4):
    for seed in (1, 2, 3):
        alt = random_alternating(4, seed=seed)
        for side in (factor_right, factor_left):
            cert = side(ctx4, alt)
            assert cert.passed
            assert cert.Y * cert.Z == ctx4.adjX


def test_factor_exponent_law_combines(ctx4):
    # det(Y) * det(Z) = det(X)^(n-1), consistent with det(adj X)
    j = standard_symplectic(4)
    cert = factor_right(ctx4, j)
    assert cert.Y.det_laplace() * cert.Z.det_laplace() == ctx4.det_power(3)


def test_factor_guard_consistency(ctx4):
    # nontrivial certificates (n >= 4) land in the guard's feasible cell
    j = standard_symplectic(4)
    for cert in (factor_right(ctx4, j), factor_left(ctx4, j)):
        assert theorem_main_guard(cert.n, cert.d) == FEASIBLE


def test_factor_rejects_bad_inputs(ctx3, ctx4):
    j4 = standard_symplectic(4)
    with pytest.raises(ValueError):
        factor_right(ctx3, j4)
    with pytest.raises(ValueError):
        factor_right(ctx4, zero_alternating(4))


@pytest.mark.parametrize("p", [2, 3])
def test_factor_refuses_an_alternating_matrix_singular_mod_p(p):
    # det(pJ) = p^4 is nonzero over ZZ and zero over GF(p): the guard tests
    # it in the context's coefficients, before any division by det(A)
    ctx = GenericContext(4, p=p)
    j = standard_symplectic(4)
    singular = AlternatingMatrix(j.matrix.scale(p))
    for side in (factor_right, factor_left):
        with pytest.raises(ValueError, match="must be invertible"):
            side(ctx, singular)
        cert = side(ctx, j)
        assert cert.passed
        assert reverify_certificate(cert, ctx)["passed"]


def test_transpose_duality(ctx4):
    # relabeling x_ij -> x_ji turns a right certificate into the left
    # certificate of -A: transpose adj(X) = Y (X^T A), apply the swap, and
    # the leading factor becomes (-A) X^T
    j = standard_symplectic(4)
    cert_r = factor_right(ctx4, j)
    ring = ctx4.ring
    swap = {f"x_{i}_{j_}": ring.var(f"x_{j_}_{i}")
            for i in range(1, 5) for j_ in range(1, 5)}
    tau = lambda poly: ctx4.domain.coerce(poly.evaluate(swap))
    y_t = cert_r.Y.map_entries(tau).transpose()
    neg_alt = AlternatingMatrix(-j.matrix)
    cert_l = factor_left(ctx4, neg_alt)
    assert cert_l.Z == y_t
    assert cert_l.Y * y_t == ctx4.adjX


def test_certificate_json_round_trip(ctx4):
    j = standard_symplectic(4)
    cert = factor_right(ctx4, j)
    blob = json.dumps(cert.to_json(), sort_keys=True)
    loaded = FactorizationCertificate.from_json(json.loads(blob), ctx4)
    assert loaded.Y == cert.Y and loaded.Z == cert.Z
    assert loaded.d == cert.d and loaded.side == cert.side
    report = reverify_certificate(loaded, ctx4)
    assert report["passed"], report


def test_tampered_certificate_detected(ctx4):
    j = standard_symplectic(4)
    cert = factor_right(ctx4, j)
    obj = cert.to_json()
    obj["Y"]["entries"][0][0] = "x_1_1^2"
    loaded = FactorizationCertificate.from_json(obj, ctx4)
    report = reverify_certificate(loaded, ctx4)
    assert not report["passed"]
    # the quotient law is derived from the product, which fails; the
    # linear factor Z is untouched and its expanded law still holds
    assert report["checks"] == {"product": False, "z_form": True,
                                "d_value": True, "det_y_exponent": False,
                                "det_z": True}


def test_swapped_alternating_matrix_fails_the_linear_law():
    # over ZZ an invertible alternating A that factors has det(A) = 1, so a
    # det(A) fault shows only over GF(p): 2J has det 16, J has det 1
    ctx = GenericContext(4, p=31)
    j = standard_symplectic(4)
    two_j = AlternatingMatrix(j.matrix + j.matrix)
    assert two_j.det == 16
    for side, failing in (
            (factor_right, ["z_form", "det_y_exponent", "det_z"]),
            (factor_left, ["y_form", "det_y", "det_z_exponent"])):
        cert = side(ctx, two_j)
        assert cert.passed, cert.checks
        checks = reverify_certificate(replace(cert, alt=j), ctx)["checks"]
        assert [k for k, ok in checks.items() if not ok] == failing


def test_certificate_expands_only_the_linear_factor(monkeypatch, ctx4):
    """One det_equals call per certificate, on the linear factor; the
    quotient factor's law is derived, so nothing else is expanded."""
    calls = []
    det_equals = Matrix.det_equals

    def counting(self, expected):
        calls.append((self, expected))
        return det_equals(self, expected)

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} called")
        return call

    alt = random_alternating(4, seed=5)
    monkeypatch.setattr(Matrix, "det_equals", counting)
    monkeypatch.setattr(Matrix, "det_laplace", forbidden("det_laplace"))
    monkeypatch.setattr(GenericContext, "det_power", forbidden("det_power"))
    for side, linear in ((factor_right, "Z"), (factor_left, "Y")):
        calls.clear()
        cert = side(ctx4, alt)
        assert cert.passed, cert.checks
        assert len(calls) == 1
        matrix, expected = calls[0]
        assert matrix is getattr(cert, linear)
        assert expected == ctx4.detX._scaled(alt.det)


@pytest.mark.parametrize("n", [2, 4])
def test_certificate_check_names_and_order(request, n):
    # the text output prints the checks in this order
    ctx = request.getfixturevalue(f"ctx{n}")
    alt = random_alternating(n, seed=5)
    right, left = factor_right(ctx, alt), factor_left(ctx, alt)
    assert list(right.checks.items()) == [
        ("product", True), ("det_y_exponent", True), ("det_z", True)]
    assert list(left.checks.items()) == [
        ("product", True), ("det_y", True), ("det_z_exponent", True)]
    assert list(reverify_certificate(right, ctx)["checks"].items()) == [
        ("product", True), ("z_form", True), ("d_value", True),
        ("det_y_exponent", True), ("det_z", True)]
    assert list(reverify_certificate(left, ctx)["checks"].items()) == [
        ("product", True), ("y_form", True), ("d_value", True),
        ("det_y", True), ("det_z_exponent", True)]


def test_tampered_left_certificate_detected(ctx4):
    j = standard_symplectic(4)
    right, left = factor_right(ctx4, j), factor_left(ctx4, j)
    checks = reverify_certificate(replace(left, Y=right.Y), ctx4)["checks"]
    assert not checks["y_form"] and not checks["product"]
    checks = reverify_certificate(replace(left, d=2), ctx4)["checks"]
    assert [k for k, ok in checks.items() if not ok] == ["d_value"]


# ---------------------------------------------------------------------------
# diagonal factorization
# ---------------------------------------------------------------------------

def test_diagonal_factorization(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        mats = diagonal_factorization(ctx)
        assert len(mats) == ctx.n
        prod = mats[0]
        for m in mats[1:]:
            prod = prod * m
        assert prod == ctx.identity.scale(ctx.detX)
        for m in mats:
            assert m.det_laplace() == ctx.detX


# ---------------------------------------------------------------------------
# common refinement
# ---------------------------------------------------------------------------

def test_refinement_n2_j(ctx2):
    j = standard_symplectic(2)
    w = solve_common_refinement(ctx2, j, j)
    assert w is not None
    assert w.r == w.r.ring.const(-1)
    assert all(e.is_zero() for e in w.W.entries)
    assert w.passed


def test_refinement_n2_sign_cancellation(ctx2):
    j = standard_symplectic(2)
    neg_j = AlternatingMatrix(-j.matrix)
    w = solve_common_refinement(ctx2, neg_j, neg_j)
    assert w is not None
    assert w.r == w.r.ring.const(-1)  # (-J) M (-J) = J M J


def test_refinement_n4_back_multiplies(ctx4):
    j = standard_symplectic(4)
    w = solve_common_refinement(ctx4, j, j)
    assert w is not None
    assert w.passed, w.checks
    assert w.checks["back_multiplication"]
    assert w.r.is_homogeneous(2)
    assert all(e.is_zero() or e.is_homogeneous(1) for e in w.W.entries)


def test_refinement_mixed_alternating(ctx4):
    a = standard_symplectic(4)
    b = random_alternating(4, seed=4)
    w = solve_common_refinement(ctx4, a, b)
    assert w is not None and w.passed


def test_refinement_witness_json_round_trip(ctx4):
    j = standard_symplectic(4)
    w = solve_common_refinement(ctx4, j, j)
    blob = json.dumps(w.to_json(), sort_keys=True)
    from adjkit import RefinementWitness
    loaded = RefinementWitness.from_json(json.loads(blob))
    assert loaded.r == w.r
    assert loaded.W == w.W
    assert loaded.solution_space_dim == w.solution_space_dim


def test_refinement_rejects_a_mod_p_context():
    # the residues of GF(p) are no rationals: an answer there would be wrong
    ctx = GenericContext(4, p=31)
    with pytest.raises(ValueError, match=r"GF\(31\)"):
        solve_common_refinement(ctx, standard_symplectic(4),
                                random_alternating(4, 3))


def _sparse_solve(equations: list, ncols: int):
    """Exact sparse elimination over the rationals, the oracle's solver.

    equations is a list of (row, rhs) pairs, a row mapping unknown index ->
    coefficient.  Returns (solution list, free-unknown count), or None when
    the system is inconsistent.  The equations are reduced sparsest first
    into an echelon basis whose pivot is the lowest unknown of each row;
    fill-in that lands on a pivot column waits on a heap.  Back-substitution
    sets every free unknown to zero, which gives the particular solution of
    the reduced row echelon form, whatever the equation order.  Integral
    values are kept as ints, which multiply far faster than Fractions.
    """
    basis: dict = {}   # pivot -> (row without the pivot, rhs), pivot coeff 1
    for row, rhs in sorted(equations, key=lambda eq: len(eq[0])):
        row = {j: v for j, v in row.items() if v}
        heap = [c for c in row if c in basis]
        heapify(heap)
        while heap:
            c = heappop(heap)
            f = row.pop(c, 0)
            if not f:
                continue
            prow, prhs = basis[c]
            for j, v in prow.items():
                nv = row.get(j, 0) - f * v
                if not nv:
                    del row[j]
                    continue
                if j not in row and j in basis:
                    heappush(heap, j)
                row[j] = nv
            rhs -= f * prhs
        if not row:
            if rhs:
                return None
            continue
        p = min(row)
        inv = Fraction(1, row.pop(p))
        basis[p] = ({j: _integral(v * inv) for j, v in row.items()},
                    _integral(rhs * inv))
    solution = [Fraction(0)] * ncols
    for p in sorted(basis, reverse=True):
        prow, prhs = basis[p]
        solution[p] = Fraction(prhs - sum(v * solution[j]
                                          for j, v in prow.items()))
    return solution, ncols - len(basis)


def _integral(q: Fraction):
    """q, as an int when its denominator is 1."""
    return q.numerator if q.denominator == 1 else q


def _original_basis_refinement(ctx, alt, alt_prime):
    """The refinement witness from the original basis, kept as the oracle.

    Matches the coefficients of A (r X^T + X^T W X^T) A' against adj(X)
    itself: r multiplies A X^T A' and the coefficient of x^mu in W[a][b]
    multiplies (A X^T)[u,a] (X^T A')[b,v].  The system goes to
    ``_sparse_solve``, and the checks multiply over the rationals.
    """
    n = ctx.n
    ring = ctx.ring
    qring = PolyRing.generic(n, rational=True)
    qd = PolynomialDomain(qring)
    a_x_t = ctx.lift(alt.matrix) * ctx.X.transpose()
    x_t_a2 = ctx.X.transpose() * ctx.lift(alt_prime.matrix)
    base = a_x_t * ctx.lift(alt_prime.matrix)
    nx = n * n
    r_monos = ring.monomials(n - 2, nx)
    w_monos = ring.monomials(n - 3, nx) if n >= 3 else []
    nr, nw = len(r_monos), len(w_monos)
    prods = [a_x_t[u, a] * x_t_a2[b, v] for a in range(n) for b in range(n)
             for u in range(n) for v in range(n)]
    width, terms = aligned(r_monos + w_monos + base.entries + prods
                           + ctx.adjX.entries, n - 1)
    mu_keys = [next(iter(t)) for t in terms[:nr + nw]]
    base_terms = terms[nr + nw:nr + nw + nx]
    prod_terms = terms[nr + nw + nx:-nx]
    rows = {}

    def fill(j, mk, entries):
        for e, entry in enumerate(entries):
            for k, c in entry.items():
                rows.setdefault((e, mk + k), {})[j] = c

    for mi, mk in enumerate(mu_keys[:nr]):
        fill(mi, mk, base_terms)
    for ab in range(nx):
        for mi, mk in enumerate(mu_keys[nr:]):
            fill(nr + ab * nw + mi, mk, prod_terms[ab * nx:(ab + 1) * nx])
    target = {(e, k): c for e, entry in enumerate(terms[-nx:])
              for k, c in entry.items()}
    for key in target:
        rows.setdefault(key, {})
    solved = _sparse_solve([(row, target.get(key, 0))
                            for key, row in rows.items()], nr + nx * nw)
    if solved is None:
        return None
    solution, free = solved

    def combination(keys, start):
        return Polynomial(qring, {k: solution[start + i]
                                  for i, k in enumerate(keys)
                                  if solution[start + i]}, width)

    r = combination(mu_keys[:nr], 0)
    W = Matrix(qd, n, n, [combination(mu_keys[nr:], nr + ab * nw)
                          for ab in range(nx)])
    xq = ctx.X.map_entries(qring.convert, qd)
    adjq = ctx.adjX.map_entries(qring.convert, qd)
    aq = lift_int_matrix(alt.matrix, qring)
    a2q = lift_int_matrix(alt_prime.matrix, qring)
    xt, r_i = xq.transpose(), Matrix.identity(qd, n).scale(r)
    checks = {
        "back_multiplication": aq * (xt.scale(r) + xt * W * xt) * a2q
        == adjq,
        "left_divisible_by_a_xt": (aq * (xt * (r_i + W * xt))) * a2q == adjq,
        "right_divisible_by_xt_aprime": aq * ((r_i + xt * W) * xt * a2q)
        == adjq,
        "r_homogeneous": r.is_homogeneous(n - 2),
        "w_homogeneous": all(e.is_homogeneous(n - 3) or e.is_zero()
                             for e in W.entries),
    }
    return RefinementWitness(n=n, r=r, W=W, alt=alt, alt_prime=alt_prime,
                             solution_space_dim=free, checks=checks)


def _block_alternating(c1, c2):
    """diag(c1 J, c2 J) at n = 4, with determinant (c1 c2)^2."""
    return AlternatingMatrix.from_rows([[0, c1, 0, 0], [-c1, 0, 0, 0],
                                        [0, 0, 0, c2], [0, 0, -c2, 0]])


def _scaled_j(n, c):
    return AlternatingMatrix(standard_symplectic(n).matrix.scale(c))


def _witness_denominator(w):
    """The largest denominator in r and W: above 1 exactly when d is."""
    return max(c.denominator for f in [w.r, *w.W.entries]
               for c in f.packed.values())


REFINEMENT_PAIRS = [
    (2, _scaled_j(2, 1), _scaled_j(2, 1)),
    (2, _scaled_j(2, -1), _scaled_j(2, 1)),
    (2, _scaled_j(2, 2), _scaled_j(2, 3)),
    (4, _scaled_j(4, 1), _scaled_j(4, 1)),
    (4, _scaled_j(4, -1), random_alternating(4, 5)),
    (4, random_alternating(4, 11), random_alternating(4, 12)),
    (4, random_alternating(4, 13), random_alternating(4, 14)),
    (4, random_alternating(4, 15, bound=3),
     random_alternating(4, 16, bound=3)),
    (4, _scaled_j(4, 1), random_alternating(4, 17, bound=3)),
    (4, _block_alternating(2, 3), _scaled_j(4, 1)),
    (4, _block_alternating(2, 3), _block_alternating(3, 2)),
    (4, AlternatingMatrix.from_rows([[0, 2, 0, 1], [-2, 0, 3, 0],
                                     [0, -3, 0, 1], [-1, 0, -1, 0]]),
     random_alternating(4, 18)),
]


@pytest.mark.parametrize("case", range(len(REFINEMENT_PAIRS)))
def test_refinement_matches_the_original_basis(request, case):
    n, alt, alt_prime = REFINEMENT_PAIRS[case]
    ctx = request.getfixturevalue(f"ctx{n}")
    got = solve_common_refinement(ctx, alt, alt_prime)
    expected = _original_basis_refinement(ctx, alt, alt_prime)
    assert got.passed and expected.passed
    assert got.r == expected.r and got.W == expected.W
    assert got.solution_space_dim == expected.solution_space_dim
    assert got.to_json() == expected.to_json()
    if alt.det * alt_prime.det != 1:
        assert _witness_denominator(got) > 1


@pytest.mark.parametrize("part", ["r", "W"])
def test_refinement_checks_catch_a_perturbed_solution(monkeypatch, ctx4,
                                                      part):
    # one coefficient of the closed-form r, or of one entry of W, is
    # doubled; the pair has Pf(A) Pf(A') = 6, so d > 1 clears fractions
    closed_form = factor._refinement_closed_form

    def perturbed(ctx, alt, alt_prime):
        r, w, pf_both = closed_form(ctx, alt, alt_prime)
        f = r if part == "r" else next(e for e in w.entries if e)
        f.packed[next(iter(f.packed))] *= 2
        return r, w, pf_both

    alt, alt_prime = _block_alternating(2, 3), _scaled_j(4, 1)
    assert _witness_denominator(
        solve_common_refinement(ctx4, alt, alt_prime)) > 1
    monkeypatch.setattr(factor, "_refinement_closed_form", perturbed)
    w = solve_common_refinement(ctx4, alt, alt_prime)
    assert not w.checks["back_multiplication"]
    assert not w.checks["left_divisible_by_a_xt"]
    assert not w.checks["right_divisible_by_xt_aprime"]
    assert w.checks["r_homogeneous"] and w.checks["w_homogeneous"]


def _closed_form_sums(x, pf, pf_prime, fault=None):
    """(r, W) times Pf(A) Pf(A'), summed term by term from the closed form.

    x is the generic matrix, pf and pf_prime map an index tuple L to
    Pf(A[L]) and Pf(A'[L]).  ``fault`` plants one error: "index_order"
    takes Pf(A'[(I, a)]) for Pf(A'[(a, I)]), "transposed_minor" det X[I, K]
    for det X[K, I] in r, and "sign" negates both sums.
    """
    n = x.rows
    sign = 1 if fault == "sign" else -1
    r = x.domain.zero
    for i in combinations(range(n), n - 2):
        for k in combinations(range(n), n - 2):
            rows, cols = (i, k) if fault == "transposed_minor" else (k, i)
            r = r + x.submatrix(rows, cols).det_laplace() * (pf(i) * pf_prime(k))
    w = Matrix.zeros(x.domain, n, n)
    for a in range(n):
        for b in range(n):
            for i in combinations([c for c in range(n) if c != a], n - 3):
                left = pf_prime(i + (a,) if fault == "index_order"
                                else (a,) + i)
                for k in combinations([c for c in range(n) if c != b], n - 3):
                    w.entries[a * n + b] += (x.submatrix(i, k).det_laplace()
                                             * (left * pf(k + (b,))))
    return r * sign, w.scale(sign)


@pytest.mark.parametrize("fault", [None, "index_order", "transposed_minor",
                                   "undivided", "sign"])
def test_refinement_checks_catch_a_planted_fault(monkeypatch, ctx4, fault):
    # A != A', so a transposed minor (which swaps their roles in r) is
    # wrong, and Pf(A) Pf(A') = 6, so dropping the division is wrong too
    alt, alt_prime = _block_alternating(2, 3), random_alternating(4, 12)
    pf, pf_prime = (factor._pfaffian(alt.matrix),
                    factor._pfaffian(alt_prime.matrix))
    r, w = _closed_form_sums(ctx4.X, pf, pf_prime,
                             None if fault == "undivided" else fault)
    pf_both = 1 if fault == "undivided" else pf((0, 1, 2, 3)) * pf_prime(
        (0, 1, 2, 3))
    assert pf((0, 1, 2, 3)) * pf_prime((0, 1, 2, 3)) == 6
    monkeypatch.setattr(factor, "_refinement_closed_form",
                        lambda ctx, a, a2: (r, w, pf_both))
    got = solve_common_refinement(ctx4, alt, alt_prime)
    products = ("back_multiplication", "left_divisible_by_a_xt",
                "right_divisible_by_xt_aprime")
    if fault is None:
        # the term-by-term sums are the closed form of the package
        assert got.passed
        monkeypatch.undo()
        assert solve_common_refinement(ctx4, alt, alt_prime).to_json() == (
            got.to_json())
    else:
        assert not any(got.checks[name] for name in products), got.checks


def test_pfaffian_of_index_lists():
    alt = random_alternating(6, 3, bound=3)
    pf = factor._pfaffian(alt.matrix)
    assert pf(()) == 1 and pf((2,)) == 0 and pf((0, 1, 2)) == 0
    assert pf((0, 1)) == alt.matrix[0, 1] == -pf((1, 0))
    assert pf(tuple(range(6))) ** 2 == alt.det == 1
    assert factor._pfaffian(standard_symplectic(4).matrix)((0, 1, 2, 3)) == 1
    for index in combinations(range(6), 4):
        sub = alt.matrix.submatrix(index, index)
        assert pf(index) ** 2 == sub.det_bareiss()
        # moving the first index to the end is an odd permutation of 4
        assert pf(index[1:] + index[:1]) == -pf(index)
    scaled = factor._pfaffian(_block_alternating(2, 3).matrix)
    assert scaled((0, 1, 2, 3)) == 6 and scaled((2, 3, 0, 1)) == 6


def _generic_alternating(ring, name, n):
    entries = [ring.zero] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            v = ring.var(f"{name}_{i}_{j}")
            entries[i * n + j], entries[j * n + i] = v, -v
    return Matrix(PolynomialDomain(ring), n, n, entries)


def _check_generic_refinement_identity(n):
    """A (r X^T + X^T W X^T) A' = Pf(A) Pf(A') adj(X) with X, A and A' all
    generic, in one ring over their entries: a theorem at this n over every
    commutative ring.  Without the factor Pf(A) Pf(A') it fails."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ring = PolyRing([f"x_{i}_{j}" for i in range(n) for j in range(n)]
                    + [f"{name}_{i}_{j}" for name in ("a", "b")
                       for i, j in pairs])
    pd = PolynomialDomain(ring)
    x = Matrix(pd, n, n, [ring.var(f"x_{i}_{j}") for i in range(n)
                          for j in range(n)])
    a, a2 = _generic_alternating(ring, "a", n), _generic_alternating(ring, "b", n)
    pf, pf_prime = factor._pfaffian(a), factor._pfaffian(a2)
    full = tuple(range(n))
    assert pf(full) * pf(full) == a.det_laplace()
    r, w = _closed_form_sums(x, pf, pf_prime)
    xt = x.transpose()
    product = a * (xt.scale(r) + xt * w * xt) * a2
    adj = x.adjugate()
    assert product == adj.scale(pf(full) * pf_prime(full))
    assert product != adj


def test_refinement_identity_with_a_and_a_prime_generic_n4():
    _check_generic_refinement_identity(4)


@pytest.mark.stress
def test_refinement_identity_with_a_and_a_prime_generic_n6():
    _check_generic_refinement_identity(6)


# The sparse solver against the dense reduced echelon form of [M | b].

def _random_system(rng, ncols, rank, kind):
    """Sparse integer equations of rank ``rank`` in ``ncols`` unknowns.

    Every equation is a small combination of ``rank`` echelon base rows, so
    elimination meets fill-in, and b = M x for a random rational x.  The
    ``kind`` "inconsistent" appends the sum of two equations with its
    right-hand side off by one.
    """
    order = rng.sample(range(ncols), ncols)
    base = []
    for i in range(rank):
        row = {order[i]: rng.choice([-3, -2, -1, 1, 2, 3])}
        for c in rng.sample(order[i + 1:], min(2, ncols - i - 1)):
            row[c] = rng.randint(-3, 3)
        base.append(row)

    def combine(pairs):
        row = {}
        for k, b in pairs:
            for c, v in b.items():
                row[c] = row.get(c, 0) + k * v
        return {c: v for c, v in row.items() if v}

    rows = [combine([(rng.choice([-2, -1, 1, 2]), b)]) for b in base]
    for _ in range(2 * ncols):
        picks = rng.sample(base, min(len(base), rng.randint(2, 3)))
        rows.append(combine([(rng.randint(-2, 2) or 1, b) for b in picks]))
    x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
    equations = [(row, sum(v * x[c] for c, v in row.items())) for row in rows]
    if kind == "inconsistent":
        (r1, b1), (r2, b2) = rng.sample(equations, 2)
        equations.append((combine([(1, r1), (1, r2)]), b1 + b2 + 1))
    return equations


def _dense_solve(equations, ncols):
    """(particular solution, free count) from the reduced row echelon form
    of the dense [M | b], or None when a zero row of M meets b != 0."""
    work = [[Fraction(row.get(c, 0)) for c in range(ncols)] + [Fraction(rhs)]
            for row, rhs in equations]
    pivots, _ = _row_reduce(work, ncols, QQ, reduced=True)
    if any(row[ncols] for row in work[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, c in zip(work, pivots):
        solution[c] = row[ncols]
    return solution, ncols - len(pivots)


@pytest.mark.parametrize("kind,seed", [(kind, seed) for kind in
                                       ("full", "deficient", "inconsistent")
                                       for seed in range(8)])
def test_sparse_solve_matches_the_dense_echelon_form(kind, seed):
    rng = random.Random(seed)
    ncols = rng.randint(4, 14)
    rank = ncols if kind == "full" else rng.randint(1, ncols - 1)
    equations = _random_system(rng, ncols, rank, kind)
    expected = _dense_solve(equations, ncols)
    if kind == "inconsistent":
        assert expected is None
    else:
        assert expected[1] == ncols - rank
        solution = expected[0]
        assert all(sum(v * solution[c] for c, v in row.items()) == rhs
                   for row, rhs in equations)
    for _ in range(3):
        rng.shuffle(equations)
        got = _sparse_solve(equations, ncols)
        assert got == expected
        if got is not None:
            assert all(type(v) is Fraction for v in got[0])


def test_sparse_solve_edge_equations():
    # 0 = 0 is dropped, 0 = 1 is inconsistent, zero coefficients are ignored
    assert _sparse_solve([({}, 0), ({0: 2, 1: 0}, 1)], 3) == (
        [Fraction(1, 2), Fraction(0), Fraction(0)], 2)
    assert _sparse_solve([({0: 1}, 1), ({}, 1)], 1) is None
    assert _sparse_solve([], 2) == ([Fraction(0)] * 2, 2)


def test_sparse_solve_eliminates_fill_in_on_a_pivot_column():
    # x0 + x2 meets pivot 0 (x0 + x1) and picks up x1, whose pivot row
    # x1 + x2 must still be eliminated: x = (1, 0, 2)
    equations = [({0: 1, 1: 1}, 1), ({1: 1, 2: 1}, 2), ({0: 1, 2: 1}, 3)]
    assert _sparse_solve(equations, 3) == ([1, 0, 2], 0)


# ---------------------------------------------------------------------------
# mod-p transfer of the certificate identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 31, 2_147_483_647])
def test_certificates_transfer_mod_p(p):
    ctx = GenericContext(4, p=p)
    j = standard_symplectic(4)
    cert = factor_right(ctx, j)
    assert cert.passed
    cert_l = factor_left(ctx, j)
    assert cert_l.passed
    rep = verify_fundamental(ctx)
    assert rep["passed"]
    a = AlternatingMatrix.from_rows(
        [[0, 2, 0, 1], [-2, 0, 3, 0], [0, -3, 0, 1], [-1, 0, -1, 0]])
    quotient_matrix(ctx, a)  # raises on any divisibility failure
