"""Matrix layer: products, determinants (both routes), adjugates,
compounds, rank, characteristic polynomials, JSON round trips."""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from adjkit import (GF, QQ, ZZ, Matrix, PolyRing, PolynomialDomain, SpecPoint,
                    kernels, matrix)
from adjkit.factor import random_unimodular
from adjkit.specialize import _column_space_basis


def rand_int_matrix(rng, n, lo=-9, hi=9):
    return Matrix.from_rows(ZZ, [[rng.randint(lo, hi) for _ in range(n)]
                                 for _ in range(n)])


def rand_field_matrix(rng, dom, n, rank):
    """A random n-by-n matrix of the given rank over GF(p) or QQ."""
    def draw():
        if dom is QQ:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(dom.p)
    while True:
        u = Matrix.from_rows(dom, [[draw() for _ in range(rank)]
                                   for _ in range(n)])
        v = Matrix.from_rows(dom, [[draw() for _ in range(n)]
                                   for _ in range(rank)])
        m = u * v if rank else Matrix.zeros(dom, n, n)
        if m.rank() == rank:
            return m


def cofactor_adjugate(a):
    """adj(A) by its definition: entry (i, j) is (-1)^(i+j) det A(j|i)."""
    n, dom = a.rows, a.domain
    out = []
    for i in range(n):
        for j in range(n):
            rows = [k for k in range(n) if k != j]
            cols = [k for k in range(n) if k != i]
            c = a.submatrix(rows, cols).det_bareiss()
            out.append(dom.coerce(-c) if (i + j) % 2 else c)
    return Matrix(dom, n, n, out)


# ---------------------------------------------------------------------------
# products and transpose
# ---------------------------------------------------------------------------

def test_identity_multiplication():
    rng = random.Random(0)
    m = rand_int_matrix(rng, 3)
    assert Matrix.identity(ZZ, 3) * m == m
    assert m * Matrix.identity(ZZ, 3) == m


def test_hand_multiplication():
    a = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(ZZ, [[0, 1], [1, 1]])
    assert (a * b).to_rows() == [[2, 3], [4, 7]]


def test_generic_product_identity(ctx2):
    det_i = ctx2.identity.scale(ctx2.detX)
    assert ctx2.X * ctx2.adjX == det_i


def test_dimension_mismatch():
    a = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(ZZ, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a * b


def test_domain_mismatch():
    a = Matrix.from_rows(ZZ, [[1]])
    b = Matrix.from_rows(QQ, [[Fraction(1)]])
    with pytest.raises(ValueError):
        a * b


def test_polynomial_rings_over_different_variables_do_not_mix():
    rab, rxy = PolyRing(("a", "b")), PolyRing(("x", "y"))
    a = Matrix.from_rows(PolynomialDomain(rab), [[rab.var("a")]])
    y = Matrix.from_rows(PolynomialDomain(rxy), [[rxy.var("y")]])
    for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ValueError):
            op(a, y)
    # the same variable table in a fresh ring object still mixes
    again = PolyRing(("a", "b"))
    b = Matrix.from_rows(PolynomialDomain(again), [[again.var("b")]])
    assert (a * b).to_rows() == [[rab.var("a") * rab.var("b")]]


def test_transpose_involution():
    rng = random.Random(1)
    m = rand_int_matrix(rng, 4)
    assert m.transpose().transpose() == m
    assert Matrix.identity(ZZ, 4).transpose() == Matrix.identity(ZZ, 4)
    skew = Matrix.from_rows(ZZ, [[0, 1], [-1, 0]])
    assert skew.transpose().to_rows() == [[0, -1], [1, 0]]


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_det_identity_and_leibniz(ctx2, ctx3):
    for n in (1, 2, 3, 4):
        assert Matrix.identity(ZZ, n).det_laplace() == 1
    assert str(ctx2.detX) == "x_1_1*x_2_2 - x_1_2*x_2_1"
    assert len(ctx3.detX.terms) == 6


def test_bareiss_agrees_with_laplace_on_200_random():
    rng = random.Random(2)
    for _ in range(200):
        m = rand_int_matrix(rng, 5)
        assert m.det_bareiss() == m.det_laplace()


def test_bareiss_diag_and_singular():
    assert Matrix.diagonal(ZZ, [2, 3, 5]).det_bareiss() == 30
    rank1 = Matrix.from_rows(ZZ, [[1, 2], [2, 4]])
    assert rank1.det_bareiss() == 0


def test_bareiss_agrees_symbolically(ctx3):
    assert ctx3.X.det_bareiss() == ctx3.detX
    rng = random.Random(3)
    pd = ctx3.domain
    ring = ctx3.ring
    for _ in range(5):
        m = Matrix.from_rows(pd, [
            [ring.var(f"x_{1 + rng.randrange(3)}_{1 + rng.randrange(3)}")
             + ring.const(rng.randint(-2, 2)) for _ in range(3)]
            for _ in range(3)])
        assert m.det_bareiss() == m.det_laplace()


def test_bareiss_agrees_on_generic_n5():
    # bare ring, no context: just the two determinant routes on X_5
    ring = PolyRing.generic(5)
    pd = PolynomialDomain(ring)
    x = Matrix.from_rows(pd, [[ring.var(f"x_{i}_{j}") for j in range(1, 6)]
                              for i in range(1, 6)])
    assert x.det_bareiss() == x.det_laplace()


def test_gauss_det_agrees_with_bareiss():
    rng = random.Random(4)
    dom = GF(97)
    for _ in range(40):
        m = Matrix.from_rows(dom, [[rng.randrange(97) for _ in range(5)]
                                   for _ in range(5)])
        assert m._det_gauss() == m.det_bareiss()


def test_gauss_det_agrees_with_bareiss_over_qq():
    rng = random.Random(14)
    for n in (3, 4, 5):
        for rank in (n, n - 1):
            for _ in range(5):
                m = rand_field_matrix(rng, QQ, n, rank)
                assert m._det_gauss() == m.det_bareiss()


def test_non_square_det_rejected():
    m = Matrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        m.det_laplace()
    with pytest.raises(ValueError):
        m.det_bareiss()


# ---------------------------------------------------------------------------
# adjugate
# ---------------------------------------------------------------------------

def test_adjugate_2x2_formula():
    a = Matrix.from_rows(ZZ, [[7, 3], [2, 5]])
    assert a.adjugate().to_rows() == [[5, -3], [-2, 7]]


def test_adjugate_identity_and_1x1():
    assert Matrix.identity(ZZ, 4).adjugate() == Matrix.identity(ZZ, 4)
    one = Matrix.from_rows(ZZ, [[17]])
    assert one.adjugate().to_rows() == [[1]]
    assert (one * one.adjugate()).to_rows() == [[17]]


def test_adjugate_fundamental_identity_random():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            a = rand_int_matrix(rng, n)
            adj = a.adjugate()
            det_i = Matrix.identity(ZZ, n).scale(a.det_bareiss())
            assert a * adj == det_i
            assert adj * a == det_i


def test_det_adjugate_power_law(ctx3):
    assert ctx3.adjX.det_laplace() == ctx3.detX * ctx3.detX
    rng = random.Random(6)
    for n in (2, 3, 4):
        a = rand_int_matrix(rng, n)
        assert a.adjugate().det_bareiss() == a.det_bareiss() ** (n - 1)


def test_adjugate_multiplicativity_random():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            a, b = rand_int_matrix(rng, n), rand_int_matrix(rng, n)
            assert (a * b).adjugate() == b.adjugate() * a.adjugate()


def test_adjugate_conjugation_random():
    rng = random.Random(8)
    for n in (2, 3, 4):
        for _ in range(8):
            a = rand_int_matrix(rng, n)
            u = random_unimodular(n, rng)
            u_inv = u.adjugate()  # det(u) = 1
            assert u * u_inv == Matrix.identity(ZZ, n)
            assert (u * a * u_inv).adjugate() == u * a.adjugate() * u_inv


@pytest.mark.parametrize("dom", (GF(101), QQ, GF(2_147_483_647)),
                         ids=("GF101", "QQ", "GF2^31-1"))
def test_field_adjugate_is_the_cofactor_matrix(dom):
    rng = random.Random(15)
    for n in (3, 4, 5):
        for rank in (n, n - 1, n - 2, 0):
            for _ in range(3):
                a = rand_field_matrix(rng, dom, n, rank)
                assert a.adjugate() == cofactor_adjugate(a)


@pytest.mark.parametrize("dom", (GF(101), QQ), ids=("GF101", "QQ"))
def test_inverse(dom):
    rng = random.Random(16)
    for n in (1, 2, 4, 6):
        a = rand_field_matrix(rng, dom, n, n)
        assert a * a.inverse() == Matrix.identity(dom, n)
        assert a.inverse() * a == Matrix.identity(dom, n)
        with pytest.raises(ZeroDivisionError, match="matrix is singular"):
            rand_field_matrix(rng, dom, n, n - 1).inverse()


def test_inverse_rejects_bad_input():
    with pytest.raises(TypeError):
        Matrix.identity(ZZ, 3).inverse()
    with pytest.raises(ValueError):
        Matrix.zeros(QQ, 2, 3).inverse()


def count_adjugate_reductions(monkeypatch, a):
    """(adj(A), the column counts of the _row_reduce calls it made)."""
    calls = []
    reduce = matrix._row_reduce

    def counting(*args, **kwargs):
        calls.append(args[1])
        return reduce(*args, **kwargs)

    monkeypatch.setattr(matrix, "_row_reduce", counting)
    adj = a.adjugate()
    monkeypatch.undo()
    return adj, calls


def test_field_adjugate_at_corank_one_reduces_twice(monkeypatch):
    # one reduction of [A | I] for both kernels, and one minor
    a = rand_field_matrix(random.Random(17), GF(2_147_483_647), 10, 9)
    adj, calls = count_adjugate_reductions(monkeypatch, a)
    assert calls == [10, 9]
    assert adj == cofactor_adjugate(a)


def test_field_adjugate_at_full_rank_reduces_once(monkeypatch):
    # det(A) and A^-1 both come from the one reduction of [A | I]
    for dom in (GF(2_147_483_647), QQ):
        a = rand_field_matrix(random.Random(19), dom, 10, 10)
        adj, calls = count_adjugate_reductions(monkeypatch, a)
        assert calls == [10]
        assert adj == cofactor_adjugate(a)
        assert a * adj == Matrix.identity(dom, 10).scale(a.det())


def test_field_adjugate_rank_deficient():
    dom = GF(31)
    # rank n-2: adjugate vanishes
    u = Matrix.from_rows(dom, [[1, 2], [3, 4], [5, 6], [7, 8]])
    v = Matrix.from_rows(dom, [[1, 0, 1, 0], [0, 1, 0, 1]])
    m = u * v
    assert m.adjugate() == Matrix.zeros(dom, 4, 4)


# ---------------------------------------------------------------------------
# compound matrices
# ---------------------------------------------------------------------------

def test_compound_edge_orders(ctx3):
    assert ctx3.X.compound(1) == ctx3.X
    top = ctx3.X.compound(3)
    assert (top.rows, top.cols) == (1, 1)
    assert top[0, 0] == ctx3.detX
    with pytest.raises(ValueError):
        ctx3.X.compound(0)
    with pytest.raises(ValueError):
        ctx3.X.compound(4)


def test_compound_of_identity():
    for n, m in ((3, 2), (4, 2), (5, 3)):
        eye = Matrix.identity(ZZ, n)
        assert eye.compound(m) == Matrix.identity(ZZ, comb(n, m))


def test_sylvester_franke_small(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for m in range(1, ctx.n + 1):
            e = comb(ctx.n - 1, m - 1)
            assert ctx.X.compound(m).det_laplace() == ctx.det_power(e)


def test_compound_multiplicativity_numeric():
    rng = random.Random(9)
    for n, m in ((4, 2), (5, 2), (5, 3)):
        a = rand_int_matrix(rng, n, -4, 4)
        b = rand_int_matrix(rng, n, -4, 4)
        assert (a * b).compound(m) == a.compound(m) * b.compound(m)


def test_complementary_compound_product(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        for m in range(1, ctx.n + 1):
            cmp_m = ctx.X.compound(m)
            d = ctx.X.complementary_compound(m)
            big_n = comb(ctx.n, m)
            ident = Matrix.identity(ctx.domain, big_n).scale(ctx.detX)
            assert cmp_m * d.transpose() == ident


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_basics():
    assert Matrix.identity(QQ, 4).rank() == 4
    diag = Matrix.diagonal(QQ, [Fraction(0), Fraction(1), Fraction(1), Fraction(1)])
    assert diag.rank() == 3


def test_rank_of_adjugate_at_corank_one():
    rng = random.Random(10)
    dom = GF(101)
    for n in (3, 4, 5):
        u = Matrix.from_rows(dom, [[rng.randrange(101) for _ in range(n - 1)]
                                   for _ in range(n)])
        v = Matrix.from_rows(dom, [[rng.randrange(101) for _ in range(n)]
                                   for _ in range(n - 1)])
        a = u * v
        if a.rank() != n - 1:
            continue
        assert a.adjugate().rank() == 1


def test_rank_of_adjugate_rational_singular():
    rng = random.Random(20)
    for n in (3, 4):
        found = 0
        while found < 3:
            u = Matrix.from_rows(QQ, [[Fraction(rng.randint(-3, 3))
                                       for _ in range(n - 1)] for _ in range(n)])
            v = Matrix.from_rows(QQ, [[Fraction(rng.randint(-3, 3))
                                       for _ in range(n)] for _ in range(n - 1)])
            a = u * v
            if a.rank() != n - 1:
                continue
            assert a.det() == 0
            assert a.adjugate().rank() == 1
            found += 1


def test_rank_rejects_polynomial_matrices(ctx2):
    with pytest.raises(TypeError):
        ctx2.X.rank()


# ---------------------------------------------------------------------------
# characteristic polynomial det(tI + A), built by SpecPoint
# ---------------------------------------------------------------------------

def test_char_poly_zero_matrix():
    cp = SpecPoint(Matrix.zeros(ZZ, 3, 3)).char_poly_shifted
    ring = cp.ring
    assert cp == ring.var("t") ** 3


def test_char_poly_diag_0111():
    a = Matrix.diagonal(ZZ, [0, 1, 1, 1])
    cp = SpecPoint(a).char_poly_shifted
    t = cp.ring.var("t")
    assert cp == t * (t + 1) ** 3
    assert cp.t_valuation() == 1


def test_char_poly_valuation_counts_zero_eigenvalues():
    for diag, mult in (([0, 0, 2], 2), ([1, 2, 3], 0), ([0, 5, 0], 2)):
        a = Matrix.diagonal(ZZ, diag)
        assert SpecPoint(a).char_poly_shifted.t_valuation() == mult


def test_char_poly_monic_with_det_constant_term():
    rng = random.Random(11)
    for n in (2, 3, 4):
        a = rand_int_matrix(rng, n)
        cp = SpecPoint(a).char_poly_shifted
        assert cp.total_degree() == n
        lead_e, lead_c = cp.leading()
        assert lead_c == 1 and lead_e == (n,)
        assert cp.constant_term() == a.det_bareiss()


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_json_round_trip_integer():
    rng = random.Random(12)
    m = rand_int_matrix(rng, 3)
    obj = json.loads(json.dumps(m.to_json()))
    assert Matrix.from_json(obj, ZZ) == m
    assert Matrix.from_json(obj, ZZ).to_json() == m.to_json()


def test_json_round_trip_rational():
    m = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(-3)],
                              [Fraction(0), Fraction(7, 5)]])
    obj = json.loads(json.dumps(m.to_json()))
    back = Matrix.from_json(obj, QQ)
    assert back == m
    assert back.to_json() == m.to_json()
    assert obj["entries"][0][0] == "1/2"
    assert obj["entries"][0][1] == -3  # integral rationals stay ints


def test_json_round_trip_polynomial(ctx2):
    obj = json.loads(json.dumps(ctx2.adjX.to_json()))
    back = Matrix.from_json(obj, ctx2.domain)
    assert back == ctx2.adjX
    assert back.to_json() == ctx2.adjX.to_json()


def test_json_shape_validation():
    with pytest.raises(ValueError):
        Matrix.from_json({"rows": 2, "cols": 2, "entries": [[1, 2]]}, ZZ)


# ---------------------------------------------------------------------------
# the field elimination against independent oracles
# ---------------------------------------------------------------------------

# 2^61 - 1 and 2^89 - 1 are primes whose packed slots (see
# kernels._row_reduce_mod) span 2 and 3 machine words; 2^89 - 1 is above 2^64
FIELDS = (GF(2), GF(3), GF(101), GF(2_147_483_647), GF(2**61 - 1),
          GF(2**89 - 1), QQ)
FIELD_IDS = ("GF2", "GF3", "GF101", "GF2^31-1", "GF2^61-1", "GF2^89-1", "QQ")


def textbook_product(dom, a_rows, b_rows):
    """The triple loop, each partial sum brought into canonical form."""
    k = len(b_rows)
    m = len(b_rows[0]) if k else 0
    out = []
    for arow in a_rows:
        for j in range(m):
            acc = dom.zero
            for l in range(k):
                acc = dom.coerce(acc + arow[l] * b_rows[l][j])
            out.append(acc)
    return out


def draw_entry(rng, dom):
    if dom is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(dom.p)


def low_rank_rows(rng, dom, n, rank, cols=None):
    """An n-by-cols product (cols defaults to n) of n-by-rank and
    rank-by-cols draws, as rows.

    Its rank is at most ``rank``.  Over GF(p) every entry is then shifted
    by a random multiple of p in [-2p, 2p], so the rows hold negative
    entries, entries >= p and nonzero multiples of p.
    """
    cols = n if cols is None else cols
    u = [[draw_entry(rng, dom) for _ in range(rank)] for _ in range(n)]
    v = [[draw_entry(rng, dom) for _ in range(cols)] for _ in range(rank)]
    flat = textbook_product(dom, u, v) if rank else [dom.zero] * (n * cols)
    if dom is not QQ:
        flat = [e + dom.p * rng.randint(-2, 2) for e in flat]
    return [flat[i * cols:(i + 1) * cols] for i in range(n)]


def brute_force_rank(a):
    """The largest m with a nonzero m-by-m minor, by Laplace expansion."""
    for m in range(min(a.rows, a.cols), 0, -1):
        if any(a.domain.coerce(a.submatrix(s, t).det_laplace())
               for s in matrix.index_subsets(a.rows, m)
               for t in matrix.index_subsets(a.cols, m)):
            return m
    return 0


def laplace_cofactor_adjugate(a):
    n, dom = a.rows, a.domain
    out = []
    for i in range(n):
        for j in range(n):
            keep_r = [k for k in range(n) if k != j]
            keep_c = [k for k in range(n) if k != i]
            c = a.submatrix(keep_r, keep_c).det_laplace()
            out.append(dom.coerce(-c) if (i + j) % 2 else c)
    return Matrix(dom, n, n, out)


def in_canonical_form(dom, values):
    if dom is QQ:
        return all(isinstance(v, Fraction) for v in values)
    return all(0 <= v < dom.p for v in values)


def field_cases(dom):
    """Seeded square matrices of full rank, rank n-1 and rank n-2."""
    rng = random.Random(f"elimination-{dom.name}")
    for n in range(1, 9):
        for rank in sorted({n, n - 1, max(n - 2, 0)}, reverse=True):
            for _ in range(2 if n <= 5 else 1):
                yield Matrix.from_rows(dom, low_rank_rows(rng, dom, n, rank))


@pytest.mark.parametrize("dom", FIELDS, ids=FIELD_IDS)
def test_elimination_agrees_with_independent_oracles(dom):
    ranks = set()
    for a in field_cases(dom):
        n = a.rows
        laplace = a.det_laplace()
        assert a.det_bareiss() == laplace
        for det in (a.det(), a._det_gauss()):
            assert det == laplace
            assert in_canonical_form(dom, [det])
        rank = a.rank()
        assert rank == brute_force_rank(a)
        ranks.add(n - rank)
        adj = a.adjugate()
        assert adj == laplace_cofactor_adjugate(a)
        assert in_canonical_form(dom, adj.entries)
        if rank == n:
            inv = a.inverse()
            assert in_canonical_form(dom, inv.entries)
            assert a * inv == Matrix.identity(dom, n)
            assert inv * a == Matrix.identity(dom, n)
        else:
            with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                a.inverse()
    # every case kind was met: nonsingular, corank one and corank two
    assert {0, 1, 2} <= ranks


@pytest.mark.parametrize("dom", FIELDS, ids=FIELD_IDS)
def test_reduction_of_a_with_identity_is_rref_and_records_the_ops(dom):
    for a in field_cases(dom):
        n = a.rows
        work, pivots, det = a._reduce_with_identity()
        if len(pivots) == n:
            assert det == a.det_bareiss()
        r_part = [row[:n] for row in work]
        e_part = [row[n:] for row in work]
        for r, c in enumerate(pivots):
            # a leading one, zeros left of it and above and below it
            assert not any(r_part[r][:c])
            assert [row[c] for row in r_part] == [int(i == r) for i in range(n)]
        assert not any(v for row in r_part[len(pivots):] for v in row)
        assert in_canonical_form(dom, [v for row in work for v in row])
        # E * A = R, by the textbook product
        assert textbook_product(dom, e_part, a.to_rows()) == \
            [v for row in r_part for v in row]


def test_elimination_reduces_unnormalized_entries_once():
    dom = GF(7)
    raw = [[-1, 14, 3], [8, -7, 0], [7, 2, -15]]
    a = Matrix.from_rows(dom, raw)
    b = Matrix.from_rows(dom, [[v % 7 for v in row] for row in raw])
    assert a.det() == b.det() == b.det_laplace()
    assert a.rank() == b.rank() == 3
    assert a.inverse().to_rows() == b.inverse().to_rows()
    # the first column is 6, 1, 0: a stored 7 must not become a pivot
    zero_col = Matrix.from_rows(dom, [[7, 1], [-14, 2]])
    assert zero_col.rank() == 1
    assert zero_col._det_gauss() == 0


def test_gf_equality_compares_residues():
    dom = GF(7)
    a = Matrix.from_rows(dom, [[-1, 0], [0, 8]])
    b = Matrix.from_rows(dom, [[6, 0], [0, 1]])
    assert a.det() == b.det() and a.to_json() == b.to_json()
    assert a == b and b == a
    assert a != Matrix.from_rows(dom, [[5, 0], [0, 1]])
    assert a != Matrix.from_rows(dom, [[6, 0, 0], [0, 1, 0]])
    # integers still compare as integers
    assert Matrix.from_rows(ZZ, [[-1]]) != Matrix.from_rows(ZZ, [[6]])


def oracle_pivots(dom, rows, ncols):
    """The pivot columns of an echelon form: each column of the first
    ``ncols`` that is independent of the columns before it."""
    pivots: list[int] = []
    for c in range(ncols):
        cols = pivots + [c]
        sub = Matrix.from_rows(dom, [[row[j] for j in cols] for row in rows])
        if brute_force_rank(sub) == len(cols):
            pivots.append(c)
    return pivots


def rectangular_cases(dom):
    """Seeded wide and tall matrices of full rank, rank 1 and rank 0."""
    rng = random.Random(f"rectangular-{dom.name}")
    for nrows, ncols in ((1, 4), (2, 5), (3, 7), (4, 6), (5, 2), (6, 3),
                         (7, 4)):
        for rank in sorted({min(nrows, ncols), 1, 0}):
            yield low_rank_rows(rng, dom, nrows, rank, ncols)


@pytest.mark.parametrize("dom", FIELDS, ids=FIELD_IDS)
def test_rectangular_reductions_match_independent_oracles(dom):
    for rows in rectangular_cases(dom):
        nrows, ncols = len(rows), len(rows[0])
        a = Matrix.from_rows(dom, rows)
        want = oracle_pivots(dom, rows, ncols)
        # the echelon and the reduced echelon form, rows in canonical form;
        # over GF(p) the echelon form leaves the rows as given
        for reduced in (False, True):
            work = [row[:] for row in rows]
            pivots, _ = matrix._row_reduce(work, ncols, dom, reduced)
            assert pivots == want
            if dom is not QQ and not reduced:
                assert work == rows
                continue
            assert in_canonical_form(dom, [v for row in work for v in row])
            for r, c in enumerate(pivots):
                assert not any(work[r][:c]) and work[r][c]
                assert not any(row[c] for row in work[r + 1:])
                if reduced:
                    assert [row[c] for row in work] == \
                        [int(i == r) for i in range(nrows)]
            assert not any(v for row in work[len(pivots):] for v in row)
        # [A | I] reduced by the pivots of A: E * A = R
        aug = [row + [dom.one if j == i else dom.zero for j in range(nrows)]
               for i, row in enumerate(rows)]
        pivots, _ = matrix._row_reduce(aug, ncols, dom, reduced=True)
        assert pivots == want
        assert in_canonical_form(dom, [v for row in aug for v in row])
        assert textbook_product(dom, [row[ncols:] for row in aug], rows) == \
            [dom.coerce(v) for row in aug for v in row[:ncols]]
        assert _column_space_basis(a) == [[row[c] for row in rows]
                                          for c in want]


def test_slots_hold_one_update_per_pivot():
    # row k < 7 is e_k - e_7 and row 7 is (1, ..., 1, 5), so each of the
    # seven pivots adds (p - 1)^2 to the last slot of row 7, and 7 (p-1)^2
    # exceeds 2^64, the width one update would need at p = 2^31 - 1
    dom = GF(2_147_483_647)
    p, n = dom.p, 8
    rows = [[int(j == i) for j in range(n - 1)] + [p - 1]
            for i in range(n - 1)] + [[1] * (n - 1) + [5]]
    a = Matrix.from_rows(dom, rows)
    det = (5 + n - 1) % p
    assert a.det() == a.det_bareiss() == det
    assert a.rank() == n
    inv = a.inverse()
    assert a * inv == inv * a == Matrix.identity(dom, n)
    assert a.adjugate() == cofactor_adjugate(a)
    assert a.compound(n - 1) == textbook_compound(a, n - 1)
    # a product slot takes k products of at most (p - 1)^2
    minus = Matrix.from_rows(dom, [[p - 1] * n for _ in range(n)])
    assert (minus * minus).entries == [n] * (n * n)


# ---------------------------------------------------------------------------
# the numeric product and the prime-field inverse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dom", (ZZ, QQ, GF(2), GF(101), GF(2_147_483_647),
                                 GF(2**61 - 1), GF(2**89 - 1)),
                         ids=("ZZ", "QQ", "GF2", "GF101", "GF2^31-1",
                              "GF2^61-1", "GF2^89-1"))
def test_product_matches_the_textbook_triple_loop(dom):
    rng = random.Random(f"product-{dom.name}")

    def draw():
        if dom is ZZ:
            return rng.randint(-50, 50)
        if dom is QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        # any int representative, negative and >= p included
        return rng.randint(-3 * dom.p, 3 * dom.p)

    for n, k, m in ((1, 1, 1), (2, 3, 4), (4, 1, 3), (5, 5, 5), (3, 7, 2)):
        a_rows = [[draw() for _ in range(k)] for _ in range(n)]
        b_rows = [[draw() for _ in range(m)] for _ in range(k)]
        got = Matrix.from_rows(dom, a_rows) * Matrix.from_rows(dom, b_rows)
        want = textbook_product(dom, a_rows, b_rows)
        assert (got.rows, got.cols) == (n, m)
        assert got.entries == want
        if dom is not ZZ:
            assert in_canonical_form(dom, got.entries)


@pytest.mark.parametrize("dom", (ZZ, QQ, GF(101)), ids=("ZZ", "QQ", "GF101"))
def test_product_over_an_empty_inner_dimension_is_zero(dom):
    a = Matrix(dom, 3, 0, [])
    b = Matrix(dom, 0, 2, [])
    got = a * b
    assert (got.rows, got.cols) == (3, 2)
    assert got.entries == [dom.zero] * 6
    assert all(type(v) is type(dom.zero) for v in got.entries)


@pytest.mark.parametrize("p", (2, 3, 101, 2_147_483_647))
def test_prime_field_inverse(p):
    dom = GF(p)
    rng = random.Random(p)
    for a in [1, p - 1] + [rng.randrange(1, p) for _ in range(50)]:
        for rep in (a, a - p, a + 5 * p):
            assert dom.inv(rep) * a % p == 1
            assert 0 <= dom.inv(rep) < p
    for zero in (0, p, -3 * p):
        with pytest.raises(ZeroDivisionError):
            dom.inv(zero)


# ---------------------------------------------------------------------------
# matrices of minors and the numeric Laplace expansion against textbook
# oracles
# ---------------------------------------------------------------------------

def textbook_minor(a, rows, cols):
    return a.submatrix(rows, cols).det_bareiss() if rows else a.domain.one


def textbook_compound(a, m):
    subs = list(itertools.combinations(range(a.rows), m))
    return Matrix(a.domain, len(subs), len(subs),
                  [textbook_minor(a, s, t) for s in subs for t in subs])


def textbook_complementary_compound(a, m):
    """(S, T) entry: (-1)^(1-based sum S + sum T) det A(S^c | T^c)."""
    n, dom = a.rows, a.domain
    subs = list(itertools.combinations(range(n), m))
    out = []
    for s in subs:
        for t in subs:
            c = textbook_minor(a, [i for i in range(n) if i not in s],
                               [j for j in range(n) if j not in t])
            sign = sum(i + 1 for i in s) + sum(j + 1 for j in t)
            out.append(dom.coerce(-c) if sign % 2 else c)
    return Matrix(dom, len(subs), len(subs), out)


def minor_cases(dom):
    """Seeded square matrices: n = 1..5 over ZZ, n = 1..7 over a field,
    where the minors read from one reduction need j = 3 from n = 6 on.
    Over a field also rank n-1 and n-2, so some row sets are deficient,
    matrices whose row sets differ in their pivots (``pivot_variety_rows``),
    and over QQ int entries, whose minors must still be Fractions."""
    rng = random.Random(f"minors-{dom.name}")
    for n in range(1, 6 if dom is ZZ else 8):
        if dom is ZZ:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        elif dom is QQ:
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)]
        else:
            # representatives outside [0, p), negative ones included
            rows = [[rng.randint(-3 * dom.p, 3 * dom.p) for _ in range(n)]
                    for _ in range(n)]
        yield Matrix.from_rows(dom, rows)
    if dom is ZZ:
        return
    for n in range(2, 8):
        for rank in (n - 1, n - 2):
            yield Matrix.from_rows(dom, low_rank_rows(rng, dom, n, rank))
    for n in range(2, 7):
        for rows in pivot_variety_rows(rng, dom, n):
            yield Matrix.from_rows(dom, rows)
    if dom is QQ:
        for n in range(1, 7):
            yield Matrix.from_rows(dom, [[rng.randint(-5, 5) for _ in range(n)]
                                         for _ in range(n)])


def pivot_variety_rows(rng, dom, n):
    """Square matrices whose row sets reduce to different pivot tuples, so
    a minor read by another row set's plan goes wrong."""
    def draw_rows():
        return [[draw_entry(rng, dom) or dom.one for _ in range(n)]
                for _ in range(n)]
    # column 0 is zero on the first half of the rows and column 1 on the
    # second: row sets inside one half pivot past a leading column
    rows = draw_rows()
    for i in range(n):
        rows[i][0 if 2 * i < n else 1] = dom.zero
    yield rows
    # row n-1 repeats row 0 and row 1 is zero: row sets holding both copies
    # or row 1 are rank-deficient, the others are not
    rows = draw_rows()
    rows[-1] = rows[0][:]
    rows[1] = [dom.zero] * n
    yield rows
    # row i is zero left of column n-1-i: row sets of late rows pivot on
    # early columns, those of early rows only on the last columns
    rows = draw_rows()
    for i in range(n):
        rows[i][:n - 1 - i] = [dom.zero] * (n - 1 - i)
    yield rows
    # sparse entries, two in three zero
    yield [[draw_entry(rng, dom) if rng.randrange(3) == 0 else dom.zero
             for _ in range(n)] for _ in range(n)]


def check_minor_matrices(a):
    dom = a.domain
    for m in range(1, a.rows + 1):
        cmp_m = a.compound(m)
        assert cmp_m == textbook_compound(a, m)
        d = a.complementary_compound(m)
        assert d == textbook_complementary_compound(a, m)
        for got in (cmp_m, d):
            if dom is QQ:
                assert all(isinstance(v, Fraction) for v in got.entries)
            elif getattr(dom, "p", None):
                assert all(0 <= v < dom.p for v in got.entries)
    adj = a.adjugate()
    assert adj == cofactor_adjugate(a)
    if dom is QQ:
        assert all(isinstance(v, Fraction) for v in adj.entries)


@pytest.mark.parametrize("dom", (ZZ, QQ, GF(7), GF(2), GF(2_147_483_647)),
                         ids=("ZZ", "QQ", "GF7", "GF2", "GF2^31-1"))
def test_minor_matrices_match_the_textbook_oracle(dom):
    for a in minor_cases(dom):
        check_minor_matrices(a)


def test_field_minor_matrices_reduce_each_row_set_once(monkeypatch):
    # C(10, 2) = 45 row sets, each reduced once over its 10 columns
    rng = random.Random(18)
    dom = GF(2_147_483_647)
    a = Matrix.from_rows(dom, [[rng.randrange(dom.p) for _ in range(10)]
                               for _ in range(10)])
    calls = []
    reduce = matrix._row_reduce

    def counting(*args, **kwargs):
        calls.append(args[1])
        return reduce(*args, **kwargs)

    monkeypatch.setattr(matrix, "_row_reduce", counting)
    c = a.compound(2)
    assert calls == [10] * 45
    calls.clear()
    d = a.complementary_compound(2)
    assert calls == [10] * 45
    monkeypatch.undo()
    assert c * d.transpose() == Matrix.identity(dom, 45).scale(a.det())


@pytest.mark.stress
def test_stress_field_minors_at_classify_sizes():
    # compound(2) of a 16x16 matrix is 120x120
    dom = GF(2_147_483_647)
    rng = random.Random("classify-sizes")
    a = Matrix.from_rows(dom, [[rng.randrange(dom.p) for _ in range(16)]
                               for _ in range(16)])
    det = a.det()
    c = a.compound(2)
    assert (c.rows, c.cols) == (120, 120)
    assert c * a.complementary_compound(2).transpose() == \
        Matrix.identity(dom, 120).scale(det)
    assert c.det() == pow(det, 15, dom.p)
    # complementary_compound(3) of a rank-5 6x6 integer point, against
    # each minor by Bareiss over ZZ, reduced mod p
    for p in (2, 3):
        while True:
            u = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(6)]
            v = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*v)]
                    for row in u]
            point = Matrix.from_rows(GF(p), rows)
            if point.rank() == 5:
                break
        want = textbook_complementary_compound(Matrix.from_rows(ZZ, rows), 3)
        assert point.complementary_compound(3).entries == \
            [e % p for e in want.entries]


def test_minor_matrices_of_the_generic_matrix_match_the_textbook_oracle(ctx3):
    check_minor_matrices(ctx3.X)


# symbolic matrices of minors: one key alignment per matrix and one Laplace
# kernel call per minor, against Bareiss and against their GF(p) images

POLY_MODES = ({}, {"rational": True}, {"p": 7})
POLY_MODE_IDS = ("ZZ", "QQ", "GF7")


def generic_matrix(n, **mode):
    ring = PolyRing.generic(n, **mode)
    return Matrix.from_rows(PolynomialDomain(ring),
                            [[ring.var(f"x_{i}_{j}") for j in range(1, n + 1)]
                             for i in range(1, n + 1)])


def draw_poly(rng, ring, exps, terms=3):
    """Up to ``terms`` terms with exponent vectors from ``exps()``."""
    def coeff():
        c = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
        return Fraction(c, rng.randint(1, 3)) if ring.rational else c
    return ring.from_terms({exps(): coeff()
                            for _ in range(rng.randint(0, terms))})


def degree_40_matrix(rng, ring):
    """4-by-4, entries of degree at most 40, so each entry's keys fit
    7-bit fields, and so do the minors of order 3 (degree 120), but not
    those of order 4 (degree 160)."""
    def exps():
        i, j = rng.randint(0, 40), rng.randint(0, 40)
        return (40 - max(i, j), min(i, j), max(i, j) - min(i, j))
    return Matrix.from_rows(PolynomialDomain(ring),
                            [[draw_poly(rng, ring, exps, 2) or ring.one
                              for _ in range(4)] for _ in range(4)])


def poly_minor_cases(mode):
    """Seeded square polynomial matrices, n = 1..4: the generic matrix,
    sparse entries of low degree in a, b, c, entries at two key widths
    (7 and 15 data bits, the diagonal times a^130), and
    ``degree_40_matrix``."""
    rng = random.Random(f"poly-minors-{sorted(mode.items())}")
    ring = PolyRing(("a", "b", "c"), **mode)
    dom = PolynomialDomain(ring)
    wide = ring.from_terms({(130, 0, 0): 1})

    def low():
        return tuple(rng.randint(0, 2) for _ in range(3))
    for n in range(1, 5):
        yield generic_matrix(n, **mode)
        for _ in range(2):
            yield Matrix.from_rows(dom, [[draw_poly(rng, ring, low)
                                          for _ in range(n)]
                                         for _ in range(n)])
        mixed = Matrix.from_rows(
            dom, [[(draw_poly(rng, ring, low) or ring.one)
                   * (wide if i == j else ring.one)
                   for j in range(n)] for i in range(n)])
        assert n == 1 or len({f.width for f in mixed.entries if f}) == 2
        yield mixed
    yield degree_40_matrix(rng, ring)


def residue(v, p):
    """The image in GF(p) of an int or a Fraction."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


@pytest.mark.parametrize("mode", POLY_MODES, ids=POLY_MODE_IDS)
def test_polynomial_minor_matrices_match_the_textbook_oracle(mode):
    for a in poly_minor_cases(mode):
        check_minor_matrices(a)


@pytest.mark.parametrize("mode", POLY_MODES, ids=POLY_MODE_IDS)
def test_polynomial_minors_widen_their_keys_with_the_order(mode):
    a = degree_40_matrix(random.Random(40), PolyRing(("a", "b", "c"), **mode))
    assert {f.width for f in a.entries} == {7}
    assert {f.width for f in a.compound(3).entries} == {7}
    assert {f.width for f in a.compound(4).entries} == {15}
    check_minor_matrices(a)


@pytest.mark.parametrize("mode", POLY_MODES, ids=POLY_MODE_IDS)
def test_polynomial_minor_matrices_match_their_gf_p_images(mode):
    # the symbolic minors at seeded points against the field minors of the
    # matrix at the same points, which come from elimination
    p = mode.get("p", 2_147_483_647)
    field = GF(p)
    rng = random.Random(f"poly-minors-at-points-{p}")
    for a in poly_minor_cases(mode):
        names = a.domain.ring.names
        for _ in range(2):
            point = {name: rng.randrange(p) for name in names}

            def at(m):
                return m.map_entries(
                    lambda f: residue(f.evaluate(point), p), field)
            b = at(a)
            for m in range(1, a.rows + 1):
                assert at(a.compound(m)) == b.compound(m)
                assert at(a.complementary_compound(m)) == \
                    b.complementary_compound(m)
            assert at(a.adjugate()) == b.adjugate()


def counting_laplace_kernels(monkeypatch):
    """Wrap both names of the Laplace kernel; returns the list of
    (span name, rows) of their calls."""
    calls = []
    for name, span in (("det_laplace_terms", "kernels.det_tuple"),
                       ("packed_det_laplace", "kernels.packed_det")):
        def counting(rows, *args, _kernel=getattr(kernels, name), _span=span):
            calls.append((_span, len(rows)))
            return _kernel(rows, *args)
        monkeypatch.setattr(kernels, name, counting)
    return calls


def test_polynomial_minor_matrices_make_one_kernel_call_per_minor(
        ctx4, monkeypatch):
    def refuse(self):
        raise AssertionError("a minor went through Matrix.det")

    monkeypatch.setattr(Matrix, "det", refuse)
    monkeypatch.setattr(Matrix, "det_laplace", refuse)
    calls = counting_laplace_kernels(monkeypatch)
    x, n = ctx4.X, 4
    for m in range(1, n + 1):
        c = x.compound(m)
        assert [k for _, k in calls] == [m] * comb(n, m) ** 2
        calls.clear()
        d = x.complementary_compound(m)
        # the empty minor of order n - m = 0 is one, with no kernel call
        assert [k for _, k in calls] == [n - m] * comb(n, m) ** 2 * (m < n)
        calls.clear()
        if m == 2:
            assert c * d.transpose() == \
                Matrix.identity(x.domain, comb(n, m)).scale(ctx4.detX)
    assert x.adjugate() == ctx4.adjX
    assert [k for _, k in calls] == [n - 1] * n ** 2


def test_laplace_size_route(ctx3, ctx4, monkeypatch):
    # the two names of one engine, chosen by the terms of the grid plus
    # those of the expected factors, or by seven rows or more
    det2 = ctx4.det_power(2)
    calls = counting_laplace_kernels(monkeypatch)

    def spans(run):
        calls.clear()
        run()
        return [span for span, _ in calls]

    small, large = "kernels.det_tuple", "kernels.packed_det"
    # det(adj X) = det(X)^2 * det(X) at n = 4: a grid of 96 terms, and
    # 96 + 24 + |det(X)^2| with the factors
    assert sum(map(len, ctx4.adjX.entries)) < 128
    assert spans(lambda: ctx4.adjX.det_equals(det2, ctx4.detX)) == [large]
    # at n = 3: 18 + 6 + 6 terms
    assert spans(lambda: ctx3.adjX.det_equals(ctx3.detX, ctx3.detX)) == \
        [small]
    ring = PolyRing(("a", "b"))
    dom = PolynomialDomain(ring)
    a, b, one = ring.var("a"), ring.var("b"), ring.one
    big = [(a + b + 1) ** 7, (a + 2 * b + 1) ** 7, (a - b + 2) ** 7]
    assert [len(f) for f in big] == [36] * 3
    # 36 + 36 + 36 + 20 = 128 terms take the large route, and 127 not
    for tail, span in (((a + 1) ** 19, large), ((a + 1) ** 18, small)):
        grid = Matrix.from_rows(dom, [big[:2], [big[2], tail]])
        assert spans(grid.det) == [span]
    # row set {0, 1} of compound(2) holds four 36-term entries, the row
    # sets with row 2 two of them and two monomials
    y = Matrix.from_rows(dom, [big, big[1:] + big[:1], [a, b, one]])
    assert spans(lambda: y.compound(2)) == [large] * 3 + [small] * 6
    assert spans(lambda: y.compound(1)) == [small] * 9
    # adj(Y) reads the row sets {1, 2}, {0, 2} and {0, 1}
    assert spans(y.adjugate) == [small] * 6 + [large] * 3
    assert spans(y.det) == [large]
    # seven rows take the large route at any size
    assert spans(Matrix.identity(dom, 7).det) == [large]
    assert spans(Matrix.identity(dom, 6).det) == [small]


@pytest.mark.parametrize("dom", (ZZ, QQ, GF(7), GF(2_147_483_647)),
                         ids=("ZZ", "QQ", "GF7", "GF2^31-1"))
def test_numeric_laplace_matches_bareiss_in_the_domain_type(dom):
    rng = random.Random(f"laplace-{dom.name}")
    for n in range(7):
        for _ in range(3):
            if dom is ZZ:
                rows = [[rng.randint(-20, 20) for _ in range(n)]
                        for _ in range(n)]
            elif dom is QQ:
                # int entries: the result is still a Fraction
                rows = [[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(n)]
            else:
                rows = [[rng.randint(-3 * dom.p, 3 * dom.p) for _ in range(n)]
                        for _ in range(n)]
            a = Matrix(dom, n, n, [v for row in rows for v in row])
            det = a.det_laplace()
            assert det == a.det_bareiss()
            if dom is ZZ:
                assert type(det) is int
            elif dom is QQ:
                assert isinstance(det, Fraction)
            else:
                assert type(det) is int and 0 <= det < dom.p
    singular = Matrix.from_rows(GF(7), [[7, 14], [1, 3]])
    assert singular.det_laplace() == 0
    assert Matrix.from_rows(QQ, [[2, 0], [0, 3]]).det_laplace() == Fraction(6)


# ---------------------------------------------------------------------------
# operator arithmetic against the same computation over ZZ, reduced mod p
# ---------------------------------------------------------------------------

OPERATOR_DOMAINS = (GF(2), GF(7), GF(2_147_483_647), QQ)
OPERATOR_IDS = ("GF2", "GF7", "GF2^31-1", "QQ")


def draw_int(rng, dom):
    """An int entry: over GF(p) any representative, outside [0, p) too."""
    if dom is QQ:
        return rng.randint(-9, 9)
    return rng.randint(-3 * dom.p, 3 * dom.p)


def zero_rep(rng, dom):
    """A stored zero: over GF(p) a nonzero multiple of p."""
    return 0 if dom is QQ else dom.p * rng.choice((-2, -1, 1, 2))


def mod_p(dom, values):
    """Integer results as the field holds them: residues over GF(p)."""
    return list(values) if dom is QQ else [v % dom.p for v in values]


@pytest.mark.parametrize("dom", OPERATOR_DOMAINS, ids=OPERATOR_IDS)
def test_entrywise_operators_match_integer_arithmetic(dom):
    rng = random.Random(f"operators-{dom.name}")
    for rows, cols in ((1, 1), (2, 3), (4, 4), (3, 1)):
        a = [draw_int(rng, dom) for _ in range(rows * cols)]
        b = [draw_int(rng, dom) for _ in range(rows * cols)]
        c = draw_int(rng, dom)
        ma, mb = Matrix(dom, rows, cols, a), Matrix(dom, rows, cols, b)
        for got, want in ((ma + mb, [x + y for x, y in zip(a, b)]),
                          (ma - mb, [x - y for x, y in zip(a, b)]),
                          (-ma, [-x for x in a]),
                          (ma.scale(c), [x * c for x in a])):
            assert got.domain is dom and (got.rows, got.cols) == (rows, cols)
            assert got.entries == mod_p(dom, want)


def bareiss_cases(rng, dom):
    """n = 1..6 at random, and permutation matrices with stored zeros: the
    anti-diagonal takes one row swap at n = 2 and n = 3 and two at n = 5,
    and (0 1)(2 3) at n = 4 takes two."""
    for n in range(1, 7):
        for _ in range(4):
            yield n, [draw_int(rng, dom) for _ in range(n * n)]
    for n, perm in ((2, (1, 0)), (3, (2, 1, 0)), (5, (4, 3, 2, 1, 0)),
                    (4, (1, 0, 3, 2))):
        unit = [draw_int(rng, dom) or 1 for _ in range(n)]
        if dom is not QQ:
            unit = [u if u % dom.p else u + 1 for u in unit]
        yield n, [unit[i] if perm[i] == j else zero_rep(rng, dom)
                  for i in range(n) for j in range(n)]


@pytest.mark.parametrize("dom", OPERATOR_DOMAINS, ids=OPERATOR_IDS)
def test_bareiss_matches_the_integer_determinant_reduced(dom):
    rng = random.Random(f"bareiss-{dom.name}")
    for n, entries in bareiss_cases(rng, dom):
        det = Matrix(dom, n, n, entries).det_bareiss()
        assert [det] == mod_p(dom, [Matrix(ZZ, n, n, entries).det_bareiss()])
        if dom is QQ:
            # int entries, a Fraction determinant
            assert isinstance(det, Fraction)


@pytest.mark.parametrize("dom", OPERATOR_DOMAINS, ids=OPERATOR_IDS)
def test_corank_one_adjugate_matches_integer_cofactors(dom):
    rng = random.Random(f"corank-one-{dom.name}")
    for n in range(2, 6):
        for _ in range(2):
            # u * v has rank at most n - 1; keep a draw of rank n - 1
            while True:
                u = [[rng.randint(-3, 3) for _ in range(n - 1)]
                     for _ in range(n)]
                v = [[rng.randint(-3, 3) for _ in range(n)]
                     for _ in range(n - 1)]
                entries = [sum(u[i][k] * v[k][j] for k in range(n - 1))
                           for i in range(n) for j in range(n)]
                if dom is not QQ:
                    entries = [e + dom.p * rng.randint(-2, 2) for e in entries]
                a = Matrix(dom, n, n, entries)
                if a.rank() == n - 1:
                    break
            adj = a.adjugate()
            want = laplace_cofactor_adjugate(Matrix(ZZ, n, n, entries))
            assert adj.entries == mod_p(dom, want.entries)
            # rank n - 1: the adjugate has rank one
            assert any(adj.entries)
            if dom is QQ:
                assert all(isinstance(v, Fraction) for v in adj.entries)
