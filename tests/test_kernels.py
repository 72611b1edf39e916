"""Differential tests of the term kernels and of the packed key layout.

Reduction mod p is a ring homomorphism, so every kernel run with a prime p
must return the p=0 result reduced mod p.  Products and determinants of
packed polynomials must agree with an independent oracle on exponent
tuples, the two size routes must agree with each other, and the Laplace
and Bareiss determinants, two independent algorithms, must agree on
polynomial matrices.  Symbolic results evaluated at a random point must
equal the numeric GF(p) results at that point.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from adjkit import GF, GenericContext, order_key
from adjkit import kernels
from adjkit.domains import PolynomialDomain
from adjkit.matrix import Matrix
from adjkit.polyring import PolyRing, Polynomial

PRIMES = (2, 3, 31, 2_147_483_647)


def rand_terms(rng, nv, max_terms, deg=3, cmax=50):
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, deg) for _ in range(nv))
        out[e] = rng.randint(-cmax, cmax) or 1
    return out


def ring_of(nv):
    return PolyRing([f"v{i}" for i in range(nv)])


def packed(ring, terms):
    """The packed term dict of an exponent-tuple map (at the ring's
    narrowest width, which the small degrees here never leave)."""
    poly = ring.from_terms(terms)
    assert poly.width == 8
    return poly.packed


def mod_terms(t, p):
    return {e: c % p for e, c in t.items() if c % p}


def naive_mul(a, b, p=0):
    """Independent oracle: product of two {exponent tuple: coefficient}
    maps, with no packing."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    if p:
        return mod_terms(out, p)
    return {e: c for e, c in out.items() if c}


def naive_det(grid, nv):
    """Independent oracle: the permutation expansion on exponent tuples."""
    n = len(grid)
    total = {}
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = {(0,) * nv: sign}
        for i in range(n):
            term = naive_mul(term, grid[i][perm[i]])
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


@pytest.mark.parametrize("p", PRIMES)
def test_mod_p_results_are_images_of_characteristic_zero(p):
    rng = random.Random(p)
    for _ in range(60):
        nv = rng.randint(1, 6)
        R = ring_of(nv)
        a = packed(R, rand_terms(rng, nv, 12))
        b = packed(R, rand_terms(rng, nv, 12))
        ap, bp = mod_terms(a, p), mod_terms(b, p)
        assert kernels.add_terms(ap, bp, p) == mod_terms(kernels.add_terms(a, b), p)
        assert kernels.neg_terms(ap, p) == mod_terms(kernels.neg_terms(a), p)
        c = rng.randint(-9, 9) or 1
        if c % p:
            assert kernels.scale_terms(ap, c % p, p) == \
                mod_terms(kernels.scale_terms(a, c), p)
        assert kernels.mul_terms(ap, bp, p) == mod_terms(kernels.mul_terms(a, b), p)
        assert kernels.packed_mul_terms(ap, bp, p) == \
            mod_terms(kernels.mul_terms(a, b), p)
        for negate in (False, True):
            acc0 = packed(R, rand_terms(rng, nv, 12, deg=6))
            accp = mod_terms(acc0, p)
            kernels.fma_terms(acc0, a, b, negate)
            kernels.fma_terms(accp, ap, bp, negate, p)
            assert accp == mod_terms(acc0, p)


@pytest.mark.parametrize("p", PRIMES)
def test_division_step_mod_p(p):
    rng = random.Random(10 + p)
    for _ in range(60):
        nv = rng.randint(1, 6)
        R = ring_of(nv)
        b = mod_terms(packed(R, rand_terms(rng, nv, 6)), p)
        if not b:
            continue
        rem0 = mod_terms(packed(R, rand_terms(rng, nv, 10)), p)
        remp = dict(rem0)
        (key,) = packed(R, {tuple(rng.randint(0, 2) for _ in range(nv)): 1})
        coeff = rng.randrange(1, p)
        new0 = kernels.sub_scaled_terms(rem0, key, coeff, b)
        newp = kernels.sub_scaled_terms(remp, key, coeff, b, p)
        assert remp == mod_terms(rem0, p)
        # a product of nonzero residues is nonzero: the same keys are new
        assert newp == new0
        assert all(e in remp for e in newp)


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_det_engines_agree(p):
    rng = random.Random(3 + p)
    R = ring_of(6)
    for n in (1, 2, 3, 4, 5):
        tuples = [[rand_terms(rng, 6, 3, 2, 9) for _ in range(n)]
                  for _ in range(n)]
        grid = [[packed(R, t) for t in row] for row in tuples]
        reference = kernels.det_laplace_terms(grid)
        if n <= 4:
            assert Polynomial(R, reference).terms == naive_det(tuples, 6)
        if p:
            gm = [[mod_terms(t, p) for t in row] for row in grid]
            assert kernels.det_laplace_terms(gm, p) == mod_terms(reference, p)
            assert kernels.packed_det_laplace(gm, p) == mod_terms(reference, p)
        else:
            assert kernels.packed_det_laplace(grid) == reference


def test_packed_and_tuple_products_agree():
    # both size routes of Polynomial.__mul__ against the tuple oracle
    rng = random.Random(4)
    R, Rq = ring_of(5), PolyRing([f"v{i}" for i in range(5)], rational=True)
    for size in (20, 120):
        for _ in range(10):
            ta = rand_terms(rng, 5, size, 6, 9)
            tb = rand_terms(rng, 5, size, 6, 9)
            a, b = R.from_terms(ta), R.from_terms(tb)
            assert (a * b).terms == naive_mul(a.terms, b.terms)
            fa = Rq.from_terms({e: Fraction(c, 3) for e, c in ta.items()})
            fb = Rq.from_terms({e: Fraction(c, 7) for e, c in tb.items()})
            assert (fa * fb).terms == naive_mul(fa.terms, fb.terms)


def test_product_above_the_packed_exponent_limit():
    R = PolyRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    # 100 x 100 term pairs: the large-product route
    a = x ** 150 * sum((y ** i for i in range(100)), R.zero)
    b = x ** 150 * sum((y ** j for j in range(100)), R.zero)
    prod = a * b
    assert (a.width, b.width, prod.width) == (8, 8, 16)
    assert prod.terms == {(300, k): min(k, 198 - k) + 1 for k in range(199)}
    assert prod.terms == naive_mul(a.terms, b.terms)


def test_det_above_the_packed_exponent_limit():
    rng = random.Random(5)
    for p in (None, 31):
        R = PolyRing(("x", "y"), p=p)
        # 160 terms: the large-determinant route; every entry fits in 8-bit
        # fields, the determinant does not
        entries = [R.from_terms({(150 + rng.randint(0, 5), k): rng.randint(1, 9)
                                 for k in range(40)}) for _ in range(4)]
        a, b, c, d = entries
        m = Matrix.from_rows(PolynomialDomain(R), [[a, b], [c, d]])
        det = m.det_laplace()
        assert det.width == 16
        assert det == a * d - b * c
        if p is None:
            assert det.terms == naive_det([[a.terms, b.terms],
                                           [c.terms, d.terms]], 2)


def test_packed_kernels_in_a_ring_without_variables():
    assert kernels.packed_mul_terms({0: 3}, {0: 5}) == {0: 15}
    assert kernels.packed_det_laplace([[{0: 2}, {0: 3}],
                                       [{0: 4}, {0: 5}]]) == {0: -2}
    R = PolyRing(())
    three, five = R.const(3), R.const(5)
    assert three * five == 15
    assert (three * five).terms == {(): 15}
    assert (three * five).exact_div(five) == three
    assert R.parse(str(three - five)) == R.const(-2)
    assert (three * five).leading() == ((), 15)
    m = Matrix.from_rows(PolynomialDomain(R), [[R.const(2), three],
                                               [R.const(4), five]])
    assert m.det_laplace() == -2 and m.det_bareiss() == -2


@pytest.mark.parametrize("p", (None, 2, 31))
def test_laplace_agrees_with_bareiss(p):
    R = PolyRing(("x", "y", "z"), p=p)
    dom = PolynomialDomain(R)
    rng = random.Random(6 if p is None else p)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            rows = [[R.from_terms(rand_terms(rng, 3, 10, 2, 9))
                     for _ in range(n)] for _ in range(n)]
            m = Matrix.from_rows(dom, rows)
            assert m.det_laplace() == m.det_bareiss()


def test_impl_is_pure_python():
    assert kernels.IMPL == "py"
    assert kernels.fma_terms_mod is kernels.fma_terms
    assert kernels.det_laplace_terms_mod is kernels.det_laplace_terms


def test_results_independent_of_kernel_choice():
    # the two determinant routes give the same polynomial
    R = PolyRing.generic(3)
    rows = [[R.var(f"x_{i}_{j}").packed for j in range(1, 4)]
            for i in range(1, 4)]
    via_small = Polynomial(R, kernels.det_laplace_terms(rows))
    via_large = Polynomial(R, kernels.packed_det_laplace(rows))
    assert via_small == via_large
    assert str(via_small) == str(via_large)


# ---------------------------------------------------------------------------
# the packed layout, seen through Polynomial
# ---------------------------------------------------------------------------

def rand_monomials(rng, nv, count, big):
    """Random exponent vectors; some have exponents above 255."""
    out = set()
    while len(out) < count:
        e = [rng.randint(0, 3) for _ in range(nv)]
        if rng.random() < 0.3:
            e[rng.randrange(nv)] = rng.choice((255, 256, 300, big))
        out.add(tuple(e))
    return sorted(out)


def test_key_order_is_the_canonical_order():
    rng = random.Random(7)
    for nv, count, big in ((1, 8, 70_000), (3, 40, 300), (5, 40, 1 << 20)):
        monos = rand_monomials(rng, nv, count, big)
        poly = PolyRing([f"v{i}" for i in range(nv)]).from_terms(
            {e: 1 for e in monos})
        assert [e for e, _ in poly.sorted_terms()] == \
            sorted(monos, key=order_key, reverse=True)
        assert poly.leading()[0] == max(monos, key=order_key)
        assert sorted(poly.terms) == monos


def test_arithmetic_above_255():
    rng = random.Random(8)
    R = PolyRing(("x", "y", "z"))
    for _ in range(10):
        a = R.from_terms({e: rng.randint(-9, 9) or 1
                          for e in rand_monomials(rng, 3, 6, 400)})
        b = R.from_terms({e: rng.randint(-9, 9) or 1
                          for e in rand_monomials(rng, 3, 6, 200)})
        assert (a * b).terms == naive_mul(a.terms, b.terms)
        assert (a * b).exact_div(b) == a
        assert (a * b).exact_div(a) == b
        assert (a * b + R.var("x")).exact_div(a) is None
        assert R.parse(str(a)) == a and str(R.parse(str(a))) == str(a)
        m = Matrix.from_rows(PolynomialDomain(R), [[a, b], [b, a]])
        assert m.det_laplace() == a * a - b * b == m.det_bareiss()
    x, y = R.var("x"), R.var("y")
    assert str(x ** 1000 * y) == "x^1000*y"
    assert (x ** 256).total_degree() == 256
    assert (x ** 256 * y).is_homogeneous(257)


def test_operands_of_different_widths():
    R = PolyRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    big = x ** 300 * y
    assert (x.width, big.width) == (8, 16)
    assert big - big + x == x
    assert x == big - big + x and x + big != x
    assert x + big - big == x
    assert (x * big).terms == {(301, 1): 1}
    assert (big * x).exact_div(x) == big
    assert (big * x).exact_div(big) == x
    assert (x * y).exact_div(big) is None
    assert big.exact_div(x ** 300) == y
    dom = PolynomialDomain(R)
    m = Matrix.from_rows(dom, [[x, big], [y, x]])
    assert m * m == Matrix.from_rows(dom, [[x * x + big * y, x * big + big * x],
                                           [y * x + x * y, y * big + x * x]])
    assert m.det_laplace() == x * x - big * y


def test_symbolic_results_are_images_of_gf_p_results(monkeypatch):
    p = 2_147_483_647
    ctx = GenericContext(4)
    routes = set()
    for name in ("mul_terms", "packed_mul_terms", "det_laplace_terms",
                 "packed_det_laplace"):
        def counted(*args, _inner=getattr(kernels, name), _name=name):
            routes.add(_name)
            return _inner(*args)
        monkeypatch.setattr(kernels, name, counted)
    powers = [ctx.det_power(k) for k in (1, 2, 3)]
    powers.append(powers[-1] * ctx.detX)                # the large product
    det_adj = ctx.adjX.det_laplace()
    det_mixed = (ctx.adjX + ctx.X * ctx.X).det_laplace()  # the large det
    assert routes == {"mul_terms", "packed_mul_terms",
                           "det_laplace_terms", "packed_det_laplace"}
    rng = random.Random(9)
    dom = GF(p)
    for _ in range(3):
        values = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        point = {f"x_{i + 1}_{j + 1}": values[i][j]
                 for i in range(4) for j in range(4)}
        xp = Matrix.from_rows(dom, values)
        det, adj = xp.det(), xp.adjugate()
        mp = adj + xp * xp
        assert ctx.detX.evaluate(point) % p == det
        for k, power in enumerate(powers, start=1):
            assert power.evaluate(point) % p == pow(det, k, p)
        assert ctx.adjX.map_entries(lambda e: e.evaluate(point) % p, dom) == adj
        assert det_adj.evaluate(point) % p == adj.det() == pow(det, 3, p)
        assert det_mixed.evaluate(point) % p == mp.det()
