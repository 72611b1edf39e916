"""Differential tests of the term kernels.

Reduction mod p is a ring homomorphism, so every kernel run with a prime p
must return the p=0 result reduced mod p; the packed and tuple
representations must agree; and the Laplace and Bareiss determinants, two
independent algorithms, must agree on polynomial matrices.
"""

import random
from fractions import Fraction

import pytest

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


def mod_terms(t, p):
    return {e: c % p for e, c in t.items() if c % p}


@pytest.mark.parametrize("p", PRIMES)
def test_mod_p_results_are_images_of_characteristic_zero(p):
    rng = random.Random(p)
    for _ in range(60):
        nv = rng.randint(1, 6)
        a = rand_terms(rng, nv, 12)
        b = rand_terms(rng, nv, 12)
        ap, bp = mod_terms(a, p), mod_terms(b, p)
        assert kernels.add_terms(ap, bp, p) == mod_terms(kernels.add_terms(a, b), p)
        assert kernels.neg_terms(ap, p) == mod_terms(kernels.neg_terms(a), p)
        c = rng.randint(-9, 9) or 1
        if c % p:
            assert kernels.scale_terms(ap, c % p, p) == \
                mod_terms(kernels.scale_terms(a, c), p)
        assert kernels.mul_terms(ap, bp, p) == mod_terms(kernels.mul_terms(a, b), p)
        assert kernels.packed_mul_terms(ap, bp, nv, p) == \
            mod_terms(kernels.mul_terms(a, b), p)
        for negate in (False, True):
            acc0 = rand_terms(rng, nv, 12, deg=6)
            accp = mod_terms(acc0, p)
            kernels.fma_terms(acc0, a, b, negate)
            kernels.fma_terms(accp, ap, bp, negate, p)
            assert accp == mod_terms(acc0, p)


@pytest.mark.parametrize("p", PRIMES)
def test_division_step_mod_p(p):
    rng = random.Random(10 + p)
    for _ in range(60):
        nv = rng.randint(1, 6)
        b = mod_terms(rand_terms(rng, nv, 6), p)
        if not b:
            continue
        rem0 = mod_terms(rand_terms(rng, nv, 10), p)
        remp = dict(rem0)
        exps = tuple(rng.randint(0, 2) for _ in range(nv))
        coeff = rng.randrange(1, p)
        new0 = kernels.sub_scaled_terms(rem0, exps, coeff, b)
        newp = kernels.sub_scaled_terms(remp, exps, coeff, b, p)
        assert remp == mod_terms(rem0, p)
        # a product of nonzero residues is nonzero: the same keys are new
        assert newp == new0
        assert all(e in remp for e in newp)


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_det_engines_agree(p):
    rng = random.Random(3 + p)
    for n in (1, 2, 3, 4, 5):
        grid = [[rand_terms(rng, 6, 3, 2, 9) for _ in range(n)]
                for _ in range(n)]
        reference = kernels.det_laplace_terms(grid, 6)
        if p:
            gm = [[mod_terms(t, p) for t in row] for row in grid]
            assert kernels.det_laplace_terms(gm, 6, p) == mod_terms(reference, p)
            assert kernels.packed_det_laplace(gm, 6, p) == mod_terms(reference, p)
        else:
            assert kernels.packed_det_laplace(grid, 6) == reference


def test_packed_and_tuple_products_agree():
    rng = random.Random(4)
    for _ in range(40):
        a = rand_terms(rng, 5, 20, 3, 9)
        b = rand_terms(rng, 5, 20, 3, 9)
        assert kernels.packed_mul_terms(a, b, 5) == kernels.mul_terms(a, b)
        fa = {e: Fraction(c, 3) for e, c in a.items()}
        fb = {e: Fraction(c, 7) for e, c in b.items()}
        assert kernels.packed_mul_terms(fa, fb, 5) == kernels.mul_terms(fa, fb)


def test_product_above_the_packed_exponent_limit():
    R = PolyRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    # 100 x 100 term pairs: enough for the packed path, were it safe
    a = x ** 200 * sum((y ** i for i in range(100)), R.zero)
    b = x ** 100 * sum((y ** j for j in range(100)), R.zero)
    prod = a * b
    assert prod.terms == {(300, k): min(k, 198 - k) + 1 for k in range(199)}
    assert prod.terms == kernels.mul_terms(a.terms, b.terms)
    assert prod.terms == kernels.packed_mul_terms(a.terms, b.terms, 2)


def test_det_above_the_packed_exponent_limit():
    R = PolyRing(("x", "y"))
    rng = random.Random(5)
    # 160 terms: enough volume for the packed engine, were it safe
    entries = [Polynomial(R, {(150 + rng.randint(0, 5), k): rng.randint(1, 9)
                              for k in range(40)}) for _ in range(4)]
    a, b, c, d = entries
    m = Matrix.from_rows(PolynomialDomain(R), [[a, b], [c, d]])
    assert m.det_laplace() == a * d - b * c
    # every entry fits in a byte, the determinant does not
    rows = [[a.terms, b.terms], [c.terms, d.terms]]
    assert kernels.packed_det_laplace(rows, 2) == (a * d - b * c).terms
    assert (kernels.packed_det_laplace(rows, 2, 31)
            == kernels.det_laplace_terms(rows, 2, 31))


def test_packed_kernels_in_a_ring_without_variables():
    assert kernels.packed_mul_terms({(): 3}, {(): 5}, 0) == {(): 15}
    assert kernels.packed_det_laplace([[{(): 2}, {(): 3}],
                                       [{(): 4}, {(): 5}]], 0) == {(): -2}


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
    # the packed and the tuple determinant engines give the same polynomial
    R = PolyRing.generic(3)
    rows = [[R.var(f"x_{i}_{j}").terms for j in range(1, 4)]
            for i in range(1, 4)]
    via_tuples = Polynomial(R, kernels.det_laplace_terms(rows, R.nvars))
    via_packed = Polynomial(R, kernels.packed_det_laplace(rows, R.nvars))
    assert via_tuples == via_packed
    assert str(via_tuples) == str(via_packed)
