"""The compiled term kernels against the pure-Python bodies they replace.

``PY`` holds the pure-Python bodies, built on ``kernels._fma`` and
``kernels._det_laplace`` as the Python kernels are; the public names run
the compiled ones.  Every compiled kernel must return what the Python body
returns, on seeded random inputs at several key widths and moduli, on the
inputs it hands back to Python (Fraction coefficients, int64 overflow, keys
too wide), and at the edges (empty operands, the key-0 scalar, a ring with
no variables).  The determinant's ``expect`` comparison must give the
Python body's answer on the true determinant and on planted faults of it,
and so must the pair ``expect = (a, b)`` on a determinant a*b, on faults of
either factor, and on each pair the compiled body hands back to Python.
The kernel tests of test_kernels.py run here once more on each
implementation, through the ``kernel_impl`` fixture.

Merges of ``SPLIT_MIN_PAIRS`` term pairs or more run on two threads, cut
at a pivot key K.  Products and fma just above, at and below the threshold
must match ``_fma`` at every modulus, a compared determinant must refuse
faults on either side of K, and ``split_merges()`` shows which calls split.
In fresh processes: a helper thread that runs out of memory and a signal
during a split product both raise in the caller and leave one thread, and a
difference at the first term of det(X)^4 at n = 5 stops both threads.

The compiled kernels build on this machine, so these tests fail, not skip,
when ``kernels.IMPL`` is not "c"; they skip only when ``ADJKIT_PURE`` asks
for pure Python.
"""

import bisect
import functools
import os
import random
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from adjkit import kernels
from adjkit.domains import PolynomialDomain
from adjkit.matrix import Matrix
from adjkit.polyring import PolyRing, _Layout

from test_kernels import *  # noqa: F401,F403  (rerun under kernel_impl)
# the GF(p) tests of test_matrix, rerun under field_body on the packed body
from test_matrix import (  # noqa: F401
    test_corank_one_adjugate_matches_integer_cofactors,
    test_elimination_agrees_with_independent_oracles,
    test_elimination_reduces_unnormalized_entries_once,
    test_field_adjugate_at_corank_one_reduces_each_row_set_once,
    test_field_adjugate_at_full_rank_reduces_once,
    test_field_adjugate_is_the_cofactor_matrix,
    test_field_adjugate_rank_deficient,
    test_field_minor_matrices_reduce_each_row_set_once,
    test_gauss_det_agrees_with_bareiss, test_gf_equality_compares_residues,
    test_inverse, test_minor_matrices_match_the_textbook_oracle,
    test_polynomial_minor_matrices_match_their_gf_p_images,
    test_rank_of_adjugate_at_corank_one,
    test_rectangular_reductions_match_independent_oracles,
    test_reduction_of_a_with_identity_is_rref_and_records_the_ops,
    test_slots_hold_one_update_per_pivot)

PACKAGE = Path(kernels.__file__).parent
SRC = PACKAGE.parent


def py_mul(a, b, p=0):
    out = {}
    kernels._fma(out, a, b, False, p)
    return out


def py_fma(acc, a, b, negate, p=0):
    kernels._fma(acc, a, b, negate, p)


def py_laplace(rows, p=0, expect=None):
    return kernels._det_laplace(rows, p, expect)


PY = {"mul_terms": py_mul, "packed_mul_terms": py_mul, "fma_terms": py_fma,
      "det_laplace_terms": py_laplace, "packed_det_laplace": py_laplace}
PRIMES = (2, 3, 2_147_483_647)
PURE_ASKED = os.environ.get("ADJKIT_PURE", "") not in ("", "0")

# the compiled names and the aliases bound to them
ALIASES = {"mul_terms": ("mul_terms", "mul_terms_mod"),
           "packed_mul_terms": ("packed_mul_terms",),
           "fma_terms": ("fma_terms", "fma_terms_mod"),
           "det_laplace_terms": ("det_laplace_terms", "det_laplace_terms_mod"),
           "packed_det_laplace": ("packed_det_laplace",)}


def require_compiled():
    if kernels.IMPL != "c":
        if PURE_ASKED:
            pytest.skip("ADJKIT_PURE is set")
        pytest.fail(f"compiled kernels refused: {kernels.IMPL_NOTE}")


def pytest_generate_tests(metafunc):
    # the tests imported from test_kernels run once on each implementation,
    # and those from test_matrix once more, on the packed field elimination
    if metafunc.function.__module__ == "test_kernels":
        metafunc.parametrize("kernel_impl", ["py", "c"], indirect=True)
    elif metafunc.function.__module__ == "test_matrix":
        metafunc.parametrize("field_body", ["packed"], indirect=True)


@pytest.fixture(autouse=True)
def kernel_impl(request, monkeypatch):
    """Bind the kernel names to the implementation a test_kernels test is
    parametrized with; the tests of this file pick theirs by name."""
    impl = getattr(request, "param", None)
    if impl == "c":
        require_compiled()
    elif impl == "py":
        for name, aliases in ALIASES.items():
            for alias in aliases:
                monkeypatch.setattr(kernels, alias, PY[name])
    return impl


@pytest.fixture(autouse=True)
def field_body(request):
    """With the parameter "packed", run a test with the GF(p) row reduction
    ``kernels.row_reduce_mod`` bound to its packed body,
    ``kernels._row_reduce_mod``, and check that it ran.  test_matrix runs
    the same tests on the compiled one.  A domain other than GF(p) with
    p < 2^32 runs the packed body or none on both, so its rerun is
    skipped."""
    if getattr(request, "param", None) != "packed":
        yield None
        return
    dom = getattr(request.node, "callspec", None)
    dom = dom and dom.params.get("dom")
    if dom is not None and not getattr(dom, "p", 1 << 32) < 1 << 32:
        pytest.skip(f"{dom.name} runs the same elimination on both bodies")
    calls = []
    packed = kernels._row_reduce_mod

    def counting(*args):
        calls.append(args[2])
        return packed(*args)

    # its own patch, which a test's monkeypatch.undo() leaves in place
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "row_reduce_mod", counting)
        yield "packed"
    assert calls, "the packed body never ran"


def c_kernels():
    require_compiled()
    return {name: getattr(kernels, name) for name in ALIASES}


def planted_faults(det, p):
    """Canonical term dicts that differ from det: one coefficient off by
    one, the last (smallest) term dropped, an extra term below the last, the
    last term's key moved below it, and for a zero det a nonzero one."""
    if not det:
        return [{0: 1}, {1: 1}]
    keys = sorted(det, reverse=True)
    mid, last = keys[len(keys) // 2], keys[-1]
    off = dict(det)
    off[mid] = (det[mid] + 1) % p if p else det[mid] + 1
    if not off[mid]:
        del off[mid]
    dropped = {k: det[k] for k in keys[:-1]}
    faults = [off, dropped]
    if last:
        faults += [{**det, last - 1: 1}, {**dropped, last - 1: det[last]}]
    return faults


def check_expect(ck, grid, p, want):
    """Both Laplace names, compiled and Python, on ``expect`` = the true
    determinant, planted faults of it and {}."""
    for name in ("det_laplace_terms", "packed_det_laplace"):
        assert ck[name](grid, p, want) is True
        assert ck[name](grid, p, expect=want) is True
        for fault in planted_faults(want, p) + [{}] * bool(want):
            assert ck[name](grid, p, fault) is False
            assert PY[name](grid, p, fault) is False


def rand_dict(rng, layout, nv, terms, deg=3, cmin=-50, cmax=50, p=0):
    out = {}
    for _ in range(terms):
        key = layout.pack([rng.randint(0, deg) for _ in range(nv)])
        c = rng.randint(cmin, cmax)
        if p:
            c %= p
        if c:
            out[key] = c
    return out


def check_all(rng, layout, nv, p, cmin=-50, cmax=50, grids=(1, 2, 3)):
    """Every compiled kernel against its Python body on random inputs."""
    ck = c_kernels()
    for _ in range(8):
        a = rand_dict(rng, layout, nv, rng.randint(0, 12), cmin=cmin,
                      cmax=cmax, p=p)
        b = rand_dict(rng, layout, nv, rng.randint(0, 12), cmin=cmin,
                      cmax=cmax, p=p)
        for name in ("mul_terms", "packed_mul_terms"):
            assert ck[name](a, b, p) == PY[name](a, b, p)
        for negate in (False, True):
            acc = rand_dict(rng, layout, nv, 10, deg=6, cmin=cmin, cmax=cmax,
                            p=p)
            want = dict(acc)
            PY["fma_terms"](want, a, b, negate, p)
            ck["fma_terms"](acc, a, b, negate, p)
            assert acc == want
    for n in grids:
        grid = [[rand_dict(rng, layout, nv, rng.randint(0, 4), deg=2,
                           cmin=cmin, cmax=cmax, p=p) for _ in range(n)]
                for _ in range(n)]
        want = PY["det_laplace_terms"](grid, p)
        for name in ("det_laplace_terms", "packed_det_laplace"):
            assert ck[name](grid, p) == want
        check_expect(ck, grid, p, want)


@pytest.mark.parametrize("width", [8, 16, 32])
@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_compiled_matches_python(width, p):
    rng = random.Random(width * 7 + p)
    # up to 9 fields of width + 1 bits: one to five 64-bit words
    for nv in (1, 3, 8):
        check_all(rng, _Layout(nv, width), nv, p)


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_keys_too_wide_run_in_python(p):
    # 70 fields of 33 bits: wider than the compiled kernels' 2048 bits
    rng = random.Random(11 + p)
    check_all(rng, _Layout(70, 32), 70, p, grids=(1, 2))


@pytest.mark.parametrize("big", [2**62, 2**63 - 1, 2**63, 2**64 + 3, 10**30])
def test_coefficients_near_the_int64_limits(big):
    # exact through the fallback wherever an int64 or the accumulator
    # could overflow
    rng = random.Random(big % 1000)
    layout = _Layout(3, 8)
    check_all(rng, layout, 3, 0, cmin=-big, cmax=big, grids=(1, 2, 3, 4))
    ck = c_kernels()
    x = layout.pack((1, 0, 0))
    for ca in (big, -big, big - 1, -big + 1):
        for cb in (big, -big, 3, -2**62):
            a, b = {x: ca, 0: cb}, {x: cb, 0: ca}
            assert ck["mul_terms"](a, b) == PY["mul_terms"](a, b)
            acc, want = {2 * x: -ca * cb, x: 1}, {2 * x: -ca * cb, x: 1}
            ck["fma_terms"](acc, a, b, False)
            PY["fma_terms"](want, a, b, False)
            assert acc == want
    # minors that outgrow int64 at a middle level of the expansion
    grid = [[{0: big - i - j}, {x: 2**40 + i}, {0: -big + j}]
            for i, j in ((0, 1), (2, 3), (5, 7))]
    want = PY["det_laplace_terms"](grid)
    assert ck["det_laplace_terms"](grid) == want
    check_expect(ck, grid, 0, want)
    # an expect coefficient beyond int64, equal to the determinant's or not
    grid = [[{x: big}, {0: 1}], [{0: -1}, {x: 3}]]
    want = PY["det_laplace_terms"](grid)
    check_expect(ck, grid, 0, want)
    assert ck["det_laplace_terms"](grid, 0, {2 * x: 3 * big + 2**64, 0: 1}) \
        is False


def test_fraction_coefficients():
    ck = c_kernels()
    rng = random.Random(12)
    layout = _Layout(3, 8)
    for _ in range(20):
        a = {k: Fraction(c, rng.randint(1, 9))
             for k, c in rand_dict(rng, layout, 3, 6).items()}
        b = {k: Fraction(c, rng.randint(1, 9))
             for k, c in rand_dict(rng, layout, 3, 6).items()}
        assert ck["mul_terms"](a, b) == PY["mul_terms"](a, b)
        acc = {k: Fraction(c, 5) for k, c in rand_dict(rng, layout, 3, 6).items()}
        want = dict(acc)
        ck["fma_terms"](acc, a, b, True)
        PY["fma_terms"](want, a, b, True)
        assert acc == want
        # an int product into a Fraction accumulator
        ai = rand_dict(rng, layout, 3, 4)
        bi = rand_dict(rng, layout, 3, 4)
        acc, want = dict(acc), dict(acc)
        ck["fma_terms"](acc, ai, bi, False)
        PY["fma_terms"](want, ai, bi, False)
        assert acc == want
        grid = [[a, b], [b, a]]
        want = PY["det_laplace_terms"](grid)
        assert ck["det_laplace_terms"](grid) == want
        check_expect(ck, grid, 0, want)
        # an int grid against a Fraction expect, which only == can compare
        ints = [[ai, bi], [bi, ai]]
        fractions = {k: Fraction(c)
                     for k, c in PY["det_laplace_terms"](ints).items()}
        assert ck["det_laplace_terms"](ints, 0, fractions) is True
    R = PolyRing(("x", "y"), rational=True)
    f = R.parse("1/2*x + 1/3*y")
    assert (f * f).terms == {(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 3),
                             (0, 2): Fraction(1, 9)}


def test_edges():
    ck = c_kernels()
    x = _Layout(2, 8).pack((1, 0))
    for p in (0, 3):
        assert ck["mul_terms"]({}, {x: 1}, p) == {}
        assert ck["mul_terms"]({x: 1}, {}, p) == {}
        assert ck["mul_terms"]({0: 2}, {0: 2}, p) == {0: 4 % p if p else 4}
        assert ck["mul_terms"]({0: 2}, {x: 1, 0: 1}, p) == {x: 2, 0: 2}
        acc = {x: 1}
        ck["fma_terms"](acc, {}, {x: 1}, False, p)
        assert acc == {x: 1}
        assert ck["det_laplace_terms"]([], p) == {0: 1}
        assert ck["det_laplace_terms"]([[{}]], p) == {}
        assert ck["det_laplace_terms"]([[{0: 2}]], p) == {0: 2}
        assert ck["det_laplace_terms"]([[{x: 1}, {}], [{}, {x: 1}]], p) == \
            {2 * x: 1}
        # expect: n = 0, a zero determinant, non-canonical and odd expects,
        # and keys wider than the grid's or than the compiled kernels take
        grid = [[{x: 1}, {0: 2}], [{0: 1}, {x: 1}]]
        det = {2 * x: 1, 0: p - 2 if p else -2}
        for name in ("det_laplace_terms", "packed_det_laplace"):
            for g, expect in (([], {0: 1}), ([], {}), ([[{}]], {}),
                              ([[{}]], {0: 1}), (grid, det),
                              (grid, {**det, x: 0}), (grid, {**det, 0: -2 + p}),
                              (grid, {**det, 0: -2 - p}),
                              (grid, {**det, 1 << 100: 1}),
                              (grid, {**det, 1 << 3000: 1})):
                got = ck[name](g, p, expect)
                assert got is PY[name](g, p, expect), (name, g, expect)
            assert ck[name](grid, p, None) == det
            for kernel in (ck[name], PY[name]):
                with pytest.raises(TypeError, match="expect must be"):
                    kernel(grid, p, [det])
    with pytest.raises(TypeError):
        ck["det_laplace_terms"]([], 0, {}, 1)
    with pytest.raises(TypeError):
        ck["det_laplace_terms"]([], 0, expect={}, p=0)
    # the modulus as a keyword, as the Python bodies take it
    assert ck["mul_terms"]({0: 2}, {0: 2}, p=3) == {0: 1}
    with pytest.raises(TypeError):
        ck["mul_terms"]({0: 2}, {0: 2}, q=3)
    # a ring with no variables: every key is 0
    R = PolyRing(())
    dom = PolynomialDomain(R)
    m = Matrix.from_rows(dom, [[R.const(2), R.const(3)],
                               [R.const(4), R.const(5)]])
    assert m.det_laplace() == R.const(-2) == m.det_bareiss()
    assert R.const(6) * R.const(7) == R.const(42)


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_fma_negate_and_cancel_to_empty(p):
    ck = c_kernels()
    rng = random.Random(13 + p)
    layout = _Layout(4, 8)
    for _ in range(10):
        a = rand_dict(rng, layout, 4, 8, p=p)
        b = rand_dict(rng, layout, 4, 8, p=p)
        acc = ck["mul_terms"](a, b, p)
        ck["fma_terms"](acc, a, b, True, p)
        assert acc == {}
        acc = {k: (-c) % p if p else -c
               for k, c in ck["mul_terms"](a, b, p).items()}
        ck["fma_terms"](acc, a, b, False, p)
        assert acc == {}


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_many_pairs_per_key(p):
    """Merges whose keys each gather many pairs, which the heap chains."""
    ck = c_kernels()
    layout = _Layout(3, 16)
    x, y, z = (layout.pack(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    f = {0: 1}
    for k in range(1, 9):
        f = PY["mul_terms"](f, {x: 1, y: 1, z: 1}, p)
        assert ck["mul_terms"](f, f, p) == PY["mul_terms"](f, f, p)
        acc = PY["mul_terms"](f, f, p)
        ck["fma_terms"](acc, f, f, True, p)
        assert acc == {}
    # a 4x4 grid of one repeated entry: every pair cancels, det 0
    grid = [[f] * 4 for _ in range(4)]
    assert ck["det_laplace_terms"](grid, p) == {}
    assert PY["det_laplace_terms"](grid, p) == {}
    check_expect(ck, grid, p, {})
    # (x + y)^(2^k) has only its two end terms over GF(2)
    g = {x: 1, y: 1}
    for _ in range(5):
        g = ck["mul_terms"](g, g, p)
    if p == 2:
        assert g == {32 * x: 1, 32 * y: 1}
    grid = [[g, f], [f, g]]
    want = PY["det_laplace_terms"](grid, p)
    assert ck["packed_det_laplace"](grid, p) == want
    check_expect(ck, grid, p, want)


@pytest.mark.parametrize("p", [None, 2, 2_147_483_647])
def test_laplace_against_bareiss(p):
    ck = c_kernels()
    rng = random.Random(14 if p is None else p)
    R = PolyRing(("x", "y", "z"), p=p)
    dom = PolynomialDomain(R)
    for n in (1, 2, 3, 4, 5):
        rows = [[R.from_terms({tuple(rng.randint(0, 1) for _ in range(3)):
                               rng.randint(1, 9) for _ in range(rng.randint(0, 3))})
                 for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(dom, rows)
        grid = [[e.packed for e in row] for row in rows]
        got = ck["det_laplace_terms"](grid, p or 0)
        assert got == PY["det_laplace_terms"](grid, p or 0)
        assert R.from_terms({}) + m.det_bareiss() == m.det_laplace()
        assert m.det_laplace().packed == got


# ---------------------------------------------------------------------------
# merges of SPLIT_MIN_PAIRS pairs or more into an array or a comparison, cut
# at a pivot key K and run on two threads: the caller merges the keys at or
# above K, a helper those below.  A merge into a dict runs on one thread.
# ---------------------------------------------------------------------------

SPLIT_LAYOUT = _Layout(3, 8)


def split_terms(rng, count, cmax=50):
    """count terms on distinct monomials of x, y, z of degree at most 20
    in each, so that products share many keys; the coefficients are prime
    to 6, so they stay nonzero mod 2, 3 and 2^31 - 1."""
    coefficients = [c for c in range(-cmax, cmax + 1) if c % 2 and c % 3]
    return {SPLIT_LAYOUT.pack((e % 21, e // 21 % 21, e // 441)):
            rng.choice(coefficients)
            for e in rng.sample(range(21 ** 3), count)}


@functools.cache
def split_operands():
    """a and b with 1024 * 1026 term pairs, and a*b over ZZ."""
    rng = random.Random(21)
    a, b = split_terms(rng, 1024), split_terms(rng, 1026)
    return a, b, py_mul(a, b)


def mod(terms, p):
    """terms over GF(p), or over ZZ when p is 0."""
    return {k: r for k, c in terms.items() if (r := c % p)} if p else terms


def descending(d):
    keys = list(d)
    return all(x > y for x, y in zip(keys, keys[1:]))


def counted_splits(call):
    """call(), and how many merges it ran on two threads."""
    before = kernels.split_merges()
    out = call()
    return out, kernels.split_merges() - before


def test_split_threshold_is_two_to_the_twenty():
    require_compiled()
    assert kernels.SPLIT_MIN_PAIRS == kernels._compiled.SPLIT_MIN_PAIRS == 1 << 20
    # the constant reports the threshold; setting it changes nothing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels._compiled, "SPLIT_MIN_PAIRS", 1)
        assert counted_splits(lambda: kernels.mul_terms({1: 1}, {2: 1}))[1] == 0


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_split_products_and_fma_match_python(p):
    """Products and fma into a dict above, at and just below the split
    threshold of 1024 * 1024 pairs: each runs on one thread and matches the
    Python body."""
    ck = c_kernels()
    a, b, want = split_operands()
    a, b, want = mod(a, p), mod(b, p), mod(want, p)
    top = list(b)
    for drop, above in ((0, True), (2, True), (3, False)):
        part = {k: b[k] for k in top[drop:]}
        ref = dict(want)
        py_fma(ref, a, {k: b[k] for k in top[:drop]}, True, p)
        assert (len(a) * len(part) >= kernels.SPLIT_MIN_PAIRS) == above
        for name in ("mul_terms", "packed_mul_terms"):
            got, ran = counted_splits(lambda: ck[name](a, part, p))
            assert (got, ran) == (ref, 0)
            assert descending(got)
        # acc's terms cancel every third term of the product, above and
        # below K; two keys no product reaches stay
        keys = sorted(ref, reverse=True)[::3]
        for negate in (False, True):
            acc = {SPLIT_LAYOUT.pack((41, 0, 0)): 1,
                   SPLIT_LAYOUT.pack((0, 0, 41)): 1}
            acc.update((k, ref[k]) for k in keys)
            if not negate:
                acc = kernels.neg_terms(acc, p)
            expect = kernels.add_terms(
                acc, kernels.neg_terms(ref, p) if negate else ref, p)
            assert len(expect) == len(ref) - len(keys) + 2
            _, ran = counted_splits(
                lambda: ck["fma_terms"](acc, a, part, negate, p))
            assert (acc, ran) == (expect, 0)


def test_a_coefficient_beyond_int64_in_the_helpers_range():
    """The product's smallest key, below K, with a coefficient of about
    -2^80: a minor's array and the native product of a pair, both split,
    hand the call to Python from the helper's range, and Python decides.
    A product or fma into a dict takes that coefficient on one thread."""
    ck = c_kernels()
    a, b, want = split_operands()
    # the smallest keys of a and b make the product's smallest key alone
    low_a, low_b = min(a), min(b)
    big_a, big_b = {**a, low_a: 2**40 + 3}, {**b, low_b: -(2**40) - 5}
    want = dict(want)
    py_fma(want, {low_a: 2**40 + 3 - a[low_a]}, b, False)
    py_fma(want, big_a, {low_b: -(2**40) - 5 - b[low_b]}, False)
    assert want[low_a + low_b] < -2**80
    assert low_a + low_b < pivot_key([(big_a, big_b)])
    # the minor on rows 0 and 1 is big_a * big_b, in an array
    grid = [[big_a, {}, {}], [{}, big_b, {}], [{}, {}, {0: 1}]]
    assert counted_splits(lambda: ck["packed_det_laplace"](grid, 0)) \
        == (want, 1)
    # the pair's product, merged into an array before the expansion
    diagonal = [[big_a, {}], [{}, big_b]]
    assert counted_splits(lambda: ck["packed_det_laplace"](
        diagonal, 0, (big_a, big_b))) == (True, 1)
    got, ran = counted_splits(lambda: ck["mul_terms"](big_a, big_b))
    assert (got, ran) == (want, 0) and descending(got)
    acc = {low_a + low_b: 1}
    _, ran = counted_splits(lambda: ck["fma_terms"](acc, big_a, big_b, True))
    assert (acc, ran) == (kernels.add_terms({low_a + low_b: 1},
                                            kernels.neg_terms(want)), 0)


def pivot_key(streams):
    """The key at which a compiled compare of the products R*S in
    ``streams`` is cut: of the product with the most pairs (the first such),
    R's middle term plus the first term of S, in descending key order, with
    at least half of all pairs at or above the sum.  R is the operand with
    fewer terms, the first on a tie, as the kernel takes it."""
    streams = [sorted((r, s), key=len) for r, s in streams]
    streams = [(sorted(r, reverse=True), sorted(s)) for r, s in streams]
    total = sum(len(r) * len(s) for r, s in streams)

    def at_or_above(k):
        return sum(len(s) - bisect.bisect_left(s, k - x)
                   for r, s in streams for x in r)

    r, s = max(streams, key=lambda rs: len(rs[0]) * len(rs[1]))
    mid, s = r[len(r) // 2], s[::-1]
    lo, hi = 0, len(s) - 1
    while lo < hi:
        j = (lo + hi) // 2
        if at_or_above(mid + s[j]) >= total // 2:
            hi = j
        else:
            lo = j + 1
    return mid + s[lo]


def fault_at(want, key, kind, p=0):
    """want with one fault at its term ``key``: the coefficient off by one,
    the term dropped, an extra term below it, or the term moved below."""
    out = dict(want)
    below = key - 1
    while below in want:
        below -= 1
    if kind == "off":
        out[key] = (want[key] + 1) % p if p else want[key] + 1
        if not out[key]:
            del out[key]
    elif kind == "dropped":
        del out[key]
    elif kind == "extra":
        out[below] = 1
    else:
        out[below] = out.pop(key)
    return out


@pytest.mark.parametrize("p", [0, 2_147_483_647])
def test_split_compare_finds_planted_faults(p):
    """A 2x2 determinant a*b - c*d whose last level splits when compared:
    True on the true determinant, False on each fault at the first and last
    terms, the quartiles, and the last term below K, each on the side of K
    it lies.  Returned as a dict, the determinant runs on one thread."""
    ck = c_kernels()
    a, b, want = split_operands()
    rng = random.Random(23)
    c, d = split_terms(rng, 40), split_terms(rng, 60)
    a, b, c, d, want = (mod(t, p) for t in (a, b, c, d, want))
    grid = [[a, c], [d, b]]
    want = dict(want)
    py_fma(want, c, d, True, p)
    got, ran = counted_splits(lambda: ck["packed_det_laplace"](grid, p))
    assert (got, ran) == (want, 0) and descending(got)
    # the products of the last level: d * c, then b * a
    k = pivot_key([(d, c), (b, a)])
    keys = sorted(want, reverse=True)
    below_k = max(x for x in keys if x < k)
    assert min(keys) < below_k < k <= max(keys)
    n = len(keys)
    for name in ("det_laplace_terms", "packed_det_laplace"):
        assert counted_splits(lambda: ck[name](grid, p, want)) == (True, 1)
    for key in (keys[0], keys[n // 4], keys[n // 2], keys[3 * n // 4],
                keys[-1], below_k):
        for kind in ("off", "dropped", "extra", "moved"):
            fault = fault_at(want, key, kind, p)
            assert ck["packed_det_laplace"](grid, p, fault) is False, (key, kind)


# ---------------------------------------------------------------------------
# the pair expect = (a, b): the determinant compared with a*b, which the
# compiled kernel merges into a native array first
# ---------------------------------------------------------------------------

def pair_faults(a, b, p):
    """Pairs whose product is not a*b, for nonzero a and b: a coefficient of
    either factor off by one, either factor's last term dropped, and either
    factor zero."""
    def off(f):
        key = sorted(f)[len(f) // 2]
        out = dict(f)
        out[key] = (f[key] + 1) % p if p else f[key] + 1
        if not out[key]:
            del out[key]
        return out

    def dropped(f):
        return {k: c for k, c in f.items() if k != min(f)}

    return [(off(a), b), (a, off(b)), (dropped(a), b), (a, dropped(b)),
            ({}, b), (a, {})]


def check_pair(ck, grid, p, a, b, python=True):
    """True on (a, b) and (b, a) for a grid whose determinant is a*b, False
    on every fault of pair_faults; the same from the Python body when
    ``python``."""
    for name in ("det_laplace_terms", "packed_det_laplace"):
        for pair in ((a, b), (b, a)):
            assert ck[name](grid, p, pair) is True
            assert ck[name](grid, p, expect=pair) is True
            assert not python or PY[name](grid, p, pair) is True
        for pair in pair_faults(a, b, p):
            assert ck[name](grid, p, pair) is False
            assert not python or PY[name](grid, p, pair) is False


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_pair_expect_below_the_split(p):
    """det(adj X) = det(X)^(n-2) * det(X) at n = 3 and 4, and a*b on the
    diagonal of random 2x2 grids at several key widths."""
    from adjkit.factor import GenericContext
    ck = c_kernels()
    for n in (3, 4):
        ctx = GenericContext(n, p=p or None)
        grid = [[e.packed for e in row] for row in ctx.adjX.to_rows()]
        check_pair(ck, grid, p, ctx.det_power(n - 2).packed, ctx.detX.packed)
    rng = random.Random(31 + p)
    for width in (8, 32):
        layout = _Layout(5, width)
        for _ in range(6):
            a, b = (rand_dict(rng, layout, 5, rng.randint(1, 12), p=p)
                    for _ in range(2))
            if a and b:
                check_pair(ck, [[a, {}], [{}, b]], p, a, b)


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_pair_expect_above_the_split(p):
    """The 1024 x 1026 pairs of a*b: the product and the last level both
    split, and every fault is refused on two threads."""
    ck = c_kernels()
    a, b, _ = split_operands()
    a, b = mod(a, p), mod(b, p)
    assert len(a) * len(b) >= kernels.SPLIT_MIN_PAIRS
    grid = [[a, {}], [{}, b]]
    assert counted_splits(lambda: ck["packed_det_laplace"](grid, p, (a, b))) \
        == (True, 2)
    check_pair(ck, grid, p, a, b, python=False)


def test_pair_expect_fallbacks_decide_as_python():
    """Each pair the compiled body hands back to Python: a product
    coefficient beyond int64, a factor's coefficient beyond int64, factors
    whose norms could overflow the accumulator, a Fraction, keys too wide
    for native words and a modulus of 2^32 or more.  A tuple that is not a
    pair, or a member that is not a dict, raises TypeError on both
    bodies."""
    from types import MappingProxyType
    ck = c_kernels()
    layout = _Layout(3, 8)
    x, y, z = (layout.pack(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    wide = 1 << 2100

    def diagonal(a, b):
        return [[a, {}], [{}, b]]

    cases = []
    for p, a, b in ((0, {x: 2**40, y: 3}, {x: 2**40 + 1, z: 5}),
                    (0, {x: 2**70, y: 1}, {z: 3}),
                    (0, {x: 2**62, y: 2**62}, {x: 2**62, z: -2**62}),
                    (0, {x: Fraction(1, 2), y: 1}, {z: 2}),
                    (0, {wide: 1, 0: 2}, {x: 3}),
                    (2**61 - 1, {x: 2**40, y: 3}, {z: 2**50})):
        det = py_mul(a, b, p)
        cases += [(diagonal(a, b), p, (a, b)), ([[det]], p, (a, b)),
                  ([[det]], p, (b, a))]
        cases += [([[det]], p, pair) for pair in pair_faults(a, b, p)]
    # keys that fit the grid's native words but not the product's: beyond
    # 2048 bits, and 2^64, which one word would wrap to the grid's key 0
    cases += [([[{x: 1}]], 0, ({wide: 1}, {0: 1})),
              ([[{0: 1}]], 0, ({1 << 63: 1}, {1 << 63: 1}))]
    a, b = {x: 2, y: 3}, {z: 5}
    det = py_mul(a, b)
    for name in ("det_laplace_terms", "packed_det_laplace"):
        answers = [ck[name](grid, p, pair) for grid, p, pair in cases]
        assert answers == [PY[name](grid, p, pair) for grid, p, pair in cases]
        assert answers.count(True) == 18 and answers.count(False) == 38
        for pair in ((a,), (a, b, b), (MappingProxyType(a), b),
                     (a, MappingProxyType(b))):
            for kernel in (ck[name], PY[name]):
                with pytest.raises(TypeError, match="expect must be"):
                    kernel([[det]], 0, pair)


# ---------------------------------------------------------------------------
# comparisons with a pair on keys mapped onto fewer words: each maximal run
# of set bits in the OR of the grid's and the pair's keys starts a block,
# B_b bounds every block sum the call forms, a block whose sums could carry
# is merged with the next, and phi(k) is the mixed-radix number of the
# block values
# ---------------------------------------------------------------------------

def compacted(call):
    """call(), and the comparisons it ran on mapped keys, as
    {(words, words unmapped): count}."""
    before = kernels.compacted_compares()
    out = call()
    after = kernels.compacted_compares()
    return out, {k: c - before.get(k, 0) for k, c in after.items()
                 if c != before.get(k, 0)}


def fields(*offsets):
    """A key maker: the exponents e_i at the bit offsets given."""
    return lambda *e: sum(x << o for x, o in zip(e, offsets))


def random_grid(rng, n, monomials, p, terms=3):
    """An n x n grid whose entries hold up to ``terms`` of ``monomials``;
    each row has a term at monomials[0], so every row reaches its bound."""
    def entry():
        keys = rng.sample(monomials, rng.randint(0, terms))
        return mod({k: rng.choice((-2, -1, 1, 3)) for k in keys}, p)
    grid = [[entry() for _ in range(n)] for _ in range(n)]
    for row in grid:
        row[rng.randrange(n)][monomials[0]] = 1
    return grid


def check_mapped(grid, p, pair=None, mapped=True):
    """The compiled Laplace kernels against the Python body on grid: the
    determinant; True on it as a dict expect (on its own keys) and as the
    pair (det, 1) (on mapped keys when ``mapped``); False on each planted
    fault, as a dict and as a pair; and given a pair, the same answer as
    Python on it, on (b, a) and on each of its faults."""
    ck = c_kernels()
    want = py_laplace(grid, p)
    one = {0: 1}
    for name in ("det_laplace_terms", "packed_det_laplace"):
        assert ck[name](grid, p) == want
        assert compacted(lambda: ck[name](grid, p, want)) == (True, {})
        same, ran = compacted(lambda: ck[name](grid, p, (want, one)))
        assert same is True
        assert bool(ran) == mapped, ran
        for fault in planted_faults(want, p) + [{}] * bool(want):
            assert ck[name](grid, p, fault) is False
            assert ck[name](grid, p, (fault, one)) is False
            assert ck[name](grid, p, (one, fault)) is False
            assert py_laplace(grid, p, fault) is False
        if pair is not None:
            a, b = pair
            for expect in [(a, b), (b, a)] + pair_faults(a, b, p):
                assert ck[name](grid, p, expect) is \
                    py_laplace(grid, p, expect), expect
    return want


MAP_PRIMES = (0, 2, 3, 2_147_483_647)


@pytest.mark.parametrize("p", MAP_PRIMES)
@pytest.mark.parametrize("n", [3, 4])
def test_mapped_runs_that_must_merge(p, n):
    """x^1 and x^4 set bits 0 and 2 of one field, two runs: with x^1 in
    every row the low block's bound is n, which at n = 3 is 2^2 - 1 (no
    carry) and at n = 4 is 2^2 (a carry into bit 2: the blocks merge).  z
    and t far above make the keys 3 words wide, phi's 1."""
    rng = random.Random(41 * n + p)
    key = fields(0, 70, 150)
    x, x4, z, t = key(1, 0, 0), key(4, 0, 0), key(0, 1, 0), key(0, 0, 1)
    monomials = [x, x4, x + z, x4 + t, z + t, 0]
    for _ in range(6):
        grid = random_grid(rng, n, monomials, p)
        det = check_mapped(grid, p)
        if det:
            b = {x4: 1, t: 1}
            check_mapped([[det, {}], [{}, b]], p, pair=(det, b))
    # the bound is attained: (x*t)^n with a nonzero coefficient
    grid = [[{x + t: 1} if i == j else {} for j in range(n)]
            for i in range(n)]
    assert check_mapped(grid, p) == {n * (x + t): 1}
    _, ran = compacted(lambda: kernels.det_laplace_terms(
        grid, p, ({n * (x + t): 1}, {0: 1})))
    assert ran == {(1, 3): 1}


@pytest.mark.parametrize("p", MAP_PRIMES)
def test_mapped_keys_with_no_layout(p):
    """Keys that are sums of a few bits from a few clusters, with no
    fields: their sums carry from one run of the OR into the next, and
    runs wider than 64 bits keep the keys as they are."""
    rng = random.Random(43 + p)
    for spread, mapped in ((3, True), (1, True), (0, False)):
        bits = [c + rng.randrange(8) for c in (0, 66, 130, 190)]
        bits += [b + rng.randrange(1, 3) for b in bits]
        monomials = [sum(1 << b for b in rng.sample(bits, k))
                     for k in (rng.randint(1, 3) for _ in range(8))]
        if not spread:      # one dense run of 100 bits: no block fits 64
            monomials = [rng.getrandbits(100) | 1 << 99 for _ in range(8)]
        for n in (2, 3, 4):
            grid = random_grid(rng, n, monomials, p, terms=spread or 3)
            check_mapped(grid, p, mapped=mapped)


@pytest.mark.parametrize("p", MAP_PRIMES)
def test_mapped_blocks_straddle_word_boundaries(p):
    """Fields at bits 62 and 126, whose exponents up to 7 reach across the
    64-bit word boundaries, and one at bit 250 that makes 4-word keys."""
    rng = random.Random(47 + p)
    key = fields(62, 126, 250)
    monomials = [key(7, 0, 1), key(1, 3, 0), key(0, 6, 1), key(2, 2, 2),
                 key(5, 0, 0), 0]
    for n in (2, 3, 4):
        for _ in range(3):
            grid = random_grid(rng, n, monomials, p)
            det = check_mapped(grid, p)
            if det:
                b = {key(3, 1, 1): 1, 0: 1}
                check_mapped([[det, {}], [{}, b]], p, pair=(det, b))


@pytest.mark.parametrize("p", MAP_PRIMES)
def test_mapped_expect_keys_above_and_below_the_grid(p):
    """Keys of expect that no sum of grid keys can be: above every block,
    below every block, a bit between blocks, and a block value above its
    bound; each makes the answer False, as in Python, in a dict expect and
    in either factor of a pair, whose keys join phi's blocks and bounds."""
    ck = c_kernels()
    key = fields(3, 70, 140)
    grid = [[{key(1, 0, 1): 1}, {key(0, 1, 0): 1}],
            [{key(0, 2, 0): 1}, {key(1, 0, 1): 1}]]
    det = check_mapped(grid, p)
    strays = [1 << 300, 1, 1 << 64, key(2, 0, 2) + (1 << 20), key(3, 0, 0)]
    for stray in strays:
        for expect in ({**det, stray: 1}, {k: c for k, c in det.items()
                                           if k != max(det)} | {stray: 1}):
            for name in ("det_laplace_terms", "packed_det_laplace"):
                assert ck[name](grid, p, expect) is False
                assert ck[name](grid, p, (expect, {0: 1})) is False
                assert ck[name](grid, p, ({0: 1}, expect)) is False
            assert py_laplace(grid, p, expect) is False
        pair = ({stray: 1}, {0: 1})
        for name in ("det_laplace_terms", "packed_det_laplace"):
            assert ck[name](grid, p, pair) is False
        assert py_laplace(grid, p, pair) is False


@pytest.mark.parametrize("p", MAP_PRIMES)
@pytest.mark.parametrize("n", [1, 3])
def test_mapped_grid_bound_takes_every_row(p, n):
    """det = (x*z)^n, on a diagonal of x*z, against a*b = y*z^n: the pair
    bounds the x block by 0 and the grid by n, one per row.  With a radix
    of n there (the bound without the last row, or B_b in place of
    B_b + 1), y would map onto x^n.  z far above makes the keys 3 words
    wide, phi's 1."""
    ck = c_kernels()
    key = fields(0, 9, 150)
    x, y, z = key(1, 0, 0), key(0, 1, 0), key(0, 0, 1)
    grid = [[{x + z: 1} if i == j else {} for j in range(n)]
            for i in range(n)]
    for a, same in (({y + n * z: 1}, False), ({n * (x + z): 1}, True)):
        for name in ("det_laplace_terms", "packed_det_laplace"):
            got, ran = compacted(lambda: ck[name](grid, p, (a, {0: 1})))
            assert got is same and ran == {(1, 3): 1}
        assert py_laplace(grid, p, (a, {0: 1})) is same
    check_mapped(grid, p)


@pytest.mark.parametrize("p", MAP_PRIMES)
def test_mapped_pair_bound_is_the_sum_of_maxima(p):
    """det = x*y^2 against a*b = x^4*y with a = x^2*y and b = x^2: the
    grid alone bounds the x block by 1 and the pair by 2 + 2, and with a
    radix of 3 (the larger factor's 2, not the sum) x^4*y would map onto
    x*y^2.  z far above makes the keys 3 words wide."""
    ck = c_kernels()
    key = fields(0, 9, 150)
    z = key(0, 0, 1)
    grid = [[{key(1, 2, 0) + z: 1}]]
    pair = ({key(2, 1, 0) + z: 1}, {key(2, 0, 0): 1})
    for name in ("det_laplace_terms", "packed_det_laplace"):
        got, ran = compacted(lambda: ck[name](grid, p, pair))
        assert got is False and ran == {(1, 3): 1}
    assert py_laplace(grid, p, pair) is False
    check_mapped([[pair[0], {}], [{}, pair[1]]], p, pair=pair)


@pytest.mark.parametrize("p", MAP_PRIMES)
def test_incompressible_keys_too_wide_run_in_python(p):
    """(1 << 2100) - 1, a run of 2100 set bits, is wider than the kernels'
    keys: a grid or an expect holding it runs in Python, maps nothing and
    agrees."""
    ck = c_kernels()
    wide = (1 << 2100) - 1
    x = 1 << 5
    neg = p - 1 if p else -1    # -1, canonical at p
    cases = [([[{wide: neg}]], {wide: neg}),
             ([[{wide: 1}]], {wide: 1, x: 1}),
             ([[{wide: 1}, {x: 1}], [{x: 1}, {0: 1}]],
              {wide: 1, 2 * x: neg}),
             ([[{wide: neg}]], ({wide: 1}, {0: neg})),
             ([[{0: 1}]], ({wide: 1}, {0: 1})),
             ([[{x: 1}]], ({wide: 1, x: 1}, {0: 1}))]
    for grid, expect in cases:
        for name in ("det_laplace_terms", "packed_det_laplace"):
            got, ran = compacted(lambda: ck[name](grid, p, expect))
            assert got is py_laplace(grid, p, expect) and ran == {}
    assert [py_laplace(g, p, e) for g, e in cases] == [True, False, True,
                                                       True, False, False]


def test_det_law_at_n5_runs_on_one_word(ctx5):
    """det(adj X) = det(X)^3 * det(X), and not det(X) * det(X): 4-word
    keys, compared on 1-word images."""
    c_kernels()
    law = (ctx5.det_power(3), ctx5.detX)
    assert compacted(lambda: ctx5.adjX.det_equals(*law)) == \
        (True, {(1, 4): 1})
    assert compacted(lambda: ctx5.adjX.det_equals(ctx5.detX, ctx5.detX)) \
        == (False, {(1, 4): 1})


def test_compacted_compares_is_a_read_only_count():
    c_kernels()
    counts = kernels.compacted_compares()
    counts[(1, 1)] = 10 ** 6
    assert kernels.compacted_compares().get((1, 1), 0) < 10 ** 6
    grid = [[{1 << 200: 1}]]
    got, ran = compacted(lambda: kernels.det_laplace_terms(grid, 0))
    assert got == {1 << 200: 1} and ran == {}
    got, ran = compacted(lambda: kernels.det_laplace_terms(grid, 0,
                                                          {1 << 200: 1}))
    assert got is True and ran == {}
    got, ran = compacted(lambda: kernels.det_laplace_terms(
        grid, 0, ({1 << 200: 1}, {0: 1})))
    assert got is True and ran == {(1, 4): 1}


# ---------------------------------------------------------------------------
# the GF(p) row reduction against the packed body it replaces
# ---------------------------------------------------------------------------

# 4294967291 is the largest prime below 2^32, 4294967311 the smallest above
FIELD_PRIMES = (2, 3, 7, 65521, 2_147_483_647, 4_294_967_291)
ABOVE_2_32 = 4_294_967_311


def row_reduce_c():
    require_compiled()
    return kernels.row_reduce_mod


def representatives(rng, p, rows):
    """rows with each entry moved by a multiple of p: some negative, some
    at least p, some beyond 2^64 either way."""
    shifts = (0, 0, 1, -1, 5, -3, 2**70 // p + 1, -(2**66))
    return [[v + p * rng.choice(shifts) for v in row] for row in rows]


def low_rank(rng, p, nrows, count, rank):
    """A random nrows-by-count product of rank at most ``rank``."""
    u = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    v = [[rng.randrange(p) for _ in range(count)] for _ in range(rank)]
    return [[sum(a * b[j] for a, b in zip(row, v)) % p for j in range(count)]
            for row in u]


def reduction_cases(p):
    """Seeded (rows, ncols): 1 to 12 rows, ncols 0, random and the row
    length, each also as [A | I] reduced by the pivots of A; zero,
    rank-deficient and repeated-row squares; and staircases whose pivots
    sit below the rows they move to."""
    rng = random.Random(f"row-reduce-{p}")
    for nrows in range(1, 13):
        count = rng.randint(1, 13)
        a = [[rng.randrange(p) for _ in range(count)] for _ in range(nrows)]
        for ncols in sorted({0, rng.randint(0, count), count}):
            yield representatives(rng, p, a), ncols
        eye = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
        yield representatives(rng, p, [r + e for r, e in zip(a, eye)]), count
    for n in range(1, 9):
        yield representatives(rng, p, [[0] * n for _ in range(n)]), n
        for rank in {n - 1, n // 2}:
            a = low_rank(rng, p, n, n, rank)
            yield representatives(rng, p, a), n
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            yield representatives(rng, p, [r + e for r, e in zip(a, eye)]), n
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        a[-1] = a[0][:]
        yield representatives(rng, p, a), n
        # row i is zero left of column n-1-i: the pivot of column c is on
        # row n-1-c, below the row it must move to
        a = [[rng.randrange(1, p) if j >= n - 1 - i else 0 for j in range(n)]
             for i in range(n)]
        yield representatives(rng, p, a), n


def check_reduction(rows, ncols, p, reduced):
    """The compiled and the packed reduction of rows: the same rows, pivots
    and det, and without ``reduced`` the rows as given.  Returns the rows,
    pivots and det."""
    want, got = [r[:] for r in rows], [r[:] for r in rows]
    expect = kernels._row_reduce_mod(want, ncols, p, reduced)
    assert row_reduce_c()(got, ncols, p, reduced) == expect
    assert got == want
    assert all(type(v) is int for row in got for v in row)
    if not reduced:
        assert got == rows
    return (got, *expect)


@pytest.mark.parametrize("p", FIELD_PRIMES)
def test_row_reduction_matches_the_packed_body(p):
    for rows, ncols in reduction_cases(p):
        for reduced in (False, True):
            check_reduction(rows, ncols, p, reduced)


def test_row_reduction_above_2_32_runs_the_packed_body():
    rows = [[3, -1, 2**70], [5, 7, 11]]
    big = (ABOVE_2_32, 2**89 - 1)
    for p in (4_294_967_291, *big):
        for reduced in (False, True):
            check_reduction(rows, 3, p, reduced)
    # in a fresh process, whose compiled entry has not yet looked up the
    # packed body: only the moduli of 2^32 or more reach it
    code = f"""
        from adjkit import kernels
        assert kernels.IMPL == "c", kernels.IMPL_NOTE
        packed, calls = kernels._row_reduce_mod, []

        def counting(*args):
            calls.append(args[2])
            return packed(*args)

        kernels._row_reduce_mod = counting
        for p in (4_294_967_291, *{big}):
            kernels.row_reduce_mod({rows}, 3, p, True)
        print(*calls)
        """
    done = run_python(code, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(p) for p in big]


def test_row_reduction_raises_the_packed_bodys_errors():
    """Each malformed call raises the same exception type on both bodies:
    the compiled one hands it to the packed body."""
    reduce = row_reduce_c()
    calls = [([[1, 2], [3]], 7, ValueError),
             ([[1, Fraction(1, 2)]], 7, TypeError), ([[1, "2"]], 7, TypeError)]
    calls += [([[1, 2], [3, 4]], p, ValueError) for p in (0, 1, -7)]
    calls += [([[1, 2], [3, 4]], 7.0, TypeError)]
    for work, p, error in calls:
        for body in (kernels._row_reduce_mod, reduce):
            for reduced in (False, True):
                with pytest.raises(error):
                    body([r[:] for r in work], 2, p, reduced)


def test_row_reduction_rejects_malformed_rows():
    reduce = row_reduce_c()
    with pytest.raises(ValueError, match="different lengths"):
        reduce([[1, 2], [3]], 2, 7, False)
    with pytest.raises(TypeError):
        reduce(([1, 2], [3, 4]), 2, 7, False)
    with pytest.raises(TypeError):
        reduce([[1, 2], "ab"], 2, 7, False)
    with pytest.raises(TypeError):
        reduce([[1, 2]], 2, 7, False, True)
    # a row given twice is read twice and written back as two lists
    row = [2, 3]
    work = [row, row, [1, 1]]
    assert reduce(work, 2, 7, True) == ([0, 1], 1)
    assert work == [[1, 0], [0, 1], [0, 0]] and row == [2, 3]
    assert work[0] is not work[1]


def test_row_reduction_hands_int_subclasses_to_the_packed_body():
    """An int subclass runs Python code in its ``%``, here code that empties
    the row being read.  The compiled entry hands such an entry, and such a
    modulus, to the packed body instead of reading them, and gives its
    result; it read past the emptied row before.  In a fresh process, as
    that read may crash it."""
    code = """
        from adjkit import kernels
        assert kernels.IMPL == "c", kernels.IMPL_NOTE

        class Emptying(int):
            def __mod__(self, p):
                target.clear()
                return int(self) % int(p)

            def __rmod__(self, v):
                target.clear()
                return int(v) % int(self)

        def reduce(body, entry, p):
            global target
            work = [[entry] + list(range(1, 2000)), list(range(2000))]
            target = work[0]
            return body(work, 2000, p, True), work

        for entry, p in ((Emptying(2**70), 7), (3, Emptying(7))):
            print(reduce(kernels.row_reduce_mod, entry, p)
                  == reduce(kernels._row_reduce_mod, entry, p))
        """
    done = run_python(code, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


# each planted fault of the compiled body fails one of the four tests below

@pytest.mark.parametrize("p", FIELD_PRIMES)
def test_row_reduction_negates_the_det_once_per_swap(p):
    # the pivot rows of a permutation matrix, and of a staircase with row
    # i zero left of column 3 - i, move by one swap each when out of place:
    # one swap, one swap, two, and two for the staircase (det 2*3*5*7)
    cases = (([[0, 1], [1, 0]], -1), ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
             ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
             ([[0, 0, 0, 2], [0, 0, 3, 1], [0, 5, 1, 1], [7, 1, 1, 1]], 210))
    for rows, det_zz in cases:
        n = len(rows)
        for reduced in (False, True):
            _, pivots, det = check_reduction(rows, n, p, reduced)
            if det_zz % p:
                assert pivots == list(range(n)) and det == det_zz % p


@pytest.mark.parametrize("p", FIELD_PRIMES)
def test_row_reduction_leaves_every_entry_a_residue(p):
    rng = random.Random(f"residues-{p}")
    for nrows, count in ((3, 5), (6, 6), (8, 10)):
        a = [[rng.randrange(p) for _ in range(count)] for _ in range(nrows)]
        rows = representatives(rng, p, a)
        rows[0][0] = -1 - 3 * p
        for reduced in (False, True):
            got, pivots, det = check_reduction(rows, count, p, reduced)
            assert 0 <= det < p
        assert all(0 <= v < p for row in got for v in row)


@pytest.mark.parametrize("p", FIELD_PRIMES)
def test_reduced_rows_have_unit_pivots(p):
    rng = random.Random(f"unit-pivots-{p}")
    for nrows, count in ((2, 10), (8, 10), (5, 5)):
        rows = [[rng.randrange(p) for _ in range(count)]
                for _ in range(nrows)]
        got, pivots, _ = check_reduction(rows, count, p, True)
        assert pivots
        for r, c in enumerate(pivots):
            assert [row[c] for row in got] == \
                [int(i == r) for i in range(nrows)]


@pytest.mark.parametrize("p", FIELD_PRIMES)
def test_pivots_come_from_the_first_ncols_columns(p):
    rng = random.Random(f"ncols-{p}")
    for n in (2, 4, 7):
        # [A | I] with A of rank n - 1 and a zero first column
        a = low_rank(rng, p, n, n, n - 1)
        for row in a:
            row[0] = 0
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        rows = [r + e for r, e in zip(a, eye)]
        for ncols in range(n + 1):
            for reduced in (False, True):
                _, pivots, _ = check_reduction(rows, ncols, p, reduced)
                assert all(c < ncols for c in pivots)


# ---------------------------------------------------------------------------
# selection, build and robustness, each in a fresh process
# ---------------------------------------------------------------------------

def run_python(code, path=SRC, env=None, timeout=300):
    env = dict(os.environ if env is None else env, PYTHONPATH=str(path))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


def env_without_pure():
    env = dict(os.environ)
    env.pop("ADJKIT_PURE", None)
    return env


def test_adjkit_pure_selects_python_and_default_selects_c():
    code = "from adjkit import kernels; print(kernels.IMPL, kernels.IMPL_NOTE)"
    done = run_python(code, env=dict(env_without_pure(), ADJKIT_PURE="1"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split(None, 1) == ["py", "ADJKIT_PURE is set\n"]
    done = run_python(code, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "c"


def test_memory_error_under_an_address_space_limit():
    code = """
        import resource
        from adjkit import kernels
        assert kernels.IMPL == "c", kernels.IMPL_NOTE
        # 3000 x 3000 distinct products: a dict of about 0.6 GB, and as
        # the minor on rows 0 and 1 of a determinant compared with expect,
        # an array of about 0.14 GB that doubles as it grows
        a = {i << 20: 1 for i in range(3000)}
        b = {j: 1 for j in range(3000)}
        grid = [[a, {}, {}], [{}, b, {}], [{}, {}, {0: 1}]]
        pages = int(open("/proc/self/statm").read().split()[0])
        limit = pages * resource.getpagesize() + (192 << 20)
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
        # 20000 references to one row of 20000 zeros: 0.3 MB of lists, and
        # 3.2 GB of residues for the row reduction
        rows = [[0] * 20000] * 20000
        for call in (lambda: kernels.mul_terms(a, b),
                     lambda: kernels.packed_det_laplace(grid, 0, {0: 1}),
                     lambda: kernels.row_reduce_mod(rows, 20000, 7, False)):
            try:
                call()
            except MemoryError:
                print("MemoryError")
        # the process goes on after the errors
        assert kernels.mul_terms({1: 2}, {2: 3}) == {3: 6}
        grid = [[{1: 2}, {0: 1}], [{0: 1}, {1: 3}]]
        assert kernels.det_laplace_terms(grid) == {2: 6, 0: -1}
        assert kernels.det_laplace_terms(grid, 0, {2: 6, 0: -1}) is True
        assert len(rows) == 20000 and rows[0] is rows[-1]
        work = [[2, 1], [1, 1]]
        assert kernels.row_reduce_mod(work, 2, 7, True) == ([0, 1], 1)
        assert work == [[1, 0], [0, 1]]
        print("done")
        """
    done = run_python(code, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["MemoryError"] * 3 + ["done"]


# the child's thread count, and a split product it must still get right:
# the pair's product a*b and the last level it is compared with, and the
# last level compared with a*b written out, and with one term off
THREADS_AND_A_SPLIT_PRODUCT = """
    def threads():
        for line in open("/proc/self/status"):
            if line.startswith("Threads:"):
                return int(line.split()[1])

    def split_product_is_right():
        S = 1 << 20
        a = {i * S: 1 for i in range(1100)}
        b = {j * S: 2 for j in range(1000)}
        want = {k * S: 2 * (min(k, 999) - max(0, k - 1099) + 1)
                for k in range(2099)}
        off = {**want, 1049 * S: want[1049 * S] + 1}
        grid = [[a, {}], [{}, b]]
        splits = kernels.split_merges()
        same = [kernels.packed_det_laplace(grid, 0, expect)
                for expect in ((a, b), want, off)]
        return (same == [True, True, False]
                and kernels.split_merges() == splits + 4)
    """


def test_a_helper_out_of_memory_raises_memory_error_in_the_caller():
    code = THREADS_AND_A_SPLIT_PRODUCT + """
    import resource
    from adjkit import kernels
    assert kernels.IMPL == "c", kernels.IMPL_NOTE
    # the minor a*b on rows 0 and 1: its 9M pairs from the first 3000 terms
    # of a share 6000 keys at the top, and the caller's half of the pairs
    # lies among them; the 6M from the last 2000 are distinct keys below,
    # which the helper's array, of 96 MB and doubling, cannot hold
    S, D = 1 << 20, 1 << 44
    a = {**{D + i * S: 1 for i in range(3000)}, **{i: 1 for i in range(2000)}}
    b = {j * S: 1 for j in range(3000)}
    grid = [[a, {}, {}], [{}, b, {}], [{}, {}, {0: 1}]]
    pages = int(open("/proc/self/statm").read().split()[0])
    limit = pages * resource.getpagesize() + (96 << 20)
    resource.setrlimit(resource.RLIMIT_AS,
                       (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
    splits = kernels.split_merges()
    try:
        kernels.packed_det_laplace(grid, 0, {0: 1})
    except MemoryError:
        print("MemoryError")
    print(kernels.split_merges() - splits, threads(), split_product_is_right())
    """
    done = run_python(code, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["MemoryError", "1", "1", "True"]


def test_a_signal_during_a_split_product_raises_in_the_caller():
    code = THREADS_AND_A_SPLIT_PRODUCT + """
    import signal, time
    from adjkit import kernels
    assert kernels.IMPL == "c", kernels.IMPL_NOTE

    class Alarm(Exception):
        pass

    def handler(signum, frame):
        raise Alarm

    # the pair's product, 4M distinct keys in a native array, then the
    # last level compared with it: two split merges, in each of which the
    # caller checks signals after every 2^20 keys of its range
    S = 1 << 20
    a = {i * S: 1 for i in range(2000)}
    b = {j: 1 for j in range(2000)}
    grid = [[a, {}], [{}, b]]
    splits = kernels.split_merges()
    start = time.perf_counter()
    assert kernels.packed_det_laplace(grid, 0, (a, b)) is True
    whole = time.perf_counter() - start
    assert kernels.split_merges() == splits + 2
    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, whole / 10)
    start = time.perf_counter()
    try:
        kernels.packed_det_laplace(grid, 0, (a, b))
    except Alarm:
        print("Alarm")
    stopped = time.perf_counter() - start
    print(stopped < whole * 0.7 or (whole, stopped), threads(),
          split_product_is_right())
    """
    done = run_python(code, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["Alarm", "True", "1", "True"]


def test_det_law_at_n5_splits_and_stops_at_the_first_difference():
    """det(adj X) = det(X)^4 at n = 5, compared term by term on two
    threads: True, with the five minors of level 4 and the last level
    split.  A difference at the first term stops both threads, so the call
    is faster than one whose difference is at the last term, which is
    found too (the least of 3 runs each)."""
    code = """
    import time
    from adjkit import factor, kernels
    assert kernels.IMPL == "c", kernels.IMPL_NOTE
    ctx = factor.GenericContext(5)
    want = ctx.det_power(4)
    grid = [[e.packed for e in row] for row in ctx.adjX.to_rows()]
    assert {want.width} == {e.width for row in ctx.adjX.to_rows() for e in row}
    want = want.packed

    def timed(expect):
        splits = kernels.split_merges()
        start = time.perf_counter()
        same = kernels.packed_det_laplace(grid, 0, expect)
        return same, time.perf_counter() - start, kernels.split_merges() - splits

    # whether 3 compares with the term at key off by one all answer False,
    # and the least time they took
    def least(key):
        runs = [timed({**want, key: want[key] + 1}) for _ in range(3)]
        return (not any(same for same, _, _ in runs),
                min(t for _, t, _ in runs))

    same, _, splits = timed(want)
    (first_refused, first_s), (last_refused, last_s) = (
        least(max(want)), least(min(want)))
    print(same, splits, first_refused, last_refused,
          first_s < last_s or (first_s, last_s))
    """
    done = run_python(code, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "6", "True", "True", "True"]


@pytest.mark.stress
def test_det_law_at_n5_refuses_every_planted_fault():
    """Each fault of the 2x2 grid test, on det(X)^4 at n = 5."""
    from adjkit import factor
    ck = c_kernels()
    ctx = factor.GenericContext(5)
    rows = [[e.packed for e in row] for row in ctx.adjX.to_rows()]
    want = ctx.det_power(4).packed
    # the last level's products: entry (4, j) times the minor on rows 0-3
    # and the other four columns
    minors = [ck["det_laplace_terms"]([r[:j] + r[j + 1:] for r in rows[:4]])
              for j in range(5)]
    k = pivot_key([(rows[4][j], minors[j]) for j in range(5)])
    keys = sorted(want, reverse=True)
    below_k = max(x for x in keys if x < k)
    n = len(keys)
    for key in (keys[0], keys[n // 4], keys[n // 2], keys[3 * n // 4],
                keys[-1], below_k):
        for kind in ("off", "dropped", "extra", "moved"):
            fault = fault_at(want, key, kind)
            assert ck["packed_det_laplace"](rows, 0, fault) is False, (key, kind)


def test_source_compiles_without_warnings_under_wall(tmp_path):
    """The build's own command, compiling and linking into tmp_path, with
    every -Wall warning an error (the optimizer's warnings too, which a
    syntax check alone would miss)."""
    from adjkit import _cbuild
    out = tmp_path / _cbuild.target().name
    command = _cbuild.compile_command(_cbuild.SOURCE, out, "0")
    if shutil.which(command[0]) is None:
        pytest.skip(f"no compiler: {command[0]}")
    done = subprocess.run(command + ["-Wall", "-Werror"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert out.stat().st_size > 0


def copy_package(tmp_path, with_extension):
    dst = tmp_path / "adjkit"
    shutil.copytree(PACKAGE, dst, ignore=shutil.ignore_patterns(
        "__pycache__", *(() if with_extension else ("*.so", "*.pyd"))))
    return dst


def test_an_edited_source_is_rebuilt(tmp_path):
    require_compiled()
    pkg = copy_package(tmp_path, with_extension=True)
    (so,) = pkg.glob("_termkernels_c*.so")
    before = so.read_bytes()
    with open(pkg / "_termkernels_c.c", "a") as f:
        f.write("\n/* edited */\n")
    code = """
        from adjkit import kernels
        print(kernels.IMPL, kernels._compiled.__file__)
        print(kernels._compiled.SOURCE_DIGEST)
        """
    done = run_python(code, path=tmp_path, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    impl_line, digest = done.stdout.splitlines()
    assert impl_line == f"c {so}"
    marker = b"adjkit-source-digest:" + digest.encode()
    assert marker in so.read_bytes() and marker not in before
    assert not list(pkg.glob("*.tmp"))


def import_with_patched_build(pkg, patch):
    """Code that loads the copy's build helper, applies ``patch`` to it as
    ``cbuild``, then imports the kernels and prints IMPL and IMPL_NOTE."""
    return f"""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location(
            "adjkit._cbuild", {str(pkg / "_cbuild.py")!r})
        cbuild = importlib.util.module_from_spec(spec)
        sys.modules["adjkit._cbuild"] = cbuild
        spec.loader.exec_module(cbuild)
        {patch}
        from adjkit import kernels
        print(kernels.IMPL)
        print(kernels.IMPL_NOTE)
        assert kernels.mul_terms({{1: 2}}, {{2: 3}}) == {{3: 6}}
        """


def test_a_failed_build_leaves_pure_python_and_is_not_retried(tmp_path):
    pkg = copy_package(tmp_path, with_extension=False)
    runs = tmp_path / "compiler-runs"
    # the compiler fails, and counts its runs
    code = import_with_patched_build(pkg, f"""cbuild.compile_command = \
            lambda source, out, digest: [sys.executable, "-c",
            "open({str(runs)!r}, 'a').write('x');"
            "raise SystemExit('cc: simulated failure')"]""")
    for _ in range(2):
        done = run_python(code, path=tmp_path, env=env_without_pure())
        assert done.returncode == 0, done.stderr
        impl, note = done.stdout.splitlines()
        assert impl == "py"
        assert note == "build error: exit 1: cc: simulated failure"
    # the second import read the recorded failure and did not compile
    assert runs.read_text() == "x"
    (marker,) = pkg.glob("_termkernels_c*.failed-*")
    assert not list(pkg.glob("*.so")) and not list(pkg.glob("*.tmp"))
    # a new source retries, and its build replaces the old record
    with open(pkg / "_termkernels_c.c", "a") as f:
        f.write("\n/* edited */\n")
    done = run_python(code, path=tmp_path, env=env_without_pure())
    assert done.stdout.splitlines()[0] == "py" and runs.read_text() == "xx"
    assert not marker.exists() and len(list(pkg.glob("*.failed-*"))) == 1


def test_a_read_only_tree_is_not_built(tmp_path):
    pkg = copy_package(tmp_path, with_extension=False)
    code = import_with_patched_build(pkg, """cbuild.writable = lambda: False
        cbuild.build = lambda digest: sys.exit("build attempted")""")
    done = run_python(code, path=tmp_path, env=env_without_pure())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["py", "read-only tree"]
    assert not list(pkg.glob("*.so")) and not list(pkg.glob("*.failed-*"))
