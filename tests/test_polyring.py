"""Polynomial ring: canonical arithmetic, exact division, evaluation,
degrees, valuations, and the canonical string format."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjkit import PolyRing, kernels, order_key, random_alternating, sandwich
from adjkit.polyring import Polynomial, _Layout


def det2(ring):
    x11, x12, x21, x22 = (ring.var(f"x_{i}_{j}") for i in (1, 2) for j in (1, 2))
    return x11 * x22 - x12 * x21


# ---------------------------------------------------------------------------
# add / mul basics
# ---------------------------------------------------------------------------

def test_additive_inverse_cancels():
    R = PolyRing.generic(2)
    x = R.var("x_1_1")
    assert (x + (-x)).is_zero()


def test_add_builds_det2():
    R = PolyRing.generic(2)
    p = R.var("x_1_1") * R.var("x_2_2")
    q = -(R.var("x_1_2") * R.var("x_2_1"))
    assert p + q == det2(R)


def test_add_collects_coefficients():
    R = PolyRing.generic(2)
    x = R.var("x_1_1")
    lhs = (x._scaled(2) + R.const(3)) + (x._scaled(5) + R.const(-3))
    assert lhs == x._scaled(7)


def test_mul_identity():
    R = PolyRing.generic(2)
    p = det2(R)
    assert p * R.one == p
    assert p * 1 == p


def test_difference_of_squares():
    R = PolyRing.generic(2)
    a, b = R.var("x_1_1"), R.var("x_1_2")
    assert (a - b) * (a + b) == a * a - b * b


def test_det2_squared_expansion():
    R = PolyRing.generic(2)
    sq = det2(R) * det2(R)
    assert str(sq) == ("x_1_1^2*x_2_2^2 - 2*x_1_1*x_1_2*x_2_1*x_2_2 "
                       "+ x_1_2^2*x_2_1^2")


def test_ring_axioms_on_random_inputs():
    R = PolyRing.generic(2)
    rng = random.Random(0)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 2) for _ in range(R.nvars))
            terms[e] = rng.randint(-9, 9)
        return R.from_terms(terms)

    for _ in range(60):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_mode_mismatch_rejected():
    R = PolyRing.generic(2)
    Rp = PolyRing.generic(2, p=31)
    with pytest.raises(ValueError):
        R.var("x_1_1") + Rp.var("x_1_1")


@pytest.mark.parametrize("p", [None, 7])
def test_equality_with_a_scalar_the_ring_cannot_hold(p):
    ring = PolyRing(("x", "y"), p=p)
    assert not ring.one == Fraction(1, 2)
    assert ring.one != Fraction(1, 2)
    assert ring.one == Fraction(2, 2) and ring.const(3) == 3
    label = "an integer" if p is None else "a GF(7)"
    with pytest.raises(ValueError, match=f"1/2 in {re.escape(label)} ring"):
        ring.const(Fraction(1, 2))
    assert PolyRing(("x",), rational=True).const(Fraction(1, 2)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def test_exact_div_factored_form():
    R = PolyRing.generic(2)
    a, b = R.var("x_1_1"), R.var("x_1_2")
    assert (a * a - b * b).exact_div(a - b) == a + b


def test_exact_div_coprime_monomials():
    R = PolyRing.generic(2)
    assert R.var("x_1_1").exact_div(R.var("x_1_2")) is None


def test_exact_div_sandwich_entry(ctx2):
    # the off-diagonal sandwich entry is -det2; back-multiplication oracle
    d = ctx2.detX
    q = (-d).exact_div(d)
    assert q == ctx2.ring.const(-1)
    assert q * d == -d


def test_exact_div_by_zero_is_an_error():
    R = PolyRing.generic(2)
    with pytest.raises(ZeroDivisionError):
        det2(R).exact_div(R.zero)


def test_exact_div_integer_content():
    # x is not divisible by 2 in ZZ[x], but is over QQ and GF(p)
    R = PolyRing.generic(2)
    assert R.var("x_1_1").exact_div(R.const(2)) is None
    Rq = PolyRing.generic(2, rational=True)
    assert Rq.var("x_1_1").exact_div(Rq.const(2)) is not None
    Rp = PolyRing.generic(2, p=31)
    assert Rp.var("x_1_1").exact_div(Rp.const(2)) is not None


# coefficient rings: ZZ, QQ, GF(101), GF(2^31 - 1)
RINGS = [{}, {"rational": True}, {"p": 101}, {"p": 2_147_483_647}]
RING_IDS = ["ZZ", "QQ", "GF101", "GF2^31-1"]


def rand_xyz(rng, R, count, top):
    """A random polynomial in x, y, z with count terms, exponents <= top."""
    def coeff():
        c = rng.randint(-9, 9) or 1
        return Fraction(c, rng.randint(1, 4)) if R.rational else c
    return R.from_terms({tuple(rng.randint(0, top) for _ in range(3)): coeff()
                         for _ in range(count)})


def count_division_steps(monkeypatch):
    """The list of keys of every sub_scaled_terms call from now on."""
    keys = []
    step = kernels.sub_scaled_terms

    def counting(rem, key, *args):
        keys.append(key)
        return step(rem, key, *args)

    monkeypatch.setattr(kernels, "sub_scaled_terms", counting)
    return keys


# ids: one-byte fields (width 7), and exponents past 255, which cross the
# 127 of a one-byte field into two-byte fields (width 15)
@pytest.mark.parametrize("kw", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("top", [3, 300], ids=["width8", "above255"])
def test_exact_div_recovers_the_quotient(kw, top):
    R = PolyRing(("x", "y", "z"), **kw)
    rng = random.Random(top)
    for _ in range(12):
        q = rand_xyz(rng, R, rng.randint(1, 6), top)
        d = rand_xyz(rng, R, rng.randint(2, 5), top)
        if q.is_zero() or len(d.packed) < 2:
            continue
        f = q * d
        assert f.width == (7 if top == 3 else 15)
        assert f.exact_div(d) == q
        assert f.exact_div(q) == d


@pytest.mark.parametrize("kw", RINGS, ids=RING_IDS)
def test_exact_div_refuses_a_remainder_below_the_leading_term(kw):
    # every step of q*d runs, and the monomial m, which LT(d) = x*y does
    # not divide, is left over: only the final remainder check sees it
    R = PolyRing(("x", "y", "z"), **kw)
    x, y, z = (R.var(v) for v in "xyz")
    d = 3 * x * y + x ** 2 - 2 * z
    assert max(d.packed) == max((x * y).packed)
    rng = random.Random(11)
    for _ in range(8):
        q = rand_xyz(rng, R, rng.randint(1, 5), 4)
        if q.is_zero():
            continue
        f = q * d
        m = z ** rng.randint(0, f.total_degree() - 2) * x ** rng.randint(0, 1)
        assert max(m.packed) < max(f.packed)
        assert f.exact_div(d) == q
        assert (f + m).exact_div(d) is None


@pytest.mark.parametrize("kw", RINGS, ids=RING_IDS)
def test_exact_div_refuses_an_indivisible_leading_term_at_once(kw, monkeypatch):
    R = PolyRing(("x", "y", "z"), **kw)
    x, y, z = (R.var(v) for v in "xyz")
    d = x * y - z
    f = (x + y) * d + z ** 5  # LT(f) = z^5, which x*y does not divide
    steps = count_division_steps(monkeypatch)
    assert f.exact_div(d) is None
    assert steps == []
    assert ((x + y) * d).exact_div(d) == x + y
    assert len(steps) == 2


def test_exact_div_refuses_a_non_integral_integer_quotient():
    R = PolyRing(("x", "y"))
    Rq = PolyRing(("x", "y"), rational=True)
    for num, den, quot in [
            # the leading step already needs 1/2
            ("x^2 + 3*x + 2", "2*x + 2", "1/2*x + 1"),
            # the first step is integral, the second needs 1/2
            ("2*x^2 + 3*x + 1", "2*x + 2", "x + 1/2"),
            ("2*x*y + y", "2*x", None)]:
        assert R.parse(num).exact_div(R.parse(den)) is None
        got = Rq.parse(num).exact_div(Rq.parse(den))
        assert got == (None if quot is None else Rq.parse(quot))


@pytest.mark.parametrize("kw", RINGS, ids=RING_IDS)
def test_exact_div_steps_on_keys_that_steps_create(kw, monkeypatch):
    # LT(x - y) = y, and x^k is not divisible by y: every step after the
    # first starts on a key that the step before it created
    R = PolyRing(("x", "y"), **kw)
    x, y = R.var("x"), R.var("y")
    assert max((x - y).packed) == max(y.packed)
    for k in (2, 6):
        steps = count_division_steps(monkeypatch)
        q = (x ** k - y ** k).exact_div(x - y)
        assert q == sum((x ** i * y ** (k - 1 - i) for i in range(k)), R.zero)
        assert len(steps) == k
        monkeypatch.undo()


def test_exact_div_takes_one_step_per_quotient_term(ctx4, monkeypatch):
    entry = sandwich(ctx4, random_alternating(4, 5))[0, 1]
    steps = count_division_steps(monkeypatch)
    q = entry.exact_div(ctx4.detX)
    monkeypatch.undo()
    assert q * ctx4.detX == entry
    assert len(steps) == len(q.packed) > 1
    assert len(set(steps)) == len(steps)


def test_division_soundness_random():
    R = PolyRing.generic(2)
    rng = random.Random(1)

    def rand_poly(lo=1):
        terms = {}
        for _ in range(rng.randint(lo, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(R.nvars))
            terms[e] = rng.randint(-9, 9) or 1
        return R.from_terms(terms)

    for _ in range(80):
        q = rand_poly()
        if q.is_zero():
            continue
        r = rand_poly()
        p = q * r
        got = p.exact_div(q)
        assert got is not None
        assert got * q == p


def test_not_divisible_modp_corroboration():
    # a divisor with leading coefficient +-1 takes the same division steps
    # over ZZ and over GF(p), so the GF(p) remainder is the ZZ remainder
    # reduced mod p: a failed ZZ division fails at a 31-bit prime too
    R = PolyRing.generic(2)
    p31 = 2_147_483_647
    Rp = PolyRing.generic(2, p=p31)
    rng = random.Random(2)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(R.nvars))
            terms[e] = rng.randint(-9, 9) or 1
        return R.from_terms(terms)

    checked = 0
    while checked < 10:
        q = rand_poly()
        if q.leading()[1] not in (1, -1):
            continue
        p = rand_poly() * q + R.var("x_1_1")  # remainder of low degree
        if p.exact_div(q) is not None:
            continue
        checked += 1
        assert Rp.convert(p).exact_div(Rp.convert(q)) is None
    # any other leading coefficient may be a unit mod p only: -9 divides
    # x_1_1 over GF(p) but not over ZZ
    q, p = R.const(-9), R.var("x_1_1")
    assert p.exact_div(q) is None
    qp, pp = Rp.convert(q), Rp.convert(p)
    assert pp.exact_div(qp) * qp == pp


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_det2_at_identity():
    R = PolyRing.generic(2)
    val = det2(R).evaluate({"x_1_1": 1, "x_1_2": 0, "x_2_1": 0, "x_2_2": 1})
    assert val == 1


def test_evaluate_det2_against_cross_product():
    R = PolyRing.generic(2)
    val = det2(R).evaluate({"x_1_1": 2, "x_1_2": 3, "x_2_1": 4, "x_2_2": 5})
    assert val == 2 * 5 - 3 * 4


def test_evaluate_at_zero_gives_constant_term():
    R = PolyRing.generic(2)
    p = det2(R) + R.const(17)
    zeros = {name: 0 for name in R.names}
    assert p.evaluate(zeros) == 17


def test_evaluate_is_a_homomorphism():
    R = PolyRing.generic(2)
    rng = random.Random(3)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(R.nvars))
            terms[e] = rng.randint(-9, 9)
        return R.from_terms(terms)

    for _ in range(40):
        p, q = rand_poly(), rand_poly()
        at = {name: rng.randint(-4, 4) for name in R.names}
        assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)
        assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)


def test_evaluate_missing_variable():
    R = PolyRing.generic(2)
    with pytest.raises(ValueError):
        det2(R).evaluate({"x_1_1": 1})


def test_evaluate_over_gf_p_takes_scalars_in_canonical_form():
    f = PolyRing(["x"], p=7).parse("x^2 + 1")
    # 8/2 is the residue 4, and 1/2 has no integral image
    assert f.evaluate({"x": 4}) == f.evaluate({"x": Fraction(8, 2)}) == 3
    assert type(f.evaluate({"x": Fraction(8, 2)})) is int
    with pytest.raises(ValueError, match="non-integral"):
        f.evaluate({"x": Fraction(1, 2)})
    # without a p the values are taken as given
    g = PolyRing(["x"]).parse("x^2 + 1")
    assert g.evaluate({"x": Fraction(1, 2)}) == Fraction(5, 4)


# ---------------------------------------------------------------------------
# degrees and valuations
# ---------------------------------------------------------------------------

def test_det3_row_and_column_degrees(ctx3):
    d = ctx3.detX
    for i in range(1, 4):
        assert d.degree_in([f"x_{i}_{j}" for j in range(1, 4)]) == 1
        assert d.degree_in([f"x_{j}_{i}" for j in range(1, 4)]) == 1
    assert d.total_degree() == 3


def test_degree_of_constants():
    R = PolyRing(("x_1_1", "t"))
    assert R.const(5).degree_in(["x_1_1"]) == 0
    assert R.zero.degree_in(["x_1_1", "t"]) == 0
    assert R.zero.total_degree() == 0


def test_t_valuation_basic():
    R = PolyRing(("x_1_1", "t"))
    t = R.var("t")
    assert (t ** 3 + t._scaled(2)).t_valuation() == 1
    assert R.zero.t_valuation() == math.inf


def test_t_valuation_char_poly_of_diag():
    # det(tI + diag(0,1,1,1)) = t(t+1)^3, expanded by hand
    R = PolyRing(("t",))
    t = R.var("t")
    p = t * (t + 1) ** 3
    assert p == t ** 4 + (t ** 3)._scaled(3) + (t ** 2)._scaled(3) + t
    assert p.t_valuation() == 1


def test_t_valuation_rejects_x_variables():
    R = PolyRing(("x_1_1", "t"))
    with pytest.raises(ValueError, match="x_1_1 occurs"):
        R.var("x_1_1").t_valuation()
    with pytest.raises(ValueError, match="no variable t"):
        PolyRing.generic(2).var("x_1_1").t_valuation()


# ---------------------------------------------------------------------------
# term order and canonical string format
# ---------------------------------------------------------------------------

def test_order_is_strict_and_total():
    R = PolyRing.generic(2)
    rng = random.Random(4)
    monos = {tuple(rng.randint(0, 3) for _ in range(R.nvars))
             for _ in range(60)}
    monos = list(monos)
    for a in monos:
        for b in monos:
            ka, kb = order_key(a), order_key(b)
            if a == b:
                assert ka == kb
            else:
                assert (ka < kb) != (ka > kb)
                assert ka != kb


def test_order_is_graded():
    assert order_key((2, 0, 0, 0, 0)) > order_key((0, 1, 0, 0, 0))


@pytest.mark.parametrize("field", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("nvars", [1, 2, 3, 25, 26, 30])
def test_unpack_matches_the_field_by_field_formula(field, nvars):
    """The struct unpack of byte-aligned fields (B, H, I, Q) and the
    per-field path of wider ones against the shift and mask of every field,
    on seeded keys with fields at 0, 1, the field's maximum and between."""
    width = field - 1  # data bits under the guard bit
    layout = _Layout(nvars, width)

    def field_by_field(key):
        return tuple(map(layout.mask.__and__,
                         map(key.__rshift__, layout.shifts)))

    rng = random.Random(width * 31 + nvars)
    for _ in range(300):
        exps = tuple(rng.choice((0, 1, layout.mask, rng.randrange(layout.mask)))
                     for _ in range(nvars))
        key = layout.pack(exps)
        assert layout.unpack(key) == field_by_field(key) == exps
    assert layout.unpack(0) == (0,) * nvars
    # too wide, negative and wrong-length exponents are no exponent vectors
    # of the layout
    v0 = (1,) + (0,) * (nvars - 1)
    R = PolyRing([f"v{i}" for i in range(nvars)])
    terms = Polynomial(R, {layout.pack(v0): 1}, width).terms
    assert terms[v0] == 1
    for exps in [(1 << 64 | 1,) + v0[1:], (layout.mask + 1,) + v0[1:],
                 (-1,) + v0[1:], (1 << 64,) * nvars, (-1,) * nvars,
                 v0 + (0,), v0 + (-1,), v0[:-1]]:
        with pytest.raises(KeyError):
            terms[exps]


def test_canonical_string_det2(ctx2):
    assert str(ctx2.detX) == "x_1_1*x_2_2 - x_1_2*x_2_1"


def test_canonical_string_det3(ctx3):
    assert str(ctx3.detX) == (
        "x_1_1*x_2_2*x_3_3 - x_1_2*x_2_1*x_3_3 - x_1_1*x_2_3*x_3_2 "
        "+ x_1_3*x_2_1*x_3_2 + x_1_2*x_2_3*x_3_1 - x_1_3*x_2_2*x_3_1")


def test_string_round_trip_bit_exact():
    R = PolyRing.generic(3)
    rng = random.Random(5)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            e = tuple(rng.randint(0, 3) for _ in range(R.nvars))
            terms[e] = rng.randint(-99, 99)
        p = R.from_terms(terms)
        s = str(p)
        assert R.parse(s) == p
        assert str(R.parse(s)) == s


# (exponent tuple, coefficient) lists of three-variable polynomials: exponents
# up to 300, so widths 7 and 15 both occur, and coefficients that may be
# non-integral fractions (rings without fractions take their numerators)
TERM_LISTS = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 300)] * 3),
              st.fractions(min_value=-1000, max_value=1000,
                           max_denominator=60)),
    max_size=8)


@pytest.mark.parametrize("kw", RINGS, ids=RING_IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs=TERM_LISTS)
def test_string_round_trip_property(kw, pairs):
    R = PolyRing(("x", "y", "z"), **kw)
    f = R.from_terms({e: c if R.rational else c.numerator for e, c in pairs})
    assert R.parse(str(f)) == f
    assert str(R.parse(str(f))) == str(f)


def test_parser_accepts_whitespace():
    R = PolyRing.generic(2)
    assert R.parse("  x_1_1 *x_2_2\n -\tx_1_2* x_2_1 ") == det2(R)


def test_parser_rejects_junk():
    R = PolyRing.generic(2)
    for bad in ("x_9_9", "x_1_1 ++ 2", "2**x_1_1", "x_1_1^-1", ""):
        with pytest.raises(ValueError):
            R.parse(bad)


def test_parser_rational_coefficients():
    Rq = PolyRing.generic(2, rational=True)
    p = Rq.parse("1/2*x_1_1 - 3/4")
    assert str(p) == "1/2*x_1_1 - 3/4"
    R = PolyRing.generic(2)
    with pytest.raises(ValueError):
        R.parse("1/2*x_1_1")
    assert R.parse("4/2*x_1_1") == R.var("x_1_1")._scaled(2)


def test_modp_mode_requires_prime():
    with pytest.raises(ValueError):
        PolyRing.generic(2, p=6)
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the
    # first 12 prime bases; base 41 refuses it
    with pytest.raises(ValueError, match="not prime"):
        PolyRing(["x"], p=318_665_857_834_031_151_167_461)
    # psi_13 passes all 13 bases, and the bound refuses it
    with pytest.raises(ValueError, match="not below"):
        PolyRing(["x"], p=3_317_044_064_679_887_385_961_981)
    assert PolyRing(["x"], p=2**81 - 51).p == 2**81 - 51


def test_generic_ring_shape():
    R = PolyRing.generic(3)
    assert R.names == tuple(f"x_{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3))
    # a ring has no size cap: only the generic matrix has one
    assert PolyRing.generic(7).nvars == 49
