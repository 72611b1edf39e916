"""Scalar domains pluggable into the exact matrix routines.

Each domain names a scalar ring: integers, rationals, prime fields, or
polynomial rings.  Matrix code does its arithmetic with Python's operators
on the elements and brings a result into canonical form with the domain's
``coerce`` (over GF(p), one ``% p``); a domain adds only what operators
lack: ``zero`` and ``one``, inverse and checked exact division, and JSON
conversion.  Everything is exact; there is no floating point anywhere in
the package.
"""

from __future__ import annotations

from fractions import Fraction

from .polyring import PolyRing, Polynomial, _is_prime, canonical_scalar


class IntegerDomain:
    """Arbitrary-precision integers with checked exact division."""

    name = "ZZ"
    is_field = False

    zero = 0
    one = 1

    def coerce(self, x):
        return canonical_scalar(x)

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"{a} is not divisible by {b}")
        return q

    def to_json(self, a):
        return a

    def from_json(self, v):
        if not isinstance(v, int):
            raise ValueError(f"expected integer entry, got {v!r}")
        return v


class RationalDomain:
    """Exact rationals (Fraction)."""

    name = "QQ"
    is_field = True

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return canonical_scalar(x, rational=True)

    def inv(self, a):
        return 1 / Fraction(a)

    def exact_div(self, a, b):
        return Fraction(a) / b

    def to_json(self, a):
        a = Fraction(a)
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def from_json(self, v):
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            try:
                return Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {v!r}") from None
        raise ValueError(f"expected rational entry, got {v!r}")


class PrimeFieldDomain:
    """GF(p) with elements stored as ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        return canonical_scalar(x, self.p)

    def inv(self, a):
        a %= self.p
        if not a:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def exact_div(self, a, b):
        return a * self.inv(b) % self.p

    def to_json(self, a):
        return a % self.p

    def from_json(self, v):
        if not isinstance(v, int):
            raise ValueError(f"expected integer entry, got {v!r}")
        return v % self.p


class PolynomialDomain:
    """Entries from a PolyRing; division is exact polynomial division."""

    is_field = False

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.name = f"Poly[{ring!r}]"
        self.zero = ring.zero
        self.one = ring.one

    def coerce(self, x):
        return x if isinstance(x, Polynomial) else self.ring.const(x)

    def exact_div(self, a, b):
        return a.exact_div_or_raise(b)

    def to_json(self, a):
        return str(a)

    def from_json(self, v):
        if isinstance(v, int):
            return self.ring.const(v)
        if isinstance(v, str):
            return self.ring.parse(v)
        raise ValueError(f"expected polynomial entry, got {v!r}")


ZZ = IntegerDomain()
QQ = RationalDomain()

_gf_cache: dict = {}


def GF(p: int) -> PrimeFieldDomain:
    dom = _gf_cache.get(p)
    if dom is None:
        dom = _gf_cache[p] = PrimeFieldDomain(p)
    return dom
