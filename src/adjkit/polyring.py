"""Sparse multivariate polynomial arithmetic with exact division.

The scalar rings supported are the integers (the default), the rationals,
and the prime fields GF(p).  A :class:`PolyRing` fixes an ordered tuple of
variable names; the ring of the n-by-n generic matrix X = (x_i_j) has
exactly the n^2 variables ``x_1_1 ... x_n_n`` in row-major order.

The canonical term order is graded: higher total degree first, ties broken
by comparing exponents from the last variable (the largest) downward,
larger exponent winning.  Under this order the determinant of the
generic 2x2 matrix prints as ``x_1_1*x_2_2 - x_1_2*x_2_1``.

Term dicts are keyed by one packed int per monomial, laid out here alone:
the total degree in the top field, then the variables from the last down
to the first, each field ``width`` data bits under a guard bit.  So integer
order is the term order, a monomial product is a key sum, and divisibility
is one guard-bit test.  A field is a whole number of bytes: width + 1 is
8, 16, 32, 64 or more bits.  Each polynomial records its width (7 to begin
with); operations align operands to the wider one and widen it to 15, 31,
63, 127, ... bits when a degree could overflow, so exponents have no
limit.  Exponent tuples appear only at the edges (parsing,
``from_terms``, ``str``, the ``terms`` view).

Polynomials are immutable once constructed and safe to share; every
operation returns a fresh canonical value (no stored zero coefficients,
equality is term-map equality).
"""

from __future__ import annotations

import functools
import heapq
import math
import re
import struct
from collections.abc import ItemsView, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement

from . import kernels

# Hard cap on the symbolic matrix dimension; override via allow_large flags.
SYMBOLIC_CAP = 6

# Minimum |a|*|b| term-pair count before a product takes the span name
# kernels.packed_mul_terms (mul_terms' body), kept while the benchmark names it.
_PACKED_MIN_PAIRS = 1 << 13

# Data bits per key field of a new polynomial: with its guard bit, one byte.
_WIDTH = 7


def order_key(exps: Sequence[int]):
    """Sort key of the canonical graded term order (ascending)."""
    return (sum(exps), exps[::-1])


@functools.cache  # one instance per (nvars, width): a handful per process
class _Layout:
    """Keys of monomials in ``nvars`` variables at one width: variable i at
    bit ``shifts[i]``, the degree at ``top``, guard bits clear.

    A field of 8, 16, 32 or 64 bits is one unsigned word, which holds its
    exponent since the guard bit is clear, so ``unpack`` reads every field
    off the key's little-endian bytes with one ``struct`` call.  Wider
    fields shift and mask one by one."""

    __slots__ = ("mask", "shifts", "top", "guards", "words", "nbytes")

    def __init__(self, nvars: int, width: int):
        field = width + 1
        self.mask = (1 << width) - 1
        self.shifts = tuple(range(0, nvars * field, field))
        self.top = nvars * field
        self.guards = sum(1 << (s + width)
                          for s in range(0, self.top + 1, field))
        code = {8: "B", 16: "H", 32: "I", 64: "Q"}.get(field)
        self.words = code and struct.Struct(f"<{nvars}{code}").unpack_from
        # bytes of the largest key whose variable fields hold exponents
        self.nbytes = (self.pack((self.mask,) * nvars).bit_length() + 7) // 8

    def pack(self, exps) -> int:
        return sum(map(int.__lshift__, exps, self.shifts)) | sum(exps) << self.top

    def unpack(self, key: int) -> tuple:
        if self.words is None:
            return tuple(map(self.mask.__and__,
                             map(key.__rshift__, self.shifts)))
        return self.words(key.to_bytes(self.nbytes, "little"))


def _width_for(degree: int, width: int = _WIDTH) -> int:
    """width, widened to the next whole number of bytes per field (7, 15,
    31, 63, 127, ... data bits) until a field holds the total degree."""
    while degree >> width:
        width = 2 * width + 1
    return width


def aligned(polys: Sequence["Polynomial"], degree: int = 0):
    """(width, packed term dicts of polys) at one width: the widest of
    theirs, widened until a field holds the total degree ``degree``."""
    width = _width_for(degree, max((f.width for f in polys), default=_WIDTH))
    return width, [f._at(width) for f in polys]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def canonical_scalar(c, p: int | None = None, rational: bool = False):
    """The canonical form of the int or Fraction ``c``: a Fraction over QQ
    (``rational``), a residue in [0, p) over GF(p), an int over ZZ.  A
    non-integral value has no image over ZZ or GF(p) and raises."""
    if rational:
        return Fraction(c)
    if isinstance(c, Fraction):
        if c.denominator != 1:
            field = "an integer" if p is None else f"a GF({p})"
            raise ValueError(f"non-integral coefficient {c} in {field} ring")
        c = c.numerator
    if not isinstance(c, int):
        raise TypeError(f"bad coefficient {c!r}")
    return c % p if p is not None else c


class PolyRing:
    """An ordered variable table plus a coefficient mode (ZZ, QQ, or GF(p))."""

    __slots__ = ("names", "index", "p", "rational", "nvars", "_zero", "_one")

    def __init__(self, names: Sequence[str], p: int | None = None,
                 rational: bool = False):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if p is not None and rational:
            raise ValueError("choose either mod-p or rational coefficients")
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.names = names
        self.index = {s: i for i, s in enumerate(names)}
        self.p = p
        self.rational = rational
        self.nvars = len(names)
        self._zero = Polynomial(self, {})
        self._one = Polynomial(self, {0: Fraction(1) if rational else 1})

    @classmethod
    def generic(cls, n: int, p: int | None = None, rational: bool = False,
                allow_large: bool = False) -> "PolyRing":
        """The ring of the generic n-by-n matrix: the n*n variables x_i_j,
        row-major, and no other."""
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        if n > SYMBOLIC_CAP and not allow_large:
            raise ValueError(
                f"symbolic dimension {n} exceeds the cap {SYMBOLIC_CAP}; "
                "pass allow_large=True to override")
        return cls([f"x_{i}_{j}" for i in range(1, n + 1)
                    for j in range(1, n + 1)], p=p, rational=rational)

    # -- element constructors ------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return self._zero

    @property
    def one(self) -> "Polynomial":
        return self._one

    def coeff(self, c):
        """Normalize a scalar into this ring's coefficient domain."""
        return canonical_scalar(c, self.p, self.rational)

    def const(self, c) -> "Polynomial":
        c = self.coeff(c)
        if not c:
            return self._zero
        return Polynomial(self, {0: c})

    def var(self, name: str) -> "Polynomial":
        i = self.index.get(name)
        if i is None:
            raise KeyError(f"unknown variable {name!r}")
        return self.from_terms({tuple(int(j == i) for j in range(self.nvars)): 1})

    def monomials(self, degree: int, count: int) -> list["Polynomial"]:
        """The monic monomials of total degree ``degree`` in the first
        ``count`` variables, in combinations-with-replacement order."""
        return [self.from_terms({tuple(map(combo.count, range(self.nvars))): 1})
                for combo in combinations_with_replacement(range(count), degree)]

    def from_terms(self, terms: Mapping[Sequence[int], object]) -> "Polynomial":
        return self._from_pairs(terms.items())

    def _from_pairs(self, pairs) -> "Polynomial":
        """Sum of (exponent vector, coefficient) pairs."""
        clean = []
        for e, c in pairs:
            e = tuple(e)
            if len(e) != self.nvars or any(v < 0 for v in e):
                raise ValueError(f"bad exponent vector {e}")
            c = self.coeff(c)
            if c:
                clean.append((e, c))
        width = _width_for(max((sum(e) for e, _ in clean), default=0))
        pack = _Layout(self.nvars, width).pack
        out = {}
        for e, c in clean:
            k = pack(e)
            c = out.pop(k, 0) + c
            if self.p is not None:
                c %= self.p
            if c:
                out[k] = c
        return Polynomial(self, out, width)

    def compatible(self, other: "PolyRing") -> bool:
        return (self.names == other.names and self.p == other.p
                and self.rational == other.rational)

    def convert(self, poly: "Polynomial") -> "Polynomial":
        """Re-coefficient a polynomial from a ring with the same variables."""
        if poly.ring.names != self.names:
            raise ValueError("variable tables differ")
        if poly.ring.compatible(self):
            return poly if poly.ring is self else Polynomial(self, poly.packed,
                                                             poly.width)
        coeff = self.coeff
        return Polynomial(self, {k: c for k, v in poly.packed.items()
                                 if (c := coeff(v))}, poly.width)

    # -- parsing -------------------------------------------------------------

    _term_re = re.compile(r"([+-]?)([^+-]+)")
    _factor_re = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")

    def parse(self, s: str) -> "Polynomial":
        """Parse the canonical polynomial format (whitespace is free)."""
        compact = "".join(s.split())
        if not compact:
            raise ValueError("empty polynomial string")
        if compact in ("0", "+0", "-0"):
            return self._zero
        pos = 0
        pairs = []
        for m in self._term_re.finditer(compact):
            if m.start() != pos:
                raise ValueError(f"cannot parse {s!r} near offset {m.start()}")
            pos = m.end()
            sign, body = m.group(1), m.group(2)
            coeff = Fraction(-1 if sign == "-" else 1)
            exps = [0] * self.nvars
            saw_coeff = False
            factors = body.split("*")
            for k, factor in enumerate(factors):
                if not factor:
                    raise ValueError(f"empty factor in {s!r}")
                if factor[0].isdigit():
                    if k != 0 or saw_coeff:
                        raise ValueError(f"misplaced coefficient in {s!r}")
                    saw_coeff = True
                    if "/" in factor:
                        num, den = map(int, factor.split("/", 1))
                        if not den:
                            raise ValueError(f"zero denominator in {s!r}")
                        coeff *= Fraction(num, den)
                    else:
                        coeff *= int(factor)
                    continue
                fm = self._factor_re.match(factor)
                if not fm:
                    raise ValueError(f"bad factor {factor!r} in {s!r}")
                name, exp = fm.group(1), fm.group(2)
                i = self.index.get(name)
                if i is None:
                    raise ValueError(f"unknown variable {name!r} in {s!r}")
                exps[i] += 1 if exp is None else int(exp)
            pairs.append((exps, self.coeff(coeff)))
        if pos != len(compact):
            raise ValueError(f"cannot parse {s!r} near offset {pos}")
        return self._from_pairs(pairs)

    def __repr__(self):
        mode = f"GF({self.p})" if self.p is not None else ("QQ" if self.rational else "ZZ")
        return f"PolyRing({len(self.names)} vars, {mode})"


class Polynomial:
    """Canonical sparse polynomial over a :class:`PolyRing`: ``packed`` maps
    keys at field width ``width`` to nonzero coefficients."""

    __slots__ = ("ring", "packed", "width")

    def __init__(self, ring: PolyRing, packed: dict, width: int = _WIDTH):
        self.ring = ring
        self.packed = packed
        self.width = width

    @property
    def terms(self) -> "TermsView":
        """Read-only {exponent tuple: coefficient} view of the terms."""
        return TermsView(self)

    @property
    def _layout(self) -> _Layout:
        return _Layout(self.ring.nvars, self.width)

    def _at(self, width: int) -> dict:
        """The term dict at a width no narrower than self.width."""
        if width == self.width:
            return self.packed
        src, dst = self._layout, _Layout(self.ring.nvars, width)
        return {dst.pack(src.unpack(k)): c for k, c in self.packed.items()}

    def _with(self, other: "Polynomial", degree: int = 0):
        """(width, self's term dict, other's) at one width holding ``degree``."""
        width = _width_for(degree, max(self.width, other.width))
        return width, self._at(width), other._at(width)

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            if not self.ring.compatible(other.ring):
                return False
            _, a, b = self._with(other)
            return a == b
        if isinstance(other, (int, Fraction)):
            if other.denominator != 1 and not self.ring.rational:
                return False    # integer and GF(p) rings hold no 1/2
            return self == self.ring.const(other)
        return NotImplemented

    __hash__ = None  # term maps are mutable dicts

    def __len__(self) -> int:
        return len(self.packed)

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if not self.ring.compatible(other.ring):
                raise ValueError("polynomial rings/modes differ")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        width, a, b = self._with(q)
        terms = kernels.add_terms(a, b, self.ring.p or 0)
        return Polynomial(self.ring, terms, width)

    __radd__ = __add__

    def __neg__(self):
        terms = kernels.neg_terms(self.packed, self.ring.p or 0)
        return Polynomial(self.ring, terms, self.width)

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        ring = self.ring
        a, b = self.packed, q.packed
        if not a or not b:
            return ring.zero
        # scalar shortcut: key 0 is the monomial 1
        if len(b) == 1 and 0 in b:
            return self._scaled(b[0])
        if len(a) == 1 and 0 in a:
            return q._scaled(a[0])
        width, a, b = self._with(q, self.total_degree() + q.total_degree())
        p = ring.p or 0
        if len(a) * len(b) >= _PACKED_MIN_PAIRS:
            terms = kernels.packed_mul_terms(a, b, p)
        else:
            terms = kernels.mul_terms(a, b, p)
        return Polynomial(ring, terms, width)

    __rmul__ = __mul__

    def _scaled(self, c) -> "Polynomial":
        """self * c for a nonzero normalized scalar c."""
        terms = kernels.scale_terms(self.packed, c, self.ring.p or 0)
        return Polynomial(self.ring, terms, self.width)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        if k == 0:
            return self.ring.one
        # left-to-right products keep the small factor small, which is much
        # cheaper than squaring for sparse bases
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- queries -------------------------------------------------------------

    def total_degree(self) -> int:
        # the largest key has the largest degree, in its top field
        return max(self.packed, default=0) >> self._layout.top

    def degree_in(self, names: Iterable[str]) -> int:
        idx = [self.ring.index[s] for s in names]
        return max((sum(e[i] for i in idx) for e in self.terms), default=0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        top = self._layout.top
        degs = {k >> top for k in self.packed}
        return len(degs) <= 1 and (degree is None or degs <= {degree})

    def t_valuation(self):
        """Least power of t; math.inf for the zero polynomial."""
        ti = self.ring.index.get("t")
        if ti is None:
            raise ValueError("ring has no variable t")
        for e in self.terms:
            for i, v in enumerate(e):
                if v and i != ti:
                    raise ValueError(
                        f"t-valuation undefined: {self.ring.names[i]} occurs")
        return min((e[ti] for e in self.terms), default=math.inf)

    def leading(self):
        """(exponent tuple, coefficient) of the largest term."""
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.packed)
        return self._layout.unpack(k), self.packed[k]

    def constant_term(self):
        return self.packed.get(0, 0)

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in descending canonical order."""
        unpack, packed = self._layout.unpack, self.packed
        return [(unpack(k), packed[k]) for k in sorted(packed, reverse=True)]

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial | None":
        """Quotient q with q*divisor == self, or None when none exists.

        Division by the zero polynomial raises; an indivisible input is a
        regular None result, not an error.

        This is the division algorithm by the one polynomial d = divisor,
        which keeps a remainder.  A step starts only on a term that LT(d)
        divides: the largest such term c*m of the working polynomial adds
        (c/LC(d))*m/LT(d) to the quotient and subtracts that times d.  A
        max-heap holds the keys that LT(d) divides, the dividend's and
        those a step creates.  Every other term stays in the remainder,
        where a later step may still change or cancel it.  {d} is a
        Groebner basis of (d), so the remainder left at the end is the
        normal form of self modulo (d), and it is zero exactly when d
        divides self: the result is None unless it is empty.

        Two cheap exits return None before the loop ends.  LT(q*d) is
        LT(q)*LT(d) over ZZ, QQ and GF(p), so a dividend whose leading term
        LT(d) does not divide is refused before any subtraction.  Over ZZ
        a step whose coefficient LC(d) does not divide is refused at once,
        since every step's coefficient is one of the unique quotient's.

        Every key a step forms has a total degree at most deg(self), so the
        wider of the two widths holds them all.
        """
        q = self._coerce(divisor)
        if q is None:
            raise TypeError("divisor must be a polynomial or scalar")
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ring = self.ring
        if self.is_zero():
            return ring.zero
        p = ring.p
        width, rem, dterms = self._with(q)
        guards = _Layout(ring.nvars, width).guards
        lt = max(dterms)
        lt_c = dterms[lt]
        if p is not None:
            lt_inv = pow(lt_c, p - 2, p)
        rem = dict(rem)
        # lt divides e when no field of e - lt borrows through its guard;
        # negated keys: heapq's min-heap pops the largest monomial first
        heap = [-e for e in rem if ((e | guards) - lt) & guards == guards]
        heapq.heapify(heap)
        if not heap or -heap[0] != max(rem):
            return None  # LT(d) does not divide LT(self)
        quot: dict = {}
        while heap:
            e = -heapq.heappop(heap)
            c = rem.get(e)
            if c is None:
                continue  # cancelled by an earlier step
            if p is not None:
                qc = c * lt_inv % p
            elif ring.rational:
                qc = c / lt_c
            elif c % lt_c:
                return None
            else:
                qc = c // lt_c
            diff = e - lt
            quot[diff] = qc
            for k in kernels.sub_scaled_terms(rem, diff, qc, dterms, p or 0):
                if ((k | guards) - lt) & guards == guards:
                    heapq.heappush(heap, -k)
        return None if rem else Polynomial(ring, quot, width)

    def exact_div_or_raise(self, divisor: "Polynomial") -> "Polynomial":
        out = self.exact_div(divisor)
        if out is None:
            raise ExactDivisionError("polynomial is not exactly divisible")
        return out

    # -- evaluation ------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Image under the ring homomorphism sending each variable to its
        value in ``assignment``; every occurring variable must have one.

        Values are scalars, or polynomials of one ring, which is then the
        ring of the image.  Over GF(p), int values are reduced mod p first
        and a scalar image at the end."""
        ring = self.ring
        p = ring.p
        values = [None] * ring.nvars
        for name, v in assignment.items():
            i = ring.index.get(name)
            if i is None:
                raise KeyError(f"unknown variable {name!r}")
            values[i] = v % p if p is not None and isinstance(v, int) else v
        if not self.packed:
            return Fraction(0) if ring.rational else 0
        total = 0
        for e, c in self.terms.items():
            prod = c
            for i, exp in enumerate(e):
                if exp:
                    v = values[i]
                    if v is None:
                        raise ValueError(f"no value for {ring.names[i]}")
                    prod *= v ** exp
            total += prod
        if p is not None and not isinstance(total, Polynomial):
            total %= p
        return total

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        parts = []
        names = self.ring.names
        for e, c in self.sorted_terms():
            negative = c < 0
            mag = -c if negative else c
            factors = [names[i] if exp == 1 else f"{names[i]}^{exp}"
                       for i, exp in enumerate(e) if exp]
            if mag != 1 or not factors:
                factors.insert(0, str(mag))  # a Fraction prints as n or n/d
            sign = "-" if negative else ""
            if parts:
                sign = " - " if negative else " + "
            parts.append(sign + "*".join(factors))
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


class ExactDivisionError(ArithmeticError):
    """An exact division that a verified identity guarantees has failed."""


class TermsView(Mapping):
    """Read-only {exponent tuple: coefficient} view of a polynomial: O(1)
    length, keys unpacked one at a time as it iterates, never a copy."""

    __slots__ = ("_terms", "_layout")

    def __init__(self, poly: Polynomial):
        self._terms = poly.packed
        self._layout = poly._layout

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return map(self._layout.unpack, self._terms)

    def __getitem__(self, exps):
        try:
            key = self._layout.pack(exps)
            if self._layout.unpack(key) == tuple(exps):
                return self._terms[key]
        except OverflowError:
            pass  # a negative or too wide exponent overflows the key's bytes
        raise KeyError(exps)  # not an exponent vector of this ring

    def items(self):
        return _TermItems(self)

    def __repr__(self):
        return f"TermsView({dict(self.items())!r})"


class _TermItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        view = self._mapping
        return zip(view, view._terms.values())
