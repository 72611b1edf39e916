"""Sparse multivariate polynomial arithmetic with exact division.

The scalar rings supported are the integers (the default), the rationals,
and the prime fields GF(p).  A :class:`PolyRing` fixes an ordered tuple of
variable names; the standard ring for an n-by-n generic matrix has the
n^2 + 1 variables ``x_1_1 ... x_n_n, t`` in row-major order with ``t``
last.

Monomials are exponent tuples aligned with the ring's variable order.  The
canonical term order is graded: higher total degree first, ties broken by
comparing exponents from the last variable (the largest, ``t``) downward,
larger exponent winning.  Under this order the determinant of the generic
2x2 matrix prints as ``x_1_1*x_2_2 - x_1_2*x_2_1``.

Polynomials are immutable once constructed and safe to share; every
operation returns a fresh canonical value (no stored zero coefficients,
equality is term-map equality).
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import kernels

# Hard cap on the symbolic matrix dimension; override via allow_large flags.
SYMBOLIC_CAP = 6

# Minimum |a|*|b| term-pair count before a product is routed through the
# packed (one-int-per-monomial) representation.
_PACKED_MIN_PAIRS = 1 << 13


def order_key(exps: Sequence[int]):
    """Sort key of the canonical graded term order (ascending)."""
    return (sum(exps), exps[::-1])


def _heap_key(exps: Sequence[int]):
    """Negated order key, so heapq's min-heap pops the largest monomial."""
    return (-sum(exps), tuple(-v for v in exps[::-1]))


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


class PolyRing:
    """An ordered variable table plus a coefficient mode (ZZ, QQ, or GF(p))."""

    __slots__ = ("names", "index", "p", "rational", "nvars", "t_index",
                 "_zero", "_one")

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
        self.t_index = self.index.get("t")
        self._zero = Polynomial(self, {})
        one = Fraction(1) if rational else 1
        self._one = Polynomial(self, {(0,) * self.nvars: one})

    @classmethod
    def generic(cls, n: int, p: int | None = None, rational: bool = False,
                allow_large: bool = False) -> "PolyRing":
        """The ring in the n*n matrix variables x_i_j (row-major) plus t."""
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        if n > SYMBOLIC_CAP and not allow_large:
            raise ValueError(
                f"symbolic dimension {n} exceeds the cap {SYMBOLIC_CAP}; "
                "pass allow_large=True to override")
        names = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
        names.append("t")
        return cls(names, p=p, rational=rational)

    # -- element constructors ------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return self._zero

    @property
    def one(self) -> "Polynomial":
        return self._one

    def coeff(self, c):
        """Normalize a scalar into this ring's coefficient domain."""
        if self.rational:
            return Fraction(c)
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"non-integral coefficient {c} in an integer ring")
            c = c.numerator
        if not isinstance(c, int):
            raise TypeError(f"bad coefficient {c!r}")
        return c % self.p if self.p is not None else c

    def const(self, c) -> "Polynomial":
        c = self.coeff(c)
        if not c:
            return self._zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Polynomial":
        i = self.index.get(name)
        if i is None:
            raise KeyError(f"unknown variable {name!r}")
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {e: self.coeff(1)})

    def from_terms(self, terms: Mapping[Sequence[int], object]) -> "Polynomial":
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != self.nvars or any(v < 0 for v in e):
                raise ValueError(f"bad exponent vector {e}")
            c = self.coeff(c)
            if c:
                prev = clean.get(e)
                if prev is not None:
                    c = prev + c
                    if self.p is not None:
                        c %= self.p
                    if not c:
                        del clean[e]
                        continue
                clean[e] = c
        return Polynomial(self, clean)

    def compatible(self, other: "PolyRing") -> bool:
        return (self.names == other.names and self.p == other.p
                and self.rational == other.rational)

    def convert(self, poly: "Polynomial") -> "Polynomial":
        """Re-coefficient a polynomial from a ring with the same variables."""
        if poly.ring.names != self.names:
            raise ValueError("variable tables differ")
        if poly.ring.compatible(self):
            return poly if poly.ring is self else Polynomial(self, dict(poly.terms))
        return self.from_terms(poly.terms)

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
        terms: dict = {}
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
            c = self.coeff(coeff)
            if c:
                e = tuple(exps)
                prev = terms.get(e)
                if prev is not None:
                    c = prev + c
                    if self.p is not None:
                        c %= self.p
                    if not c:
                        del terms[e]
                        continue
                terms[e] = c
        if pos != len(compact):
            raise ValueError(f"cannot parse {s!r} near offset {pos}")
        return Polynomial(self, terms)

    def __repr__(self):
        mode = f"GF({self.p})" if self.p is not None else ("QQ" if self.rational else "ZZ")
        return f"PolyRing({len(self.names)} vars, {mode})"


class Polynomial:
    """Canonical sparse polynomial over a :class:`PolyRing`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.ring.compatible(other.ring) and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    __hash__ = None  # term maps are mutable dicts

    def __len__(self) -> int:
        return len(self.terms)

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
        terms = kernels.add_terms(self.terms, q.terms, self.ring.p or 0)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        terms = kernels.neg_terms(self.terms, self.ring.p or 0)
        return Polynomial(self.ring, terms)

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
        a, b = self.terms, q.terms
        if not a or not b:
            return ring.zero
        # scalar shortcut
        if len(b) == 1:
            (e1, c1), = b.items()
            if not any(e1):
                return self._scaled(c1)
        if len(a) == 1:
            (e1, c1), = a.items()
            if not any(e1):
                return q._scaled(c1)
        p = ring.p or 0
        if len(a) * len(b) >= _PACKED_MIN_PAIRS:
            terms = kernels.packed_mul_terms(a, b, ring.nvars, p)
        else:
            terms = kernels.mul_terms(a, b, p)
        return Polynomial(ring, terms)

    __rmul__ = __mul__

    def _scaled(self, c) -> "Polynomial":
        """self * c for a nonzero normalized scalar c."""
        terms = kernels.scale_terms(self.terms, c, self.ring.p or 0)
        return Polynomial(self.ring, terms)

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
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, names: Iterable[str]) -> int:
        idx = [self.ring.index[s] for s in names]
        return max((sum(e[i] for i in idx) for e in self.terms), default=0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def t_valuation(self):
        """Least power of t; math.inf for the zero polynomial."""
        ti = self.ring.t_index
        if ti is None:
            raise ValueError("ring has no variable t")
        if not self.terms:
            return math.inf
        val = None
        for e in self.terms:
            for i, v in enumerate(e):
                if v and i != ti:
                    raise ValueError(
                        f"t-valuation undefined: {self.ring.names[i]} occurs")
            if val is None or e[ti] < val:
                val = e[ti]
        return val

    def leading(self):
        """(exponent tuple, coefficient) of the largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order_key)
        return e, self.terms[e]

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, 0)

    def sorted_terms(self):
        """Terms in descending canonical order."""
        return [(e, self.terms[e]) for e in
                sorted(self.terms, key=order_key, reverse=True)]

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial | None":
        """Quotient q with q*divisor == self, or None when none exists.

        Division by the zero polynomial raises; an indivisible input is a
        regular None result, not an error.  Single-divisor long division by
        the leading term: sound and complete for deciding exact divisibility
        over ZZ, QQ and GF(p).
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
        lt_e, lt_c = q.leading()
        if p is not None:
            lt_inv = pow(lt_c, p - 2, p)
        rem = dict(self.terms)
        heap = [(_heap_key(e), e) for e in rem]
        heapq.heapify(heap)
        quot: dict = {}
        while heap:
            _, e = heapq.heappop(heap)
            c = rem.get(e)
            if c is None:
                continue  # stale heap entry
            diff = tuple(map(int.__sub__, e, lt_e))
            if any(v < 0 for v in diff):
                return None
            if p is not None:
                qc = c * lt_inv % p
            elif ring.rational:
                qc = c / lt_c
            elif c % lt_c:
                return None
            else:
                qc = c // lt_c
            new = kernels.sub_scaled_terms(rem, diff, qc, q.terms, p or 0)
            quot[diff] = qc
            for k in new:
                heapq.heappush(heap, (_heap_key(k), k))
        return Polynomial(ring, quot)

    def exact_div_or_raise(self, divisor: "Polynomial") -> "Polynomial":
        out = self.exact_div(divisor)
        if out is None:
            raise ExactDivisionError("polynomial is not exactly divisible")
        return out

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Value at a point; every occurring variable must be assigned."""
        ring = self.ring
        values = [None] * ring.nvars
        for name, v in assignment.items():
            i = ring.index.get(name)
            if i is None:
                raise KeyError(f"unknown variable {name!r}")
            values[i] = v % ring.p if ring.p is not None else v
        if not self.terms:
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
        if ring.p is not None:
            total %= ring.p
        return total

    def substitute(self, mapping: Mapping[str, "Polynomial"],
                   target: PolyRing) -> "Polynomial":
        """Ring morphism given by variable images in the target ring."""
        images = [None] * self.ring.nvars
        for name, img in mapping.items():
            images[self.ring.index[name]] = target.convert(img)
        out = target.zero
        for e, c in self.terms.items():
            term = target.const(c)
            for i, exp in enumerate(e):
                if exp:
                    if images[i] is None:
                        raise ValueError(f"no image for {self.ring.names[i]}")
                    term = term * images[i] ** exp
            out = out + term
        return out

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        names = self.ring.names
        for e, c in self.sorted_terms():
            if isinstance(c, Fraction):
                negative = c < 0
                mag = -c if negative else c
                coeff_s = str(mag.numerator) if mag.denominator == 1 \
                    else f"{mag.numerator}/{mag.denominator}"
                is_one = mag == 1
            else:
                negative = c < 0
                mag = -c if negative else c
                coeff_s = str(mag)
                is_one = mag == 1
            factors = []
            for i, exp in enumerate(e):
                if exp == 1:
                    factors.append(names[i])
                elif exp > 1:
                    factors.append(f"{names[i]}^{exp}")
            if not factors:
                body = coeff_s
            elif is_one:
                body = "*".join(factors)
            else:
                body = coeff_s + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


class ExactDivisionError(ArithmeticError):
    """An exact division that a verified identity guarantees has failed."""

