"""Exact dense matrices over a pluggable scalar domain.

Determinants come in two independent flavors (subset-memoized Laplace and
fraction-free Bareiss) so each can serve as an oracle for the other.
Laplace runs on the term kernels for every domain, a numeric entry being
a constant term.  All other scalar arithmetic uses Python's operators,
with one ``% p`` per result entry over GF(p) (``_residues``) and a
domain's ``coerce`` for a lone scalar; over GF(p) the product and the
elimination are the kernels ``kernels.matmul_mod`` and
``kernels.row_reduce_mod``.  Every matrix of minors comes
from ``Matrix._minors``, which over a field reduces each row set once and
reads all the minors on it from the reduced form, and over a polynomial
ring aligns the entries' keys once and takes each minor straight from the
Laplace kernel.  ``_laplace_kernel`` holds the one rule that gives a
Laplace call its traced span name by size.
"""

from __future__ import annotations

import operator
from itertools import chain, combinations
from typing import Callable, Sequence

from . import kernels
from .domains import PolynomialDomain
from .polyring import PolyRing, Polynomial, aligned


def index_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-element subsets of {0..n-1} in lexicographic order.

    The list position of a subset is its canonical index for compound
    matrix rows/columns.
    """
    return list(combinations(range(n), m))


def _row_reduce(work: list[list], ncols: int, dom,
                reduced: bool = False) -> tuple[list[int], object]:
    """Row-reduce the rows ``work`` over the field ``dom``, in place.

    Pivots are searched in the first ``ncols`` columns only, so an
    augmented [A | B] is reduced by the pivots of A.  Forward elimination
    leaves a row echelon form; ``reduced=True`` also scales each pivot row
    to a leading one and clears the pivot column above it, which gives the
    reduced row echelon form.  Returns the pivot columns and the product of
    the pivots, negated once per row swap: the determinant of a square A
    whose every column has a pivot.  With ``reduced`` the rows are left in
    canonical form; without it they are unspecified (the QQ loop changes
    them, the GF(p) kernel leaves them as given), and the caller reads
    only the pivots and the determinant.  Over GF(p) callers may pass any
    int representative.

    Over QQ the loops are list comprehensions, and the only domain call is
    one inverse per pivot.  Over GF(p) the elimination is the kernel
    ``kernels.row_reduce_mod``.
    """
    p = getattr(dom, "p", None)
    if p is not None:
        return kernels.row_reduce_mod(work, ncols, p, reduced)
    nrows = len(work)
    pivots: list[int] = []
    det = dom.one
    for col in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if work[i][col]:
                break
        else:
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
            det = -det
        pval = work[r][col]
        det *= pval
        inv = dom.inv(pval)
        # left of col the pivot row is zero, so updates start at col
        prow = work[r][col:]
        if reduced:
            prow = [v * inv for v in prow]
            work[r][col:] = prow
        for i in range(0 if reduced else r + 1, nrows):
            row = work[i]
            f = row[col]
            if i == r or not f:
                continue
            if not reduced:
                f = f * inv
            row[col:] = [a - f * b for a, b in zip(row[col:], prow)]
        pivots.append(col)
    return pivots, det


def _read_plan(pivots: list[int], col_sets: list[Sequence[int]]
               ) -> list[tuple[int, list[int], list[int]]]:
    """How ``_row_set_minors`` reads each column set T from a reduced form
    with the pivot columns P: (parity, rows(P - T), T - P)."""
    pivot_row = {c: r for r, c in enumerate(pivots)}
    plan = []
    for T in col_sets:
        free = [(pos, c) for pos, c in enumerate(T) if c not in pivot_row]
        gone = [r for r, c in enumerate(pivots) if c not in T]
        parity = (sum(pos for pos, _ in free) + sum(gone)) % 2
        plan.append((parity, gone, [c for _, c in free]))
    return plan


def _row_set_minors(work: list[list], ncols: int,
                    col_sets: list[Sequence[int]], dom, plans: dict) -> list:
    """The minors det work[:, T] for every sorted column set T of
    k = len(work) columns, over the field ``dom``, from one reduction of
    ``work`` in place.

    The reduced form R has the identity on its pivot columns P (pivot rows
    rise with pivot columns), and d = det work[:, P].  So det work[:, T] =
    d * (-1)^e * det R[rows(P - T), T - P], where e sums row(c) + pos_T(c)
    over c in T & P; e has the parity of the positions in T of T - P plus
    the rows of P - T.  That j-by-j minor of R, j <= min(k, ncols - k), is
    read directly for j <= 2.  Below rank k every minor is zero.  The read
    plan depends on P alone, so ``plans`` keeps one per pivot tuple.
    """
    k = len(work)
    pivots, d = _row_reduce(work, ncols, dom, reduced=True)
    if len(pivots) < k:
        return [dom.zero] * len(col_sets)
    plan = plans.get(key := tuple(pivots))
    if plan is None:
        plan = plans[key] = _read_plan(pivots, col_sets)
    out = []
    for parity, gone, free in plan:
        if not free:
            minor = dom.one
        elif len(free) == 1:
            minor = work[gone[0]][free[0]]
        elif len(free) == 2:
            c1, c2 = free
            r1, r2 = work[gone[0]], work[gone[1]]
            minor = r1[c1] * r2[c2] - r1[c2] * r2[c1]
        else:
            minor = Matrix(dom, len(free), len(free),
                           [work[r][c] for r in gone for c in free]).det()
        out.append(-d * minor if parity else d * minor)
    return out


def _residues(dom, values: list) -> list:
    """``values`` reduced into [0, p) over GF(p) and unchanged otherwise:
    the one step that brings operator results into canonical form."""
    p = getattr(dom, "p", None)
    return values if p is None else [v % p for v in values]


def _max_degree(polys) -> int:
    return max((f.total_degree() for f in polys), default=0)


def _laplace_kernel(rows: list[list[dict]], p: int, expect=None):
    """The Laplace kernel on a square grid of term dicts, under the traced
    span name of its size route: ``kernels.packed_det_laplace`` for a grid
    of 7 rows or more, or whose terms together with those of ``expect``
    (one term dict or a pair) number 128 or more, and otherwise
    ``kernels.det_laplace_terms``, the same engine.  This is the one place
    of that rule until the benchmark merges the two names."""
    volume = sum(map(len, chain.from_iterable(rows)))
    if expect is not None:
        volume += (sum(map(len, expect)) if isinstance(expect, tuple)
                   else len(expect))
    if volume >= 128 or len(rows) >= 7:
        return kernels.packed_det_laplace(rows, p, expect)
    return kernels.det_laplace_terms(rows, p, expect)


class Matrix:
    __slots__ = ("domain", "rows", "cols", "entries")

    def __init__(self, domain, rows: int, cols: int, entries: list):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.domain = domain
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, domain, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(domain, r, c, flat)

    @classmethod
    def identity(cls, domain, n: int) -> "Matrix":
        e = [domain.zero] * (n * n)
        for i in range(n):
            e[i * n + i] = domain.one
        return cls(domain, n, n, e)

    @classmethod
    def zeros(cls, domain, rows: int, cols: int) -> "Matrix":
        return cls(domain, rows, cols, [domain.zero] * (rows * cols))

    @classmethod
    def diagonal(cls, domain, values: Sequence) -> "Matrix":
        n = len(values)
        m = cls.zeros(domain, n, n)
        for i, v in enumerate(values):
            m.entries[i * n + i] = v
        return m

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [self.row_list(i) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        return f"Matrix({self.domain.name}, {self.rows}x{self.cols})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # GF(p) entries may be any int representative of their residue
        p = getattr(self.domain, "p", None)
        if p is not None and p == getattr(other.domain, "p", None):
            return all((a - b) % p == 0
                       for a, b in zip(self.entries, other.entries))
        return all(a == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _check_domain(self, other: "Matrix"):
        a, b = self.domain, other.domain
        if a.name != b.name:
            raise ValueError(f"domain mismatch: {a.name} vs {b.name}")
        # a polynomial domain's name leaves out the variable names
        if isinstance(a, PolynomialDomain) and not a.ring.compatible(b.ring):
            raise ValueError(f"domain mismatch: {a.name} rings over "
                             "different variables")

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return self._like(list(map(op, self.entries, other.entries)))

    def _like(self, entries: list) -> "Matrix":
        """A matrix of this domain and shape from operator results."""
        return Matrix(self.domain, self.rows, self.cols,
                      _residues(self.domain, entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(operator.sub, other)

    def __neg__(self) -> "Matrix":
        return self._like([-a for a in self.entries])

    def scale(self, c) -> "Matrix":
        return self._like([a * c for a in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_domain(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        if isinstance(self.domain, PolynomialDomain):
            return self._mul_poly(other)
        dom = self.domain
        n, k, m = self.rows, self.cols, other.cols
        p = getattr(dom, "p", None)
        # with k = 0 the loop below gives the zero matrix
        if p is not None and k:
            rows = kernels.matmul_mod(self.to_rows(), other.to_rows(), p)
            return Matrix(dom, n, m, list(chain.from_iterable(rows)))
        cols = [other.entries[j::m] for j in range(m)]
        zero = dom.zero
        out = []
        for i in range(n):
            row = self.entries[i * k:(i + 1) * k]
            out.extend(sum(map(operator.mul, row, col), zero) for col in cols)
        return Matrix(dom, n, m, _residues(dom, out))

    def _mul_poly(self, other: "Matrix") -> "Matrix":
        ring = self.domain.ring
        p = ring.p or 0
        n, k, m = self.rows, self.cols, other.cols
        degree = _max_degree(self.entries) + _max_degree(other.entries)
        width, terms = aligned(self.entries + other.entries, degree)
        a_terms, b_terms = terms[:n * k], terms[n * k:]
        out = []
        for i in range(n):
            arow = a_terms[i * k:(i + 1) * k]
            for j in range(m):
                acc: dict = {}
                for l in range(k):
                    a, b = arow[l], b_terms[l * m + j]
                    if a and b:
                        kernels.fma_terms(acc, a, b, False, p)
                out.append(Polynomial(ring, acc, width))
        return Matrix(self.domain, n, m, out)

    def transpose(self) -> "Matrix":
        out = [None] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        return Matrix(self.domain, self.cols, self.rows, out)

    def map_entries(self, f: Callable, domain=None) -> "Matrix":
        return Matrix(domain if domain is not None else self.domain,
                      self.rows, self.cols, [f(a) for a in self.entries])

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "Matrix":
        out = []
        for i in keep_rows:
            base = i * self.cols
            for j in keep_cols:
                out.append(self.entries[base + j])
        return Matrix(self.domain, len(keep_rows), len(keep_cols), out)

    # -- determinants ------------------------------------------------------

    def det_laplace(self):
        """Determinant by column-subset-memoized Laplace expansion, on the
        kernels' engine; a numeric entry is a term at key 0, the monomial 1."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.domain.one
        if isinstance(self.domain, PolynomialDomain):
            return self._det_laplace_poly()
        dom = self.domain
        p = getattr(dom, "p", 0)
        terms = [{0: e} if e else {} for e in _residues(dom, self.entries)]
        rows = [terms[i * n:(i + 1) * n] for i in range(n)]
        # a Fraction over QQ even for int entries
        return dom.coerce(kernels.det_laplace_terms(rows, p).get(0, 0))

    def _det_laplace_poly(self, *factors: Polynomial):
        """det(self) of a square polynomial matrix; given one or two
        polynomials, whether det(self) equals the one or the product of the
        two, decided by their degree when it is too high, and otherwise by
        the kernel as it produces the determinant's terms."""
        ring = self.domain.ring
        rows = self.to_rows()
        n = self.rows
        # every term of the determinant has at most the sum of the row
        # maxima as its degree; a product of nonzero factors over an
        # integral domain has a term of the sum of their degrees, so one
        # above that bound is not the determinant
        det_degree = sum(map(_max_degree, rows))
        product_degree = sum(f.total_degree() for f in factors)
        if all(factors) and product_degree > det_degree:
            return False
        # the factors' keys go at the same width
        degree = max(det_degree, product_degree)
        width, terms = aligned(self.entries + list(factors), degree)
        extra = terms[n * n:]
        expect = (tuple(extra) if len(extra) == 2
                  else extra[0] if extra else None)
        rows_terms = [terms[i * n:(i + 1) * n] for i in range(n)]
        det = _laplace_kernel(rows_terms, ring.p or 0, expect)
        return det if factors else Polynomial(ring, det, width)

    def det_equals(self, f: Polynomial, g: Polynomial | None = None) -> bool:
        """Exact test det(self) == f, or det(self) == f*g given g, for
        polynomial matrices.

        On the compiled kernels the determinant is never built: the
        Laplace kernel compares its terms with the expected ones as it
        produces them, in descending key order, and stops at the first
        that differs.  Given g, the kernel forms f*g in a native array, so
        the product never becomes a polynomial either, and as the answer
        holds no monomial, the kernel first maps the keys onto fewer
        machine words by a mixed radix derived from the entries', f's and
        g's own keys, with no sum of keys carrying between its digits (see
        ``adjkit.kernels``): the n = 5 law
        det(adj X) = det(X)^3 * det(X) runs on 1-word keys in place of 4.
        The pure-Python kernel never holds the determinant either: it adds
        it into -f (or -f*g) and tests that nothing is left.  Nonzero
        factors whose degrees add up to more than the sum of the rows'
        largest degrees are refused before any kernel call: no term of the
        determinant reaches that degree."""
        factors = (f,) if g is None else (f, g)
        if not isinstance(self.domain, PolynomialDomain):
            raise TypeError("det_equals expects a polynomial matrix")
        if not all(self.domain.ring.compatible(h.ring) for h in factors):
            raise ValueError("polynomial rings/modes differ")
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return self._det_laplace_poly(*factors)

    def det_bareiss(self):
        """Fraction-free determinant; needs exact division in the domain."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.domain.one
        dom = self.domain
        if n == 1:
            # no step below touches a lone entry
            return dom.coerce(self.entries[0])
        # the zero tests need residues over GF(p); exact_div keeps them so
        entries = _residues(dom, self.entries)
        m = [entries[i * n:(i + 1) * n] for i in range(n)]
        sign = 1
        prev = dom.one
        for k in range(n - 1):
            if not m[k][k]:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return dom.zero
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = pivot * m[i][j] - m[i][k] * m[k][j]
                    m[i][j] = dom.exact_div(num, prev)
            prev = pivot
        det = m[n - 1][n - 1]
        return dom.coerce(-det) if sign < 0 else det

    def _det_gauss(self):
        """Determinant by Gaussian elimination; field domains only."""
        pivots, det = _row_reduce(self.to_rows(), self.cols, self.domain)
        return det if len(pivots) == self.rows else self.domain.zero

    def det(self):
        """Default determinant: Laplace for polynomial entries, Gaussian
        for fields at every size, fraction-free Bareiss for the integers."""
        if isinstance(self.domain, PolynomialDomain):
            return self.det_laplace()
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if getattr(self.domain, "is_field", False):
            return self._det_gauss()
        return self.det_bareiss()

    # -- adjugate and compounds ---------------------------------------------

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan; field domains only."""
        dom = self.domain
        if not getattr(dom, "is_field", False):
            raise TypeError(f"inverse needs a field domain, not {dom.name}")
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        inv, det = self._reduce_with_identity()
        if not det:
            raise ZeroDivisionError("matrix is singular")
        return inv

    def _reduce_with_identity(self) -> tuple["Matrix", object]:
        """Reduce [A | I] to [R | E], R the reduced row echelon form of A.

        E records the row operations, so E*A = R, and E = A^-1 when A is
        nonsingular.  Returns E and det(A), zero when R lacks a pivot.
        """
        dom = self.domain
        n = self.rows
        work = [row + [dom.one if j == i else dom.zero for j in range(n)]
                for i, row in enumerate(self.to_rows())]
        pivots, det = _row_reduce(work, n, dom, reduced=True)
        return (Matrix(dom, n, n, [v for row in work for v in row[n:]]),
                det if len(pivots) == n else dom.zero)

    def adjugate(self) -> "Matrix":
        """Transposed cofactor matrix; adj(A)*A = A*adj(A) = det(A)*I.

        The 1x1 adjugate is [[1]], the empty minor, so the identity holds
        at n = 1.  adj(A)[i, j] is the (j, i) cofactor, so adj(A) is the
        transposed complementary compound of order one; over a field its
        minors come from one reduction per row set.  A nonsingular field
        matrix takes det(A)*A^-1 instead, from one reduction of [A | I].
        """
        if not self.is_square:
            raise ValueError("adjugate of a non-square matrix")
        if not self.rows:
            raise ValueError("adjugate of an empty matrix")
        if getattr(self.domain, "is_field", False):
            inv, det = self._reduce_with_identity()
            if det:
                return inv.scale(det)
        return self.complementary_compound(1).transpose()

    def _order_subsets(self, m: int) -> list[tuple[int, ...]]:
        """The m-subsets of the rows of a square matrix, for compounds."""
        if not self.is_square:
            raise ValueError("compound of a non-square matrix")
        if not 1 <= m <= self.rows:
            raise ValueError(f"compound order {m} out of range 1..{self.rows}")
        return index_subsets(self.rows, m)

    def _minors(self, index_sets: list[Sequence[int]],
                signed: bool) -> "Matrix":
        """Entry (S, T) is the minor on rows S and columns T (the empty
        minor is one), negated if ``signed`` and sum S + sum T is odd.

        Over a field each row set is reduced once and every minor on it is
        read from the reduced form (``_row_set_minors``), by one read plan
        per pivot tuple, which generic row sets share.  Over a polynomial
        ring the entries are aligned once, at a width that holds k times
        their largest degree, and each minor is one Laplace kernel call on
        that grid (``_laplace_kernel``).  Over ZZ each minor is its own
        Bareiss ``det()``.  Every entry depends on the rows of its S alone.
        """
        dom = self.domain
        k = len(index_sets[0])
        field = getattr(dom, "is_field", False)
        poly = isinstance(dom, PolynomialDomain)
        if poly:
            ring, c = dom.ring, self.cols
            p = ring.p or 0
            # no k-by-k minor has a degree above k times the largest entry's
            width, terms = aligned(self.entries, k * _max_degree(self.entries))
            rows = [terms[i * c:(i + 1) * c] for i in range(self.rows)]
        else:
            rows = self.to_rows()
        odd = [sum(s) % 2 if signed else 0 for s in index_sets]
        plans: dict = {}
        out = []
        for S, odd_s in zip(index_sets, odd):
            kept = [rows[i] for i in S]
            if field:
                # to_rows() lists are shared across row sets, and the
                # reduction works in place
                minors = _row_set_minors([row[:] for row in kept], self.cols,
                                         index_sets, dom, plans)
            elif not k:
                minors = [dom.one]
            elif poly:
                minors = [Polynomial(ring, _laplace_kernel(
                    [[row[j] for j in T] for row in kept], p), width)
                    for T in index_sets]
            else:
                minors = [Matrix(dom, k, k, [row[j] for row in kept
                                             for j in T]).det()
                          for T in index_sets]
            out.extend(-minor if odd_s != odd_t else minor
                       for minor, odd_t in zip(minors, odd))
        return Matrix(dom, len(index_sets), len(index_sets),
                      _residues(dom, out))

    def compound(self, m: int) -> "Matrix":
        """The matrix of all m-by-m minors, subsets ordered lexicographically."""
        return self._minors(self._order_subsets(m), signed=False)

    def complementary_compound(self, m: int) -> "Matrix":
        """(S,T) entry: (-1)^(sum S + sum T) times the complementary minor.

        Signs use 1-based index sums; with this convention
        compound(A, m) * complementary_compound(A, m)^T = det(A) * I.  The
        0-based sums of the complements, which ``_minors`` takes, have the
        same parity.
        """
        full = range(self.rows)
        return self._minors([[i for i in full if i not in S]
                             for S in self._order_subsets(m)], signed=True)

    # -- rank --------------------------------------------------------------

    def rank(self) -> int:
        """Exact rank by Gaussian elimination; field domains only."""
        dom = self.domain
        if not getattr(dom, "is_field", False):
            raise TypeError(
                f"exact rank needs a field domain, not {dom.name}; "
                "specialize polynomial matrices first")
        pivots, _ = _row_reduce(self.to_rows(), self.cols, dom)
        return len(pivots)

    def nullity(self) -> int:
        return self.cols - self.rank()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        to = self.domain.to_json
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[to(self.entries[i * self.cols + j])
                         for j in range(self.cols)] for i in range(self.rows)],
        }

    @classmethod
    def from_json(cls, obj: dict, domain) -> "Matrix":
        rows, cols, grid = json_fields(obj, "matrix", "rows", "cols", "entries")
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError("entry grid does not match the declared shape")
        frm = domain.from_json
        return cls(domain, rows, cols, [frm(v) for row in grid for v in row])


def json_fields(obj, what: str, *names: str) -> list:
    """The values of ``names`` in ``obj``, the JSON object of a ``what``."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a {what} as a JSON object, "
                         f"not {type(obj).__name__}")
    missing = [k for k in names if k not in obj]
    if missing:
        raise ValueError(f"the {what} JSON object has no field "
                         f"{', '.join(missing)}")
    return [obj[k] for k in names]


def lift_int_matrix(a: Matrix, ring: PolyRing) -> Matrix:
    """Integer matrix -> the same matrix over the polynomial ring."""
    pd = PolynomialDomain(ring)
    return a.map_entries(lambda c: ring.const(c), pd)
