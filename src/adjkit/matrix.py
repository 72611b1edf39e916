"""Exact dense matrices over a pluggable scalar domain.

Determinants come in two independent flavors (subset-memoized Laplace and
fraction-free Bareiss) so each can serve as an oracle for the other.
Polynomial matrices route their determinant and product inner loops through
the term kernels; numeric domains use plain scalar loops.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from . import kernels
from .domains import PolynomialDomain, RationalDomain
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
    whose every column has a pivot.
    """
    is_zero, mul, sub = dom.is_zero, dom.mul, dom.sub
    nrows = len(work)
    pivots: list[int] = []
    det = dom.one
    for col in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if not is_zero(work[i][col]):
                break
        else:
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
            det = dom.neg(det)
        pval = work[r][col]
        det = mul(det, pval)
        inv = dom.inv(pval)
        # left of col the pivot row is zero, so updates start at col
        prow = work[r][col:]
        if reduced:
            prow = [mul(v, inv) for v in prow]
            work[r][col:] = prow
        for i in range(0 if reduced else r + 1, nrows):
            row = work[i]
            if i != r and not is_zero(row[col]):
                f = row[col] if reduced else mul(row[col], inv)
                row[col:] = [sub(a, mul(f, b))
                             for a, b in zip(row[col:], prow)]
        pivots.append(col)
    return pivots, det


def _t_ring(dom) -> PolyRing:
    """The univariate ring in t over the numeric domain dom."""
    return PolyRing(("t",), p=getattr(dom, "p", None),
                    rational=isinstance(dom, RationalDomain))


def _max_degree(polys) -> int:
    return max((f.total_degree() for f in polys), default=0)


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
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.entries, other.entries))

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
        return Matrix(self.domain, self.rows, self.cols,
                      list(map(op, self.entries, other.entries)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.domain.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.domain.sub, other)

    def __neg__(self) -> "Matrix":
        neg = self.domain.neg
        return Matrix(self.domain, self.rows, self.cols,
                      [neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        mul = self.domain.mul
        return Matrix(self.domain, self.rows, self.cols,
                      [mul(a, c) for a in self.entries])

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
        out = []
        for i in range(n):
            arow = self.entries[i * k:(i + 1) * k]
            for j in range(m):
                acc = dom.zero
                for l in range(k):
                    acc = dom.add(acc, dom.mul(arow[l], other.entries[l * m + j]))
                out.append(acc)
        return Matrix(dom, n, m, out)

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
        """Determinant by column-subset-memoized Laplace expansion."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.domain.one
        if isinstance(self.domain, PolynomialDomain):
            return self._det_laplace_poly()
        dom = self.domain
        level = {0: dom.one}
        for k in range(1, n + 1):
            row = self.row_list(k - 1)
            nxt = {}
            for subset in combinations(range(n), k):
                mask = 0
                for j in subset:
                    mask |= 1 << j
                acc = dom.zero
                for pos in range(k):
                    j = subset[pos]
                    e = row[j]
                    if not dom.is_zero(e):
                        term = dom.mul(e, level[mask & ~(1 << j)])
                        acc = dom.sub(acc, term) if (k - 1 + pos) % 2 else dom.add(acc, term)
                nxt[mask] = acc
            level = nxt
        return level[(1 << n) - 1]

    def _det_laplace_poly(self):
        ring = self.domain.ring
        rows = self.to_rows()
        # every term of the determinant has at most the sum of the row
        # maxima as its degree
        degree = sum(map(_max_degree, rows))
        width, terms = aligned(self.entries, degree)
        n = self.rows
        rows_terms = [terms[i * n:(i + 1) * n] for i in range(n)]
        # one engine under two names: the large route remains only as the
        # traced span name kernels.packed_det, until the benchmark merges them
        volume = sum(map(len, terms))
        p = ring.p or 0
        if volume >= 128 or n >= 7:
            terms = kernels.packed_det_laplace(rows_terms, p)
        else:
            terms = kernels.det_laplace_terms(rows_terms, p)
        return Polynomial(ring, terms, width)

    def det_equals(self, expected: Polynomial) -> bool:
        """Exact test det(self) == expected for polynomial matrices."""
        if not isinstance(self.domain, PolynomialDomain):
            raise TypeError("det_equals expects a polynomial matrix")
        if not self.domain.ring.compatible(expected.ring):
            raise ValueError("polynomial rings/modes differ")
        return self.det_laplace() == expected

    def det_bareiss(self):
        """Fraction-free determinant; needs exact division in the domain."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.domain.one
        dom = self.domain
        m = [row[:] for row in self.to_rows()]
        sign = 1
        prev = dom.one
        for k in range(n - 1):
            if dom.is_zero(m[k][k]):
                for i in range(k + 1, n):
                    if not dom.is_zero(m[i][k]):
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return dom.zero
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = dom.sub(dom.mul(pivot, m[i][j]),
                                  dom.mul(m[i][k], m[k][j]))
                    m[i][j] = dom.exact_div(num, prev)
            prev = pivot
        det = m[n - 1][n - 1]
        return dom.neg(det) if sign < 0 else det

    def _det_gauss(self):
        """Determinant by Gaussian elimination; field domains only."""
        pivots, det = _row_reduce(self.to_rows(), self.cols, self.domain)
        return det if len(pivots) == self.rows else self.domain.zero

    def det(self):
        """Default determinant: Laplace for polynomial entries, Gaussian
        for fields, fraction-free Bareiss for the integers."""
        if isinstance(self.domain, PolynomialDomain):
            return self.det_laplace()
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if getattr(self.domain, "is_field", False) and self.rows >= 3:
            return self._det_gauss()
        return self.det_bareiss()

    # -- adjugate and compounds ---------------------------------------------

    def minor(self, drop_row: int, drop_col: int):
        keep_r = [i for i in range(self.rows) if i != drop_row]
        keep_c = [j for j in range(self.cols) if j != drop_col]
        return self.submatrix(keep_r, keep_c).det()

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan; field domains only."""
        dom = self.domain
        if not getattr(dom, "is_field", False):
            raise TypeError(f"inverse needs a field domain, not {dom.name}")
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work, pivots = self._reduce_with_identity()
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix(dom, n, n, [v for row in work for v in row[n:]])

    def _reduce_with_identity(self) -> tuple[list[list], list[int]]:
        """Reduce [A | I] to [R | E], R the reduced row echelon form of A.

        E records the row operations, so E*A = R.  Returns the rows of
        [R | E] and the pivot columns of R.
        """
        dom = self.domain
        n = self.rows
        work = [row + [dom.one if j == i else dom.zero for j in range(n)]
                for i, row in enumerate(self.to_rows())]
        pivots, _ = _row_reduce(work, n, dom, reduced=True)
        return work, pivots

    def adjugate(self) -> "Matrix":
        """Transposed cofactor matrix; adj(A)*A = A*adj(A) = det(A)*I.

        The 1x1 adjugate is [[1]] so the identity holds at n = 1.  Field
        domains get O(n^3) paths (inverse when nonsingular, kernel outer
        product at rank n-1); other domains use the cofactor minors.
        """
        if not self.is_square:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        dom = self.domain
        if n == 0:
            raise ValueError("adjugate of an empty matrix")
        if n == 1:
            return Matrix(dom, 1, 1, [dom.one])
        if getattr(dom, "is_field", False) and n >= 3:
            det = self.det()
            if not dom.is_zero(det):
                return self.inverse().scale(det)
            work, pivots = self._reduce_with_identity()
            if len(pivots) < n - 1:
                return Matrix.zeros(dom, n, n)
            # adj has rank one: columns span ker(A), rows span ker(A^T);
            # one explicit cofactor calibrates the scale.  u in ker(A) has
            # u[i] = 1 at R's free column i; v is the row of E beside R's
            # zero row, so v*A = 0.
            i = next(c for c in range(n) if c not in pivots)
            u = [dom.zero] * n
            u[i] = dom.one
            for r, c in enumerate(pivots):
                u[c] = dom.neg(work[r][i])
            v = work[n - 1][n:]
            j = next(k for k in range(n) if not dom.is_zero(v[k]))
            c = self.minor(j, i)
            if (i + j) % 2:
                c = dom.neg(c)
            scale = dom.mul(c, dom.inv(v[j]))
            return Matrix(dom, n, n,
                          [dom.mul(scale, dom.mul(u[a], v[b]))
                           for a in range(n) for b in range(n)])
        out = [dom.zero] * (n * n)
        for i in range(n):
            for j in range(n):
                c = self.minor(j, i)
                out[i * n + j] = dom.neg(c) if (i + j) % 2 else c
        return Matrix(dom, n, n, out)

    def _order_subsets(self, m: int) -> list[tuple[int, ...]]:
        """The m-subsets of the rows of a square matrix, for compounds."""
        if not self.is_square:
            raise ValueError("compound of a non-square matrix")
        if not 1 <= m <= self.rows:
            raise ValueError(f"compound order {m} out of range 1..{self.rows}")
        return index_subsets(self.rows, m)

    def compound(self, m: int) -> "Matrix":
        """The matrix of all m-by-m minors, subsets ordered lexicographically."""
        subs = self._order_subsets(m)
        out = []
        for S in subs:
            for T in subs:
                out.append(self.submatrix(S, T).det())
        return Matrix(self.domain, len(subs), len(subs), out)

    def complementary_compound(self, m: int) -> "Matrix":
        """(S,T) entry: (-1)^(sum S + sum T) times the complementary minor.

        Signs use 1-based index sums; with this convention
        compound(A, m) * complementary_compound(A, m)^T = det(A) * I.
        """
        subs = self._order_subsets(m)
        full = set(range(self.rows))
        dom = self.domain
        out = []
        for S in subs:
            Sc = sorted(full - set(S))
            sig_s = sum(S) + m  # 1-based sum = 0-based sum + m
            for T in subs:
                Tc = sorted(full - set(T))
                minor = self.submatrix(Sc, Tc).det() if Sc else dom.one
                sig = sig_s + sum(T) + m
                out.append(dom.neg(minor) if sig % 2 else minor)
        return Matrix(dom, len(subs), len(subs), out)

    # -- rank and characteristic polynomial ----------------------------------

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

    def char_poly_shifted(self) -> Polynomial:
        """det(tI + A) as a polynomial in t (monic of degree n)."""
        if not self.is_square:
            raise ValueError("characteristic polynomial of a non-square matrix")
        dom = self.domain
        if isinstance(dom, PolynomialDomain):
            raise TypeError("char_poly_shifted expects a numeric matrix")
        tring = _t_ring(dom)
        pd = PolynomialDomain(tring)
        t = tring.var("t")
        n = self.rows
        entries = []
        for i in range(n):
            for j in range(n):
                c = tring.const(self.entries[i * n + j])
                entries.append(t + c if i == j else c)
        return Matrix(pd, n, n, entries).det_laplace()

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
        rows, cols = obj["rows"], obj["cols"]
        grid = obj["entries"]
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError("entry grid does not match the declared shape")
        frm = domain.from_json
        return cls(domain, rows, cols, [frm(v) for row in grid for v in row])


def lift_int_matrix(a: Matrix, ring: PolyRing) -> Matrix:
    """Integer matrix -> the same matrix over the polynomial ring."""
    pd = PolynomialDomain(ring)
    return a.map_entries(lambda c: ring.const(c), pd)
