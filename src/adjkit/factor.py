"""Adjugate factorizations of the generic matrix.

Builds the generic matrix X = (x_i_j), its determinant and adjugate, and
constructs the even-dimension factorizations adj(X) = Y * (X^T A) through
an invertible alternating matrix A (and the mirrored left factorization),
together with exact certificates, checked at every n before they are
returned: Y*Z = adj(X) and the linear factor's determinant law by exact
expansion, and the quotient factor's law derived (``_certificate_checks``).

Also here: the alternating-sandwich divisibility adj(X)*A*adj(X)^T =
det(X)*Q, the diagonal factorization of det(X)*I, the parity/exponent
feasibility guard, and the common refinement
adj(X) = A*(r*X^T + X^T*W*X^T)*A', whose witness (r, W) is built from its
closed form in Pfaffians of A and A' and minors of X.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import kernels
from .domains import ZZ, PolynomialDomain
from .matrix import Matrix, _max_degree, index_subsets, lift_int_matrix
from .polyring import ExactDivisionError, PolyRing, Polynomial, aligned

FEASIBLE = "feasible"
INFEASIBLE_ODD = "infeasible_odd"
INFEASIBLE_EXPONENT = "infeasible_exponent"


class GenericContext:
    """The generic n-by-n matrix with its determinant and adjugate.

    The fundamental identity X*adj(X) = adj(X)*X = det(X)*I is verified on
    construction, and ``products`` keeps its two results for
    ``verify_fundamental``; det powers are cached, and ``memo`` keeps the
    results that several identities of the symbolic suite share.
    """

    def __init__(self, n: int, p: int | None = None, allow_large: bool = False):
        self.n = n
        self.ring = PolyRing.generic(n, p=p, allow_large=allow_large)
        self.domain = PolynomialDomain(self.ring)
        self.X = Matrix.from_rows(
            self.domain,
            [[self.ring.var(f"x_{i}_{j}") for j in range(1, n + 1)]
             for i in range(1, n + 1)])
        self.detX = self.X.det_laplace()
        self.adjX = self.X.adjugate()
        self.identity = Matrix.identity(self.domain, n)
        self._det_powers = {0: self.ring.one, 1: self.detX}
        # shared symbolic-suite results, keyed by name (identities._memo)
        self.memo: dict = {}
        det_i = self.identity.scale(self.detX)
        self.products = {"right_product": self.X * self.adjX == det_i,
                         "left_product": self.adjX * self.X == det_i}
        if not all(self.products.values()):
            raise AssertionError("fundamental adjugate identity failed")

    def det_power(self, k: int) -> Polynomial:
        out = self._det_powers.get(k)
        if out is None:
            out = self.det_power(k - 1) * self.detX
            self._det_powers[k] = out
        return out

    def lift(self, m: Matrix) -> Matrix:
        """Integer matrix -> matrix over this context's polynomial ring."""
        return lift_int_matrix(m, self.ring)


def verify_fundamental(ctx: GenericContext) -> dict:
    """Check X*adj = adj*X = det*I and det(adj(X)) = det(X)^(n-1).

    The two products were checked when ``ctx`` was built; their results are
    reported as they were recorded then.  det(X)^(n-1) is passed as the
    factors det(X)^(n-2) and det(X), which the Laplace kernel multiplies
    itself (det(X)^0 = 1 at n = 1).
    """
    law = (ctx.adjX.det_equals(ctx.det_power(ctx.n - 2), ctx.detX)
           if ctx.n > 1 else ctx.adjX.det_equals(ctx.det_power(0)))
    checks = {**ctx.products, "adj_det_exponent": law}
    return {"n": ctx.n, "checks": checks, "passed": all(checks.values())}


def theorem_main_guard(n: int, d: int) -> str:
    """Feasibility of a nontrivial factorization with det(Y) = det(X)^d.

    Characteristic-zero semantics: the exponent must satisfy 0 < d < n-1,
    odd n admits nothing, and even n only d = 1 or d = n-2.
    """
    if n < 2:
        raise ValueError("guard needs n >= 2")
    if not 0 < d < n - 1:
        return INFEASIBLE_EXPONENT
    if n % 2:
        return INFEASIBLE_ODD
    if d in (1, n - 2):
        return FEASIBLE
    return INFEASIBLE_EXPONENT


# ---------------------------------------------------------------------------
# alternating matrices
# ---------------------------------------------------------------------------

class AlternatingMatrix:
    """Integer matrix with A^T = -A and zero diagonal."""

    def __init__(self, matrix: Matrix):
        if not matrix.is_square:
            raise ValueError("alternating matrices are square")
        n = matrix.rows
        for i in range(n):
            if matrix[i, i] != 0:
                raise ValueError("alternating matrices have zero diagonal")
            for j in range(i + 1, n):
                if matrix[i, j] != -matrix[j, i]:
                    raise ValueError("matrix is not skew-symmetric")
        self.n = n
        self.matrix = matrix
        self.det = matrix.det_bareiss()

    @property
    def invertible(self) -> bool:
        return self.det != 0

    @classmethod
    def from_rows(cls, rows) -> "AlternatingMatrix":
        return cls(Matrix.from_rows(ZZ, rows))

    def to_json(self) -> dict:
        return self.matrix.to_json()

    @classmethod
    def from_json(cls, obj: dict) -> "AlternatingMatrix":
        return cls(Matrix.from_json(obj, ZZ))


def standard_symplectic(n: int) -> AlternatingMatrix:
    """Block diagonal of [[0,1],[-1,0]]; determinant 1."""
    if n % 2:
        raise ValueError("invertible alternating matrices need even n")
    m = Matrix.zeros(ZZ, n, n)
    for b in range(0, n, 2):
        m.entries[b * n + b + 1] = 1
        m.entries[(b + 1) * n + b] = -1
    return AlternatingMatrix(m)


def zero_alternating(n: int) -> AlternatingMatrix:
    return AlternatingMatrix(Matrix.zeros(ZZ, n, n))


def random_unimodular(n: int, rng: random.Random, bound: int = 2) -> Matrix:
    """Product of 3n random integer shears; always determinant +1.

    A 1x1 matrix has no shears, so n = 1 gives the identity.  The shear
    coefficients are the nonzero integers in [-bound, bound].
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    m = Matrix.identity(ZZ, n)
    if n == 1:
        return m
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        # a nonzero c in [-bound, bound], from the random stream that
        # rng.choice takes on the list of those values, without the list
        c = rng.randrange(2 * bound) - bound
        if c >= 0:
            c += 1
        # row_i += c * row_j
        for col in range(n):
            m.entries[i * n + col] += c * m.entries[j * n + col]
    return m


def random_alternating(n: int, seed: int, bound: int = 2) -> AlternatingMatrix:
    """S^T * J * S for a seeded random unimodular S; det = 1, deterministic."""
    if n % 2:
        raise ValueError("invertible alternating matrices need even n")
    rng = random.Random(seed)
    s = random_unimodular(n, rng, bound=bound)
    j = standard_symplectic(n).matrix
    return AlternatingMatrix(s.transpose() * j * s)


# ---------------------------------------------------------------------------
# sandwich divisibility and quotients
# ---------------------------------------------------------------------------

def _alternating_sandwich(left: Matrix, b: Matrix) -> Matrix:
    """S = L * B * L^T for an alternating B, from its entries above the
    diagonal.

    S^T = L * B^T * L^T = -S, so S is alternating too: only S_ij with
    i < j is computed, as the sum over k of (L*B)_ik * L_jk, and
    S_ji = -S_ij and S_ii = 0 are exact.
    """
    lb = left * b
    ring = left.domain.ring
    p = ring.p or 0
    n, k = lb.rows, lb.cols
    degree = _max_degree(lb.entries) + _max_degree(left.entries)
    width, terms = aligned(lb.entries + left.entries, degree)
    lb_terms, l_terms = terms[:n * k], terms[n * k:]
    entries = [ring.zero] * (n * n)
    for i in range(n):
        row = lb_terms[i * k:(i + 1) * k]
        for j in range(i + 1, n):
            acc: dict = {}
            for a, c in zip(row, l_terms[j * k:(j + 1) * k]):
                if a and c:
                    kernels.fma_terms(acc, a, c, False, p)
            s_ij = Polynomial(ring, acc, width)
            entries[i * n + j], entries[j * n + i] = s_ij, -s_ij
    return Matrix(left.domain, n, n, entries)


def _alternating_quotient(s: Matrix, divisor: Polynomial) -> Matrix:
    """Q with Q * divisor = S for an alternating S, entrywise exact division.

    Only the entries above the diagonal are divided: Q_ji = -Q_ij and
    Q_ii = 0, since S_ji = -S_ij and S_ii = 0.
    """
    n = s.rows
    entries = [s.domain.ring.zero] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            q_ij = s.entries[i * n + j].exact_div_or_raise(divisor)
            entries[i * n + j], entries[j * n + i] = q_ij, -q_ij
    return Matrix(s.domain, n, n, entries)


def sandwich(ctx: GenericContext, alt: AlternatingMatrix) -> Matrix:
    """adj(X) * A * adj(X)^T; every entry is divisible by det(X).

    The result is alternating, as A is: the entries above the diagonal are
    computed and the rest is their mirror (``_alternating_sandwich``).
    """
    if alt.n != ctx.n:
        raise ValueError("dimension mismatch")
    return _alternating_sandwich(ctx.adjX, ctx.lift(alt.matrix))


def quotient_matrix(ctx: GenericContext, alt: AlternatingMatrix) -> Matrix:
    """Q with Q * det(X) = adj(X) * A * adj(X)^T, entrywise exact division.

    Q is alternating: only its entries above the diagonal are divided.
    """
    return _alternating_quotient(sandwich(ctx, alt), ctx.detX)


# ---------------------------------------------------------------------------
# factorization certificates
# ---------------------------------------------------------------------------

@dataclass
class FactorizationCertificate:
    n: int
    side: str                      # "right" | "left"
    d: int
    alt: AlternatingMatrix
    Y: Matrix
    Z: Matrix
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "side": self.side,
            "d": self.d,
            "A": self.alt.to_json(),
            "Y": self.Y.to_json(),
            "Z": self.Z.to_json(),
            "checks": dict(self.checks),
        }

    @classmethod
    def from_json(cls, obj: dict, ctx: GenericContext | None = None
                  ) -> "FactorizationCertificate":
        n, side = obj["n"], obj["side"]
        if side not in ("right", "left"):
            raise ValueError(f"certificate side must be 'right' or 'left', "
                             f"not {side!r}")
        if ctx is None:
            ctx = GenericContext(n)
        elif ctx.n != n:
            raise ValueError("context dimension does not match certificate")
        pd = ctx.domain
        return cls(
            n=n,
            side=side,
            d=obj["d"],
            alt=AlternatingMatrix.from_json(obj["A"]),
            Y=Matrix.from_json(obj["Y"], pd),
            Z=Matrix.from_json(obj["Z"], pd),
            checks={k: bool(v) for k, v in obj["checks"].items()},
        )


def _certificate_checks(ctx: GenericContext, cert: FactorizationCertificate,
                        forms: bool) -> dict:
    """The exact checks of a certificate, in the order they are reported.

    ``forms`` adds what a built certificate has by construction: the linear
    factor X^T A (right) or A X^T (left) and the value of d.

    The linear factor's law det = det(X)*det(A) is expanded exactly (n!
    terms).  The quotient factor's law det*det(A) = det(X)^(n-2) is
    derived, at every n, from two theorems: det is multiplicative, and a
    nonzero factor cancels in the integral domain k[x].  X*adj(X) =
    det(X)*I, checked when ``ctx`` was built, gives det(X)*det(adj X) =
    det(X)^n, so det(adj X) = det(X)^(n-1).  With Y*Z = adj(X) and the
    linear law, cancelling det(X) once more gives the quotient's law.
    """
    n, right = cert.n, cert.side == "right"
    checks = {"product": cert.Y * cert.Z == ctx.adjX}
    if forms:
        a = ctx.lift(cert.alt.matrix)
        if right:
            checks["z_form"] = cert.Z == ctx.X.transpose() * a
        else:
            checks["y_form"] = cert.Y == a * ctx.X.transpose()
        checks["d_value"] = cert.d == (n - 2 if right else 1)
    linear = (cert.Z if right else cert.Y).det_equals(ctx.detX * cert.alt.det)
    derived = checks["product"] and linear and all(ctx.products.values())
    if right:
        checks["det_y_exponent"], checks["det_z"] = derived, linear
    else:
        checks["det_y"], checks["det_z_exponent"] = linear, derived
    return checks


def _factor(ctx: GenericContext, alt: AlternatingMatrix,
            side: str) -> FactorizationCertificate:
    """The verified certificate of adj(X) = Y * Z through ``alt``.

    The quotient factor, Y on the right and Z on the left, is
    L*adj(A)*L^T divided entrywise by det(A)*det(X), with L = adj(X)
    (right) or L = adj(X)^T (left); all arithmetic stays in the integer
    polynomial ring.  At even n, adj(A) is alternating:
    adj(A)^T = adj(-A) = (-1)^(n-1)*adj(A), and its diagonal holds
    determinants of odd-size alternating matrices, which vanish.  So the
    sandwich and the quotient are alternating, and only their entries above
    the diagonal are computed; the rest is their mirror.
    """
    n = ctx.n
    if n % 2:
        raise ValueError("factorization needs even n (odd n admits none)")
    # det(A) is tested in the context's coefficients: over GF(p) a p that
    # divides it makes A singular
    if not ctx.ring.coeff(alt.det):
        raise ValueError("alternating matrix must be invertible")
    if alt.n != n:
        raise ValueError("dimension mismatch")
    left = ctx.adjX if side == "right" else ctx.adjX.transpose()
    s = _alternating_sandwich(left, ctx.lift(alt.matrix.adjugate()))
    quotient = _alternating_quotient(s, ctx.detX * alt.det)
    a = ctx.lift(alt.matrix)
    if side == "right":
        y, z, d = quotient, ctx.X.transpose() * a, n - 2
    else:
        y, z, d = a * ctx.X.transpose(), quotient, 1
    cert = FactorizationCertificate(n=n, side=side, d=d, alt=alt, Y=y, Z=z)
    cert.checks = _certificate_checks(ctx, cert, forms=False)
    if not cert.passed:
        raise ExactDivisionError("factorization certificate failed verification")
    return cert


def factor_right(ctx: GenericContext,
                 alt: AlternatingMatrix) -> FactorizationCertificate:
    """adj(X) = Y * (X^T A) with det(Y)*det(A) = det(X)^(n-2)."""
    return _factor(ctx, alt, "right")


def factor_left(ctx: GenericContext,
                alt: AlternatingMatrix) -> FactorizationCertificate:
    """adj(X) = (A X^T) * Z with det(Z)*det(A) = det(X)^(n-2)."""
    return _factor(ctx, alt, "left")


def reverify_certificate(cert: FactorizationCertificate,
                         ctx: GenericContext | None = None) -> dict:
    """Recompute a loaded certificate's checks from scratch."""
    if ctx is None:
        ctx = GenericContext(cert.n)
    checks = _certificate_checks(ctx, cert, forms=True)
    return {"n": cert.n, "side": cert.side, "checks": checks,
            "passed": all(checks.values())}


def diagonal_factorization(ctx: GenericContext) -> list[Matrix]:
    """det(X)*I as a product of n diagonal matrices, det(X) in slot i."""
    out = []
    for i in range(ctx.n):
        vals = [ctx.ring.one] * ctx.n
        vals[i] = ctx.detX
        out.append(Matrix.diagonal(ctx.domain, vals))
    return out


# ---------------------------------------------------------------------------
# common refinement: adj(X) = A (r X^T + X^T W X^T) A'
# ---------------------------------------------------------------------------

@dataclass
class RefinementWitness:
    """Witness for adj(X) = A (r X^T + X^T W X^T) A'.

    The scalar r is a homogeneous polynomial of degree n-2 (a constant only
    when n = 2: with a constant r the degree-(n-1) match is impossible for
    n >= 3).  W entries are homogeneous of degree n-3, the zero matrix when
    n = 2.  Their coefficients are rational: they are closed forms with
    integer coefficients divided by Pf(A) Pf(A') (``solve_common_refinement``).
    The witness is unique, so ``solution_space_dim`` is 0.
    """

    n: int
    r: Polynomial                   # over the rational-coefficient ring
    W: Matrix                       # over the rational-coefficient ring
    alt: AlternatingMatrix
    alt_prime: AlternatingMatrix
    solution_space_dim: int
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": str(self.r),
            "W": self.W.to_json(),
            "A": self.alt.to_json(),
            "Aprime": self.alt_prime.to_json(),
            "solution_space_dim": self.solution_space_dim,
            "checks": dict(self.checks),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RefinementWitness":
        n = obj["n"]
        ring = PolyRing.generic(n, rational=True)
        pd = PolynomialDomain(ring)
        return cls(
            n=n,
            r=ring.parse(str(obj["r"])),
            W=Matrix.from_json(obj["W"], pd),
            alt=AlternatingMatrix.from_json(obj["A"]),
            alt_prime=AlternatingMatrix.from_json(obj["Aprime"]),
            solution_space_dim=obj["solution_space_dim"],
            checks={k: bool(v) for k, v in obj["checks"].items()},
        )


def _pfaffian(a: Matrix):
    """Pf(a[L]) for index tuples L of the alternating matrix a: the
    Pfaffian of the principal submatrix on L, taken in that order.

    It is expanded along the first index, Pf(a[L]) = sum over j >= 1 of
    (-1)^(j+1) a[L_0, L_j] Pf(a[L without L_0, L_j]), and memoized on L, so
    the submatrices of one call share their sub-Pfaffians.  The empty list
    gives 1 and a list of odd length 0.
    """
    @cache
    def pf(index: tuple):
        if len(index) % 2:
            return 0
        if not index:
            return 1
        first, rest = index[0], index[1:]
        return sum((-1) ** j * a[first, c] * pf(rest[:j] + rest[j + 1:])
                   for j, c in enumerate(rest) if a[first, c])
    return pf


def _refinement_closed_form(ctx: GenericContext, alt: AlternatingMatrix,
                            alt_prime: AlternatingMatrix):
    """(r, W, Pf(A) Pf(A')) of the closed form, over the integers.

    With Pf(M[L]) the Pfaffian of M on the index list L in that order
    (``_pfaffian``),

      r    = -sum Pf(A[I]) det X[K, I] Pf(A'[K]) over (n-2)-sets I, K,
      W_ab = -sum Pf(A'[(a, I)]) det X[I, K] Pf(A[(K, b)]) over
             (n-3)-sets I, K with a not in I and b not in K,

    with I and K ascending, so a comes first and b last, satisfy
    A (r X^T + X^T W X^T) A' = Pf(A) Pf(A') adj(X).  Each sum is a product
    of a row of Pfaffians, one matrix of minors of X and a column of
    Pfaffians.  At n = 2 the one empty minor is 1, so r = -1 and W = 0.
    """
    n = ctx.n
    pf, pf_prime = _pfaffian(alt.matrix), _pfaffian(alt_prime.matrix)
    sets = index_subsets(n, n - 2)
    r = -(ctx.lift(Matrix(ZZ, 1, len(sets), [pf_prime(K) for K in sets]))
          * ctx.X._minors(sets, signed=False)
          * ctx.lift(Matrix(ZZ, len(sets), 1, [pf(I) for I in sets])))[0, 0]
    if n == 2:
        w = Matrix.zeros(ctx.domain, n, n)
    else:
        sets = index_subsets(n, n - 3)
        left = [pf_prime((a, *I)) if a not in I else 0
                for a in range(n) for I in sets]
        right = [pf((*K, b)) if b not in K else 0
                 for K in sets for b in range(n)]
        w = -(ctx.lift(Matrix(ZZ, n, len(sets), left))
              * ctx.X._minors(sets, signed=False)
              * ctx.lift(Matrix(ZZ, len(sets), n, right)))
    full = tuple(range(n))
    return r, w, pf(full) * pf_prime(full)


def solve_common_refinement(ctx: GenericContext, alt: AlternatingMatrix,
                            alt_prime: AlternatingMatrix) -> RefinementWitness:
    """The witness (r, W) of adj(X) = A (r X^T + X^T W X^T) A'.

    It is the closed form of ``_refinement_closed_form`` divided by
    Pf(A) Pf(A').  It is unique, so ``solution_space_dim`` is 0: a
    difference of two witnesses has r X^T + X^T W X^T = 0, so
    det(X) W = -r adj(X^T), and the irreducible det(X), which divides no
    entry of adj(X^T), would divide r, whose degree n-2 is too low; so
    r = 0 and W = 0.

    The product checks run over the integers: with d the lcm of the
    witness's denominators, each bracketing of A (d r X^T + X^T (d W) X^T) A'
    is compared with d adj(X), which is exactly the identity over QQ.
    """
    n = ctx.n
    if n % 2:
        raise ValueError("refinement needs even n")
    if not (alt.invertible and alt_prime.invertible):
        raise ValueError("both alternating matrices must be invertible")
    ring = ctx.ring
    if ring.p is not None:
        raise ValueError(f"refinement solves over the rationals, "
                         f"not over GF({ring.p})")
    qring = PolyRing.generic(n, rational=True)
    r_num, w_num, pf_both = _refinement_closed_form(ctx, alt, alt_prime)
    # the witness is (r_num, w_num) / pf_both, so the lcm d of its
    # denominators is |pf_both| over the gcd of pf_both and every
    # coefficient, and d times the witness is (r_num, w_num) / q
    d = abs(pf_both) // math.gcd(pf_both, *(
        c for f in [r_num, *w_num.entries] for c in f.packed.values()))
    q = pf_both // d

    def scaled(f):
        """d * f / pf_both: q divides every coefficient of f."""
        return Polynomial(ring, {k: c // q for k, c in f.packed.items()},
                          f.width)

    r_d, w_d = scaled(r_num), w_num.map_entries(scaled)
    a, a2 = ctx.lift(alt.matrix), ctx.lift(alt_prime.matrix)
    xt, r_i = ctx.X.transpose(), ctx.identity.scale(r_d)
    adj_d = ctx.adjX.scale(d)

    def rational(f):
        return qring.convert(f)._scaled(Fraction(1, d))

    r, W = rational(r_d), w_d.map_entries(rational, PolynomialDomain(qring))
    checks = {
        "back_multiplication": a * (xt.scale(r_d) + xt * w_d * xt) * a2
        == adj_d,
        "left_divisible_by_a_xt": (a * (xt * (r_i + w_d * xt))) * a2 == adj_d,
        "right_divisible_by_xt_aprime": a * ((r_i + xt * w_d) * xt * a2)
        == adj_d,
        "r_homogeneous": r.is_homogeneous(n - 2),
        "w_homogeneous": all(e.is_homogeneous(n - 3) or e.is_zero()
                             for e in W.entries),
    }
    return RefinementWitness(n=n, r=r, W=W, alt=alt, alt_prime=alt_prime,
                             solution_space_dim=0, checks=checks)
