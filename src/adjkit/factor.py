"""Adjugate factorizations of the generic matrix.

Builds the generic matrix X = (x_i_j), its determinant and adjugate, and
constructs the even-dimension factorizations adj(X) = Y * (X^T A) through
an invertible alternating matrix A (and the mirrored left factorization),
together with exact certificates: every stated identity is re-verified by
exact polynomial arithmetic before a certificate is returned.

Also here: the alternating-sandwich divisibility adj(X)*A*adj(X)^T =
det(X)*Q, the diagonal factorization of det(X)*I, the parity/exponent
feasibility guard, and the common-refinement solver for
adj(X) = A*(r*X^T + X^T*W*X^T)*A'.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .domains import ZZ, PolynomialDomain
from .matrix import Matrix, lift_int_matrix
from .polyring import ExactDivisionError, PolyRing, Polynomial, aligned

FEASIBLE = "feasible"
INFEASIBLE_ODD = "infeasible_odd"
INFEASIBLE_EXPONENT = "infeasible_exponent"


class GenericContext:
    """The generic n-by-n matrix with its determinant and adjugate.

    The fundamental identity X*adj(X) = adj(X)*X = det(X)*I is verified on
    construction; det powers are cached since several verifications share
    them.
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
        # m -> outcome of the expanded law det(compound(X, m)) = det(X)^e,
        # filled by identities.compound_det_check
        self.compound_verified: dict = {}
        det_i = self.identity.scale(self.detX)
        if self.X * self.adjX != det_i or self.adjX * self.X != det_i:
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
    """Check X*adj = adj*X = det*I and det(adj(X)) = det(X)^(n-1)."""
    det_i = ctx.identity.scale(ctx.detX)
    checks = {
        "right_product": ctx.X * ctx.adjX == det_i,
        "left_product": ctx.adjX * ctx.X == det_i,
        "adj_det_exponent": ctx.adjX.det_laplace() == ctx.det_power(ctx.n - 1),
    }
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
        c = rng.choice([k for k in range(-bound, bound + 1) if k])
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

def sandwich(ctx: GenericContext, alt: AlternatingMatrix) -> Matrix:
    """adj(X) * A * adj(X)^T; every entry is divisible by det(X)."""
    if alt.n != ctx.n:
        raise ValueError("dimension mismatch")
    a_poly = ctx.lift(alt.matrix)
    return ctx.adjX * a_poly * ctx.adjX.transpose()


def quotient_matrix(ctx: GenericContext, alt: AlternatingMatrix) -> Matrix:
    """Q with Q * det(X) = adj(X) * A * adj(X)^T, entrywise exact division."""
    s = sandwich(ctx, alt)
    return s.map_entries(lambda e: e.exact_div_or_raise(ctx.detX))


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
    """
    n, right = cert.n, cert.side == "right"
    det_a = cert.alt.det
    checks = {"product": cert.Y * cert.Z == ctx.adjX}
    if forms:
        a = ctx.lift(cert.alt.matrix)
        if right:
            checks["z_form"] = cert.Z == ctx.X.transpose() * a
        else:
            checks["y_form"] = cert.Y == a * ctx.X.transpose()
        checks["d_value"] = cert.d == (n - 2 if right else 1)
    # The quotient factor's det at n=6 is det(X)^4 with ~1e9 terms:
    # physically out of reach.  The product check stays exact at every n;
    # the determinant laws are certified exactly up to n=4 and corroborated
    # pointwise beyond.
    if n <= 4:
        # det(quotient factor)*det(A) = det(X)^(n-2) and
        # det(linear factor) = det(X)*det(A)
        power, linear = ctx.det_power(n - 2), ctx.detX._scaled(det_a)
        det_y, det_z = cert.Y.det_laplace(), cert.Z.det_laplace()
        if right:
            checks["det_y_exponent"] = det_y._scaled(det_a) == power
            checks["det_z"] = det_z == linear
        else:
            checks["det_y"] = det_y == linear
            checks["det_z_exponent"] = det_z._scaled(det_a) == power
    return checks


def _factor(ctx: GenericContext, alt: AlternatingMatrix,
            side: str) -> FactorizationCertificate:
    """The verified certificate of adj(X) = Y * Z through ``alt``.

    The quotient factor, Y on the right and Z on the left, is
    adj(X)*adj(A)*adj(X)^T (right) or adj(X)^T*adj(A)*adj(X) (left) divided
    entrywise by det(A)*det(X); all arithmetic stays in the integer
    polynomial ring.
    """
    n = ctx.n
    if n % 2:
        raise ValueError("factorization needs even n (odd n admits none)")
    if not alt.invertible:
        raise ValueError("alternating matrix must be invertible")
    if alt.n != n:
        raise ValueError("dimension mismatch")
    adj_x, adj_t = ctx.adjX, ctx.adjX.transpose()
    if side == "left":
        adj_x, adj_t = adj_t, adj_x
    s = adj_x * ctx.lift(alt.matrix.adjugate()) * adj_t
    divisor = ctx.detX._scaled(alt.det)
    quotient = s.map_entries(lambda e: e.exact_div_or_raise(divisor))
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

    The scalar r is a homogeneous polynomial of degree n-2 (an honest
    constant only when n = 2: with a constant r the degree-(n-1) match is
    impossible for n >= 3, and the n = 4 system is exactly inconsistent).
    W entries are homogeneous of degree n-3, the zero matrix when n = 2.
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


def _sparse_solve(columns: list[dict], target: dict, ncols: int):
    """Exact sparse Gauss-Jordan elimination over the rationals.

    columns[j] maps row-key -> coefficient of unknown j; target maps
    row-key -> right-hand side.  Returns (solution list, free-variable
    count) or None when inconsistent.  Incoming equations are reduced
    against a fully inter-reduced pivot basis in sorted row-key order, so
    the result is deterministic; free unknowns are fixed to zero.
    """
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c:
                rows.setdefault(key, {})[j] = Fraction(c)
    for key, c in target.items():
        if c:
            rows.setdefault(key, {})
    pivots: dict = {}   # col -> (row dict, rhs); rows normalized, inter-reduced
    for key in sorted(rows):
        row = dict(rows[key])
        r = Fraction(target.get(key, 0))
        # reduce against the pivot basis; repeat while fill-in re-introduces
        # pivot columns
        while True:
            hit = [c for c in row if c in pivots]
            if not hit:
                break
            for c in sorted(hit):
                factor = row.pop(c, None)
                if not factor:
                    continue
                prow, prhs = pivots[c]
                for jj, v in prow.items():
                    if jj == c:
                        continue
                    nv = row.get(jj, 0) - factor * v
                    if nv:
                        row[jj] = nv
                    else:
                        row.pop(jj, None)
                r -= factor * prhs
        if not row:
            if r:
                return None
            continue
        c = min(row)
        inv = 1 / row[c]
        new_row = {jj: v * inv for jj, v in row.items()}
        new_rhs = r * inv
        # keep the basis inter-reduced
        for pc, (prow, prhs) in list(pivots.items()):
            factor = prow.get(c)
            if factor:
                for jj, v in new_row.items():
                    if jj == c:
                        continue
                    nv = prow.get(jj, 0) - factor * v
                    if nv:
                        prow[jj] = nv
                    else:
                        prow.pop(jj, None)
                prow.pop(c, None)
                pivots[pc] = (prow, prhs - factor * new_rhs)
        pivots[c] = (new_row, new_rhs)
    solution = [Fraction(0)] * ncols
    for c, (_, prhs) in pivots.items():
        solution[c] = prhs
    free = ncols - len(pivots)
    return solution, free


def solve_common_refinement(ctx: GenericContext, alt: AlternatingMatrix,
                            alt_prime: AlternatingMatrix
                            ) -> RefinementWitness | None:
    """Solve adj(X) = A (r X^T + X^T W X^T) A' by coefficient matching.

    Degree bookkeeping against the homogeneous degree-(n-1) adjugate forces
    the shape of the unknowns: r is a homogeneous scalar polynomial of
    degree n-2 and the entries of W are homogeneous of degree n-3 (W = 0
    when n = 2).  The linear system over the rationals is solved by exact
    sparse elimination; free variables are set to zero and their count
    reported.
    """
    n = ctx.n
    if n % 2:
        raise ValueError("refinement needs even n")
    if not (alt.invertible and alt_prime.invertible):
        raise ValueError("both alternating matrices must be invertible")
    ring = ctx.ring
    qring = PolyRing.generic(n, rational=True)
    qd = PolynomialDomain(qring)

    a_x_t = ctx.lift(alt.matrix) * ctx.X.transpose()          # A X^T
    x_t_a2 = ctx.X.transpose() * ctx.lift(alt_prime.matrix)   # X^T A'
    base = a_x_t * ctx.lift(alt_prime.matrix)                 # A X^T A'

    nx = n * n  # the x variables; t is never involved
    r_monos = ring.monomials(n - 2, nx)
    w_monos = ring.monomials(n - 3, nx) if n >= 3 else []
    nr = len(r_monos)
    nw = len(w_monos)
    ncols = nr + n * n * nw
    uvs = [(u, v) for u in range(n) for v in range(n)]
    # (A X^T)[u,a] * (X^T A')[b,v], at index (a * n + b) * n * n + u * n + v
    prods = [a_x_t[u, a] * x_t_a2[b, v]
             for a in range(n) for b in range(n) for u, v in uvs]
    # every column entry is a monomial x^mu times a term of the same total
    # degree n - 1: at one key width, the key of their product is the sum
    width, terms = aligned(r_monos + w_monos + base.entries + prods, n - 1)
    mu_keys = [next(iter(t)) for t in terms[:nr + nw]]
    base_terms = terms[nr + nw:nr + nw + nx]
    prod_terms = terms[nr + nw + nx:]

    columns: list[dict] = [dict() for _ in range(ncols)]

    def fill(col, mk, entries):
        # the keys (u, v, mu + k) of one column are all distinct
        for uv, entry in zip(uvs, entries):
            for k, c in entry.items():
                col[(*uv, mk + k)] = c

    # r columns: coefficient of monomial mu in r contributes
    # x^mu * (A X^T A')[u,v]
    for mi, mk in enumerate(mu_keys[:nr]):
        fill(columns[mi], mk, base_terms)
    # W columns: coefficient of x^mu in W[a][b] contributes
    # x^mu * (A X^T)[u,a] * (X^T A')[b,v]
    for ab in range(nx):
        for mi, mk in enumerate(mu_keys[nr:]):
            fill(columns[nr + ab * nw + mi], mk, prod_terms[ab * nx:(ab + 1) * nx])

    # the solver eliminates its rows in the order of (u, v, exponent tuple)
    unpack = ring.unpacker(width)
    exps = {k: unpack(k) for k in {k for col in columns for _, _, k in col}}
    columns = [{(u, v, exps[k]): c for (u, v, k), c in col.items()}
               for col in columns]
    target = {(*uv, e): c for uv, entry in zip(uvs, ctx.adjX.entries)
              for e, c in entry.terms.items()}

    solved = _sparse_solve(columns, target, ncols)
    if solved is None:
        return None
    solution, free = solved

    def combination(keys, start):
        return Polynomial(qring, {k: solution[start + i]
                                  for i, k in enumerate(keys)
                                  if solution[start + i]}, width)

    r = combination(mu_keys[:nr], 0)
    W = Matrix(qd, n, n, [combination(mu_keys[nr:], nr + ab * nw)
                          for ab in range(nx)])

    # verify over the rational-coefficient ring
    conv = qring.convert
    Xq = ctx.X.map_entries(conv, qd)
    adjXq = ctx.adjX.map_entries(conv, qd)
    Aq = lift_int_matrix(alt.matrix, qring)
    A2q = lift_int_matrix(alt_prime.matrix, qring)
    inner = Xq.transpose().scale(r) + Xq.transpose() * W * Xq.transpose()
    rebuilt = Aq * inner * A2q
    core_l = Xq.transpose() * (Matrix.identity(qd, n).scale(r)
                               + W * Xq.transpose())
    core_r = (Matrix.identity(qd, n).scale(r)
              + Xq.transpose() * W) * Xq.transpose()
    checks = {
        "back_multiplication": rebuilt == adjXq,
        "left_divisible_by_a_xt": (Aq * core_l) * A2q == adjXq,
        "right_divisible_by_xt_aprime": Aq * (core_r * A2q) == adjXq,
        "r_homogeneous": r.is_homogeneous(n - 2),
        "w_homogeneous": all(e.is_homogeneous(n - 3) or e.is_zero()
                             for e in W.entries),
    }
    witness = RefinementWitness(n=n, r=r, W=W, alt=alt, alt_prime=alt_prime,
                                solution_space_dim=free, checks=checks)
    return witness
