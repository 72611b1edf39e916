"""Pointwise specialization: evaluation homomorphisms, valuation bounds,
the constant-rank law, projector points, and randomized mod-p checks.

A polynomial matrix is specialized either at a concrete matrix (each x_i_j
goes to an entry) or along the one-parameter family tI + A, which lands in
a univariate polynomial ring where the t-adic valuation of the determinant
can be read off.  The rank laws for factorization certificates hold exactly
at every point whose zero eigenvalue has multiplicity one; that hypothesis
is computed from the characteristic polynomial, never inferred from rank
(a nilpotent Jordan block has rank n-1 but multiplicity n, and must be
rejected).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .domains import GF, QQ, ZZ, PolynomialDomain, PrimeFieldDomain, RationalDomain
from .factor import FactorizationCertificate, GenericContext
from .matrix import Matrix, _row_reduce, _t_ring
from .polyring import Polynomial


class MultiplicityError(ValueError):
    """A spec point violates the multiplicity-one hypothesis."""


class SpecPoint:
    """A concrete square matrix with its cached shifted characteristic data."""

    def __init__(self, matrix: Matrix):
        if not matrix.is_square:
            raise ValueError("specialization points are square matrices")
        if isinstance(matrix.domain, PolynomialDomain):
            raise TypeError("specialization point must be numeric")
        if matrix.domain is ZZ:
            matrix = matrix.map_entries(Fraction, QQ)
        self.matrix = matrix
        self.n = matrix.rows
        self._char_poly: Polynomial | None = None

    @property
    def char_poly_shifted(self) -> Polynomial:
        """det(tI + A), cached."""
        if self._char_poly is None:
            self._char_poly = self.matrix.char_poly_shifted()
        return self._char_poly

    @property
    def zero_multiplicity(self) -> int:
        """Algebraic multiplicity of the eigenvalue 0."""
        return self.char_poly_shifted.t_valuation()

    def assignment(self) -> dict:
        n = self.n
        out = {}
        for i in range(n):
            for j in range(n):
                out[f"x_{i + 1}_{j + 1}"] = self.matrix[i, j]
        return out


def _check_t_free(m: Matrix):
    if m.domain.ring.t_index is None:
        return
    if any(e.degree_in(("t",)) for e in m.entries):
        raise ValueError("matrix involves the variable t; "
                         "specialization is defined on x variables only")


def _scalar_into(dom):
    """Normalize evaluate() output (int or Fraction) into the domain."""
    if isinstance(dom, RationalDomain):
        return Fraction
    if isinstance(dom, PrimeFieldDomain):
        return lambda v: int(v) % dom.p
    def to_int(v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError(f"non-integral value {v} in an integral domain")
            return v.numerator
        return int(v)
    return to_int


def phi_apply(m: Matrix, pt: SpecPoint) -> Matrix:
    """Entrywise evaluation at x_i_j -> pt entry; ring homomorphism."""
    if not isinstance(m.domain, PolynomialDomain):
        raise TypeError("phi_apply expects a polynomial matrix")
    _check_t_free(m)
    assign = pt.assignment()
    dom = pt.matrix.domain
    if isinstance(dom, PrimeFieldDomain) and m.domain.ring.p not in (None, dom.p):
        raise ValueError("coefficient modulus does not match the point")
    conv = _scalar_into(dom)
    return m.map_entries(lambda e: conv(e.evaluate(assign)), dom)


def psi_apply(m: Matrix, pt: SpecPoint) -> Matrix:
    """Entrywise substitution x_i_j -> t*delta_ij + pt entry, into k[t]."""
    if not isinstance(m.domain, PolynomialDomain):
        raise TypeError("psi_apply expects a polynomial matrix")
    _check_t_free(m)
    tring = _t_ring(pt.matrix.domain)
    t = tring.var("t")
    n = pt.n
    mapping = {}
    for i in range(n):
        for j in range(n):
            img = tring.const(pt.matrix[i, j])
            if i == j:
                img = img + t
            mapping[f"x_{i + 1}_{j + 1}"] = img
    pd = PolynomialDomain(tring)
    return m.map_entries(lambda e: e.substitute(mapping, tring), pd)


def _mod_t(m: Matrix) -> Matrix:
    """Set t to zero: the constant-coefficient matrix of a k[t] matrix."""
    tring = m.domain.ring
    if tring.p is not None:
        dom = GF(tring.p)
    else:
        dom = QQ  # rank needs a field; ZZ[t] constants embed in QQ
    conv = _scalar_into(dom)
    return m.map_entries(lambda e: conv(e.constant_term()), dom)


def verify_dvr_bound(m: Matrix) -> dict:
    """t-adic bound: v_t(det M) >= nullity of M mod t."""
    if not m.is_square:
        raise ValueError("square matrices only")
    reduced = _mod_t(m)
    r = reduced.cols - reduced.rank()
    v = m.det().t_valuation()
    return {
        "lemma": "dvr_valuation_bound",
        "n": m.rows,
        "nullity_mod_t": r,
        "det_valuation": None if v == math.inf else v,
        "holds": v >= r,
    }


def verify_ufd_bound(m: Matrix) -> dict:
    """Rank form of the same bound: rank(M mod t) >= n - v_t(det M)."""
    if not m.is_square:
        raise ValueError("square matrices only")
    reduced = _mod_t(m)
    rank = reduced.rank()
    v = m.det().t_valuation()
    bound = m.rows - v if v != math.inf else -math.inf
    return {
        "lemma": "ufd_rank_bound",
        "n": m.rows,
        "rank_mod_t": rank,
        "det_valuation": None if v == math.inf else v,
        "holds": rank >= bound,
    }


def lemma_rk_check(cert: FactorizationCertificate, pt: SpecPoint,
                   ctx: GenericContext | None = None) -> dict:
    """The four exact rank equalities at a multiplicity-one point.

    rank Y = n-d, rank Z = d+1, rank XY = n-1-d, rank ZX = d.
    Points whose zero eigenvalue has multiplicity other than one are
    rejected: rank n-1 alone is not enough (Jordan blocks).
    """
    mult = pt.zero_multiplicity
    if mult != 1:
        raise MultiplicityError(
            f"point has zero-eigenvalue multiplicity {mult}, need exactly 1 "
            "(rank n-1 alone does not suffice)")
    n, d = cert.n, cert.d
    if pt.n != n:
        raise ValueError("point dimension does not match the certificate")
    y0 = phi_apply(cert.Y, pt)
    z0 = phi_apply(cert.Z, pt)
    a = pt.matrix
    ranks = {
        "Y": y0.rank(),
        "Z": z0.rank(),
        "XY": (a * y0).rank(),
        "ZX": (z0 * a).rank(),
    }
    expected = {"Y": n - d, "Z": d + 1, "XY": n - 1 - d, "ZX": d}
    return {
        "lemma": "constant_rank_law",
        "n": n,
        "side": cert.side,
        "d": d,
        "ranks": ranks,
        "expected": expected,
        "holds": ranks == expected,
    }


# ---------------------------------------------------------------------------
# projector points and the sampled subspace map
# ---------------------------------------------------------------------------

class ProjectorPoint:
    """Idempotent E projecting onto span(basis) along span(v)."""

    def __init__(self, v: list, basis: list[list]):
        n = len(v)
        if len(basis) != n - 1 or any(len(w) != n for w in basis):
            raise ValueError("need one kernel vector and n-1 basis vectors")
        cols = [list(map(Fraction, v))] + [list(map(Fraction, w)) for w in basis]
        b = Matrix.from_rows(QQ, [[cols[j][i] for j in range(n)]
                                  for i in range(n)])
        det = b.det_bareiss()
        if det == 0:
            raise ValueError("kernel vector and basis are linearly dependent")
        b_inv = b.adjugate().scale(Fraction(1, 1) / det)
        c = Matrix.from_rows(QQ, [[Fraction(0) if j == 0 else cols[j][i]
                                   for j in range(n)] for i in range(n)])
        e = c * b_inv
        if e * e != e:
            raise AssertionError("projector construction is not idempotent")
        self.n = n
        self.v = cols[0]
        self.basis = [cols[j] for j in range(1, n)]
        self.E = e

    @property
    def spec_point(self) -> SpecPoint:
        return SpecPoint(self.E)


def _column_space_basis(m: Matrix) -> list[list]:
    """Exact basis of the column space (the pivot columns)."""
    pivots, _ = _row_reduce(m.to_rows(), m.cols, m.domain)
    return [[m[i, c] for i in range(m.rows)] for c in pivots]


def _in_span(vectors: list[list], target: list) -> bool:
    """Is target an exact rational combination of the given vectors?"""
    if not vectors:
        return all(x == 0 for x in target)
    n = len(target)
    cols = len(vectors)
    aug = Matrix.from_rows(
        QQ, [[vectors[j][i] for j in range(cols)] + [target[i]]
             for i in range(n)])
    plain = Matrix.from_rows(QQ, [[vectors[j][i] for j in range(cols)]
                                  for i in range(n)])
    return aug.rank() == plain.rank()


def grassmann_map_sample(cert: FactorizationCertificate,
                         pp: ProjectorPoint) -> dict:
    """Column space of E * phi_E(Y): dimension n-1-d, inside span(basis)."""
    pt = pp.spec_point
    y0 = phi_apply(cert.Y, pt)
    g = pp.E * y0
    basis = _column_space_basis(g)
    dim = len(basis)
    contained = all(_in_span(pp.basis, vec) for vec in basis)
    expected = cert.n - 1 - cert.d
    return {
        "lemma": "grassmann_sample",
        "n": cert.n,
        "d": cert.d,
        "dimension": dim,
        "expected_dimension": expected,
        "contained_in_complement": contained,
        "basis": [[str(x) for x in vec] for vec in basis],
        "holds": dim == expected and contained,
    }


# ---------------------------------------------------------------------------
# randomized mod-p corroboration
# ---------------------------------------------------------------------------

def sz_check(identity: str, n: int, p: int, trials: int, seed: int) -> dict:
    """Run seeded random GF(p) trials of a registered identity.

    Any failure of a proved identity is an implementation defect; the
    deliberately corrupted identities are negative controls and are
    expected to fail.  A run that cannot fail is refused: no trials, or
    the corrupted det(adj B) = det(B)^n over GF(2), where
    det^(n-1)*(det - 1) vanishes at every point.  Deterministic for a
    fixed seed.
    """
    from . import identities
    spec = identities.REGISTRY.get(identity)
    if spec is None:
        raise KeyError(f"unknown identity {identity!r}; "
                       f"registered: {sorted(identities.REGISTRY)}")
    if spec.modp is None:
        raise ValueError(f"identity {identity!r} has no mod-p trial")
    if trials < 1:
        raise ValueError(f"need at least one trial, not {trials}")
    if identity == "corrupted_adj_det" and p == 2:
        raise ValueError("the corrupted identity cannot fail over GF(2)")
    rng = random.Random(seed)
    failures = []
    observations = []
    for trial in range(trials):
        ok, note = spec.modp(n, p, rng)
        if not ok:
            failures.append({"trial": trial, "detail": note})
        elif note:
            observations.append({"trial": trial, "detail": note})
    return {
        "identity": identity,
        "n": n,
        "params": {"p": p, "seed": seed},
        "trials": trials,
        "failures": failures,
        "observations": observations,
        "passed": not failures,
        "expected_failure": spec.expected_failure,
    }
