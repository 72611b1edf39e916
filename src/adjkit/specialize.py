"""Pointwise specialization: evaluation homomorphisms, valuation bounds,
the constant-rank law, projector points, and randomized mod-p checks.

A polynomial matrix over k[x_i_j] is specialized by one evaluation
homomorphism, x_i_j -> entry (i, j) of a value matrix: at a concrete matrix
A (phi), or along the one-parameter family tI + A (psi), which lands in a
separate univariate ring k[t] where the t-adic valuation of the
determinant can be read off.  The rank laws for factorization certificates
hold exactly at every point whose zero eigenvalue has multiplicity one;
that hypothesis is computed from the characteristic polynomial, never
inferred from rank (a nilpotent Jordan block has rank n-1 but multiplicity
n, and must be rejected).
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .domains import GF, QQ, ZZ, PolynomialDomain
from .factor import FactorizationCertificate
from .matrix import Matrix, _row_reduce
from .polyring import Polynomial, PolyRing


class MultiplicityError(ValueError):
    """A spec point violates the multiplicity-one hypothesis."""


class SpecPoint:
    """A concrete square matrix A with its cached shift tI + A."""

    def __init__(self, matrix: Matrix):
        if not matrix.is_square:
            raise ValueError("specialization points are square matrices")
        if isinstance(matrix.domain, PolynomialDomain):
            raise TypeError("specialization point must be numeric")
        if matrix.domain is ZZ:
            matrix = matrix.map_entries(QQ.coerce, QQ)
        self.matrix = matrix
        self.n = matrix.rows

    @functools.cached_property
    def shifted(self) -> Matrix:
        """tI + A over k[t], with k the point's field (QQ or GF(p))."""
        p = getattr(self.matrix.domain, "p", None)
        tring = PolyRing(("t",), p=p, rational=p is None)
        pd = PolynomialDomain(tring)
        return (Matrix.identity(pd, self.n).scale(tring.var("t"))
                + self.matrix.map_entries(tring.const, pd))

    @functools.cached_property
    def char_poly_shifted(self) -> Polynomial:
        """det(tI + A), monic of degree n in t."""
        return self.shifted.det()

    @property
    def zero_multiplicity(self) -> int:
        """Algebraic multiplicity of the eigenvalue 0."""
        return self.char_poly_shifted.t_valuation()


def _evaluate_at(m: Matrix, values: Matrix) -> Matrix:
    """m with each x_i_j sent to entry (i, j) of ``values``: one evaluation
    homomorphism, entry by entry, into the domain of ``values``."""
    if not isinstance(m.domain, PolynomialDomain):
        raise TypeError("specialization expects a polynomial matrix")
    dom = values.domain
    p = m.domain.ring.p
    # a ring map from GF(p) exists only into a ring where p is zero
    if p is not None and dom.coerce(p):
        raise ValueError("coefficient modulus does not match the point")
    assignment = {f"x_{i + 1}_{j + 1}": values[i, j]
                  for i in range(values.rows) for j in range(values.cols)}
    return m.map_entries(lambda e: dom.coerce(e.evaluate(assignment)), dom)


def phi_apply(m: Matrix, pt: SpecPoint) -> Matrix:
    """Entrywise evaluation x_i_j -> entry (i, j) of the point."""
    return _evaluate_at(m, pt.matrix)


def psi_apply(m: Matrix, pt: SpecPoint) -> Matrix:
    """Entrywise evaluation x_i_j -> t*delta_ij + entry (i, j), into k[t]."""
    return _evaluate_at(m, pt.shifted)


def _rank_and_valuation(m: Matrix) -> tuple:
    """(rank of M mod t, v_t(det M)) of a square k[t] matrix M, the two
    sides of the t-adic bound."""
    if not m.is_square:
        raise ValueError("square matrices only")
    tring = m.domain.ring
    # rank needs a field; ZZ[t] constants embed in QQ
    dom = QQ if tring.p is None else GF(tring.p)
    reduced = m.map_entries(lambda e: dom.coerce(e.constant_term()), dom)
    return reduced.rank(), m.det().t_valuation()


def verify_dvr_bound(m: Matrix) -> dict:
    """t-adic bound: v_t(det M) >= nullity of M mod t."""
    rank, v = _rank_and_valuation(m)
    r = m.cols - rank
    return {
        "lemma": "dvr_valuation_bound",
        "n": m.rows,
        "nullity_mod_t": r,
        "det_valuation": None if v == math.inf else v,
        "holds": v >= r,
    }


def verify_ufd_bound(m: Matrix) -> dict:
    """Rank form of the same bound: rank(M mod t) >= n - v_t(det M)."""
    rank, v = _rank_and_valuation(m)
    bound = m.rows - v if v != math.inf else -math.inf
    return {
        "lemma": "ufd_rank_bound",
        "n": m.rows,
        "rank_mod_t": rank,
        "det_valuation": None if v == math.inf else v,
        "holds": rank >= bound,
    }


def lemma_rk_check(cert: FactorizationCertificate, pt: SpecPoint) -> dict:
    """The four exact rank equalities at a multiplicity-one point.

    rank Y = n-d, rank Z = d+1, rank XY = n-1-d, rank ZX = d.
    Points whose zero eigenvalue has multiplicity other than one are
    rejected: rank n-1 alone is not enough (Jordan blocks).
    """
    n, d = cert.n, cert.d
    if pt.n != n:
        raise ValueError("point dimension does not match the certificate")
    mult = pt.zero_multiplicity
    if mult != 1:
        raise MultiplicityError(
            f"point has zero-eigenvalue multiplicity {mult}, need exactly 1 "
            "(rank n-1 alone does not suffice)")
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
        try:
            b_inv = b.inverse()
        except ZeroDivisionError:
            raise ValueError(
                "kernel vector and basis are linearly dependent") from None
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


def grassmann_map_sample(cert: FactorizationCertificate,
                         pp: ProjectorPoint) -> dict:
    """Column space of E * phi_E(Y): dimension n-1-d, inside span(basis)."""
    pt = pp.spec_point
    y0 = phi_apply(cert.Y, pt)
    g = pp.E * y0
    basis = _column_space_basis(g)
    dim = len(basis)
    # pp.basis is independent, so the sample lies in its span exactly when
    # the sample's vectors beside it add nothing to its rank
    beside = Matrix.from_rows(QQ, list(zip(*pp.basis, *basis)))
    contained = beside.rank() == len(pp.basis)
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
    failures = [{"trial": trial}
                for trial in range(trials) if not spec.modp(n, p, rng)]
    return {
        "identity": identity,
        "n": n,
        "params": {"p": p, "seed": seed},
        "trials": trials,
        "failures": failures,
        "passed": not failures,
        "expected_failure": spec.expected_failure,
    }
