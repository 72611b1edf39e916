"""Exact adjugate factorizations of the generic matrix.

Construct the generic n-by-n matrix X = (x_i_j) over the integer polynomial
ring, verify the classical adjugate identities exactly, factor adj(X)
through invertible alternating matrices (even n), and check the valuation,
rank, and compound-matrix laws that govern such factorizations.  All
arithmetic is exact: arbitrary-precision integers, rationals, or GF(p).
"""

from .domains import GF, QQ, ZZ, PolynomialDomain
from .factor import (SYMBOLIC_CAP, AlternatingMatrix, FactorizationCertificate,
                     GenericContext, RefinementWitness, diagonal_factorization,
                     factor_left, factor_right, quotient_matrix,
                     random_alternating, reverify_certificate, sandwich,
                     solve_common_refinement, standard_symplectic,
                     theorem_main_guard, verify_fundamental, zero_alternating)
from .matrix import Matrix, index_subsets
from .polyring import ExactDivisionError, PolyRing, Polynomial, order_key
from .specialize import (MultiplicityError, ProjectorPoint, SpecPoint,
                         grassmann_map_sample, lemma_rk_check, phi_apply,
                         psi_apply, sz_check, verify_dvr_bound,
                         verify_ufd_bound)

__version__ = "0.1.0"
