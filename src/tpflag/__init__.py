"""Totally positive elements of SL_n(R).

Exact minor-based membership tests, reduced-word cell coordinates on
unit-triangular matrices, the torus-action target map with closed-form
inverses for n = 2, 3 and a multi-start Newton inverse for general n,
and the induced classification of totally positive elements by positive
Borel and parabolic subgroups.
"""

from .errors import (DecompositionUnavailable, EigenvalueCollision,
                     FlagComputationError, MembershipViolation, NoConvergence,
                     NotInCell, NotInFibre, NotInTorusSet, NotPositive,
                     TotalPositivityError)
from .exactmat import (GaussFactors, RationalMatrix, colex_subsets,
                       exterior_power, gauss_decompose, minor,
                       perfect_nth_root)
from .weyl import (WeylElement, concat_is_reduced, is_reduced, length,
                   longest_element, reduced_word)
from .totpos import (LusztigParams, MinorWitness, PositivityVerdict,
                     evaluate_params, extract_params, is_g_positive,
                     is_totally_positive_unitriangular, relevant_minor_pairs,
                     sample_g_positive, sample_positive, sample_torus_matrix)
from .theta import (CampaignReport, SolveReport, SolverConfig, ThetaInstance,
                    TorusPoint, ZSystem, sample_torus_in_domain,
                    sl3_root_pair, theta_forward, theta_inverse_numeric,
                    theta_inverse_sl2, theta_inverse_sl3, torus_conjugate,
                    torus_set_membership, verify_conjecture, z_function)
from .flag import (CellCoordinates, DEFAULT_TOLERANCES, EigenFlag, FlagPoint,
                   FloatTolerances, ParabolicPoint, check_partition,
                   eigen_flag, gamma_p_point, perron_line_check, sigma_b,
                   sigma_b_inverse, snap_matrix, split_cell, zeta, zeta_j)

__version__ = "0.1.0"
