"""Numerical laboratory for the white-noise Feynman integrand of a charged
particle in a constant magnetic field."""

from .errors import (CausticError, ConditionViolationError, HidaLabError,
                     InvalidParameterError, NearSingularError, NumericFailureError)
from .grid import Grid, GridFunctionPair, make_grid, pair, sample
from .operators import (BlockOperator, MagneticModel, apply_N, build_N, free_K,
                        magnetic_L, symmetric_core, volterra)
from .spectral import (analytic_eigenvalues, determinant_closed, determinant_product,
                       determinant_report, discrete_spectrum)
from .fredholm import (analytic_gram_diagonal, caustic_check, gram_matrix, solve_N,
                       verify_preimage)
from .gausskernels import FiniteRankKernel, donsker_T, montecarlo_gauss_expectation
from .testfunctions import indicator_pair, random_suite
from .verification import CheckResult, run_checks
from .feynman import (LemmaEvaluator, TTransformReport, composed_closed_value,
                      free_limit_reference, magnetic_T, printed_propagator_value,
                      propagator, residual_convergence, schrodinger_residual)

__version__ = "0.1.0"
