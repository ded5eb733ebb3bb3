"""Bound states and embedded-eigenvalue exclusion for N-level Friedrichs models.

The package folds a half-line continuum into N x N level-space matrices,
counts and solves all bound states below the continuum, and certifies the
absence of embedded eigenvalues at weak coupling through explicit threshold
constants.  See the README for the command-line entry points.
"""

__version__ = "0.1.0"

from .model import (ConfigError, FormFactor, FriedrichsModel,
                    HydrogenFormFactor, RationalFormFactor,
                    TabulatedFormFactor, UnitSystem, eval_form_factor,
                    l2_norm_sq, load_model, make_preset, model_digest,
                    model_from_dict, PRESETS, total_l2_norm_sq)
from .quad import (LevelShiftMatrix, NumericalError, QuadratureError,
                   QuadratureSettings, gram_matrix, integrate_semiinf,
                   pv_integral, pv_matrix, t_matrix)
from .spectral import (DegeneracyError, EigenCurvePoint, eigh, k_matrix,
                       kappa_curve, projector, projector_series)
from .solver import (BoundState, BracketError, CountResult,
                     IndependenceReport, PositiveCandidate, SolveReport,
                     bound_state, count_negative, find_root,
                     independence_analysis, positive_candidate_scan, residual,
                     solve_model)
from .thresholds import (HypothesisViolation, LevelThreshold, ThresholdReport,
                         alpha_beta_gamma, certificate, lambda_bar_closed_form,
                         lambda_n, r_a, r_b_lambda_b, sup_d_norm)
from .oracle import (ConvergenceRow, ConvergenceTable, DiscretizedHamiltonian,
                     GridSpec, compare_negative_spectrum, discretize,
                     from_arrays)

__all__ = [
    "__version__",
    "ConfigError", "FormFactor", "FriedrichsModel", "HydrogenFormFactor",
    "RationalFormFactor", "TabulatedFormFactor", "UnitSystem",
    "eval_form_factor", "l2_norm_sq", "load_model",
    "make_preset", "model_digest", "model_from_dict", "PRESETS",
    "total_l2_norm_sq",
    "LevelShiftMatrix", "NumericalError", "QuadratureError",
    "QuadratureSettings", "gram_matrix", "integrate_semiinf", "pv_integral",
    "pv_matrix", "t_matrix",
    "DegeneracyError", "EigenCurvePoint", "eigh", "k_matrix", "kappa_curve",
    "projector", "projector_series",
    "BoundState", "BracketError", "CountResult", "IndependenceReport",
    "PositiveCandidate", "SolveReport", "bound_state",
    "count_negative", "find_root", "independence_analysis",
    "positive_candidate_scan", "residual", "solve_model",
    "HypothesisViolation", "LevelThreshold", "ThresholdReport",
    "alpha_beta_gamma", "certificate", "lambda_bar_closed_form", "lambda_n",
    "r_a", "r_b_lambda_b", "sup_d_norm",
    "ConvergenceRow", "ConvergenceTable", "DiscretizedHamiltonian", "GridSpec",
    "compare_negative_spectrum", "discretize", "from_arrays",
]
