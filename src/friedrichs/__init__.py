"""Bound states and embedded-eigenvalue exclusion for N-level Friedrichs models.

The package folds a half-line continuum into N x N level-space matrices,
counts and solves all bound states below the continuum, and certifies the
absence of embedded eigenvalues at weak coupling through explicit threshold
constants.  See the README for the command-line entry points.
"""

__version__ = "0.1.0"

from .model import (ConfigError, FormFactor, FriedrichsModel,
                    HydrogenFormFactor, RationalFormFactor,
                    TabulatedFormFactor, UnitSystem, l2_norm_sq, load_model,
                    make_preset, model_digest, model_from_dict, PRESETS,
                    total_l2_norm_sq)
from .quad import (LevelShiftMatrix, NumericalError, gram_matrix, pv_matrix,
                   t_matrix)
from .spectral import EigenCurvePoint, eigh, k_matrix, kappa_curve
from .solver import (BoundState, BracketError, CountResult, PositiveCandidate,
                     SolveReport, count_negative,
                     positive_candidate_scan, residual, solve_model)
from .thresholds import (HypothesisViolation, LevelThreshold, ThresholdReport,
                         alpha_beta_gamma, certificate, lambda_bar_closed_form,
                         lambda_n, r_a)
from .oracle import (ConvergenceRow, ConvergenceTable, DiscretizedHamiltonian,
                     compare_negative_spectrum, discretize)

__all__ = [
    "__version__",
    "ConfigError", "FormFactor", "FriedrichsModel", "HydrogenFormFactor",
    "RationalFormFactor", "TabulatedFormFactor", "UnitSystem",
    "l2_norm_sq", "load_model", "make_preset", "model_digest",
    "model_from_dict", "PRESETS", "total_l2_norm_sq",
    "LevelShiftMatrix", "NumericalError",
    "gram_matrix", "pv_matrix", "t_matrix",
    "EigenCurvePoint", "eigh", "k_matrix", "kappa_curve",
    "BoundState", "BracketError", "CountResult", "PositiveCandidate",
    "SolveReport", "count_negative", "positive_candidate_scan",
    "residual", "solve_model",
    "HypothesisViolation", "LevelThreshold", "ThresholdReport",
    "alpha_beta_gamma", "certificate", "lambda_bar_closed_form", "lambda_n",
    "r_a",
    "ConvergenceRow", "ConvergenceTable", "DiscretizedHamiltonian",
    "compare_negative_spectrum", "discretize",
]
