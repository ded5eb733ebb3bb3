import importlib

import pytest

import friedrichs

# the package's public names; a name joins or leaves this list on purpose
PUBLIC = [
    "BoundState", "BracketError", "ConfigError", "ConvergenceRow",
    "ConvergenceTable", "CountResult", "DiscretizedHamiltonian",
    "EigenCurvePoint", "FormFactor", "FriedrichsModel", "HydrogenFormFactor",
    "HypothesisViolation", "LevelShiftMatrix", "LevelThreshold",
    "NumericalError", "PRESETS", "PositiveCandidate",
    "RationalFormFactor", "SolveReport", "TabulatedFormFactor",
    "ThresholdReport", "UnitSystem", "__version__", "alpha_beta_gamma",
    "bound_state", "certificate", "compare_negative_spectrum",
    "count_negative", "discretize", "eigh", "gram_matrix",
    "k_matrix", "kappa_curve", "l2_norm_sq", "lambda_bar_closed_form",
    "lambda_n", "load_model", "make_preset", "model_digest", "model_from_dict",
    "positive_candidate_scan", "pv_matrix", "r_a", "residual",
    "solve_model", "t_matrix", "total_l2_norm_sq",
]


def test_package_all_is_frozen():
    assert sorted(friedrichs.__all__) == PUBLIC
    assert all(hasattr(friedrichs, name) for name in PUBLIC)


@pytest.mark.parametrize("layer", ["model", "quad", "spectral", "solver",
                                   "thresholds", "oracle"])
def test_layer_all_resolves(layer):
    # bench/tracer.py wraps the names in each layer's __all__ and skips a
    # missing one without a word, so a stale entry would lose its span
    module = importlib.import_module(f"friedrichs.{layer}")
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []
