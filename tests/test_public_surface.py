import ast
import importlib
from pathlib import Path

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
    "certificate", "compare_negative_spectrum",
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


# public names that no package code reads and the acceptance gate does not
# import, each with its reason
TESTS_ONLY = {
    # the sign count at E = 0, kept as the reference that a count from the
    # pencil (levels, S(0)) is checked against
    "count_negative",
    # T(E, E') with its err: the solver reads every root's T(E, E) as one
    # stack of entries (`quad._shift_stack`), which tests/test_quad.py
    # checks bit for bit against this matrix
    "t_matrix",
    # one level's ||v_n||^2: total_l2_norm_sq and the solver's seed read
    # every norm in one pass (`quad._norms_sq`), and tests/test_model.py
    # checks this one against the closed forms and their sum
    "l2_norm_sq",
}


def _names_read(paths):
    """Every name and attribute that the code of the files reads, so that a
    name in a docstring or a string does not count."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _names_imported(path):
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_has_a_reader():
    # a public name exists for the package's own code or for the acceptance
    # gate, not only for the tests that check it
    package = Path(friedrichs.__file__).parent
    read = _names_read(p for p in package.glob("*.py") if p.name != "__init__.py")
    gate = _names_imported(Path(__file__).with_name("test_acceptance.py"))
    orphans = sorted(set(friedrichs.__all__) - read - gate - TESTS_ONLY)
    assert orphans == []
    assert TESTS_ONLY <= set(friedrichs.__all__) - read - gate
