"""Hash the drivers' results, for a bit-identity check between two trees.

A change that must keep every byte (a refactor) leaves every hash printed
here unchanged.  The script imports the package, the benchmark's model
generator and the property suites from the tree it lives in, so run it once
in each checkout and diff the two outputs:

    python3 tests/oracles/bit_identity.py > new.txt
    python3 ../other-checkout/tests/oracles/bit_identity.py > old.txt
    diff old.txt new.txt

Each line is "<model> <driver> <sha256>", the hash of the pickled result
(protocol 4), or of the exception's type and message where the driver
raises.  The drivers: `count_negative`, `solve_model`,
`compare_negative_spectrum` over m = 500, 1000, 2000 and 4000,
`positive_candidate_scan` on 40 points over [1e-3, 5] times the model's
`max_scale()`, and `certificate` (the `ThresholdReport`, which on a
tabulated model reads d|v|^2/domega of the interpolant).  The models: the 18 `bound-states` and 2 `tabulated`
benchmark models of seed 2, both presets, three-level-fig at lambda = 0.1,
0.7 and 10, hydrogen-4level at 0.3 and 3, `tests/golden/tabulated.json`,
three-level-fig with levels and widths scaled by s in {1e-9, 1e-6, 1e-3,
1e3, 1e6} at lambda = 0.1, 0.7 and 10, three-level-fig with form factor
1's width 5.5e9 (a root near -1.3e9), and 200 models of
`property_suites.draw_model` from one seed.  A run takes a minute or two.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from friedrichs import (  # noqa: E402
    FriedrichsModel, RationalFormFactor, certificate, compare_negative_spectrum,
    count_negative, load_model, make_preset, positive_candidate_scan, solve_model)
from friedrichs.model import model_from_dict  # noqa: E402
from property_suites import draw_model  # noqa: E402

SCHEDULE = (500, 1000, 2000, 4000)
DRAWN, DRAW_SEED = 200, 20261022


def _scaled_three_level(s, lam):
    """three-level-fig with levels and widths times s."""
    base = make_preset("three-level-fig")
    factors = tuple(RationalFormFactor(f.n_index, f.a, s * f.cutoff, f.prefactor)
                    for f in base.form_factors)
    return FriedrichsModel(tuple(s * w for w in base.levels), lam, factors, base.units)


def models():
    """(name, model) of every model hashed, in a fixed order."""
    for workload in ("bound-states", "tabulated"):
        for name, data in workloads.build(workload, 2)["models"].items():
            yield f"{workload}:{name}", model_from_dict(data)
    for preset in ("three-level-fig", "hydrogen-4level"):
        yield preset, make_preset(preset)
    for lam in (0.1, 0.7, 10.0):
        yield f"three-level-fig@{lam:g}", make_preset("three-level-fig", lam)
    for lam in (0.3, 3.0):
        yield f"hydrogen-4level@{lam:g}", make_preset("hydrogen-4level", lam)
    yield "golden-tabulated", load_model(ROOT / "tests" / "golden" / "tabulated.json")
    for s in (1e-9, 1e-6, 1e-3, 1e3, 1e6):
        for lam in (0.1, 0.7, 10.0):
            yield f"three-level-fig*{s:g}@{lam:g}", _scaled_three_level(s, lam)
    config = make_preset("three-level-fig").descriptor()
    config["form_factors"][0]["cutoff"] = 5.5e9
    yield "deep-root", model_from_dict(config)
    rng = np.random.default_rng(DRAW_SEED)
    for i in range(DRAWN):
        yield f"drawn-{i}", draw_model(rng)


DRIVERS = {
    "count_negative": count_negative,
    "solve_model": solve_model,
    "compare_negative_spectrum": lambda m: compare_negative_spectrum(m, SCHEDULE),
    "positive_candidate_scan": lambda m: positive_candidate_scan(
        m, np.linspace(1e-3, 5.0, 40) * m.max_scale()),
    "certificate": certificate,
}


def digest(driver, model) -> str:
    try:
        result = driver(model)
    except Exception as exc:  # a raising driver is hashed by what it raised
        result = (type(exc).__name__, str(exc))
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


def main():
    for name, model in models():
        for driver, call in DRIVERS.items():
            print(name, driver, digest(call, model), flush=True)


if __name__ == "__main__":
    main()
