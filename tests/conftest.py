import time

import numpy as np
import pytest

import property_suites as ps
from friedrichs import (FriedrichsModel, TabulatedFormFactor, UnitSystem,
                        certificate, make_preset, solve_model)


@pytest.fixture(scope="session")
def hydrogen():
    return make_preset("hydrogen-4level")


@pytest.fixture(scope="session")
def three_level():
    return make_preset("three-level-fig")


@pytest.fixture(scope="session")
def hydrogen_cert(hydrogen):
    # about 25 ms; shared by the threshold regression tests and the acceptance gate
    return certificate(hydrogen)


@pytest.fixture(scope="session")
def three_level_reports(three_level):
    return {lam: solve_model(three_level.with_coupling(lam))
            for lam in (0.1, 0.7, 10.0)}


@pytest.fixture(scope="session")
def tabulated_two_level():
    """Two complex tabulated factors on a shared 40-node grid, one level
    below the continuum: a kink at every node and one bound state."""
    grid = np.geomspace(0.02, 8.0, 40)
    factors = []
    for width, t0, t1 in ((1.0, 0.3, 0.7), (0.75, 1.1, -0.4)):
        u = grid / width
        values = (0.8 * np.sqrt(grid) / (1.0 + u * u)
                  * np.exp(1j * (t0 + t1 * np.log(u))))
        factors.append(TabulatedFormFactor(grid, values, tail_exponent=-1.5))
    return FriedrichsModel((-0.2, 0.1), 0.5, tuple(factors), UnitSystem(1.0))


@pytest.fixture(scope="session")
def property_suite_runs():
    """Every randomized property suite, run once per session:
    suite name -> (cases run, seconds taken)."""
    runs = {}
    for suite in ps.ALL_SUITES:
        t0 = time.perf_counter()
        cases = suite()
        runs[suite.__name__] = (cases, time.perf_counter() - t0)
    return runs
