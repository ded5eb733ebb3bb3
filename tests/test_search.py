"""The numpy Chandrupatla searches against scipy.optimize.elementwise.

The ports in friedrichs._search must reproduce scipy's find_root and
find_minimum bit for bit: the same x, final bracket, f values and status,
and the same sequence of active subsets handed to the objective.
"""

import numpy as np
import pytest
from scipy.optimize import elementwise

from friedrichs import BracketError, NumericalError
from friedrichs._search import _find_minimum, _find_root, bracketed_root, grid_max


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def recording(f):
    """f, and the list of (x, *args) it is called with."""
    calls = []

    def g(x, *args):
        calls.append(bits(x) + tuple(bits(a) for a in args))
        return f(x, *args)

    return g, calls


FIELDS = ("x", "f_x", "bracket", "f_bracket", "status", "success")


def assert_same(mine, ref):
    for name in FIELDS:
        got, want = getattr(mine, name), getattr(ref, name)
        if isinstance(want, tuple):
            assert len(got) == len(want), name
            for g, w in zip(got, want):
                assert bits(g) == bits(w), name
        else:
            assert bits(got) == bits(want), name


# the tolerances every caller passes, and the defaults
ROOT_TOLERANCES = [{}, dict(xatol=1e-12, xrtol=0.0), dict(xatol=1e-11, xrtol=1e-11),
                   dict(xatol=0.0, xrtol=1e-4)]


def cubic(x, c, s):
    return s * (x ** 3 - 2.0 * x - c) + np.tanh(5.0 * (x - c))


@pytest.mark.parametrize("tolerances", ROOT_TOLERANCES)
@pytest.mark.parametrize("maxiter", [None, 3])
def test_find_root_matches_scipy(tolerances, maxiter):
    rng = np.random.default_rng(7)
    n = 40
    c = rng.uniform(-3.0, 3.0, n)
    s = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 10.0, n)
    lo = -4.0 - rng.uniform(0.0, 2.0, n)
    hi = 4.0 + rng.uniform(0.0, 2.0, n)
    hi[5] = lo[5] + 1e-3  # no sign change on this bracket: status -1
    lo[7], hi[7] = hi[7], lo[7]  # reversed bracket
    extra = {} if maxiter is None else dict(maxiter=maxiter)
    f_mine, mine_calls = recording(cubic)
    f_ref, ref_calls = recording(cubic)
    mine = _find_root(f_mine, lo, hi, args=(c, s), **tolerances, **extra)
    ref = elementwise.find_root(f_ref, (lo, hi), args=(c, s),
                                tolerances=tolerances, **extra)
    assert_same(mine, ref)
    assert mine_calls == ref_calls
    assert mine.status[5] == -1
    if maxiter is not None:
        assert np.any(mine.status == -2)


def test_find_root_scalar_bracket():
    f = lambda x: np.cos(x) - x
    ref = elementwise.find_root(f, (0.0, 1.0), tolerances=dict(xatol=0.0, xrtol=1e-4))
    mine = _find_root(f, 0.0, 1.0, xatol=0.0, xrtol=1e-4)
    assert_same(mine, ref)
    assert np.ndim(mine.x) == 0


def test_find_root_array_xatol_is_per_element():
    # an array xatol gives each element the result of a search of its own
    # with that element's scalar tolerance
    rng = np.random.default_rng(3)
    n = 12
    c = rng.uniform(-3.0, 3.0, n)
    s = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 10.0, n)
    lo, hi = -4.0 - rng.uniform(0.0, 2.0, n), 4.0 + rng.uniform(0.0, 2.0, n)
    xatol = 10.0 ** rng.uniform(-12.0, -2.0, n)
    both = _find_root(cubic, lo, hi, args=(c, s), xatol=xatol, xrtol=0.0)
    for i in range(n):
        alone = _find_root(cubic, lo[i:i + 1], hi[i:i + 1], args=(c[i:i + 1], s[i:i + 1]),
                           xatol=xatol[i], xrtol=0.0)
        for name in FIELDS:
            got, want = getattr(both, name), getattr(alone, name)
            if isinstance(want, tuple):
                assert [bits(g[i:i + 1]) for g in got] == [bits(w) for w in want], name
            else:
                assert bits(got[i:i + 1]) == bits(want), name
    assert len(set(both.x.tolist())) == n


def test_bracketed_root_raises():
    f = lambda x: x * x + 1.0
    with pytest.raises(BracketError, match="no sign change"):
        bracketed_root(f, np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(NumericalError, match="did not converge") as exc:
        bracketed_root(np.sin, 3.0, 3.5, maxiter=2)
    assert not isinstance(exc.value, BracketError)


def wavy(x):
    return np.cos(x) + 0.05 * x + 0.02 * np.sin(7.0 * x)


@pytest.mark.parametrize("tolerances", [{}, dict(xatol=1e-4), dict(xrtol=1e-8)])
@pytest.mark.parametrize("maxiter", [100, 2])
def test_find_minimum_matches_scipy(tolerances, maxiter):
    rng = np.random.default_rng(11)
    n = 30
    centre = np.pi * (2 * rng.integers(-4, 5, n) + 1)
    x1 = centre - rng.uniform(0.3, 1.5, n)
    x2 = centre + rng.uniform(-0.2, 0.2, n)
    x3 = centre + rng.uniform(0.3, 1.5, n)
    x2[3] = x1[3] + 1e-3  # f(x2) above f(x1): status -1
    x1[4], x3[4] = x3[4], x1[4]  # points out of order
    f_mine, mine_calls = recording(wavy)
    f_ref, ref_calls = recording(wavy)
    mine = _find_minimum(f_mine, (x1, x2, x3), maxiter=maxiter, **tolerances)
    ref = elementwise.find_minimum(f_ref, (x1, x2, x3), tolerances=tolerances,
                                   maxiter=maxiter)
    assert_same(mine, ref)
    assert mine_calls == ref_calls
    assert mine.status[3] == -1
    if maxiter == 2:
        assert np.any(mine.status == -2)


def test_grid_max_scalar_bracket_matches_scipy():
    grid = np.linspace(0.0, 2.0, 21)
    f = lambda x: np.sin(2.0 * x) * np.exp(-0.1 * x)
    k = int(np.argmax(f(grid)))
    ref = elementwise.find_minimum(lambda x: -f(x), tuple(grid[k - 1:k + 2]),
                                   tolerances=dict(xrtol=1e-8))
    assert grid_max(f, grid, f(grid), xrtol=1e-8) == (float(ref.x), float(-ref.f_x))
