"""The Chandrupatla searches against scipy.optimize.elementwise.

The ports in friedrichs._search must reproduce scipy's find_root and
find_minimum bit for bit: the same x, final bracket, f values and status,
and the same sequence of active subsets handed to the objective, also where
the objective returns NaN or exact zeros or a bracket end is infinite.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import elementwise

from friedrichs import BracketError, NumericalError
from friedrichs._search import (_clip, _div, _find_minimum, _find_root, _same_sign,
                                bracketed_root, grid_max)


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


def test_find_root_array_fatol_is_per_element():
    # an array fatol gives each element the result of a search of its own
    # with that element's scalar tolerance, also where elements stop at
    # different steps
    rng = np.random.default_rng(5)
    n = 12
    c = rng.uniform(-3.0, 3.0, n)
    s = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 10.0, n)
    lo, hi = -4.0 - rng.uniform(0.0, 2.0, n), 4.0 + rng.uniform(0.0, 2.0, n)
    fatol = 10.0 ** rng.uniform(-12.0, -1.0, n)
    both = _find_root(cubic, lo, hi, args=(c, s), fatol=fatol)
    for i in range(n):
        alone = _find_root(cubic, lo[i:i + 1], hi[i:i + 1], args=(c[i:i + 1], s[i:i + 1]),
                           fatol=fatol[i])
        for name in FIELDS:
            got, want = getattr(both, name), getattr(alone, name)
            if isinstance(want, tuple):
                assert [bits(g[i:i + 1]) for g in got] == [bits(w) for w in want], name
            else:
                assert bits(got[i:i + 1]) == bits(want), name
    assert np.all(both.success)
    assert np.all(np.abs(both.f_x) <= fatol) and not np.all(np.abs(both.f_x) <= fatol.min())
    # three tanh roots that stop after different numbers of steps
    res = _find_root(lambda x, c: np.tanh(x - c), -1.0, 1.0, args=(np.array([.1, .2, .3]),),
                     fatol=np.array([1e-1, 1e-6, 1e-12]))
    assert np.all(res.success)


def odd(x, kind):
    """A root objective per element kind: 0 a line; 1 NaN left of 0; 2 NaN
    on |x| < 0.6, so two NaNs in a row; 3 zero at the first step from
    [0, 1]; 4 tanh, searched from -inf; 5 zero at the bracket end -1; 6 the
    identity, NaN left of -0.5."""
    nan = np.full_like(x, np.nan)
    return np.select([kind == 1, kind == 2, kind == 3, kind == 4, kind == 5, kind == 6],
                     [np.where(x < 0.0, nan, x - 0.3), np.where(np.abs(x) < 0.6, nan, x - 0.7),
                      x - 0.5, np.tanh(x), x + 1.0, np.where(x < -0.5, nan, x)], x - 0.3)


ODD_LO = np.array([-1.0, -1.0, -1.0, 0.0, -np.inf, -1.0, -1.0])


@pytest.mark.parametrize("kinds", [list(range(7))] + [[k] for k in range(7)])
@pytest.mark.parametrize("maxiter", [None, 0, 1, 2])
def test_find_root_non_finite_and_exact_zeros_match_scipy(kinds, maxiter):
    # a NaN at a bracket end makes the f tolerance NaN, so an exact zero at
    # a step (kind 6) does not stop the search; two NaNs in a row (kinds 1
    # and 2) and an infinite end (kind 4) give status -3; an exact zero
    # stops at once (kinds 3 and 5)
    kind = np.array(kinds)
    lo, hi = ODD_LO[kind], np.ones(kind.size)
    extra = {} if maxiter is None else dict(maxiter=maxiter)
    f_mine, mine_calls = recording(odd)
    f_ref, ref_calls = recording(odd)
    mine = _find_root(f_mine, lo, hi, args=(kind,), **extra)
    ref = elementwise.find_root(f_ref, (lo, hi), args=(kind,), **extra)
    assert_same(mine, ref)
    assert mine_calls == ref_calls
    if maxiter is None:
        want = {0: 0, 1: -3, 2: -3, 3: 0, 4: -3, 5: 0, 6: 0}
        assert mine.status.tolist() == [want[k] for k in kinds]
        if kinds == [6]:
            assert len(mine_calls) > 1000
    elif maxiter == 0:
        assert len(mine_calls) == 2


def test_find_root_maxiter_zero_and_one_on_a_scalar_bracket():
    for maxiter in (0, 1):
        ref = elementwise.find_root(np.cos, (0.0, 2.0), maxiter=maxiter)
        mine = _find_root(np.cos, 0.0, 2.0, maxiter=maxiter)
        assert_same(mine, ref)
        assert mine.status == -2


SPECIAL = [math.nan, -math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.25, 0.5, 1.0, math.inf]


def test_scalar_helpers_match_numpy():
    # the IEEE cases the scalar searches rely on, against numpy's float64
    # loops on arrays: division by zero, NaN and signed zeros.  f3 - f2 in
    # the root step is the difference of the last bracket's ends, never 0,
    # so the loop itself cannot reach _div's zero branch there
    def array(*xs):
        return [np.array([x]) for x in xs]

    with np.errstate(all="ignore"):
        for a, b in itertools.product(SPECIAL, repeat=2):
            want = np.divide(*array(a, b))[0]
            # any NaN will do: no quotient reaches the search state
            assert bits(_div(a, b)) == bits(want) or math.isnan(_div(a, b)) and np.isnan(want)
            assert _same_sign(a, b) == np.equal(*map(np.sign, array(a, b)))[0]
        for t, lo, hi in itertools.product(SPECIAL, repeat=3):
            assert bits(_clip(t, lo, hi)) == bits(np.clip(*array(t, lo, hi))[0])


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


def underflowing(x):
    # differences of a few subnormals: the parabola's a and b underflow to 0
    return (x - 1.0) ** 2 * 2e-321


def holed(x):
    return np.where(np.abs(x - 1.0) < 0.05, np.nan, (x - 1.0) ** 2)


@pytest.mark.parametrize("f, bracket, tolerances, status", [
    (lambda x: np.ones_like(x), (0.0, 1.0, 2.0), {}, 0),
    (underflowing, (0.9, 1.0, 1.1), dict(fatol=0.0, frtol=0.0), 0),
    (holed, (0.0, 0.9, 2.0), {}, -3),
], ids=["flat", "nan-parabola", "nan-value"])
def test_find_minimum_flat_and_nan_steps_match_scipy(f, bracket, tolerances, status):
    if f is underflowing:
        # a = b = 0, so the vertex is 0/0 and the search takes golden steps
        assert 0.1 * (f(1.1) - f(1.0)) == 0.0 and f(1.1) - 2 * f(1.0) + f(0.9) > 0.0
    f_mine, mine_calls = recording(f)
    f_ref, ref_calls = recording(f)
    mine = _find_minimum(f_mine, bracket, **tolerances)
    with np.errstate(invalid="ignore"):
        ref = elementwise.find_minimum(f_ref, bracket, tolerances=tolerances)
    assert_same(mine, ref)
    assert mine_calls == ref_calls
    assert mine.status == status
    assert len(mine_calls) > 3 or f is not underflowing


def test_grid_max_scalar_bracket_matches_scipy():
    grid = np.linspace(0.0, 2.0, 21)
    f = lambda x: np.sin(2.0 * x) * np.exp(-0.1 * x)
    k = int(np.argmax(f(grid)))
    ref = elementwise.find_minimum(lambda x: -f(x), tuple(grid[k - 1:k + 2]),
                                   tolerances=dict(xrtol=1e-8))
    assert grid_max(f, grid, f(grid), xrtol=1e-8) == (float(ref.x), float(-ref.f_x))
