import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import friedrichs.quad
from friedrichs import (
    ConfigError,
    FriedrichsModel,
    HydrogenFormFactor,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    certificate,
    l2_norm_sq,
    load_model,
    make_preset,
    model_digest,
    model_from_dict,
    total_l2_norm_sq,
)

from _references import L2_HYDROGEN, L2_THREE_LEVEL


def test_rational_value_anchor():
    # sqrt(1) * 1 / (1+1)^2 with unit cutoff and no polynomial part
    f = RationalFormFactor(1, 0.0, 1.0)
    assert f.value(1.0) == pytest.approx(0.25, rel=1e-15)
    assert f.mod_sq_scalar(1.0) == pytest.approx(0.0625, rel=1e-15)


def test_hydrogen_value_anchor():
    f = HydrogenFormFactor(1)
    v = f.value(1.0)
    assert v == pytest.approx(-0.25j, rel=1e-15)
    assert f.common_phase == pytest.approx(-1j)


def test_mod_sq_matches_value():
    x = np.geomspace(1e-4, 50.0, 200)
    for f in (RationalFormFactor(2, 1.5, 0.8),
              HydrogenFormFactor(3),
              RationalFormFactor(3, 0.0, 2.0, prefactor=1.7)):
        assert np.allclose(f.mod_sq(x), np.abs(f.value(x)) ** 2, rtol=1e-13)


def test_mod_sq_derivative_exact_fraction():
    # d/dx [x/(1+x^2)^4] = (1-7x^2)/(1+x^2)^5; at x = 3/10 this is
    # exactly 37*100^4/109^5
    f = RationalFormFactor(1, 0.0, 1.0)
    want = Fraction(37) * Fraction(100) ** 4 / Fraction(109) ** 5
    got = float(f.mod_sq_derivative(np.array([0.3]))[0])
    assert got == pytest.approx(float(want), rel=1e-14)


@pytest.mark.parametrize("factor", [
    RationalFormFactor(1, 0.0, 1.0),
    RationalFormFactor(2, 2.0, 0.7),
    RationalFormFactor(3, 1.0, 1.3, prefactor=0.9),
    HydrogenFormFactor(1),
    HydrogenFormFactor(2),
    HydrogenFormFactor(3),
])
def test_mod_sq_derivative_central_difference(factor):
    x = np.geomspace(0.05, 20.0, 40)
    h = 1e-6 * np.maximum(x, 1.0)
    num = (factor.mod_sq(x + h) - factor.mod_sq(x - h)) / (2 * h)
    assert np.allclose(factor.mod_sq_derivative(x), num, rtol=1e-6, atol=1e-12)


def test_profile_derivative_central_difference():
    for factor in (RationalFormFactor(2, 2.0, 0.7), HydrogenFormFactor(2)):
        for x in (0.05, 0.4, 1.7, 9.0):
            h = 1e-7 * max(x, 1.0)
            num = (factor.profile_scalar(x + h) - factor.profile_scalar(x - h)) / (2 * h)
            assert factor.profile_derivative_scalar(x) == pytest.approx(num, rel=1e-5)


_POLYNOMIAL_FACTORS = (
    [RationalFormFactor(n, a, c) for n in range(1, 12) for a in (0.0, 0.5, 2.0)
     for c in (1e-4, 1.0)]
    + [HydrogenFormFactor(i, 0.7) for i in (1, 2, 3)])


def _direct(f, x):
    """The factor's v/phase, dv/dx/phase, |v|^2 and d|v|^2/dx written as the
    direct quotients of Q(s) = Q(u^2) by powers of 1 + s.  Each derivative
    comes with the summed size of its terms, its scale for a relative
    comparison."""
    u = x / f._c
    s = u * u
    qv, dq = np.polyval(f._desc, s), np.polyval(f._ddesc, s)
    one, q, m = 1.0 + s, f._q, 2 * f._q
    value = f._amp * np.sqrt(u) * qv / one ** q
    terms = (qv * one / (2.0 * np.sqrt(u)), 2.0 * u * np.sqrt(u) * dq * one,
             -2.0 * q * u * np.sqrt(u) * qv)
    pref = f._amp / f._c / one ** (q + 1)
    slope = (pref * sum(terms), pref * sum(np.abs(t) for t in terms))
    mod_sq = f._amp ** 2 * u * qv * qv / one ** m
    terms = (qv * qv * one, 4.0 * s * qv * dq * one, -2.0 * m * s * qv * qv)
    pref = f._amp ** 2 / f._c / one ** (m + 1)
    deriv = (pref * sum(terms), pref * sum(np.abs(t) for t in terms))
    return value, slope, mod_sq, deriv


def test_polynomial_factors_match_direct_quotient():
    # out to where (1+s)^(2q+1) nears the double limit, or s = 1e20, every
    # evaluator, scalar and vector, agrees with the direct quotient
    for f in _POLYNOMIAL_FACTORS:
        u_max = min(1e10, 10.0 ** (150.0 / (2 * f._q + 1)))
        x = f.scale * np.geomspace(1e-6, u_max, 401)
        value, (slope, slope_scale), mod_sq, (deriv, deriv_scale) = _direct(f, x)
        for direct in (value, slope, mod_sq, deriv):
            assert np.all(np.isfinite(direct))
        assert np.allclose(f.value(x) / f.common_phase, value, rtol=1e-14, atol=0.0)
        assert np.allclose(f.mod_sq(x), mod_sq, rtol=1e-14, atol=0.0)
        assert np.all(np.abs(f.mod_sq_derivative(x) - deriv) <= 1e-14 * deriv_scale)
        for k in range(0, x.size, 10):
            assert f.profile_scalar(x[k]) == pytest.approx(value[k], rel=1e-14)
            assert f.mod_sq_scalar(x[k]) == pytest.approx(mod_sq[k], rel=1e-14)
            assert abs(f.profile_derivative_scalar(x[k]) - slope[k]) <= 1e-14 * slope_scale[k]


def test_polynomial_factors_finite_far_tail():
    # the quadrature tail reaches u = x/c far beyond 1e6 for narrow factors;
    # there the scalar callbacks agree with the vector evaluators, and
    # 2 v v' with d|v|^2/dx
    for f in _POLYNOMIAL_FACTORS:
        x = f.scale * np.geomspace(1.0, 1e20, 81)
        value, mod_sq, deriv = f.value(x) / f.common_phase, f.mod_sq(x), f.mod_sq_derivative(x)
        for vals in (value, mod_sq, deriv):
            assert np.all(np.isfinite(vals))
        for k, xk in enumerate(x):
            v, dv = f.profile_scalar(xk), f.profile_derivative_scalar(xk)
            assert math.isfinite(dv)
            assert v == pytest.approx(value[k].real, rel=1e-14, abs=1e-290)
            assert f.mod_sq_scalar(xk) == pytest.approx(mod_sq[k], rel=1e-14, abs=1e-290)
            assert 2.0 * v * dv == pytest.approx(deriv[k], rel=1e-13, abs=1e-290)


def test_l2_norms_hydrogen(hydrogen):
    # exact values 1/6 and 243/5120; third frozen from
    # tests/oracles/gen_references.py
    assert l2_norm_sq(hydrogen, 1) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert l2_norm_sq(hydrogen, 2) == pytest.approx(243.0 / 5120.0, rel=1e-12)
    assert l2_norm_sq(hydrogen, 3) == pytest.approx(L2_HYDROGEN[2], rel=1e-11)


def test_l2_norms_three_level(three_level):
    want = (1.0 / 6.0, 4.0 / 15.0, 3.0 / 35.0)
    for n, w in enumerate(want, start=1):
        assert l2_norm_sq(three_level, n) == pytest.approx(w, rel=1e-12)
        assert L2_THREE_LEVEL[n - 1] == pytest.approx(w, rel=1e-14)
    assert total_l2_norm_sq(three_level) == pytest.approx(sum(want), rel=1e-12)


def test_total_l2_norm_sq_reads_the_norms_once(three_level, tabulated_two_level, monkeypatch):
    # one pass over the tables (one per level before), and the same floats
    # summed in the same order as the levels' l2_norm_sq
    calls = []
    norms = friedrichs.quad._norms_sq
    monkeypatch.setattr(friedrichs.quad, "_norms_sq",
                        lambda model: calls.append(1) or norms(model))
    for model in (three_level, tabulated_two_level):
        calls.clear()
        total = total_l2_norm_sq(model)
        assert len(calls) == 1
        assert total == sum(l2_norm_sq(model, n) for n in range(1, model.n_levels + 1))


def test_rational_validation():
    with pytest.raises(ConfigError):
        RationalFormFactor(0)
    with pytest.raises(ConfigError):
        RationalFormFactor(1, cutoff=0.0)
    with pytest.raises(ConfigError):
        RationalFormFactor(1, cutoff=float("inf"))


def test_hydrogen_validation():
    with pytest.raises(ConfigError):
        HydrogenFormFactor(4)
    with pytest.raises(ConfigError):
        HydrogenFormFactor(0)
    assert HydrogenFormFactor(2.0).index == 2


def test_tabulated_roundtrip_and_tails():
    grid = np.linspace(0.5, 4.0, 30)
    vals = np.sqrt(grid) / (1.0 + grid ** 2)
    f = TabulatedFormFactor(grid, vals, tail_exponent=-1.5, p_exponent=0.5)
    assert np.allclose(f.value(grid), vals, rtol=1e-14)
    # below the grid: v(g0) (x/g0)^p
    assert f.value(0.25) == pytest.approx(vals[0] * (0.25 / 0.5) ** 0.5, rel=1e-13)
    # above the grid: v(gN) (x/gN)^tail
    assert f.value(8.0) == pytest.approx(vals[-1] * 2.0 ** -1.5, rel=1e-13)
    assert f.mod_sq(0.0) == 0.0


@pytest.mark.parametrize("p_exponent", [0.5, 0.0])
def test_tabulated_value_scalar_matches_value(p_exponent):
    # value at a float argument against value on the whole array: nodes,
    # mid-cells, both ends of the grid, below and above it, and x = 0
    grid = np.geomspace(0.05, 6.0, 17)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * np.tanh(grid))
    f = TabulatedFormFactor(grid, vals, tail_exponent=-1.5, p_exponent=p_exponent)
    mids = 0.5 * (grid[1:] + grid[:-1])
    xs = np.concatenate((grid, mids, [0.0, 0.01, 0.049, 6.5, 1e3]))
    want = f.value(xs)
    for x, w in zip(xs, want):
        got = f.value(float(x))
        assert np.ndim(got) == 0
        assert abs(got - w) <= 1e-15 * abs(w), x
    assert f.value(float(grid[0])) == vals[0]
    assert f.value(float(grid[-1])) == vals[-1]
    with pytest.raises(ValueError):
        f.value(-1e-3)


@pytest.mark.parametrize("p_exponent", [0.5, 0.0, 1.0, 0.3])
def test_tabulated_mod_sq_scalar_matches_mod_sq(p_exponent):
    # mod_sq at a float argument against mod_sq on the whole array, bit for
    # bit: nodes, mid-cells, x = 0, below the first node, at and above the last
    grid = np.geomspace(0.05, 6.0, 17)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * np.tanh(grid))
    f = TabulatedFormFactor(grid, vals, tail_exponent=-1.7, p_exponent=p_exponent)
    mids = 0.5 * (grid[1:] + grid[:-1])
    rng = np.random.default_rng(3)
    inside = rng.uniform(grid[0], grid[-1], 200)
    xs = np.concatenate((grid, mids, inside, [0.0, 1e-300, 0.01, 0.049, 6.5, 1e3]))
    want = f.mod_sq(xs)
    got = np.array([f.mod_sq(float(x)) for x in xs])
    assert all(type(f.mod_sq(float(x))) is float for x in xs[:3])
    assert got.tobytes() == want.tobytes()
    # |v|^2 of the interpolant itself, not an interpolant of |v|^2
    v = f.value(xs)
    assert np.all(np.abs(want - (v * np.conj(v)).real) <= 2 * np.finfo(float).eps * want)
    with pytest.raises(ValueError):
        f.mod_sq(-1e-3)


@pytest.mark.parametrize("p_exponent", [0.5, 1.0, 0.3, 2.0, 0.0])
def test_tabulated_mod_sq_derivative_is_the_interpolants_slope(p_exponent):
    # d|v|^2/dx of the interpolant against a centred difference of mod_sq,
    # inside cells and on both powers; at 0 the closed form of the power
    grid = np.geomspace(0.05, 6.0, 17)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * np.tanh(grid))
    f = TabulatedFormFactor(grid, vals, tail_exponent=-1.7, p_exponent=p_exponent)
    rng = np.random.default_rng(5)
    cell = rng.integers(1, grid.size, 200)
    inside = grid[cell - 1] + rng.uniform(0.05, 0.95, 200) * np.diff(grid)[cell - 1]
    xs = np.concatenate((inside, [1e-3, 0.01, 0.03, 6.5, 20.0, 1e3]))
    h = 1e-6 * np.minimum(xs, np.min(np.abs(xs[:, None] - grid), axis=1))
    num = (f.mod_sq(xs + h) - f.mod_sq(xs - h)) / (2 * h)
    assert np.allclose(f.mod_sq_derivative(xs), num, rtol=1e-6, atol=0.0)
    e = 2.0 * p_exponent
    at0 = abs(vals[0]) ** 2 / grid[0] if e == 1.0 else (np.inf if 0.0 < e < 1.0 else 0.0)
    assert f.mod_sq_derivative(0.0) == pytest.approx(at0, rel=2 * np.finfo(float).eps)


def test_tabulated_mod_sq_derivative_on_a_far_grid_end():
    # on the power above an end g = 1e160, g^e underflowed to 0 and the
    # slope was NaN.  v(x) of the grid times s is v(x / s) of the original,
    # so d|v|^2/dx at s x is the original's at x over s: a copy on a grid
    # whose g^e stays finite is the reference
    grid = np.geomspace(1.0, 1e160, 6)
    vals = np.array([1.0, 0.8 + 0.1j, 0.6 - 0.2j, 0.5, 0.4 + 0.3j, 0.3j])
    far = TabulatedFormFactor(grid, vals, tail_exponent=-1.5)
    s = 1e-150
    near = TabulatedFormFactor(grid * s, vals, tail_exponent=-1.5)
    xs = np.concatenate(([0.1, 0.5], np.sqrt(grid[1:] * grid[:-1]), [2e160, 1e163, 1e170]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = far.mod_sq_derivative(xs)
    assert np.all(np.isfinite(got)) and np.all(got[-3:] < 0.0)
    assert np.allclose(got, near.mod_sq_derivative(s * xs) * s, rtol=1e-13, atol=0.0)


def _piece_with_both_powers(f, x, cell):
    """`TabulatedFormFactor._piece` as np.where of the line and both end
    powers, each formed at every point, and the slope formed per point: the
    reference for the piece that forms each power on its own cell only."""
    g, v = f.grid, f.values
    k = np.clip(cell, 1, g.size - 1)
    slope = (v[k] - v[k - 1]) / (g[k] - g[k - 1])
    with np.errstate(all="ignore"):
        head = v[0] * (x / g[0]) ** f.p_exponent
        tail = v[-1] * (x / g[-1]) ** f.tail_exponent
    lin = slope * (x - g[k - 1]) + v[k - 1]
    return np.where(cell == 0, head, np.where(cell == g.size, tail, lin)), slope


@pytest.mark.parametrize("p_exponent", [0.0, 0.5, 1.0])
def test_tabulated_piece_is_bit_identical_to_both_powers_everywhere(p_exponent, monkeypatch):
    # value, mod_sq and mod_sq_derivative bit for bit against the np.where
    # form, in shuffled order: below g0, on the nodes, inside cells, at gN,
    # above it and at 0; and the piece of every cell continued to every point
    grid = np.geomspace(0.05, 6.0, 23)
    rng = np.random.default_rng(11)
    vals = (np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * np.tanh(grid))
            + 1e-3 * rng.standard_normal(grid.size))
    f = TabulatedFormFactor(grid, vals, tail_exponent=-1.7, p_exponent=p_exponent)
    cell = rng.integers(1, grid.size, 300)
    inside = grid[cell - 1] + rng.uniform(0.0, 1.0, 300) * np.diff(grid)[cell - 1]
    xs = rng.permutation(np.concatenate((
        rng.uniform(0.0, grid[0], 100), grid, inside, rng.uniform(grid[-1], 1e3, 100),
        [0.0, 1e-300, grid[-1], 1e12])))
    reference = TabulatedFormFactor(grid, vals, tail_exponent=-1.7, p_exponent=p_exponent)
    monkeypatch.setattr(reference, "_piece",
                        lambda x, cell: _piece_with_both_powers(reference, x, cell))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("value", "mod_sq", "mod_sq_derivative"):
            want = getattr(reference, name)(xs)
            assert getattr(f, name)(xs).tobytes() == want.tobytes(), name
            for x in xs[:40]:
                assert np.asarray(getattr(f, name)(float(x))).tobytes() == np.asarray(
                    getattr(reference, name)(float(x))).tobytes(), (name, x)
        any_cell = rng.integers(0, grid.size + 1, xs.size)
        for got, want in zip(f._piece(xs, any_cell), _piece_with_both_powers(f, xs, any_cell)):
            assert got.tobytes() == want.tobytes()


def test_tabulated_certificate_alpha_is_the_interpolants():
    # alpha_2 = |v_2(omega_2)|^2 of the model the kernels integrate
    # (0.0616466), not the interpolated sampled |v|^2 (0.0617452)
    model = load_model(Path(__file__).parent / "golden" / "tabulated.json")
    (level,) = certificate(model).level_thresholds
    v = model.form_factors[level.n - 1].value(model.levels[level.n - 1])
    assert level.alpha == pytest.approx(abs(v) ** 2, rel=2 * np.finfo(float).eps, abs=0.0)


def test_tabulated_validation():
    grid = np.array([1.0, 2.0])
    with pytest.raises(ConfigError):
        TabulatedFormFactor(grid, np.ones(2), tail_exponent=-0.4)
    with pytest.raises(ConfigError):
        TabulatedFormFactor(grid, np.ones(2), tail_exponent=-1.0, p_exponent=-0.1)
    with pytest.raises(ConfigError):
        TabulatedFormFactor(np.array([0.0, 1.0]), np.ones(2), tail_exponent=-1.0)
    with pytest.raises(ConfigError):
        TabulatedFormFactor(np.array([2.0, 1.0]), np.ones(2), tail_exponent=-1.0)
    with pytest.raises(ConfigError):
        TabulatedFormFactor(grid, np.ones(3), tail_exponent=-1.0)


def test_model_validation():
    f = RationalFormFactor(1)
    with pytest.raises(ConfigError):
        FriedrichsModel((), 1.0, (), UnitSystem(1.0))
    with pytest.raises(ConfigError):
        FriedrichsModel((0.2, 0.1), 1.0, (f, f), UnitSystem(1.0))
    with pytest.raises(ConfigError):
        FriedrichsModel((0.1, 0.2), 1.0, (f,), UnitSystem(1.0))
    with pytest.raises(ConfigError):
        FriedrichsModel((0.1,), float("nan"), (f,), UnitSystem(1.0))


@pytest.mark.parametrize("lo, hi, ok", [(1.0, 1e120, True), (1.0, 4e150, True),
                                         (1.0, 4.49e150, False), (1.0, 5e150, False),
                                         (1e-160, 1e150, False), (4e150, 4e150, True),
                                         (4.4e150, 4.4e150, False), (1e152, 1e152, False)])
def test_model_rejects_widths_beyond_the_kernels_reach(lo, hi, ok):
    # the ray's top node, e^8 times the widest built-in width, over the
    # narrowest must not overflow when squared (sqrt of the largest double)
    # nor in the complex division 1 / (1 + u^2) on the ray; nor may the top
    # node itself, which T(E, E')'s kernel squares, whatever the narrowest
    factors = (RationalFormFactor(1, cutoff=lo), RationalFormFactor(2, cutoff=hi))
    if ok:
        FriedrichsModel((-0.1, 0.2), 0.5, factors, UnitSystem(1.0))
        return
    with pytest.raises(ConfigError) as exc:
        FriedrichsModel((-0.1, 0.2), 0.5, factors, UnitSystem(1.0))
    want = (f"width {hi:.6g} (widest) is too large" if lo == hi else
            f"widths {lo:.6g} (narrowest built-in) and {hi:.6g} are too far apart")
    assert want in str(exc.value)


@pytest.mark.parametrize("end, ok", [(1e150, True), (1e160, False)])
def test_model_rejects_a_tabulated_end_beyond_the_kernels_reach(end, ok):
    # the panel table evaluates every factor up to its end W, here the end
    # of the tabulated grid; without a built-in factor T(E, E')'s kernel on
    # the panels squares W itself, which overflowed with a RuntimeWarning
    tab = TabulatedFormFactor([1.0, end], [0.5, 0.1], tail_exponent=-1.5)
    grid = np.geomspace(1.0, end, 6)
    alone = [TabulatedFormFactor(grid, np.ones(6), tail_exponent=-1.5) for _ in range(2)]
    if ok:
        FriedrichsModel((-0.1, 0.2), 0.5, (RationalFormFactor(1), tab), UnitSystem(1.0))
        FriedrichsModel((-0.1, 0.2), 0.5, alone, UnitSystem(1.0))
        return
    with pytest.raises(ConfigError, match="too far apart: the level-shift kernels"):
        FriedrichsModel((-0.1, 0.2), 0.5, (RationalFormFactor(1), tab), UnitSystem(1.0))
    with pytest.raises(ConfigError, match=r"width 1e\+160 \(widest\) is too large: the level-shift"):
        FriedrichsModel((-0.1, 0.2), 0.5, alone, UnitSystem(1.0))


def test_presets(hydrogen, three_level):
    assert hydrogen.n_levels == 3
    assert hydrogen.coupling ** 2 == pytest.approx(6.435e-9, rel=1e-15)
    omega = 1.55e16 / 8.498e18
    assert hydrogen.levels[0] == pytest.approx(omega, rel=1e-15)
    assert hydrogen.levels[1] == pytest.approx(omega * 32.0 / 27.0, rel=1e-15)
    assert hydrogen.levels[2] == pytest.approx(omega * 1.25, rel=1e-15)
    assert three_level.levels == (-0.01, 0.01, 0.02)
    assert three_level.coupling == 1.0
    with pytest.raises(ConfigError):
        make_preset("nope")
    assert make_preset("three-level-fig", coupling=0.5).coupling == 0.5


def test_unit_system():
    assert UnitSystem(8.498e18).reference_cutoff == 8.498e18
    with pytest.raises(ConfigError):
        UnitSystem(0.0)


def test_model_digest_sensitivity(three_level):
    d0 = model_digest(three_level)
    assert d0 == model_digest(make_preset("three-level-fig"))
    assert d0 != model_digest(three_level.with_coupling(0.5))
    assert len(d0) == 16
    # the built-ins' hashes are those of the golden outputs
    golden = {("three-level-fig", None): "25b8a664645e0e4c",
              ("three-level-fig", 0.7): "bf1e98f59301cb58",
              ("three-level-fig", 10.0): "b4f3a29030df1810",
              ("hydrogen-4level", None): "7c8c0c4af0666afd",
              ("hydrogen-4level", 0.3): "594ed9c94a38b43f"}
    for (name, coupling), digest in golden.items():
        assert model_digest(make_preset(name, coupling)) == digest, (name, coupling)


def test_descriptor_roundtrip(three_level, hydrogen):
    for model in (three_level, hydrogen):
        clone = model_from_dict(model.descriptor())
        assert model_digest(clone) == model_digest(model)


def _one_tabulated(grid, vals, p_exponent=0.5):
    f = TabulatedFormFactor(grid, vals, tail_exponent=-1.5, p_exponent=p_exponent)
    return FriedrichsModel((0.1,), 0.3, (f,), UnitSystem(1.0))


def test_tabulated_descriptor_roundtrip(tmp_path):
    grid = np.linspace(0.5, 4.0, 8)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(0.3j)
    vals[3] = vals[3].real          # a +0.0 imaginary part
    model = _one_tabulated(grid, vals)
    clone = model_from_dict(model.descriptor())
    assert np.allclose(clone.form_factors[0].values, vals)
    assert model_digest(clone) == model_digest(model)
    # the hash survives a file
    path = tmp_path / "model.json"
    with open(path, "w") as fh:
        json.dump(model.descriptor(), fh)
    assert model_digest(load_model(path)) == model_digest(model)
    # and moves with any one float of the arrays, even -0.0 for 0.0, or
    # with an exponent
    ulp_value, ulp_node, signed_zero = vals.copy(), grid.copy(), vals.copy()
    ulp_value[5] = complex(np.nextafter(vals[5].real, np.inf), vals[5].imag)
    ulp_node[2] = np.nextafter(grid[2], np.inf)
    signed_zero[3] = complex(vals[3].real, -0.0)
    variants = [_one_tabulated(grid, ulp_value), _one_tabulated(ulp_node, vals),
                _one_tabulated(grid, signed_zero),
                _one_tabulated(grid, vals.imag + 1j * vals.real),
                _one_tabulated(grid, vals, p_exponent=1.0)]
    assert np.signbit(variants[2].form_factors[0].values.imag[3])
    digests = {model_digest(m) for m in [model] + variants}
    assert len(digests) == len(variants) + 1


def test_load_model(tmp_path):
    data = {
        "levels": [-0.01, 0.01, 0.02],
        "lambda": 0.7,
        "form_factors": [
            {"family": "rational", "n_index": 1, "a": 0.0, "cutoff": 1.0},
            {"family": "rational", "n_index": 2, "a": 2.0, "cutoff": 1.0},
            {"family": "rational", "n_index": 3, "a": 1.0, "cutoff": 1.0},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    model = load_model(path)
    assert model.coupling == 0.7
    assert model_digest(model) == model_digest(
        make_preset("three-level-fig", coupling=0.7))


def test_load_model_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_model(bad)
    with pytest.raises(ConfigError):
        load_model(tmp_path / "missing.json")
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"levels": [0.1]}))
    with pytest.raises(ConfigError):
        load_model(incomplete)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({
        "levels": [0.1], "lambda": 1.0,
        "form_factors": [{"family": "mystery"}]}))
    with pytest.raises(ConfigError):
        load_model(unknown)


def _tabulated_descriptor():
    grid = np.geomspace(0.1, 4.0, 4)
    f = TabulatedFormFactor(grid, np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(0.3j),
                            tail_exponent=-1.5)
    return FriedrichsModel((-0.1, 0.2), 0.3, (f, RationalFormFactor(2)),
                           UnitSystem(2.0)).descriptor()


_VALID_MODELS = (make_preset("three-level-fig").descriptor(),
                 make_preset("hydrogen-4level").descriptor(),
                 _tabulated_descriptor())


def _field_paths(node, prefix=()):
    """Every field of a model description: each dict key and list entry,
    containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


_MUTATION_SITES = [(i, path) for i, model in enumerate(_VALID_MODELS)
                   for path in _field_paths(model)]
_DELETE = object()
_BAD_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024, 12, 1.5, -3]),
    st.integers(),
    st.lists(st.floats(allow_nan=True), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(site=st.sampled_from(_MUTATION_SITES), value=_BAD_VALUES)
def test_model_from_dict_contract(site, value):
    # a mutated description yields a model or a ConfigError, nothing else
    i, path = site
    config = json.loads(json.dumps(_VALID_MODELS[i]))
    *head, last = path
    node = config
    for key in head:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    try:
        model = model_from_dict(config)
    except ConfigError:
        return
    assert isinstance(model, FriedrichsModel)
