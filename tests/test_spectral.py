import math

import numpy as np
import pytest

from friedrichs import (
    FriedrichsModel,
    LevelShiftMatrix,
    NumericalError,
    TabulatedFormFactor,
    UnitSystem,
    eigh,
    gram_matrix,
    k_matrix,
    kappa_curve,
    make_preset,
    model_from_dict,
    pv_matrix,
)
from friedrichs.spectral import _k_stack

from _references import HYDROGEN_PV_NORM_AT_1
from test_quad import _STACK_MODELS


def char_poly_coeffs(a):
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m).real / k)
    return np.array(coeffs)


def test_eigh_against_char_poly():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = (b + b.conj().T) / 2.0
    point = eigh(a, e=-0.5)
    roots = np.sort(np.roots(char_poly_coeffs(a)).real)
    assert np.allclose(point.kappa, roots, rtol=1e-10, atol=1e-10)
    assert point.e == -0.5
    assert point.vectors.shape == (5, 5)
    # orthonormal eigenvectors solving the eigenproblem
    v = point.vectors
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
    assert np.allclose(a @ v, v * point.kappa, atol=1e-10)


def test_k_matrix_structure(three_level):
    shift = gram_matrix(three_level, -0.5)
    model = three_level.with_coupling(0.7)
    k = k_matrix(model, shift)
    want = np.diag(model.level_array()) - 0.49 * shift.entries
    assert np.allclose(k, want, rtol=1e-14)


def test_k_matrix_rejects_infinite_shift(three_level):
    shift = gram_matrix(three_level, -0.5)
    entries = shift.entries.copy()
    entries[0, 0] = np.inf
    with pytest.raises(NumericalError):
        k_matrix(three_level, LevelShiftMatrix(entries, -0.5, lambda: shift.err))


def test_kappa_curve_kinds(three_level):
    # one rule: S(E) at and below E = 0, D(E) above it, on one grid across
    # E = 0, each point bit for bit its own matrix's
    model = three_level.with_coupling(0.7)
    grid = np.array([-1.0, -0.5, 0.0, 0.1, 0.5])
    for p in kappa_curve(model, grid):
        shift = gram_matrix if p.e <= 0.0 else pv_matrix
        want = eigh(k_matrix(model, shift(model, p.e)), p.e)
        assert np.array_equal(p.kappa, want.kappa)
        assert np.array_equal(p.vectors, want.vectors)


def test_kappa_curve_monotone(three_level):
    model = three_level.with_coupling(0.7)
    grid = np.linspace(-2.0, -1e-3, 25)
    points = kappa_curve(model, grid)
    kappas = np.array([p.kappa for p in points])
    assert np.all(np.diff(kappas, axis=0) <= 1e-12)


def test_kappa_perturbation_bound_at_one(hydrogen):
    # ||D(1)|| is frozen from tests/oracles/gen_references.py
    d = pv_matrix(hydrogen, 1.0)
    assert d.norm() == pytest.approx(HYDROGEN_PV_NORM_AT_1, rel=1e-9)
    point = eigh(k_matrix(hydrogen, d), 1.0)
    lam_sq = hydrogen.coupling ** 2
    dev = np.abs(point.kappa - hydrogen.level_array())
    assert np.all(dev <= lam_sq * d.norm() * (1.0 + 1e-12))


def _k_apart(model, e):
    """K(E) at each energy of e through the public matrices: S(E) at E <= 0
    and D(E) at E > 0, each side of E = 0 one gram_matrix or pv_matrix
    stack, the side at or below 0 first."""
    below = e <= 0.0
    k = np.empty(e.shape + (model.n_levels,) * 2, dtype=complex)
    for part, shift in ((below, gram_matrix), (~below, pv_matrix)):
        if part.any():
            k[part] = k_matrix(model, shift(model, e[part]))
    return k


def _outcome(build, model, e):
    """The bytes of build(model, e), or the type and message it raises."""
    try:
        return build(model, e).tobytes()
    except (ValueError, NumericalError) as err:
        return type(err), str(err)


def _p_zero_model():
    f = TabulatedFormFactor(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.4, 0.2]),
                            tail_exponent=-1.0, p_exponent=0.0)
    return FriedrichsModel((0.5,), 1.0, (f,), UnitSystem(1.0))


def _overflowing_model():
    # lambda^2 max |S_ij| passes the largest double at E = -0.3, 0 and 0.3,
    # but not at E = -1, 1 and 5
    config = make_preset("three-level-fig").descriptor()
    config["form_factors"][1]["a"] = 3.4e8
    config["lambda"] = 3.5e146
    return model_from_dict(config)


_K_MODELS = {**_STACK_MODELS, "p-zero": _p_zero_model, "overflow": _overflowing_model}


@pytest.mark.parametrize("name", _K_MODELS)
def test_k_stack_matches_public_matrices(name):
    # the eigencurves' K(E), built straight from the kernels' sums, is bit
    # for bit k_matrix of gram_matrix or pv_matrix, and raises the same
    # error type and message: on stacks of 1-8 energies of both signs, with
    # 0.0, -0.0, repeats and NaN, at E = 0 with a factor of p = 0 (a
    # ConfigError) and where K overflows (a NumericalError naming the first
    # energy at or below 0, else the first above it)
    model = _K_MODELS[name]()
    scale = model.max_scale()
    pool = np.array([-1.0, -0.3, -1e-3, 0.0, -0.0, 1e-3, 0.3, 1.0, 5.0, math.nan])
    rng = np.random.default_rng(33)
    stacks = [pool[[i]] for i in range(pool.size)]
    stacks += [rng.choice(pool, size) for size in range(2, 9) for _ in range(6)]
    stacks += [np.array([1.0, 0.3, -0.3]), np.array([5.0, -1.0, 0.0]), np.array([0.3, 0.3])]
    kinds = set()
    for e in stacks:
        e = e * (1.0 if name == "overflow" else scale)
        got = _outcome(_k_stack, model, e)
        assert got == _outcome(_k_apart, model, e), e
        kinds.add(got[0] if isinstance(got, tuple) else bytes)
    want = {"p-zero": {bytes, ValueError, model_from_dict.__globals__["ConfigError"]},
            "overflow": {bytes, ValueError, NumericalError}}.get(name, {bytes, ValueError})
    assert kinds == want
