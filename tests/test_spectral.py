import numpy as np
import pytest

from friedrichs import (
    LevelShiftMatrix,
    NumericalError,
    eigh,
    gram_matrix,
    k_matrix,
    kappa_curve,
    pv_matrix,
)

from _references import HYDROGEN_PV_NORM_AT_1


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
