import numpy as np
import pytest

from friedrichs import (
    DegeneracyError,
    LevelShiftMatrix,
    NumericalError,
    eigh,
    gram_matrix,
    k_matrix,
    kappa_curve,
    projector,
    projector_series,
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
    assert point.n == 5
    # orthonormal eigenvectors solving the eigenproblem
    v = point.vectors
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
    assert np.allclose(a @ v, v * point.kappa, atol=1e-10)
    assert point.operator_norm() == pytest.approx(np.abs(point.kappa).max())


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
        k_matrix(three_level, LevelShiftMatrix(entries, -0.5, "S", shift.err))


def test_kappa_curve_kinds(three_level):
    model = three_level.with_coupling(0.7)
    neg = np.array([-1.0, -0.5, -0.1])
    auto = kappa_curve(model, neg)
    forced = kappa_curve(model, neg, kind="S")
    for p, q in zip(auto, forced):
        assert np.array_equal(p.kappa, q.kappa)
    pos = kappa_curve(model, [0.5], kind="auto")[0]
    forced_d = kappa_curve(model, [0.5], kind="D")[0]
    assert np.array_equal(pos.kappa, forced_d.kappa)
    with pytest.raises(ValueError):
        kappa_curve(model, [0.5], kind="S")
    with pytest.raises(ValueError):
        kappa_curve(model, [-0.5], kind="D")
    with pytest.raises(ValueError):
        kappa_curve(model, [0.5], kind="bogus")


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


def test_projector_properties(three_level):
    model = three_level.with_coupling(0.7)
    point = kappa_curve(model, [-0.3])[0]
    for n in (1, 2, 3):
        p = projector(point, n)
        assert np.allclose(p @ p, p, atol=1e-13)
        assert np.allclose(p, p.conj().T, atol=1e-14)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-13)
        v = point.vectors[:, n - 1]
        assert np.allclose(p @ v, v, atol=1e-13)
    with pytest.raises(ValueError):
        projector(point, 0)
    with pytest.raises(ValueError):
        projector(point, 4)


def test_projector_degenerate():
    point = eigh(np.eye(2), 0.0)
    with pytest.raises(DegeneracyError):
        projector(point, 1)


def test_projector_series_converges(three_level):
    model = three_level.with_coupling(0.02)
    e = -0.5
    point = kappa_curve(model, [e])[0]
    exact = projector(point, 2)
    bare = projector_series(model, e, 2, order=0)
    assert np.allclose(bare, np.diag([0.0, 1.0, 0.0]), atol=1e-10)
    errs = [np.linalg.norm(projector_series(model, e, 2, order=k) - exact, 2)
            for k in (0, 2, 6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-10


def test_projector_series_warns_outside_radius(three_level):
    model = three_level.with_coupling(2.0)
    with pytest.warns(RuntimeWarning):
        projector_series(model, -0.5, 2, order=2, lambda_n=0.5)
