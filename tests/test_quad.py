import math

import numpy as np
import pytest

from friedrichs import (
    FriedrichsModel,
    HydrogenFormFactor,
    QuadratureError,
    QuadratureSettings,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    discretize,
    gram_matrix,
    integrate_semiinf,
    pv_integral,
    pv_matrix,
    t_matrix,
)
from friedrichs import quad
from friedrichs.quad import bump

from _references import (
    HYDROGEN_GRAM_MINUS1,
    HYDROGEN_PV_HALF,
    THREE_LEVEL_GRAM_ZERO,
)


def test_integrate_semiinf_exponential():
    v, err = integrate_semiinf(lambda w: math.exp(-w))
    assert v == pytest.approx(1.0, rel=1e-12)
    assert err < 1e-8


def test_integrate_semiinf_lorentzian_tail():
    # slow 1/w^2 falloff exercises the algebraic tail map
    v, _ = integrate_semiinf(lambda w: 1.0 / (1.0 + w * w))
    assert v == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_integrate_semiinf_moment():
    v, _ = integrate_semiinf(lambda w: w / (1.0 + w * w) ** 4)
    assert v == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_integrate_semiinf_complex():
    v, _ = integrate_semiinf(lambda w: (1.0 + 2.0j) * math.exp(-w),
                             complex_valued=True)
    assert v == pytest.approx(1.0 + 2.0j, rel=1e-12)


def test_integrate_semiinf_divergent_raises():
    with pytest.raises(QuadratureError):
        integrate_semiinf(lambda w: 1.0 / w if w > 0.0 else 0.0)


def test_bump_shape():
    assert bump(0.0, 0.5) == pytest.approx(1.0)
    assert bump(0.5, 0.5) == 0.0
    assert bump(0.7, 0.5) == 0.0
    assert bump(-0.2, 0.5) == bump(0.2, 0.5)
    assert 0.0 < bump(0.3, 0.5) < 1.0


def closed_form_pv_even(e):
    # P int_0^inf dw / ((1+w^2)(w-E)) = -(ln E + pi E / 2) / (1 + E^2)
    return -(math.log(e) + math.pi * e / 2.0) / (1.0 + e * e)


def closed_form_pv_odd(e):
    # P int_0^inf w dw / ((1+w^2)(w-E)) = pi/2 + E * (even form)
    return math.pi / 2.0 + e * closed_form_pv_even(e)


@pytest.mark.parametrize("e", [0.3, 0.5, 2.0])
def test_pv_closed_form_even(e):
    eta = lambda w: 1.0 / (1.0 + w * w)
    v, err = pv_integral(eta, e)
    assert v == pytest.approx(closed_form_pv_even(e), rel=1e-11)
    assert err < 1e-7


@pytest.mark.parametrize("e", [0.3, 0.5, 2.0])
def test_pv_closed_form_odd(e):
    eta = lambda w: w / (1.0 + w * w)
    v, _ = pv_integral(eta, e)
    assert v == pytest.approx(closed_form_pv_odd(e), rel=1e-11)


def test_pv_with_exact_derivative():
    e = 0.5
    eta = lambda w: 1.0 / (1.0 + w * w)
    eta_prime = lambda w: -2.0 * w / (1.0 + w * w) ** 2
    v, _ = pv_integral(eta, e, eta_prime_at_e=eta_prime(e))
    assert v == pytest.approx(closed_form_pv_even(e), rel=1e-12)


def test_pv_delta_independence(monkeypatch):
    # the bump is even and supported inside the integration range, so the
    # regularized value cannot depend on the chosen half-width
    e = 0.8
    eta = lambda w: w / (1.0 + w * w)
    v1, _ = pv_integral(eta, e)
    monkeypatch.setattr(quad, "_DELTA_CAP", 0.05)
    v2, _ = pv_integral(eta, e)
    assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-13)


def test_gram_matrix_hydrogen(hydrogen):
    # frozen by tests/oracles/gen_references.py
    m = gram_matrix(hydrogen, -1.0)
    assert m.kind == "S"
    assert m.e == -1.0
    for key, want in HYDROGEN_GRAM_MINUS1.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        assert m.entries[i, j] == pytest.approx(want, rel=1e-10)
        assert m.entries[j, i] == pytest.approx(want, rel=1e-10)
    assert np.allclose(m.entries.imag, 0.0, atol=1e-15)


def test_gram_matrix_three_level_at_zero(three_level):
    # frozen by tests/oracles/gen_references.py
    m = gram_matrix(three_level, 0.0)
    for key, want in THREE_LEVEL_GRAM_ZERO.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        assert m.entries[i, j] == pytest.approx(want, rel=1e-10)


def test_gram_matrix_determinism(three_level):
    a = gram_matrix(three_level, -0.3)
    b = gram_matrix(three_level, -0.3)
    assert np.array_equal(a.entries, b.entries)


def test_gram_matrix_domain(three_level):
    with pytest.raises(ValueError):
        gram_matrix(three_level, 0.1)


def test_gram_matrix_zero_needs_positive_exponent():
    f = TabulatedFormFactor(np.array([1.0, 2.0, 3.0]),
                            np.array([0.5, 0.4, 0.2]),
                            tail_exponent=-1.0, p_exponent=0.0)
    model = FriedrichsModel((0.5,), 1.0, (f,), UnitSystem(1.0))
    with pytest.raises(ValueError):
        gram_matrix(model, 0.0)
    # strictly below threshold the same model is fine
    m = gram_matrix(model, -0.1)
    assert np.isfinite(m.entries).all()


def test_t_matrix_difference_identity(three_level):
    e1, e2 = -0.4, -1.3
    s1 = gram_matrix(three_level, e1).entries
    s2 = gram_matrix(three_level, e2).entries
    t = t_matrix(three_level, e1, e2)
    assert t.kind == "T"
    assert t.e2 == e2
    lhs = s1 - s2
    rhs = (e1 - e2) * t.entries
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-13 * max(np.linalg.norm(lhs, 2), 1e-3)


def test_t_matrix_psd(three_level):
    t = t_matrix(three_level, -0.7, -0.7)
    evals = np.linalg.eigvalsh(t.entries)
    assert evals.min() >= -1e-13 * max(evals.max(), 1.0)


def test_pv_matrix_hydrogen(hydrogen):
    # frozen by tests/oracles/gen_references.py
    m = pv_matrix(hydrogen, 0.5)
    assert m.kind == "D"
    for key, want in HYDROGEN_PV_HALF.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        assert m.entries[i, j] == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_pv_matrix_domain(hydrogen):
    with pytest.raises(ValueError):
        pv_matrix(hydrogen, -0.2)


def test_pv_matrix_at_zero_matches_gram(three_level):
    d = pv_matrix(three_level, 0.0)
    s = gram_matrix(three_level, 0.0)
    assert d.kind == "D"
    assert np.array_equal(d.entries, s.entries)


def test_pv_matrix_hermitian_complex_path():
    grid = np.linspace(0.25, 6.0, 60)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * np.tanh(grid))
    f1 = TabulatedFormFactor(grid, vals, tail_exponent=-1.5)
    f2 = RationalFormFactor(2, 1.0, 1.0)
    model = FriedrichsModel((0.1, 0.3), 0.5, (f1, f2), UnitSystem(1.0))
    m = pv_matrix(model, 0.9)
    assert np.iscomplexobj(m.entries)
    assert np.allclose(m.entries, m.entries.conj().T, atol=1e-12)
    s = gram_matrix(model, -0.5)
    assert np.allclose(s.entries, s.entries.conj().T, atol=1e-12)


def _complex_tabulated():
    grid = np.linspace(0.25, 6.0, 60)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * np.tanh(grid))
    return TabulatedFormFactor(grid, vals, tail_exponent=-1.5)


@pytest.mark.parametrize("first,tol", [
    (lambda: HydrogenFormFactor(1), 1e-12),
    (_complex_tabulated, 1e-5),
], ids=["hydrogen-rational", "tabulated-rational"])
def test_gram_matrix_pair_phase_convention(first, tol):
    # S_nm = sum_j w_j conj(v_n(w_j)) v_m(w_j) / (w_j - E) on the oracle's
    # nodes; the hydrogen-rational pair has phase i, the tabulated one a
    # varying phase, so a conjugate on the wrong factor shows up off the
    # diagonal.  The tabulated kinks limit the node sum to about 1e-6
    # (entries are O(0.1), so the bound is absolute).
    model = FriedrichsModel((0.1, 0.3), 0.5, (first(), RationalFormFactor(2)),
                            UnitSystem(1.0))
    e = -0.5
    ham = discretize(model, 2000)
    vals = np.array([f.value(ham.nodes) for f in model.form_factors])
    direct = (np.conj(vals) * (ham.weights / (ham.nodes - e))) @ vals.T
    s = gram_matrix(model, e).entries
    assert abs(s[0, 1].imag) > 0.1 * abs(s[0, 1])
    assert np.abs(s - direct).max() <= tol


def test_level_shift_matrix_norm(three_level):
    m = gram_matrix(three_level, -1.0)
    direct = np.linalg.norm(m.entries, 2)
    assert m.norm() == pytest.approx(direct, rel=1e-13)
    assert m.n == 3


def test_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSettings(abs_tol=math.inf)
