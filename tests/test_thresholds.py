import math

import numpy as np
import pytest

import friedrichs.thresholds
from friedrichs import (
    FriedrichsModel,
    HypothesisViolation,
    RationalFormFactor,
    UnitSystem,
    alpha_beta_gamma,
    certificate,
    lambda_bar_closed_form,
    pv_matrix,
    r_a,
)

from _references import HYDROGEN_R_B, HYDROGEN_SUP_D, HYDROGEN_SUP_D_E_STAR

OMEGA = 1.55e16 / 8.498e18


def test_sup_d_norm_hydrogen(hydrogen_cert):
    # frozen by tests/oracles/gen_references.py
    assert hydrogen_cert.sup_d_norm == pytest.approx(HYDROGEN_SUP_D, rel=1e-7)
    assert hydrogen_cert.sup_d_argmax == pytest.approx(HYDROGEN_SUP_D_E_STAR,
                                                       rel=1e-3)


def test_sup_d_is_an_upper_bound(hydrogen, hydrogen_cert):
    for e in (0.01, 0.08, 0.3, 1.0, 5.0):
        assert pv_matrix(hydrogen, e).norm() <= hydrogen_cert.sup_d_norm * (1 + 1e-9)


def test_r_a_exact(hydrogen, hydrogen_cert):
    # smallest positive level is OMEGA, smallest gap is (7/108) OMEGA, and
    # a third of the smaller of the two is (7/324) OMEGA
    want = 7.0 * OMEGA / 324.0
    assert r_a(hydrogen) == pytest.approx(want, rel=1e-12)
    assert hydrogen_cert.r_a == pytest.approx(want, rel=1e-12)


def test_r_b_hydrogen(hydrogen_cert):
    # frozen by tests/oracles/gen_references.py; the scan refines to 1e-4
    assert hydrogen_cert.r_b == pytest.approx(HYDROGEN_R_B, rel=5e-4)


def test_lambda_a_consistency(hydrogen_cert):
    want = math.sqrt(hydrogen_cert.r_a / hydrogen_cert.sup_d_norm)
    assert hydrogen_cert.lambda_a == pytest.approx(want, rel=1e-12)
    assert hydrogen_cert.lambda_a ** 2 == pytest.approx(4.871005e-5, rel=1e-5)


def test_certificate_samples_d_once(hydrogen, monkeypatch):
    # sup ||D|| and R_b read one scan: one D(E) per grid energy plus the
    # refinements of the peak and of the R_b edge, each built as a stack
    energies = []
    pv = friedrichs.thresholds.pv_matrix
    monkeypatch.setattr(friedrichs.thresholds, "pv_matrix",
                        lambda model, e: energies.append(np.size(e)) or pv(model, e))
    rep = certificate(hydrogen)
    assert rep.verdict == "true"
    assert energies[0] == 600 and sum(energies) <= 630


def test_r_b_edge_reuses_scanned_ends(hydrogen, hydrogen_cert, monkeypatch):
    # the two scanned energies around the R_b edge hand min eig D(E) to the
    # root search, which then builds two D(E) fewer and ends where it did
    calls = []
    pv = friedrichs.thresholds.pv_matrix
    monkeypatch.setattr(friedrichs.thresholds, "pv_matrix",
                        lambda *a, **k: calls.append(1) or pv(*a, **k))
    rep = certificate(hydrogen)
    with_ends = len(calls)
    search = friedrichs.thresholds.bracketed_root
    monkeypatch.setattr(friedrichs.thresholds, "bracketed_root",
                        lambda *a, f_bracket=None, **k: search(*a, **k))
    calls.clear()
    rep_without = certificate(hydrogen)
    assert len(calls) - with_ends == 2
    assert rep.r_b == rep_without.r_b == hydrogen_cert.r_b


def test_lambda_b_consistency(hydrogen_cert):
    want = math.sqrt(hydrogen_cert.r_b / hydrogen_cert.sup_d_norm)
    assert hydrogen_cert.lambda_b == pytest.approx(want, rel=1e-12)


def test_per_level_constants(hydrogen_cert):
    # regression values pinned from the certificate itself after verifying
    # alpha/beta/gamma against closed forms and the independent oracle run
    want = {
        1: dict(lambda_sq=1.391716e-4, alpha=1.823934e-3, beta=1.125900e-4,
                gamma=2.445310e-3, bar_sq=5.856323e-5),
        2: dict(lambda_sq=4.871005e-5, alpha=4.869324e-4, beta=8.876477e-6,
                gamma=2.888555e-3, bar_sq=7.010907e-6),
        3: dict(lambda_sq=4.871005e-5, alpha=1.985158e-4, beta=3.431176e-6,
                gamma=3.043689e-3, bar_sq=2.979490e-6),
    }
    assert len(hydrogen_cert.level_thresholds) == 3
    for lt in hydrogen_cert.level_thresholds:
        w = want[lt.n]
        assert lt.lambda_n ** 2 == pytest.approx(w["lambda_sq"], rel=1e-5)
        assert lt.alpha == pytest.approx(w["alpha"], rel=1e-5)
        assert lt.beta == pytest.approx(w["beta"], rel=1e-4)
        assert lt.gamma == pytest.approx(w["gamma"], rel=1e-5)
        assert lt.lambda_bar ** 2 == pytest.approx(w["bar_sq"], rel=1e-4)
        assert lt.lambda_bar < lt.lambda_n


def test_alpha_is_mod_sq_at_level(hydrogen):
    alpha, beta, gamma = alpha_beta_gamma(hydrogen, 1)
    assert alpha == pytest.approx(
        hydrogen.form_factors[0].mod_sq_scalar(hydrogen.levels[0]), rel=1e-12)
    assert beta > 0.0
    assert gamma > 0.0


def test_certificate_verdict_true(hydrogen_cert):
    assert hydrogen_cert.verdict == "true"
    assert hydrogen_cert.binding == "lambda_bar_3"
    assert hydrogen_cert.n_plus == 3
    assert hydrogen_cert.bound ** 2 == pytest.approx(2.979490e-6, rel=1e-4)
    assert hydrogen_cert.coupling ** 2 < hydrogen_cert.bound ** 2
    assert hydrogen_cert.bound <= hydrogen_cert.bound_without_b


def test_certificate_verdict_false(hydrogen):
    rep = certificate(hydrogen.with_coupling(0.01))
    assert rep.verdict == "false"
    assert rep.coupling ** 2 > rep.bound ** 2


def test_certificate_inapplicable_no_positive_levels():
    model = FriedrichsModel(
        (-0.02, -0.01), 0.5,
        (RationalFormFactor(1), RationalFormFactor(2)), UnitSystem(1.0))
    rep = certificate(model)
    assert rep.verdict == "inapplicable"
    assert rep.notes


def test_certificate_inapplicable_degenerate_levels():
    model = FriedrichsModel(
        (0.01, 0.01), 0.5,
        (RationalFormFactor(1), RationalFormFactor(2)), UnitSystem(1.0))
    rep = certificate(model)
    assert rep.verdict == "inapplicable"


def test_certificate_three_level(three_level):
    rep = certificate(three_level)
    assert rep.n_plus == 2
    assert len(rep.level_thresholds) == 2
    assert {lt.n for lt in rep.level_thresholds} == {2, 3}
    assert rep.verdict == "false"
    assert rep.r_a == pytest.approx(0.01 / 3.0, rel=1e-12)


def test_r_a_single_level_uses_edge_distance():
    single = FriedrichsModel((0.3,), 0.1, (RationalFormFactor(1),),
                             UnitSystem(1.0))
    assert r_a(single) == pytest.approx(0.1, rel=1e-14)


def test_r_a_violations():
    negative = FriedrichsModel((-0.3, -0.1), 0.1,
                               (RationalFormFactor(1), RationalFormFactor(2)),
                               UnitSystem(1.0))
    with pytest.raises(HypothesisViolation):
        r_a(negative)
    degenerate = FriedrichsModel((0.1, 0.1), 0.1,
                                 (RationalFormFactor(1), RationalFormFactor(2)),
                                 UnitSystem(1.0))
    with pytest.raises(HypothesisViolation):
        r_a(degenerate)


def test_alpha_beta_gamma_violations(three_level):
    with pytest.raises(HypothesisViolation):
        alpha_beta_gamma(three_level, 1)  # negative level
    single = FriedrichsModel((0.3,), 0.1, (RationalFormFactor(1),),
                             UnitSystem(1.0))
    with pytest.raises(HypothesisViolation):
        alpha_beta_gamma(single, 1)


def test_lambda_bar_closed_form_solves_quadratic():
    lam_n, alpha, beta, gamma = 0.3, 2.0e-3, 1.5e-4, 3.0e-3
    bar = lambda_bar_closed_form(lam_n, alpha, beta, gamma)
    x = (bar / lam_n) ** 2
    a_tot = alpha + beta + gamma
    assert beta * x * x - a_tot * x + alpha == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(HypothesisViolation):
        lambda_bar_closed_form(lam_n, 0.0, beta, gamma)
    with pytest.raises(HypothesisViolation):
        lambda_bar_closed_form(lam_n, alpha, -1.0, gamma)


def test_sup_d_norm_returns_location(three_level):
    rep = certificate(three_level)
    val, e_star = rep.sup_d_norm, rep.sup_d_argmax
    assert val > 0.0
    assert e_star > 0.0
    for e in (0.05, 0.3, 1.0):
        assert pv_matrix(three_level, e).norm() <= val * (1 + 1e-9)
