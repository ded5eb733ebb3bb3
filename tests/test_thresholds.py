import math
from pathlib import Path

import numpy as np
import pytest

import friedrichs.thresholds
from friedrichs import (
    FriedrichsModel,
    HypothesisViolation,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    alpha_beta_gamma,
    certificate,
    lambda_bar_closed_form,
    load_model,
    make_preset,
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
    # sup ||D|| and R_b read one scan: S(0), one stack of D(E) over the
    # ray's lattice, and the refinements of the peak and of the R_b edge off
    # it.  Every energy is built once, and none off the lattice lies within
    # rounding of a lattice energy: the peak's three starting samples come
    # from the scan.  Also on the golden tabulated model, whose lattice is
    # anchored at its widest width
    import friedrichs.quad as quad

    built = []
    level_shift = quad._level_shift
    monkeypatch.setattr(quad, "_level_shift", lambda model, e, e2=None, lattice=None: (
        built.append((np.ravel(e).tolist(), lattice is not None))
        or level_shift(model, e, e2, lattice)))
    tabulated = load_model(Path(__file__).resolve().parent / "golden" / "tabulated.json")
    for model in (hydrogen, tabulated):
        built.clear()
        rep = certificate(model)
        energies = [x for e, _ in built for x in e]
        assert len(energies) == len(set(energies)) <= 630
        scans = [e for e, on in built if on]
        assert len(scans) == 1 and len(scans[0]) == 590
        off = np.array([x for e, on in built if not on for x in e if x > 0.0])
        assert np.abs(np.log(off[:, None] / np.array(scans[0]))).min() > 1e-12
        assert rep.verdict == ("true" if model is hydrogen else "false")


def test_certificate_builds_each_table_once(monkeypatch):
    # S(0) reads the real Gram table and every D(E) the rotated ray: a
    # fresh model's certificate builds each of the two once
    import friedrichs.quad as quad

    steps = []
    ray_rows = quad._ray_rows
    monkeypatch.setattr(quad, "_ray_rows", lambda factors, step, turn: (
        steps.append(step) or ray_rows(factors, step, turn)))
    for name in ("hydrogen-4level", "three-level-fig"):
        steps.clear()
        certificate(make_preset(name))
        assert sorted(steps) == [quad._RAY_STEP, quad._GRAM_STEP]


def test_r_b_edge_reuses_scanned_ends(hydrogen, hydrogen_cert, monkeypatch):
    # the R_b search reads min eig D(E) at its two scanned bracket ends from
    # the scan's rows: no energy is built twice, and r_b ends where it did,
    # inside a cell of the lattice scan
    energies, scans = [], []
    pv, pv_lattice = friedrichs.thresholds.pv_matrix, friedrichs.thresholds._pv_lattice
    monkeypatch.setattr(friedrichs.thresholds, "pv_matrix",
                        lambda model, e: energies.extend(np.ravel(e).tolist()) or pv(model, e))
    monkeypatch.setattr(friedrichs.thresholds, "_pv_lattice",
                        lambda *args: scans.append(pv_lattice(*args)) or scans[-1])
    rep = certificate(hydrogen)
    grid = scans[0][2].e
    assert len(scans) == 1 and not set(energies) & set(grid.tolist())
    assert len(energies) == len(set(energies))
    k = np.searchsorted(grid, rep.r_b)
    assert grid[k - 1] < rep.r_b < grid[k]
    assert rep.r_b == hydrogen_cert.r_b


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


def _mp_lambda_bar(lt):
    """lambda_bar from the textbook root of the local quadratic, at enough
    digits that its cancellation does not matter."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(1000):
        alpha, beta, gamma, lam_n = (mpmath.mpf(x) for x in
                                     (lt.alpha, lt.beta, lt.gamma, lt.lambda_n))
        a_tot = alpha + beta + gamma
        return float(lam_n * mpmath.sqrt((a_tot - mpmath.sqrt(a_tot ** 2 - 4 * alpha * beta))
                                         / (2 * beta)))


@pytest.mark.parametrize("prefactor", [1e3, 1e6, 1e100])
def test_lambda_bar_keeps_its_digits_when_gamma_dominates(prefactor):
    # gamma ~ prefactor^2 dwarfs alpha and beta of level 2: the textbook
    # root printed 3.623786e-07 (3.7e-5 low), 0 and a math domain error
    model = FriedrichsModel((-0.1, 0.2), 0.5,
                            (RationalFormFactor(1, prefactor=prefactor), RationalFormFactor(2)),
                            UnitSystem(1.0))
    rep = certificate(model)
    (lt,) = rep.level_thresholds
    assert lt.gamma > 1e5 * max(lt.alpha, lt.beta)
    assert lt.lambda_bar == pytest.approx(_mp_lambda_bar(lt), rel=1e-14, abs=0.0)
    assert rep.binding == "lambda_bar_2" and rep.bound == lt.lambda_bar


def test_lambda_bar_matches_mpmath_on_presets(hydrogen_cert, three_level):
    for rep in (hydrogen_cert, certificate(three_level)):
        for lt in rep.level_thresholds:
            assert lt.lambda_bar == pytest.approx(_mp_lambda_bar(lt), rel=1e-14, abs=0.0)


def test_sup_d_norm_returns_location(three_level):
    rep = certificate(three_level)
    val, e_star = rep.sup_d_norm, rep.sup_d_argmax
    assert val > 0.0
    assert e_star > 0.0
    for e in (0.05, 0.3, 1.0):
        assert pv_matrix(three_level, e).norm() <= val * (1 + 1e-9)


def test_certificate_single_positive_level():
    # one level: R_a and lambda_a exist, the per-level constants do not, so
    # the verdict is inapplicable and the bound without R_b is lambda_a
    single = FriedrichsModel((0.3,), 0.1, (RationalFormFactor(1),), UnitSystem(1.0))
    rep = certificate(single)
    assert rep.verdict == "inapplicable"
    assert rep.level_thresholds == ()
    assert rep.notes == ("level 1: per-level thresholds need at least two levels",)
    assert rep.bound_without_b == rep.lambda_a
    assert rep.bound == min(rep.lambda_a, rep.lambda_b)


def test_certificate_tabulated_factor_vanishing_at_its_level():
    # factor 1 is 0 at its own level, a node of its grid: alpha_1 = 0, so
    # level 1 drops out with its note and level 2 still gives its constants
    grid = np.array([0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2])
    factors = (TabulatedFormFactor(grid, np.sqrt(grid) * (grid - 0.2) / (1.0 + grid ** 2),
                                   tail_exponent=-1.5),
               TabulatedFormFactor(grid, 0.5j * np.sqrt(grid) / (1.0 + grid ** 2),
                                   tail_exponent=-1.5))
    rep = certificate(FriedrichsModel((0.2, 0.5), 0.5, factors, UnitSystem(1.0)))
    assert rep.verdict == "inapplicable"
    assert rep.notes == ("level 1: form factor vanishes at its own level (alpha = 0), "
                         "the local certificate does not apply",)
    assert [lt.n for lt in rep.level_thresholds] == [2]
    assert rep.binding == "lambda_bar_2"
    assert rep.bound == rep.bound_without_b == rep.level_thresholds[0].lambda_bar
