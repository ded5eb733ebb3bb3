"""Acceptance gate: one test per criterion, one pass/fail line each.

Criterion 1 checks every certificate constant of the hydrogen-like preset in
a single soft-collected assertion so the full discrepancy list is visible at
once.  Its references come from three sources:

  stated      R_a, alpha_n, beta_n, the verdict, the binding constant and
              the coupling, as given for the model;
  corrected   the gamma_n row, whose stated form is mis-transcribed;
  oracle      sup ||D||, its argmax E* and the lambda chain (lambda_n^2,
              lambda_a^2, lambda_bar_n^2), frozen in tests/_references.py by
              the independent 30-digit mpmath oracle, because the stated
              values cannot be reproduced from the stated model.

The remaining criteria cover the region boundaries of the coupling sweep, the
root anchors, the discretized-Hamiltonian cross-check, the randomized
property suites, and bound-state integrity.
"""

import time

import numpy as np
import pytest

from friedrichs import (
    compare_negative_spectrum,
    gram_matrix,
    k_matrix,
    positive_candidate_scan,
    residual,
    total_l2_norm_sq,
)

import property_suites as ps
from _references import (
    HYDROGEN_LAMBDA_A_SQ,
    HYDROGEN_LAMBDA_BAR_SQ,
    HYDROGEN_LAMBDA_N_SQ,
    HYDROGEN_SUP_D,
    HYDROGEN_SUP_D_E_STAR,
)

OMEGA = 1.55e16 / 8.498e18


def test_criterion_1_hydrogen_constants(hydrogen, hydrogen_cert):
    """Constants of the hydrogen-like certificate, each at its stated
    tolerance, plus the embedded-eigenvalue scan.

    R_a, alpha_n and beta_n are checked against their stated values; gamma_n
    against the stated row with its transcription error corrected; sup ||D||,
    E* and the lambda chain against the 30-digit oracle.  Each replaced
    stated value is kept in a comment next to its check."""
    t0 = time.perf_counter()
    rep = hydrogen_cert
    failures = []

    def check(label, got, want, rel):
        if not np.isfinite(got) or abs(got - want) > rel * abs(want):
            failures.append(
                f"{label}: got {got:.6e}, want {want:.6e} (tol {rel:.1%})")

    # stated: sup ||D|| = 11.332 at E* = 0.6145.  The oracle's own scan
    # covers 0.6145 and finds ||D(0.6145)|| = 0.295.  A change of energy
    # unit, or of the form-factor widths at a fixed threshold slope, scales
    # sup ||D|| and E* alike, yet sup/E* is 9.94 for the model and 18.44 for
    # the stated pair.
    check("sup ||D||", rep.sup_d_norm, HYDROGEN_SUP_D, 0.005)
    check("argmax E*", rep.sup_d_argmax, HYDROGEN_SUP_D_E_STAR, 0.005)
    check("R_a", rep.r_a, 7.0 * OMEGA / 324.0, 1e-12)

    # stated: lambda_n^2 = (5.45e-3, 1.91e-3, 1.91e-3) * OMEGA and
    # lambda_a^2 = 1.91e-3 * OMEGA, i.e. (gap / 3) / 11.332; they follow
    # from the stated sup ||D|| and are replaced with it
    lts = {lt.n: lt for lt in rep.level_thresholds}
    for n, want in zip((1, 2, 3), HYDROGEN_LAMBDA_N_SQ):
        check(f"lambda_{n}^2", lts[n].lambda_n ** 2, want, 0.01)
    check("lambda_a^2", rep.lambda_a ** 2, HYDROGEN_LAMBDA_A_SQ, 0.01)

    for n, want in zip((1, 2, 3), (1.82e-3, 4.87e-4, 1.99e-4)):
        check(f"alpha_{n}", lts[n].alpha, want, 0.01)
    for n, want in zip((1, 2, 3), (6.17e-2, 4.87e-3, 1.88e-3)):
        check(f"beta_{n}", lts[n].beta, want * OMEGA, 0.01)
    # stated: (2.45e-3, 3.04e-3, 2.45e-3), which cannot be: every |v_i|^2
    # increases on the windows and the windows move right with n, so gamma_n
    # increases.  Back-solving the stated lambda_bar row through the closed
    # form gives (2.443, 2.892, 3.037)e-3, which is the row checked here.
    for n, want in zip((1, 2, 3), (2.45e-3, 2.89e-3, 3.04e-3)):
        check(f"gamma_{n}", lts[n].gamma, want, 0.01)
    # stated: (4.18e-6, 5.01e-7, 2.14e-7), the closed form applied to the
    # stated lambda_n^2, so 13.9-14.0 times below the model's values
    for n, want in zip((1, 2, 3), HYDROGEN_LAMBDA_BAR_SQ):
        check(f"lambda_bar_{n}^2", lts[n].lambda_bar ** 2, want, 0.02)

    if rep.verdict != "true":
        failures.append(f"verdict: got {rep.verdict!r}, want 'true'")
    if rep.binding != "lambda_bar_3":
        failures.append(f"binding constant: got {rep.binding!r}, "
                        "want 'lambda_bar_3'")
    if not lts[3].lambda_bar ** 2 > 6.435e-9:
        failures.append("lambda_bar_3^2 does not exceed the physical "
                        "coupling 6.435e-9")
    if rep.coupling ** 2 != pytest.approx(6.435e-9, rel=1e-12):
        failures.append("preset coupling drifted from 6.435e-9")

    # no crossing on the positive axis satisfies the vanishing condition,
    # so the scan certifies the absence of embedded-eigenvalue candidates
    grid = np.linspace(5e-4, 5e-3, 60)
    cands = positive_candidate_scan(hydrogen, grid)
    passing = [c for c in cands if c.zero_defect <= 1e-3]
    if passing:
        failures.append(f"embedded-eigenvalue scan: {len(passing)} crossing(s)"
                        " with vanishing defect")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")

    assert not failures, "hydrogen constant reproduction:\n  " + \
        "\n  ".join(failures)


def test_criterion_2_count_transitions(three_level):
    """Bound-state count along a 60-point log sweep of the coupling steps
    1 -> 2 -> 3 inside the expected windows."""
    t0 = time.perf_counter()
    lams = np.geomspace(0.1, 10.0, 60)
    s0 = gram_matrix(three_level, 0.0)
    counts = []
    for lam in lams:
        kappa = np.linalg.eigvalsh(
            k_matrix(three_level.with_coupling(float(lam)), s0))
        counts.append(int(np.count_nonzero(kappa < -1e-12)))
    counts = np.array(counts)
    assert counts[0] == 1
    assert counts[-1] == 3
    assert np.all(np.diff(counts) >= 0)
    first_two = lams[np.argmax(counts >= 2)]
    first_three = lams[np.argmax(counts >= 3)]
    assert 0.15 <= first_two <= 0.3
    assert 0.7 <= first_three <= 1.4
    assert time.perf_counter() - t0 < 180.0


def test_criterion_3_root_anchors(three_level_reports):
    """Root positions at the three reference couplings."""
    rep = three_level_reports[0.1]
    assert rep.count == 1 and len(rep.states) == 1
    assert -0.025 <= rep.states[0].energy <= -0.015

    rep = three_level_reports[0.7]
    assert rep.count == 2 and len(rep.states) == 2
    e1, e2 = (st.energy for st in rep.states)
    assert -0.4 <= e1 <= -0.2
    assert -0.05 <= e2 < 0.0

    rep = three_level_reports[10.0]
    assert rep.count == 3 and len(rep.states) == 3


@pytest.mark.parametrize("lam,count", [(0.1, 1), (0.7, 2), (10.0, 3)])
def test_criterion_4_oracle_equivalence(three_level, lam, count):
    """Discretized-Hamiltonian spectrum at M = 4000 agrees with the solver."""
    model = three_level.with_coupling(lam)
    table = compare_negative_spectrum(model, (4000,))
    assert table.solver_count == count
    row = table.rows[0]
    assert row.count == count
    for e_ref, delta in zip(table.solver_energies, row.deltas):
        assert delta <= 1e-6 * abs(e_ref)


def test_criterion_5_property_suites(property_suite_runs):
    """All six randomized suites, 200+ cases each, within the time budget."""
    assert len(property_suite_runs) == len(ps.ALL_SUITES)
    for cases, _ in property_suite_runs.values():
        assert cases >= 200
    assert sum(seconds for _, seconds in property_suite_runs.values()) < 300.0


def test_criterion_6_bound_state_integrity(three_level, three_level_reports):
    """Every solved state: small eigen-residual, unit norm, and continuum
    weight below the rigorous cap."""
    total = total_l2_norm_sq(three_level)
    for lam, rep in three_level_reports.items():
        model = three_level.with_coupling(lam)
        for st in rep.states:
            assert residual(model, st) <= 1e-9
            assert abs(st.total_norm_sq - 1.0) <= 1e-10
            cap = lam ** 2 * total / st.energy ** 2
            assert st.continuum_norm_sq <= cap * (1.0 + 1e-9)
