"""Coupling thresholds certifying the absence of embedded eigenvalues.

The certificate machinery produces explicit coupling bounds below which no
eigencurve can satisfy kappa_n(E) = E inside the continuum:

  lambda_a   keeps every eigencurve within a third of the relevant level
             spacings uniformly in E > 0 (radius R_a over sup ||D||),
  lambda_b   keeps the threshold region (0, R_b) free, R_b being the largest
             scanned energy below which D(E) stays positive semidefinite,
  lambda_bar_n  excludes a crossing near the positive level omega_n through a
             local first-order argument built from three constants:
             alpha_n = |v_n(omega_n)|^2, the local coupling weight,
             beta_n  = (min gap / 3) * sup |d|v_n|^2/domega|, the drift the
                       crossing can pick up inside the isolating window, and
             gamma_n = sum_i sup of |v_i|^2 over the window, the collective
                       weight of all channels there.

The certified statement is |lambda| < min(lambda_a, lambda_b, lambda_bar_n
over positive levels); the verdict is three-valued since the hypotheses
(nondegenerate levels, at least one positive level, alpha_n > 0) can fail.
All suprema are located on deterministic grids refined around the best
sample, never by stochastic sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import bracketed_root, grid_max
from .quad import gram_matrix, pv_matrix

__all__ = [
    "HypothesisViolation", "LevelThreshold", "ThresholdReport",
    "sup_d_norm", "r_a", "lambda_a", "r_b_lambda_b", "lambda_n",
    "alpha_beta_gamma", "lambda_bar", "lambda_bar_closed_form", "certificate",
]

class HypothesisViolation(ValueError):
    """A certificate hypothesis fails for this model (degenerate levels,
    no positive level, or a form factor vanishing at its own level)."""


@dataclass(frozen=True)
class LevelThreshold:
    """Certificate constants for one positive level (1-based index n)."""

    n: int
    lambda_n: float
    alpha: float
    beta: float
    gamma: float
    lambda_bar: float


@dataclass(frozen=True)
class ThresholdReport:
    sup_d_norm: float
    sup_d_argmax: float
    r_a: float
    r_b: float
    lambda_a: float
    lambda_b: float
    level_thresholds: tuple
    bound: float
    bound_without_b: float
    binding: str
    verdict: str
    n_plus: int
    coupling: float
    notes: tuple = ()


def sup_d_norm(model, settings=None, pv=None, *, grid_points: int = 400,
               e_min: float | None = None, e_max: float | None = None,
               refine_rel: float = 1e-4):
    """Supremum of ||D(E)|| over E > 0 and its argmax.

    A log grid over (e_min, e_max] (defaults 1e-4 and 100 times the largest
    form-factor width) locates the peak; a bracketed maximization in log
    energy sharpens it to relative accuracy refine_rel.  The threshold value
    ||D(0)|| = ||S(0)|| competes as a candidate, and the decay of the entries
    makes the tail beyond e_max subdominant (spot-checked by the caller's
    tests rather than assumed).
    """
    scale = model.max_scale()
    e_lo = 1e-4 * scale if e_min is None else float(e_min)
    e_hi = 100.0 * scale if e_max is None else float(e_max)
    if not 0.0 < e_lo < e_hi:
        raise ValueError("need 0 < e_min < e_max")

    norm_at = np.vectorize(lambda t: pv_matrix(model, math.exp(t), settings, pv).norm(),
                           otypes=[float])
    t, best = grid_max(norm_at, np.log(np.geomspace(e_lo, e_hi, int(grid_points))),
                       what="sup ||D(E)||", xatol=refine_rel)
    best_e = math.exp(t)
    at_zero = gram_matrix(model, 0.0, settings).norm()
    if at_zero > best:
        return at_zero, 0.0
    return best, best_e


def _n_plus(levels) -> int:
    return int(np.count_nonzero(np.asarray(levels) > 0.0))


def _check_nondegenerate(levels):
    lv = np.asarray(levels, dtype=float)
    if lv.size >= 2 and np.min(np.diff(lv)) == 0.0:
        raise HypothesisViolation("degenerate levels, no isolating window exists")


def r_a(model) -> float:
    """Isolation radius: min of (smallest positive level)/3 and (min gap)/3."""
    levels = model.level_array()
    _check_nondegenerate(levels)
    n_pos = _n_plus(levels)
    if n_pos == 0:
        raise HypothesisViolation("no positive levels, nothing to certify")
    smallest_positive = levels[levels.size - n_pos]
    gaps = np.diff(levels)
    radius = smallest_positive / 3.0
    if gaps.size:
        radius = min(radius, float(np.min(gaps)) / 3.0)
    return float(radius)


def lambda_a(model, settings=None, pv=None, *, sup: float | None = None) -> float:
    """Global threshold sqrt(R_a / sup ||D||)."""
    if sup is None:
        sup, _ = sup_d_norm(model, settings, pv)
    return math.sqrt(r_a(model) / sup)


def r_b_lambda_b(model, settings=None, pv=None, *, sup: float | None = None,
                 scan_points: int = 600, e_min: float | None = None,
                 e_max: float | None = None, refine_rel: float = 1e-4,
                 psd_rel_tol: float = 1e-10):
    """Largest scanned energy below which D(E) is positive semidefinite.

    Scans a log grid from just above threshold; on the first violation of
    min eig D(E) >= -psd_rel_tol * sup ||D|| the boundary is refined by a
    bracketed root search to relative width refine_rel, and r_b is the lower
    end of the final bracket, where the test still holds.  Returns (r_b,
    lambda_b, note) where note explains a truncated or empty scan; r_b = 0
    with a diagnostic when the matrix already fails at the smallest scanned
    energy.
    """
    if sup is None:
        sup, _ = sup_d_norm(model, settings, pv)
    scale = model.max_scale()
    e_lo = 1e-6 * scale if e_min is None else float(e_min)
    e_hi = 100.0 * scale if e_max is None else float(e_max)
    tol = psd_rel_tol * sup

    def min_eig(e):
        return float(np.linalg.eigvalsh(pv_matrix(model, e, settings, pv).entries)[0])

    grid = np.geomspace(e_lo, e_hi, int(scan_points))
    bad = None
    for i, e in enumerate(grid):
        if min_eig(e) < -tol:
            bad = i
            break
    if bad is None:
        return float(e_hi), math.sqrt(e_hi / sup), (
            f"positive semidefinite over the whole scan up to {e_hi:.6g}")
    if bad == 0:
        return 0.0, 0.0, (
            f"not positive semidefinite at the smallest scanned energy {e_lo:.6g}")
    margin = np.vectorize(lambda e: min_eig(e) + tol, otypes=[float])
    res = bracketed_root(margin, grid[bad - 1], grid[bad], what="R_b edge",
                         xatol=0.0, xrtol=refine_rel)
    lo = float(res.bracket[0])
    return lo, math.sqrt(lo / sup), None


def lambda_n(model, n, settings=None, pv=None, *, sup: float | None = None) -> float:
    """Per-level threshold sqrt((min gap to other levels / 3) / sup ||D||)."""
    levels = model.level_array()
    if not 1 <= n <= levels.size:
        raise ValueError(f"level index {n} outside 1..{levels.size}")
    if levels.size < 2:
        raise HypothesisViolation("per-level thresholds need at least two levels")
    others = np.delete(levels, n - 1)
    gap = float(np.min(np.abs(others - levels[n - 1])))
    if gap == 0.0:
        raise HypothesisViolation(f"level {n} is degenerate")
    if sup is None:
        sup, _ = sup_d_norm(model, settings, pv)
    return math.sqrt(gap / 3.0 / sup)


def _sup_mod_sq_derivative(factor, *, grid_points: int = 10_000,
                           refine_rel: float = 1e-8) -> float:
    """sup over omega >= 0 of |d|v|^2/domega|, deterministic grid + refinement."""
    scale = factor.scale
    grid = np.concatenate(([0.0], np.geomspace(1e-6 * scale, 1e3 * scale,
                                               grid_points)))
    return grid_max(lambda x: np.abs(factor.mod_sq_derivative(x)), grid,
                    what="sup |d|v|^2/domega|", xrtol=refine_rel)[1]


def _sup_mod_sq_window(factor, lo, hi, *, grid_points: int = 2001,
                       refine_rel: float = 1e-8) -> float:
    return grid_max(factor.mod_sq, np.linspace(lo, hi, grid_points),
                    what="sup |v|^2", xrtol=refine_rel)[1]


def alpha_beta_gamma(model, n, *, r_a_value: float | None = None):
    """The three local certificate constants for level n (1-based).

    alpha is the channel weight |v_n(omega_n)|^2, beta the maximal drift
    (min gap / 3) * sup |d|v_n|^2/domega|, gamma the collective weight
    sum_i sup |v_i|^2 over the isolation window |omega - omega_n| < R_a
    intersected with the half line.
    """
    levels = model.level_array()
    if not 1 <= n <= levels.size:
        raise ValueError(f"level index {n} outside 1..{levels.size}")
    w = float(levels[n - 1])
    if w < 0.0:
        raise HypothesisViolation(
            f"level {n} sits below the continuum, local constants undefined")
    factor = model.form_factors[n - 1]
    alpha = float(factor.mod_sq(w))

    if levels.size < 2:
        raise HypothesisViolation("local certificate needs at least two levels")
    others = np.delete(levels, n - 1)
    gap = float(np.min(np.abs(others - w)))
    if gap == 0.0:
        raise HypothesisViolation(f"level {n} is degenerate")
    beta = (gap / 3.0) * _sup_mod_sq_derivative(factor)

    radius = r_a(model) if r_a_value is None else float(r_a_value)
    lo, hi = max(0.0, w - radius), w + radius
    gamma = sum(_sup_mod_sq_window(f, lo, hi) for f in model.form_factors)
    return alpha, beta, float(gamma)


def lambda_bar_closed_form(lam_n: float, alpha: float, beta: float,
                           gamma: float) -> float:
    """Solve the local quadratic for the refined per-level threshold.

    lambda_bar^2 = lambda_n^2 / (2 beta) * (A - sqrt(A^2 - 4 alpha beta)),
    A = alpha + beta + gamma.  The discriminant is nonnegative for any
    positive inputs; alpha -> 0 or beta -> 0 degenerate the quadratic and
    raise HypothesisViolation.
    """
    if not alpha > 0.0:
        raise HypothesisViolation(
            "form factor vanishes at its own level (alpha = 0), "
            "the local certificate does not apply")
    if not beta > 0.0:
        raise HypothesisViolation("flat modulus (beta = 0), quadratic degenerates")
    a_tot = alpha + beta + gamma
    disc = max(a_tot * a_tot - 4.0 * alpha * beta, 0.0)
    lam_bar_sq = lam_n ** 2 / (2.0 * beta) * (a_tot - math.sqrt(disc))
    return math.sqrt(lam_bar_sq)


def lambda_bar(model, n, settings=None, pv=None, *, sup: float | None = None,
               r_a_value: float | None = None) -> float:
    lam_n = lambda_n(model, n, settings, pv, sup=sup)
    alpha, beta, gamma = alpha_beta_gamma(model, n, r_a_value=r_a_value)
    return lambda_bar_closed_form(lam_n, alpha, beta, gamma)


def certificate(model, settings=None, pv=None, *, sup_grid_points: int = 400,
                scan_points: int = 600) -> ThresholdReport:
    """Full no-embedded-eigenvalue certificate for the model.

    Computes the supremum of ||D||, the global and threshold-region bounds,
    and the per-level constants for every positive level, then compares
    |lambda| against the minimum.  Hypothesis failures downgrade the verdict
    to "inapplicable" instead of raising.
    """
    notes = []
    levels = model.level_array()
    n_pos = _n_plus(levels)
    sup, e_star = sup_d_norm(model, settings, pv, grid_points=sup_grid_points)

    try:
        radius_a = r_a(model)
        lam_a = math.sqrt(radius_a / sup)
    except HypothesisViolation as exc:
        notes.append(str(exc))
        return ThresholdReport(sup, e_star, float("nan"), float("nan"),
                               float("nan"), float("nan"), (), float("nan"),
                               float("nan"), "none", "inapplicable", n_pos,
                               model.coupling, tuple(notes))

    radius_b, lam_b, note_b = r_b_lambda_b(model, settings, pv, sup=sup,
                                           scan_points=scan_points)
    if note_b:
        notes.append(note_b)

    per_level = []
    applicable = True
    for n in range(levels.size - n_pos + 1, levels.size + 1):
        try:
            lam_nn = lambda_n(model, n, sup=sup)
            alpha, beta, gamma = alpha_beta_gamma(model, n, r_a_value=radius_a)
            lam_bar = lambda_bar_closed_form(lam_nn, alpha, beta, gamma)
        except HypothesisViolation as exc:
            notes.append(f"level {n}: {exc}")
            applicable = False
            continue
        per_level.append(LevelThreshold(n, lam_nn, alpha, beta, gamma, lam_bar))

    candidates = {"lambda_a": lam_a, "lambda_b": lam_b}
    candidates_no_b = {"lambda_a": lam_a}
    for lt in per_level:
        candidates[f"lambda_bar_{lt.n}"] = lt.lambda_bar
        candidates_no_b[f"lambda_bar_{lt.n}"] = lt.lambda_bar
    binding = min(candidates, key=candidates.get)
    bound = candidates[binding]
    bound_no_b = min(candidates_no_b.values())

    if not applicable:
        verdict = "inapplicable"
    else:
        verdict = "true" if abs(model.coupling) < bound else "false"
    return ThresholdReport(sup, e_star, radius_a, radius_b, lam_a, lam_b,
                           tuple(per_level), bound, bound_no_b, binding,
                           verdict, n_pos, model.coupling, tuple(notes))
