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
sample, never by stochastic sampling.  sup ||D|| and R_b are read from one
log grid of D(E) spectra: each D(E) is computed once and serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import bracketed_root, grid_max
from .quad import gram_matrix, pv_matrix

__all__ = [
    "HypothesisViolation", "LevelThreshold", "ThresholdReport",
    "r_a", "lambda_n", "alpha_beta_gamma", "lambda_bar_closed_form",
    "certificate",
]

class HypothesisViolation(ValueError):
    """A certificate hypothesis fails for this model (degenerate levels,
    no positive level, a form factor vanishing at its own level or with an
    unbounded slope of |v|^2, or sup ||D|| = 0)."""


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


def _d_scan(model):
    """(sup ||D||, argmax, r_b, note) from one sampled spectrum.

    eigvalsh(D(E)) is stored on a 600-point log grid over [1e-6, 100] times
    the largest form-factor width.  sup ||D|| is the largest |eigenvalue|
    there, refined in log energy to 1e-4 around the best sample; ||D(0)|| =
    ||S(0)|| competes.  r_b is the lower end of the final bracket, of
    relative width 1e-4, around the edge where min eig D(E) first drops
    below -1e-10 sup ||D||: the top grid energy if no sample drops below, 0
    if the first one does (each with a note).
    """
    # ||D(0)|| = ||S(0)|| first: a model without S(0) fails before the scan
    at_zero = gram_matrix(model, 0.0).norm()
    scale = model.max_scale()
    grid = np.geomspace(1e-6 * scale, 100.0 * scale, 600)

    def eigs(e):
        # eigvalsh(D(E)) at every energy of an array: one stack of D(E), one
        # stacked eigvalsh, so the scan's and the searches' values agree
        return np.linalg.eigvalsh(pv_matrix(model, e).entries)

    spectra = eigs(grid)
    exp = np.vectorize(math.exp, otypes=[float])     # rounds as the scalar math.exp
    t, sup = grid_max(lambda t: np.abs(eigs(exp(t))).max(axis=-1), np.log(grid),
                      np.abs(spectra).max(axis=1), what="sup ||D(E)||", xatol=1e-4)
    e_star = math.exp(t)
    if at_zero > sup:
        sup, e_star = at_zero, 0.0

    tol = 1e-10 * sup
    bad = np.flatnonzero(spectra[:, 0] < -tol)
    if bad.size == 0:
        e_hi = float(grid[-1])
        return sup, e_star, e_hi, (
            f"positive semidefinite over the whole scan up to {e_hi:.6g}")
    if bad[0] == 0:
        return sup, e_star, 0.0, (
            f"not positive semidefinite at the smallest scanned energy {grid[0]:.6g}")
    edge = slice(bad[0] - 1, bad[0] + 1)
    res = bracketed_root(lambda e: eigs(e)[..., 0] + tol, *grid[edge],
                         f_bracket=spectra[edge, 0] + tol, what="R_b edge",
                         xatol=0.0, xrtol=1e-4)
    return sup, e_star, float(res.bracket[0]), None


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


def lambda_n(model, n, *, sup: float) -> float:
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
    return math.sqrt(gap / 3.0 / sup)


def _sup_mod_sq_derivative(factor) -> float:
    """sup over omega >= 0 of |d|v|^2/domega|, deterministic grid + refinement."""
    scale = factor.scale
    grid = np.concatenate(([0.0], np.geomspace(1e-6 * scale, 1e3 * scale, 10_000)))
    f = lambda x: np.abs(factor.mod_sq_derivative(x))
    return grid_max(f, grid, f(grid), what="sup |d|v|^2/domega|", xrtol=1e-8)[1]


def _sup_mod_sq_window(factor, lo, hi) -> float:
    grid = np.linspace(lo, hi, 2001)
    return grid_max(factor.mod_sq, grid, factor.mod_sq(grid),
                    what="sup |v|^2", xrtol=1e-8)[1]


def alpha_beta_gamma(model, n):
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

    radius = r_a(model)
    lo, hi = max(0.0, w - radius), w + radius
    gamma = sum(_sup_mod_sq_window(f, lo, hi) for f in model.form_factors)
    return alpha, beta, float(gamma)


def lambda_bar_closed_form(lam_n: float, alpha: float, beta: float,
                           gamma: float) -> float:
    """Solve the local quadratic for the refined per-level threshold.

    lambda_bar^2 = lambda_n^2 / (2 beta) * (A - sqrt(A^2 - 4 alpha beta)),
    A = alpha + beta + gamma.  The discriminant is nonnegative for any
    positive inputs; alpha -> 0 or beta -> 0 degenerate the quadratic, and
    beta = inf (a threshold exponent below 1/2) leaves it undefined: all
    three raise HypothesisViolation.
    """
    if not alpha > 0.0:
        raise HypothesisViolation(
            "form factor vanishes at its own level (alpha = 0), "
            "the local certificate does not apply")
    if not beta > 0.0:
        raise HypothesisViolation("flat modulus (beta = 0), quadratic degenerates")
    if not math.isfinite(beta):
        raise HypothesisViolation(
            "unbounded d|v|^2/domega (beta = inf), the local certificate "
            "does not apply")
    a_tot = alpha + beta + gamma
    disc = max(a_tot * a_tot - 4.0 * alpha * beta, 0.0)
    lam_bar_sq = lam_n ** 2 / (2.0 * beta) * (a_tot - math.sqrt(disc))
    return math.sqrt(lam_bar_sq)


def certificate(model) -> ThresholdReport:
    """Full no-embedded-eigenvalue certificate for the model.

    Computes the supremum of ||D||, the global and threshold-region bounds,
    and the per-level constants for every positive level, then compares
    |lambda| against the minimum.  Hypothesis failures downgrade the verdict
    to "inapplicable" instead of raising.
    """
    notes = []
    levels = model.level_array()
    n_pos = _n_plus(levels)
    sup, e_star, radius_b, note_b = _d_scan(model)

    try:
        if not sup > 0.0:
            raise HypothesisViolation(
                "sup ||D|| = 0: every form factor vanishes, no coupling "
                "threshold to certify")
        radius_a = r_a(model)
        lam_a = math.sqrt(radius_a / sup)
        lam_b = math.sqrt(radius_b / sup)
    except HypothesisViolation as exc:
        notes.append(str(exc))
        return ThresholdReport(sup, e_star, float("nan"), float("nan"),
                               float("nan"), float("nan"), (), float("nan"),
                               float("nan"), "none", "inapplicable", n_pos,
                               model.coupling, tuple(notes))

    if note_b:
        notes.append(note_b)

    per_level = []
    applicable = True
    for n in range(levels.size - n_pos + 1, levels.size + 1):
        try:
            lam_nn = lambda_n(model, n, sup=sup)
            alpha, beta, gamma = alpha_beta_gamma(model, n)
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
