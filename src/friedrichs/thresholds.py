"""Coupling thresholds certifying the absence of embedded eigenvalues.

The certificate machinery produces explicit coupling bounds below which no
crossing kappa_n(E) = E with a vanishing defect exists inside the continuum:

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
scan of D(E) spectra on the ray's lattice of energies, summed there by FFT
(`quad._pv_lattice`): each D(E) is computed once and serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import bracketed_root, grid_max
from .quad import _check_finite, _pv_lattice, gram_matrix, pv_matrix

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

    eigvalsh(D(E)) is stored on the 590 or so energies E = a exp(t) of the
    ray's lattice (t a multiple of 1/32, `quad._pv_lattice`) over [1e-6, 100]
    times the largest form-factor width, summed there by FFT.  sup ||D|| is
    the largest |eigenvalue| there, refined in t to 1e-4 around the best
    sample, off the lattice with the direct sums of pv_matrix; ||D(0)|| =
    ||S(0)|| competes.  r_b is the lower end of the final bracket, of
    relative width 1e-4, around the edge where min eig D(E) first drops
    below -1e-10 sup ||D||: the top lattice energy if no sample drops below,
    0 if the first one does (each with a note).  Every energy is built once.
    """
    # ||D(0)|| = ||S(0)|| first: a model without S(0) fails before the scan
    s0 = gram_matrix(model, 0.0)
    _check_finite(s0.entries, 0.0, "S(E)")
    at_zero = s0.norm()
    scale = model.max_scale()
    a, t, d = _pv_lattice(model, 1e-6 * scale, 100.0 * scale)
    grid = d.e
    _check_finite(d.entries, grid, "D(E)")
    spectra = np.linalg.eigvalsh(d.entries)
    rows = dict(zip(grid.tolist(), spectra))

    def eigs(e):
        # eigvalsh(D(E)) at every energy of an array, kept per energy: the
        # new ones as one stack of D(E), so no energy is built twice
        keys = np.ravel(e).tolist()
        new = list(dict.fromkeys(k for k in keys if k not in rows))
        if new:
            d = pv_matrix(model, np.array(new)).entries
            _check_finite(d, new, "D(E)")
            rows.update(zip(new, np.linalg.eigvalsh(d)))
        return np.reshape([rows[k] for k in keys], np.shape(e) + (-1,))

    # the refinement maps t to a * np.exp(t) as the lattice did, so its
    # bracket's three samples are the scan's
    t, sup = grid_max(lambda t: np.abs(eigs(a * np.exp(t))).max(axis=-1), t,
                      np.abs(spectra).max(axis=1), what="sup ||D(E)||", xatol=1e-4)
    e_star = float(a * np.exp(t))
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
    res = bracketed_root(lambda e: eigs(e)[..., 0] + tol, *grid[edge], what="R_b edge",
                         xatol=0.0, xrtol=1e-4)
    return sup, e_star, float(res.bracket[0]), None


def r_a(model) -> float:
    """Isolation radius: min of (smallest positive level)/3 and (min gap)/3."""
    levels = model.level_array()
    gaps = np.diff(levels)
    if gaps.size and np.min(gaps) == 0.0:
        raise HypothesisViolation("degenerate levels, no isolating window exists")
    positive = levels[levels > 0.0]
    if positive.size == 0:
        raise HypothesisViolation("no positive levels, nothing to certify")
    # a third of the minimum is the minimum of the thirds: division is monotone
    return float(min([positive[0], *gaps]) / 3.0)


def _isolation(levels, n, single) -> float:
    """Distance from level n (1-based) to its nearest neighbour; a model of
    one level raises HypothesisViolation(single)."""
    if not 1 <= n <= levels.size:
        raise ValueError(f"level index {n} outside 1..{levels.size}")
    if levels.size < 2:
        raise HypothesisViolation(single)
    gap = float(np.min(np.abs(np.delete(levels, n - 1) - levels[n - 1])))
    if gap == 0.0:
        raise HypothesisViolation(f"level {n} is degenerate")
    return gap


def lambda_n(model, n, *, sup: float) -> float:
    """Per-level threshold sqrt((min gap to other levels / 3) / sup ||D||)."""
    gap = _isolation(model.level_array(), n, "per-level thresholds need at least two levels")
    return math.sqrt(gap / 3.0 / sup)


def _sup_mod_sq_derivative(factor) -> float:
    """sup over omega >= 0 of |d|v|^2/domega|, deterministic grid + refinement."""
    scale = factor.scale
    grid = np.concatenate(([0.0], np.geomspace(1e-6 * scale, 1e3 * scale, 10_000)))
    f = lambda x: np.abs(factor.mod_sq_derivative(x))
    return grid_max(f, grid, f(grid), what="sup |d|v|^2/domega|", xrtol=1e-8)[1]


def alpha_beta_gamma(model, n):
    """The three local certificate constants for level n (1-based).

    alpha is the channel weight |v_n(omega_n)|^2, beta the maximal drift
    (min gap / 3) * sup |d|v_n|^2/domega|, gamma the collective weight
    sum_i sup |v_i|^2 over the isolation window |omega - omega_n| < R_a
    intersected with the half line.
    """
    levels = model.level_array()
    if 1 <= n <= levels.size and levels[n - 1] < 0.0:
        raise HypothesisViolation(
            f"level {n} sits below the continuum, local constants undefined")
    gap = _isolation(levels, n, "local certificate needs at least two levels")
    w = float(levels[n - 1])
    factor = model.form_factors[n - 1]
    alpha = float(factor.mod_sq(w))
    beta = (gap / 3.0) * _sup_mod_sq_derivative(factor)

    radius = r_a(model)
    grid = np.linspace(max(0.0, w - radius), w + radius, 2001)
    gamma = sum(grid_max(f.mod_sq, grid, f.mod_sq(grid), what="sup |v|^2", xrtol=1e-8)[1]
                for f in model.form_factors)
    return alpha, beta, float(gamma)


def lambda_bar_closed_form(lam_n: float, alpha: float, beta: float,
                           gamma: float) -> float:
    """Solve the local quadratic for the refined per-level threshold.

    lambda_bar^2 / lambda_n^2 is the smaller root of beta x^2 - A x + alpha,
    A = alpha + beta + gamma, taken in the stable form

        lambda_bar = |lambda_n| sqrt(2 alpha' / (A' + sqrt(A'^2 - 4 alpha' beta')))

    with alpha, beta, gamma divided by the largest of them (primed): no
    cancellation when gamma dwarfs alpha and beta, and no overflow.  The
    discriminant is nonnegative for any positive inputs; alpha -> 0 or
    beta -> 0 degenerate the quadratic, and beta = inf (a threshold
    exponent below 1/2) leaves it undefined: all three raise
    HypothesisViolation.
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
    top = max(alpha, beta, gamma)
    a, b = alpha / top, beta / top
    a_tot = a + b + gamma / top
    disc = max(a_tot * a_tot - 4.0 * a * b, 0.0)
    return abs(lam_n) * math.sqrt(2.0 * a / (a_tot + math.sqrt(disc)))


def certificate(model) -> ThresholdReport:
    """Full no-embedded-eigenvalue certificate for the model.

    Computes the supremum of ||D||, the global and threshold-region bounds,
    and the per-level constants for every positive level, then compares
    |lambda| against the minimum.  Hypothesis failures downgrade the verdict
    to "inapplicable" instead of raising.
    """
    levels = model.level_array()
    n_pos = int(np.count_nonzero(levels > 0.0))
    sup, e_star, radius_b, note_b = _d_scan(model)

    try:
        if not sup > 0.0:
            raise HypothesisViolation(
                "sup ||D|| = 0: every form factor vanishes, no coupling "
                "threshold to certify")
        radius_a = r_a(model)
    except HypothesisViolation as exc:
        nan = float("nan")
        return ThresholdReport(sup, e_star, nan, nan, nan, nan, (), nan, nan, "none",
                               "inapplicable", n_pos, model.coupling, (str(exc),))
    lam_a = math.sqrt(radius_a / sup)
    lam_b = math.sqrt(radius_b / sup)

    notes = [note_b] if note_b else []
    per_level = []
    for n in range(levels.size - n_pos + 1, levels.size + 1):
        try:
            lam_nn = lambda_n(model, n, sup=sup)
            alpha, beta, gamma = alpha_beta_gamma(model, n)
            per_level.append(LevelThreshold(n, lam_nn, alpha, beta, gamma,
                                            lambda_bar_closed_form(lam_nn, alpha, beta, gamma)))
        except HypothesisViolation as exc:
            notes.append(f"level {n}: {exc}")

    bars = {f"lambda_bar_{lt.n}": lt.lambda_bar for lt in per_level}
    candidates = {"lambda_a": lam_a, "lambda_b": lam_b, **bars}
    binding = min(candidates, key=candidates.get)
    bound = candidates[binding]

    if len(per_level) < n_pos:
        verdict = "inapplicable"
    else:
        verdict = "true" if abs(model.coupling) < bound else "false"
    return ThresholdReport(sup, e_star, radius_a, radius_b, lam_a, lam_b,
                           tuple(per_level), bound, min([lam_a, *bars.values()]),
                           binding, verdict, n_pos, model.coupling, tuple(notes))
