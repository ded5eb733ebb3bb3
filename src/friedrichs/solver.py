"""Bound states below the continuum and the fixed-point eigencurve criterion.

A bound state at energy E < 0 exists exactly when some eigencurve satisfies
kappa_n(E) = E.  Since every kappa_n is nonincreasing on the negative half
axis while the identity grows, each branch crosses the diagonal at most once,
and the number of bound states equals the number of eigencurves that are
still negative at E = 0.  Counting therefore needs a single Gram matrix at
the threshold; locating the energies is one elementwise bracketed root
search over all counted branches.

Embedded (positive-energy) candidates are crossings of kappa_n(E) = E on
the principal-value family, reported together with the modulus of sum_n
c_n v_n(E*), which must vanish for a genuine embedded eigenvector.  The
scan never certifies anything, it only reports candidates and defects.

Both searches, and the oracle's on its node-sum K_M(E), are one objective
kappa_n(E) - E on an eigencurve family that diagonalizes each energy once:
the count, the states and the defects read the points the search holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._search import BracketError, bracketed_root
from .model import total_l2_norm_sq
from .quad import gram_matrix, t_matrix
from .spectral import _eigencurves, k_matrix

__all__ = [
    "BoundState", "SolveReport", "CountResult", "PositiveCandidate",
    "BracketError", "count_negative", "bound_state", "solve_model", "residual",
    "positive_candidate_scan",
]

# |kappa_n(0)| at or below this (or N eps max_n |kappa_n(0)|) is
# indeterminate (neither counted nor ruled out), and a bound-state root
# search stops once its bracket is narrower than _ROOT_TOL plus _ROOT_RTOL
# |E|: the relative term, a few ulps, lets a deep root converge where
# adjacent doubles lie more than 1e-12 apart (|E| > 8192)
_TOL_ZERO = 1e-12
_ROOT_TOL = 1e-12
_ROOT_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class CountResult:
    count: int
    kappa_at_zero: np.ndarray
    indeterminate: tuple = ()

    @classmethod
    def from_kappa(cls, kappa) -> "CountResult":
        """Count the branches with kappa_n(0) below minus the band
        max(_TOL_ZERO, N eps max_n |kappa_n(0)|).

        Branches with |kappa_n(0)| inside the band are flagged indeterminate
        and not counted; they sit within the rounding of K(0) of the
        continuum edge.
        """
        band = max(_TOL_ZERO, kappa.size * np.finfo(float).eps * np.abs(kappa).max())
        indeterminate = tuple(int(i) + 1 for i in np.nonzero(np.abs(kappa) <= band)[0])
        return cls(int(np.count_nonzero(kappa < -band)), kappa, indeterminate)


@dataclass(frozen=True)
class BoundState:
    """A normalized bound state below the continuum.

    energy: the eigenvalue E < 0.
    c: level amplitudes (length N), normalized together with the continuum
       part so that |c|^2 + continuum_norm_sq = 1.
    continuum_norm_sq: integral of |f|^2 over the half line, f(omega) =
       -lambda * sum_n c_n v_n(omega) / (omega - E) the continuum amplitude.
    total_norm_sq: |c|^2 + continuum_norm_sq (1 by construction).
    branch_index: which eigencurve produced the state (1-based).
    bracket: final bracket of the root search, enclosing energy.
    degenerate_partners: other branch indices within degeneracy tolerance.
    """

    energy: float
    c: np.ndarray
    continuum_norm_sq: float
    total_norm_sq: float
    branch_index: int
    bracket: tuple = (float("nan"), float("nan"))
    degenerate_partners: tuple = ()


@dataclass(frozen=True)
class SolveReport:
    count: int
    states: tuple
    kappa_at_zero: np.ndarray
    indeterminate: tuple = ()


@dataclass(frozen=True)
class PositiveCandidate:
    branch_index: int
    energy: float
    zero_defect: float


def count_negative(model) -> CountResult:
    """Count eigencurves negative at threshold, i.e. the bound states
    (see CountResult.from_kappa for the rule)."""
    return CountResult.from_kappa(_eigencurves(model, "S")([0.0])[0].kappa)


def _seed(levels, coupled_norm_sq):
    """Lower bracket end for every branch, given lambda^2 sum_n ||v_n||^2."""
    # kappa_n >= omega_1 - lambda^2 tr S(E) and tr S(E) <= sum_n l2 / |E|
    # make this seed a guaranteed positive end once |E_lo| >= 1.
    return min(levels[0], 0.0) - 1.0 - coupled_norm_sq


def _gap(curves):
    """The objective kappa_n(E) - E, elementwise over energies e and branches
    n (1-based) of the eigencurve family curves: bracket ends shared by
    several branches, or met again, are built once."""
    return lambda e, n: np.array([p.kappa[m - 1] for p, m in zip(curves(e), n)]) - e


def _branch_roots(curves, count, e_lo, e_hi=0.0):
    """Roots of kappa_n(E) - E on [e_lo, e_hi] for n = 1..count, all in one
    search on the eigencurve family curves.

    Returns [(root, final bracket)] in branch order; where the gap is
    exactly 0 the root is exact and its bracket is [root, root].
    """
    if not count:
        return []
    branch = np.arange(1, count + 1)
    res = bracketed_root(_gap(curves), np.full(count, e_lo), np.full(count, e_hi),
                         args=(branch,), what="branch roots, kappa_n(E) - E",
                         xatol=_ROOT_TOL, xrtol=_ROOT_RTOL)
    touching = branch[~(res.x < e_hi)]
    if touching.size:
        raise BracketError(f"branches {touching.tolist()} touch the diagonal "
                           f"at E = {e_hi:g}")
    exact = res.f_x == 0.0
    return [(float(x), (float(lo), float(hi))) for x, lo, hi in
            zip(res.x, *(np.where(exact, res.x, end) for end in res.bracket))]


def bound_state(model, n, e) -> BoundState:
    """Assemble the normalized bound state on branch n at its energy e < 0.

    The level amplitudes c come from the eigenvector of K(E) on that branch;
    the continuum weight, the integral of |f|^2, is lambda^2 c^dagger T(E, E) c.
    """
    e = float(e)
    if e >= 0.0:
        raise ValueError("bound states require E < 0")
    return _bound_state(model, n, _eigencurves(model, "S")([e])[0])


def _bound_state(model, n, point) -> BoundState:
    """`bound_state` from the eigencurve point of K(E) at its energy."""
    e, idx = point.e, n - 1
    scale = max(point.operator_norm(), 1e-300)
    partners = tuple(int(m) + 1 for m in range(point.n)
                     if m != idx and abs(point.kappa[m] - point.kappa[idx]) <= 1e-12 * scale)
    c_raw = point.vectors[:, idx]

    lam = model.coupling
    t = t_matrix(model, e, e).entries
    continuum_raw = lam * lam * float(np.vdot(c_raw, t @ c_raw).real)
    total_raw = 1.0 + continuum_raw
    c = c_raw / math.sqrt(total_raw)
    cont = continuum_raw / total_raw
    return BoundState(e, c, cont, float(np.vdot(c, c).real) + cont, n,
                      degenerate_partners=partners)


def residual(model, state: BoundState) -> float:
    """Norm of (K(E) - E) c, recomputed from scratch at the state's energy:
    an end-to-end consistency check of a solved state."""
    k = k_matrix(model, gram_matrix(model, state.energy))
    c = state.c
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        return float("nan")
    return float(np.linalg.norm(k @ c - state.energy * c) / nrm)


def _count_and_roots(model):
    """The count at E = 0 and the roots [(energy, bracket)] of the counted
    branches, with the eigencurve family they were found on: `solve_model`
    without its states, for callers that need only the energies."""
    curves = _eigencurves(model, "S")
    counted = CountResult.from_kappa(curves([0.0])[0].kappa)
    roots = []
    if counted.count:
        seed = _seed(model.levels, model.coupling ** 2 * total_l2_norm_sq(model))
        roots = _branch_roots(curves, counted.count, seed)
    return counted, roots, curves


def solve_model(model) -> SolveReport:
    """Count every bound state of the model, then locate all of them in one
    search, each on the bracket [min(omega_1, 0) - 1 - lambda^2 sum_n
    |v_n|^2, 0] down to a bracket narrower than 1e-12 + 4 eps |E|."""
    counted, roots, curves = _count_and_roots(model)
    states = tuple(replace(_bound_state(model, n, curves([e])[0]), bracket=bracket)
                   for n, (e, bracket) in enumerate(roots, 1))
    return SolveReport(counted.count, states, counted.kappa_at_zero,
                       counted.indeterminate)


def positive_candidate_scan(model, e_grid):
    """Scan E > 0 for crossings kappa_n(E) = E and report their defects.

    Returns PositiveCandidate records: branch, refined crossing energy, and
    zero_defect = |sum_n c_n v_n(E*)| with c the branch eigenvector at the
    crossing.  A genuine embedded eigenvalue needs a vanishing defect; the
    scan reports, it does not certify.
    """
    grid = np.sort(np.atleast_1d(np.asarray(e_grid, dtype=float)))
    if np.any(grid <= 0.0):
        raise ValueError("positive_candidate_scan needs a strictly positive grid")
    curves = _eigencurves(model, "D")
    gaps = np.array([p.kappa - p.e for p in curves(grid)])
    # a zero on the grid is a crossing as sampled; every sign change between
    # neighbours is refined, all of them in one elementwise search
    cells = [(n, i) for n in range(1, model.n_levels + 1)
             for i in range(len(grid))
             if gaps[i, n - 1] == 0.0
             or i + 1 < len(grid) and gaps[i, n - 1] * gaps[i + 1, n - 1] < 0.0]
    refine = [(n, i) for n, i in cells if gaps[i, n - 1] != 0.0]
    roots = {}
    if refine:
        branch, cell = np.array(refine).T
        res = bracketed_root(_gap(curves), grid[cell], grid[cell + 1], args=(branch,),
                             what="positive crossing search", xatol=1e-11, xrtol=1e-11)
        roots = dict(zip(refine, res.x.tolist()))
    out = []
    for n, i in cells:
        e_star = roots.get((n, i), float(grid[i]))
        c = curves([e_star])[0].vectors[:, n - 1]
        amp = sum(ci * complex(f.value(e_star)) for ci, f in zip(c, model.form_factors))
        out.append(PositiveCandidate(n, e_star, abs(amp)))
    return out
