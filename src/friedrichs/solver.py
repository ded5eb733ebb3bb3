"""Bound states below the continuum and the fixed-point eigencurve criterion.

A bound state at energy E < 0 exists exactly when some eigencurve satisfies
kappa_n(E) = E.  Since every kappa_n is nonincreasing on the negative half
axis while the identity grows, each branch crosses the diagonal at most once,
and the number of bound states equals the number of eigencurves that are
still negative at E = 0.  Counting therefore needs a single Gram matrix at
the threshold; locating the energies is a bracketed root search per branch.

Embedded (positive-energy) candidates are handled separately: crossings of
kappa_n(E) = E on the principal-value family are reported together with the
modulus of sum_n c_n v_n(E*), which must vanish for a genuine embedded
eigenvector.  The scan never certifies anything, it only reports candidates
and their defects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import BracketError, bracketed_root
from .model import total_l2_norm_sq
from .quad import gram_matrix, t_matrix
from .spectral import eigh, k_matrix, kappa_curve

__all__ = [
    "BoundState", "SolveReport", "CountResult", "IndependenceReport",
    "PositiveCandidate", "BracketError",
    "count_negative", "find_root", "bound_state", "solve_model", "residual",
    "independence_analysis", "positive_candidate_scan",
]


@dataclass(frozen=True)
class CountResult:
    count: int
    kappa_at_zero: np.ndarray
    indeterminate: tuple = ()

    @classmethod
    def from_kappa(cls, kappa, tol_zero: float = 1e-12) -> "CountResult":
        """Count the branches with kappa_n(0) < -tol_zero.

        Branches with |kappa_n(0)| <= tol_zero are flagged indeterminate and
        not counted; they sit within numerical resolution of the continuum
        edge.
        """
        indeterminate = tuple(int(i) + 1 for i in np.nonzero(np.abs(kappa) <= tol_zero)[0])
        return cls(int(np.count_nonzero(kappa < -tol_zero)), kappa, indeterminate)


@dataclass(frozen=True)
class BoundState:
    """A normalized bound state below the continuum.

    energy: the eigenvalue E < 0.
    c: level amplitudes (length N), normalized together with the continuum
       part so that |c|^2 + continuum_norm_sq = 1.
    f_descriptor: callable giving the continuum amplitude
       f(omega) = -lambda * sum_n c_n v_n(omega) / (omega - E).
    continuum_norm_sq: integral of |f|^2 over the half line.
    total_norm_sq: |c|^2 + continuum_norm_sq (1 by construction).
    branch_index: which eigencurve produced the state (1-based).
    bracket: final bracket of the root search, enclosing energy.
    degenerate_partners: other branch indices within degeneracy tolerance.
    """

    energy: float
    c: np.ndarray
    f_descriptor: object
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
    brackets: tuple
    indeterminate: tuple = ()


@dataclass(frozen=True)
class IndependenceReport:
    """Effective number of independent form factors at a reference energy.

    n_independent is the numerical rank of the Gram matrix; at most this many
    eigencurves can be pushed below the bare spectrum no matter how large the
    coupling grows.
    """

    n_independent: int
    gram_eigenvalues: np.ndarray
    e_ref: float
    rank_tol: float


@dataclass(frozen=True)
class PositiveCandidate:
    branch_index: int
    energy: float
    zero_defect: float


def count_negative(model, settings=None, tol_zero: float = 1e-12) -> CountResult:
    """Count eigencurves negative at threshold, i.e. the bound states
    (see CountResult.from_kappa for the rule)."""
    point = eigh(k_matrix(model, gram_matrix(model, 0.0, settings)), 0.0)
    return CountResult.from_kappa(point.kappa, tol_zero)


def _branch_gap(model, e, n, settings):
    """kappa_n(E) - E, the root objective for branch n (1-based)."""
    point = eigh(k_matrix(model, gram_matrix(model, e, settings)), e)
    return float(point.kappa[n - 1]) - e


def _find_root_bracketed(model, n, settings, tol):
    # kappa_n >= omega_1 - lambda^2 tr S(E) and tr S(E) <= sum_n l2 / |E|
    # make this seed a guaranteed positive end once |E_lo| >= 1.
    lam_sq = model.coupling ** 2
    e_lo = min(model.levels[0], 0.0) - 1.0 - lam_sq * total_l2_norm_sq(model, settings)
    gap = np.vectorize(lambda e: _branch_gap(model, e, n, settings), otypes=[float])
    res = bracketed_root(gap, e_lo, 0.0, what=f"branch {n}, kappa_{n}(E) - E",
                         xatol=tol, xrtol=0.0)
    if not res.x < 0.0:
        raise BracketError(f"branch {n} touches the diagonal at E = 0")
    return float(res.x), (float(res.bracket[0]), float(res.bracket[1]))


def find_root(model, n, settings=None, *, tol: float = 1e-12) -> float:
    """Bound-state energy on branch n (1-based).

    Chandrupatla's bracketing method on kappa_n(E) - E over the bracket
    [min(omega_1, 0) - 1 - lambda^2 sum_n |v_n|^2, 0], whose left end is
    provably above the diagonal; converges once the bracket is narrower
    than tol.
    """
    root, _ = _find_root_bracketed(model, n, settings, tol)
    return root


def bound_state(model, n, e=None, settings=None) -> BoundState:
    """Assemble the normalized bound state on branch n.

    When e is omitted the branch energy is located first.  The level
    amplitudes c come from the eigenvector of K(E) on that branch; the
    continuum weight, the integral of |f|^2, is lambda^2 c^dagger T(E, E) c.
    """
    bracket = (float("nan"), float("nan"))
    if e is None:
        e, bracket = _find_root_bracketed(model, n, settings, 1e-12)
    e = float(e)
    if e >= 0.0:
        raise ValueError("bound states require E < 0")
    point = eigh(k_matrix(model, gram_matrix(model, e, settings)), e)
    idx = n - 1
    scale = max(point.operator_norm(), 1e-300)
    partners = tuple(int(m) + 1 for m in range(point.n)
                     if m != idx and abs(point.kappa[m] - point.kappa[idx]) <= 1e-12 * scale)
    c_raw = point.vectors[:, idx]

    lam = model.coupling
    t = t_matrix(model, e, e, settings).entries
    continuum_raw = lam * lam * float(np.vdot(c_raw, t @ c_raw).real)
    total_raw = 1.0 + continuum_raw
    c = c_raw / math.sqrt(total_raw)
    cont = continuum_raw / total_raw

    def f_descriptor(w, _c=c, _e=e, _lam=lam, _factors=model.form_factors):
        amp = sum(ci * f.value_scalar(w) for ci, f in zip(_c, _factors))
        return -_lam * amp / (w - _e)

    return BoundState(e, c, f_descriptor, cont, float(np.vdot(c, c).real) + cont,
                      n, bracket, partners)


def residual(model, state: BoundState, settings=None) -> float:
    """Norm of (K(E) - E) c, recomputed from scratch at the state's energy.

    Useful with independent (typically tighter) quadrature settings as an
    end-to-end consistency check of a solved state.
    """
    k = k_matrix(model, gram_matrix(model, state.energy, settings))
    c = state.c
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        return float("nan")
    return float(np.linalg.norm(k @ c - state.energy * c) / nrm)


def solve_model(model, settings=None, *, with_states: bool = True) -> SolveReport:
    """Count and (optionally) solve every bound state of the model."""
    counted = count_negative(model, settings)
    states = []
    brackets = []
    if with_states:
        for n in range(1, counted.count + 1):
            st = bound_state(model, n, None, settings)
            states.append(st)
            brackets.append(st.bracket)
    return SolveReport(counted.count, tuple(states), counted.kappa_at_zero,
                       tuple(brackets), counted.indeterminate)


def independence_analysis(model, e_ref, settings=None, *,
                          rank_tol: float = 1e-10) -> IndependenceReport:
    """Numerical rank of the Gram matrix at a reference energy E_ref < 0."""
    e_ref = float(e_ref)
    if e_ref >= 0.0:
        raise ValueError("independence analysis needs E_ref < 0")
    s = gram_matrix(model, e_ref, settings)
    sigma = np.linalg.eigvalsh(s.entries)
    top = float(sigma[-1]) if sigma.size else 0.0
    rank = int(np.count_nonzero(sigma > rank_tol * max(top, 0.0)))
    return IndependenceReport(rank, sigma, e_ref, rank_tol)


def positive_candidate_scan(model, e_grid, settings=None):
    """Scan E > 0 for crossings kappa_n(E) = E and report their defects.

    Returns PositiveCandidate records: branch, refined crossing energy, and
    zero_defect = |sum_n c_n v_n(E*)| with c the branch eigenvector at the
    crossing.  A genuine embedded eigenvalue needs a vanishing defect; the
    scan reports, it does not certify.
    """
    grid = np.sort(np.atleast_1d(np.asarray(e_grid, dtype=float)))
    if np.any(grid <= 0.0):
        raise ValueError("positive_candidate_scan needs a strictly positive grid")
    points = kappa_curve(model, grid, kind="D", settings=settings)
    gaps = np.array([p.kappa - p.e for p in points])

    def point_at(e):
        return kappa_curve(model, [e], kind="D", settings=settings)[0]

    # a zero on the grid is a crossing as sampled; every sign change between
    # neighbours is refined, all of them in one elementwise search
    cells = [(n, i) for n in range(1, model.n_levels + 1)
             for i in range(len(grid) - 1)
             if gaps[i, n - 1] == 0.0 or gaps[i, n - 1] * gaps[i + 1, n - 1] < 0.0]
    refine = [(n, i) for n, i in cells if gaps[i, n - 1] != 0.0]
    roots = {}
    if refine:
        branch, cell = np.array(refine).T
        gap = np.vectorize(lambda e, n: point_at(e).kappa[n - 1] - e, otypes=[float])
        res = bracketed_root(gap, grid[cell], grid[cell + 1], args=(branch,),
                             what="positive crossing search", xatol=1e-11,
                             xrtol=1e-11)
        roots = dict(zip(refine, res.x))
    out = []
    for n, i in cells:
        if (n, i) in roots:
            e_star = float(roots[n, i])
            pt = point_at(e_star)
        else:
            e_star, pt = float(grid[i]), points[i]
        c = pt.vectors[:, n - 1]
        amp = sum(ci * f.value_scalar(e_star) for ci, f in zip(c, model.form_factors))
        out.append(PositiveCandidate(n, e_star, abs(amp)))
    return out
