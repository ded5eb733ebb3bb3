"""Bound states below the continuum and the fixed-point eigencurve criterion.

A bound state at energy E < 0 exists exactly when some eigencurve satisfies
kappa_n(E) = E.  Since every kappa_n is nonincreasing on the negative half
axis while the identity grows, each branch crosses the diagonal at most once,
and the number of bound states equals the number of eigencurves that are
still negative at E = 0.  Counting therefore needs a single Gram matrix at
the threshold; locating the energies is one elementwise bracketed root
search over all counted branches.  Each state is assembled once, from the
eigencurve point at its root and the search's final bracket.

Embedded (positive-energy) candidates are crossings of kappa_n(E) = E on
the principal-value family, reported together with the modulus of sum_n
c_n v_n(E*), which must vanish for a genuine embedded eigenvector.  The
scan never certifies anything, it only reports candidates and defects.

Both searches, and the oracle's rows that its Newton step from the
solver's roots leaves (on its node-sum K_M(E)), are one call of
`_branch_roots` over flat rows, one row per (member, branch) bracket with
its own top and stop, of the objective kappa_n(E) - E on an eigencurve
family that diagonalizes each energy once: the count, the states and the
defects read the points the search holds.
Its K(E), the states' T(E, E) of every root (one stack) and the seed's
norms (one pass) come straight from the kernels' tables
(`quad._shift_stack`, `quad._norms_sq`); only the public matrices, which
the searches do not call, build a LevelShiftMatrix and its err.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import BracketError, bracketed_root
from .quad import NumericalError, _check_finite, _norms_sq, _shift_stack, gram_matrix
from .spectral import _eigencurves, k_matrix

__all__ = [
    "BoundState", "SolveReport", "CountResult", "PositiveCandidate",
    "BracketError", "count_negative", "solve_model", "residual",
    "positive_candidate_scan",
]

# In units of the model's scale (`_unit`), |kappa_n(0)| at or below
# _TOL_ZERO (or N eps max_n |kappa_n(0)|) is indeterminate (neither counted
# nor ruled out), and a bound-state root search stops once its bracket is
# narrower than _ROOT_TOL plus _ROOT_RTOL |E|: the relative term, a few
# ulps, lets deep roots converge, whose adjacent doubles lie farther apart
_TOL_ZERO = 1e-12
_ROOT_TOL = 1e-12
_ROOT_RTOL = 4.0 * np.finfo(float).eps


def _unit(model) -> float:
    """The model's scale, which every absolute tolerance of a count, a root
    search and the oracle's gap multiplies: its narrowest width, since a
    wide factor must not loosen the roots that a narrow one resolves."""
    return min(f.scale for f in model.form_factors)


@dataclass(frozen=True)
class CountResult:
    count: int
    kappa_at_zero: np.ndarray
    indeterminate: tuple = ()

    @classmethod
    def from_kappa(cls, kappa, unit) -> "CountResult":
        """Count the branches with kappa_n(0) below minus the band
        max(_TOL_ZERO unit, N eps max_n |kappa_n(0)|), unit from `_unit`.

        Branches with |kappa_n(0)| inside the band are flagged indeterminate
        and not counted; they sit within the rounding of K(0) of the
        continuum edge.
        """
        band = max(_TOL_ZERO * unit, kappa.size * np.finfo(float).eps * np.abs(kappa).max())
        indeterminate = tuple(int(i) + 1 for i in np.nonzero(np.abs(kappa) <= band)[0])
        return cls(int(np.count_nonzero(kappa < -band)), kappa, indeterminate)


@dataclass(frozen=True)
class BoundState:
    """A normalized bound state below the continuum, as `solve_model` finds
    it: one per root of the branch search.

    energy: the eigenvalue E < 0.
    c: level amplitudes (length N), normalized together with the continuum
       part so that |c|^2 + continuum_norm_sq = 1.
    continuum_norm_sq: integral of |f|^2 over the half line, f(omega) =
       -lambda * sum_n c_n v_n(omega) / (omega - E) the continuum amplitude.
    total_norm_sq: |c|^2 + continuum_norm_sq (1 by construction).
    branch_index: which eigencurve produced the state (1-based).
    bracket: final bracket of the root search, enclosing energy.
    """

    energy: float
    c: np.ndarray
    continuum_norm_sq: float
    total_norm_sq: float
    branch_index: int
    bracket: tuple


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
    return CountResult.from_kappa(_eigencurves(model)([0.0])[0].kappa, _unit(model))


def _seed(levels, coupled_norm_sq):
    """Lower bracket end for every branch, given A = lambda^2 sum_n ||v_n||^2;
    a NaN A, from norms that overflowed, is a NumericalError."""
    # kappa_n(E) >= omega_1 - lambda^2 tr S(E), tr S(E) <= sum_n ||v_n||^2 / |E|: so at
    # this E, |E| >= 2 sqrt(A) and kappa_n(E) - E >= 1.5 sqrt(A) >= 0 (0 at omega_1 if A = 0)
    seed = min(levels[0], 0.0) - 2.0 * math.sqrt(coupled_norm_sq)
    if math.isnan(seed):
        raise NumericalError("lambda^2 sum_n ||v_n||^2 is not a number, "
                             "no lower bracket end for the bound states")
    return seed


def _branch_roots(curves, branch, lo, hi, top, xatol, member=None, xrtol=_ROOT_RTOL,
                  what="branch roots, kappa_n(E) - E"):
    """Roots of kappa_n(E) - E on the eigencurve family curves, all in one
    elementwise search over rows: row i refines branch n = branch[i]
    (1-based) of member member[i] (on a family of several members) on
    [lo[i], hi[i]] down to a bracket narrower than xatol[i] + xrtol |E|.
    Every argument holds one value per row or one value for every row.  A
    root that reaches top[i], where the branch was counted, touches the
    diagonal there: a BracketError.  Bracket ends shared by several rows,
    or met again, are built once.

    Returns [(root, final bracket)] in row order; where the gap is exactly 0
    the root is exact and its bracket is [root, root].
    """
    if not np.size(branch):
        return []
    args = (branch,) if member is None else (branch, member)
    res = bracketed_root(
        lambda e, n, *m: np.array([p.kappa[k - 1] for p, k in zip(curves(e, *m), n)]) - e,
        lo, hi, args=args, what=what, xatol=xatol, xrtol=xrtol)
    touching = ~(res.x < top)
    if touching.any():
        branch, top = (np.broadcast_to(a, touching.shape)[touching] for a in (branch, top))
        raise BracketError(f"branches {branch.tolist()} touch the diagonal "
                           f"at E = {top[0]:g}")
    exact = res.f_x == 0.0
    return [(float(x), (float(lo), float(hi))) for x, lo, hi in
            zip(res.x, *(np.where(exact, res.x, end) for end in res.bracket))]


def _bound_states(model, points, roots):
    """The normalized bound states on branches 1, 2, ... at their roots
    [(E, bracket)] < 0, the search's final brackets, from the eigencurve
    points of K(E) there.

    The level amplitudes c come from the eigenvector of K(E) on that branch;
    the continuum weight, the integral of |f|^2, is lambda^2 c^dagger T(E, E) c,
    T(E, E) of every root built in one stack.
    """
    if not roots:
        return ()
    e = np.array([x for x, _ in roots])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = _shift_stack(model, e, e)
    _check_finite(t, e, "T(E, E)")
    lam, states = model.coupling, []
    for n, (point, t_n, (_, bracket)) in enumerate(zip(points, t, roots), 1):
        c_raw = point.vectors[:, n - 1]
        continuum_raw = lam * lam * float(np.vdot(c_raw, t_n @ c_raw).real)
        total_raw = 1.0 + continuum_raw
        c = c_raw / math.sqrt(total_raw)
        cont = continuum_raw / total_raw
        states.append(BoundState(point.e, c, cont, float(np.vdot(c, c).real) + cont, n, bracket))
    return tuple(states)


def residual(model, state: BoundState) -> float:
    """Norm of (K(E) - E) c, recomputed from scratch at the state's energy:
    an end-to-end consistency check of a solved state."""
    k = k_matrix(model, gram_matrix(model, state.energy))
    c = state.c
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        return float("nan")
    return float(np.linalg.norm(k @ c - state.energy * c) / nrm)


def _model_seed(model):
    """`_seed` of the model: every branch's lower bracket end, from every
    norm read in one pass."""
    return _seed(model.levels, model.coupling ** 2 * sum(_norms_sq(model)))


def solve_model(model) -> SolveReport:
    """Count every bound state of the model, then locate all of them in one
    search, each on the bracket [min(omega_1, 0) - 2 sqrt(lambda^2 sum_n
    |v_n|^2), 0] down to a bracket narrower than 1e-12 `_unit` + 4 eps |E|."""
    return _solve(model, _eigencurves(model))


def _count_and_roots(model, curves):
    """`solve_model`'s count and branch search on the model's eigencurve
    family: (CountResult, [(root, final bracket)])."""
    unit, seed = _unit(model), _model_seed(model)
    # K(0) for the count and K(seed), the search's lower end, in one stack
    counted = CountResult.from_kappa(curves([0.0, seed])[0].kappa, unit)
    count = counted.count
    return counted, _branch_roots(curves, np.arange(1, count + 1), np.full(count, seed),
                                  0.0, 0.0, _ROOT_TOL * unit)


def _solve(model, curves) -> SolveReport:
    """`solve_model` on the model's eigencurve family."""
    counted, roots = _count_and_roots(model, curves)
    states = _bound_states(model, curves([e for e, _ in roots]), roots)
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
    if not np.all(grid > 0.0):
        raise ValueError("positive_candidate_scan needs a strictly positive grid")
    return _positive_candidates(model, _eigencurves(model), grid)


def _positive_candidates(model, curves, grid):
    """`positive_candidate_scan` over a sorted positive grid, on curves."""
    # a zero on the grid is a crossing as sampled; every sign change between
    # neighbours is refined, all of them in one elementwise search (read
    # from the signs: a product of two gaps over- or underflows)
    signs = np.sign([p.kappa - p.e for p in curves(grid)])
    cells = [(n, i) for n in range(1, model.n_levels + 1)
             for i in range(len(grid))
             if signs[i, n - 1] == 0.0
             or i + 1 < len(grid) and signs[i, n - 1] * signs[i + 1, n - 1] < 0.0]
    refine = [(n, i) for n, i in cells if signs[i, n - 1] != 0.0]
    branch, cell = np.array(refine, dtype=int).reshape(-1, 2).T
    found = _branch_roots(curves, branch, grid[cell], grid[cell + 1], np.inf,
                          1e-11 * _unit(model), xrtol=1e-11, what="positive crossing search")
    roots = dict(zip(refine, (x for x, _ in found)))
    out = []
    for n, i in cells:
        e_star = roots.get((n, i), float(grid[i]))
        c = curves([e_star])[0].vectors[:, n - 1]
        amp = sum(ci * complex(f.value(e_star)) for ci, f in zip(c, model.form_factors))
        out.append(PositiveCandidate(n, e_star, abs(amp)))
    return out
