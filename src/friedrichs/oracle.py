"""Brute-force check: the model on a finite continuum grid.

M quadrature nodes omega_j with weights w_j replace the continuum, giving
the (N + M) dimensional Hermitian arrowhead matrix

    H = [ diag(omega_n)   B             ]    B_nj = lambda conj(v_n(omega_j))
        [ B^dagger        diag(omega_j) ]           * sqrt(w_j)

For E < 0 the grid block minus E is positive definite, so by Haynsworth
inertia additivity H has as many eigenvalues below E as the Schur
complement K_M(E) - E has negative ones.  K_M(E) = diag(omega_n) -
B diag(1/(omega_j - E)) B^dagger is the solver's K(E) with the Gram matrix
replaced by its node sum, so the discrete negative spectrum converges to the
bound states as the grid refines, and it comes from the solver's own count
and branch-root search on K_M at O(N^2 M) per energy; the level block of
each eigenvector of H is the kernel vector of K_M(E) - E at its root.  The
dense H is built only on request.  This brute-force model is an independent
check of the solver: `oracle-check` and the acceptance gate compare the two.

Nodes follow composite Gauss-Legendre panels on geometrically spaced edges
(dense near threshold, where the kernels vary fastest) and on every
form-factor breakpoint, plus an algebraic tail beyond omega_max.  The
panels come from the kernels' own routine `quad._panel_nodes` and both rules
from its cache `quad._gauss_legendre`, so a schedule of grids builds each
rule once.  The solver's S(E) is member 0 of the schedule's one search, the
solver's, over every (member, branch) pair on one eigencurve family keyed
by (member, E): each step builds the new S(E) as one stack and every new
K_M(E) of a grid as one broadcast stack, and diagonalizes the S(E) and the
K_M(E) of all grids in one stacked eigh each, so the solver's roots and
each grid's are bit for bit their own searches'; each member keeps its own
tolerance.  The solver's count at 0, the grids' counts at -gap and every
member's lower bracket end come from one build; the counts' points are the
search's upper bracket ends, and each root's point gives its level block.
Eigenvalues at or above -gap count as continuum; gap is 1e-8 times the
model's scale (`solver._unit`), as is 1e4 times the roots' tolerance.
When all form factors share a global phase times a sign, B is built real
(for one model, on every grid); the discrete spectrum is unchanged and the
level-block eigenvectors stay directly comparable to the solver's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .model import _require_reach
from .quad import _gauss_legendre, _panel_nodes
from .solver import CountResult, _branch_roots, _model_seed, _seed, _unit
from .spectral import _EigenCurves, _k_stack

__all__ = ["DiscretizedHamiltonian", "ConvergenceRow", "ConvergenceTable",
           "discretize", "compare_negative_spectrum"]

# eigenvalues at or above -_GAP_RTOL times the model's scale count as
# continuum, not bound states
_GAP_RTOL = 1e-8


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """The (N + M) dimensional arrowhead Hamiltonian, kept as its parts:
    the levels, the coupling block b (N x M) and the grid.  Its eigenvalues
    at or above -gap count as continuum; `discretize` sets gap to 1e-8
    times the model's scale (`solver._unit`)."""

    levels: np.ndarray
    b: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    gap: float = _GAP_RTOL
    # the root search this grid shares with its schedule, until it reads it
    _schedule: "_Schedule" = field(default=None, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.levels.size + self.nodes.size

    @property
    def h(self) -> np.ndarray:
        """The dense matrix, assembled on each access (for tests and tracing)."""
        return np.block([[np.diag(self.levels), self.b],
                         [self._b_dagger, np.diag(self.nodes)]])

    @functools.cached_property
    def _b_dagger(self):
        """b^dagger, conjugated once per grid."""
        return self.b.conj().T

    @functools.cached_property
    def _level_diag(self):
        """diag(omega), built once per grid."""
        return np.diag(self.levels)

    def _k(self, e):
        """K_M(E) = diag(omega) - b diag(1/(omega_j - E)) b^dagger at each
        energy of the array e, as one stack."""
        return self._level_diag - (self.b / (self.nodes - e[:, None, None])) @ self._b_dagger

    def _roots(self):
        """The eigenvalues of h below -gap, ascending, and the eigencurve
        points of K_M(E) there: this grid's share of its schedule's search,
        or of a search of its own."""
        return (self._schedule or _Schedule((self,))).take(self)

    def negative_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of h below -gap, ascending."""
        return np.array(self._roots()[0])

    def negative_eigensystem(self):
        """Eigenpairs of h below -gap: (values, level blocks), the blocks
        normalized to unit columns like solver amplitudes."""
        vals, points = self._roots()
        blocks = [p.vectors[:, i] for i, p in enumerate(points)]
        return np.array(vals), np.array(blocks).reshape(len(vals), self.levels.size).T


class _Schedule:
    """The grids of one schedule, and optionally their model, and their one
    root search.

    The first grid to ask runs the search for all of them; each grid then
    reads its own result once, and a grid that asks again is searched alone.
    With the model, the search also finds the solver's bound states, which
    `take()` without a grid reads.
    """

    def __init__(self, grids, model=None):
        self._grids, self._model, self._found = tuple(grids), model, None
        for grid in self._grids:
            object.__setattr__(grid, "_schedule", self)  # a frozen dataclass

    def take(self, grid=None):
        if self._found is None:
            keys = [None] * (self._model is not None) + [id(g) for g in self._grids]
            self._found = dict(zip(keys, _search(self._grids, self._model)))
            self._grids, self._model = (), None
        if grid is not None:
            object.__setattr__(grid, "_schedule", None)
        return self._found.pop(None if grid is None else id(grid))


def _search(grids, model=None):
    """(roots, points) of every grid: its eigenvalues below -gap and the
    eigencurve points of K_M(E) there, all from one root search over every
    (member, branch) pair on one eigencurve family keyed by (member, E).

    With the model, its S(E) is member 0 of the family, counted, bracketed
    and searched as by the solver, and the list starts with the solver's
    (CountResult, roots)."""
    solver = [] if model is None else [model]
    members, first = solver + list(grids), len(solver)

    def build(es, i):
        return _k_stack(model, es) if i < first else members[i]._k(es)

    curves, ids = _EigenCurves(build), np.arange(len(members))
    # the solver counts kappa_n(0) below its band and, by inertia,
    # kappa_n(-g) < -g counts the eigenvalues of h below -g: those points
    # are the search's upper bracket ends, built in one stack with the lower
    tops = [0.0 for _ in solver] + [-g.gap for g in grids]
    seeds = ([_model_seed(m) for m in solver]
             + [_seed(g.levels, float(np.sum(np.abs(g.b) ** 2))) for g in grids])
    units = ([_unit(m) for m in solver]
             + [min((g.gap for g in grids), default=0.0) / _GAP_RTOL] * len(grids))
    points = curves(tops + seeds, np.concatenate((ids, ids)))
    counted = [CountResult.from_kappa(p.kappa, u) for p, u in zip(points, units[:first])]
    counts = ([c.count for c in counted]
              + [int(np.count_nonzero(p.kappa < p.e)) for p in points[first:len(ids)]])
    roots = iter(e for e, _ in _branch_roots(curves, counts, units, seeds, tops))
    found = [(c, [next(roots) for _ in range(c.count)]) for c in counted]
    for i in ids[first:].tolist():
        vals = [next(roots) for _ in range(counts[i])]
        found.append((vals, curves(vals, [i] * counts[i])))
    return found


def _coupling_block(model, nodes, weights):
    """lambda * conj(v_n(omega_j)) * sqrt(w_j), real-gauged when possible."""
    sw = np.sqrt(weights)
    phases = [f.common_phase for f in model.form_factors]
    if all(p is not None for p in phases):
        base = phases[0]
        sigma = np.array([p / base for p in phases])
        if np.all(np.abs(sigma.imag) <= 1e-12):
            rows = [model.coupling * s.real * (f.value(nodes) / f.common_phase).real * sw
                    for s, f in zip(sigma, model.form_factors)]
            return np.array(rows)
    rows = [model.coupling * np.conj(f.value(nodes)) * sw
            for f in model.form_factors]
    return np.array(rows)


def discretize(model, m: int) -> DiscretizedHamiltonian:
    """Discretize the continuum with about m nodes.

    Composite Gauss-Legendre panels cover [0, omega_max] on geometric edges,
    with omega_max 20 times the widest form factor S, plus a mapped tail
    omega = omega_max + S t/(1-t) carrying a small share of the nodes.  Every
    form-factor breakpoint inside (0, omega_max) is one more edge, taken out
    of the geometric budget, so the node count lands within a few percent of
    m unless the breakpoints outnumber m / 12.  Nodes come out ascending.
    """
    if m < 10:
        raise ValueError("need at least 10 grid points")
    scale = model.max_scale()
    omega_max = 20.0 * scale

    positive = [abs(w) for w in model.levels if w != 0.0]
    s_ref = min([f.scale for f in model.form_factors] + positive + [omega_max])

    n_tail = max(8, m // 50)
    m_main = m - n_tail
    degree = 12
    kinks = [x for f in model.form_factors for x in f.breakpoints()
             if 0.0 < x < omega_max]
    n_panels = max(2, m_main // degree - len(set(kinks)))
    edges = np.unique(np.concatenate((
        [0.0], np.geomspace(1e-7 * s_ref, omega_max, n_panels), kinks)))
    _, panel_x, panel_w = _panel_nodes(edges, degree)

    tx, tw = _gauss_legendre(n_tail)
    t = 0.5 + 0.5 * tx
    jac = 1.0 / (1.0 - t) ** 2
    nodes = np.concatenate((panel_x.ravel(), omega_max + scale * t / (1.0 - t)))
    _require_reach(model.form_factors, float(nodes[-1]), f"the oracle's tail at m = {m}")
    weights = np.concatenate((panel_w.ravel(), 0.5 * tw * jac * scale))
    return DiscretizedHamiltonian(model.level_array(),
                                  _coupling_block(model, nodes, weights),
                                  nodes, weights, _GAP_RTOL * _unit(model))


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    count: int
    energies: tuple
    deltas: tuple


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    solver_count: int
    solver_energies: tuple
    non_cauchy: bool


def compare_negative_spectrum(model, m_schedule) -> ConvergenceTable:
    """Discrete negative spectra along a grid schedule, against the solver.

    Each row records the count, the energies, and (when the counts agree)
    the absolute deviations from the solver roots.  Branch-wise deviations
    that grow between consecutive grids raise the non_cauchy flag; a clean
    refinement study should shrink monotonically.  The solver's S(E) and
    the grids share one root search, which the first grid's
    `negative_eigenvalues` runs.
    """
    ms = [int(m) for m in m_schedule]
    grids = [discretize(model, m) for m in ms]
    schedule = _Schedule(grids, model)
    spectra = [grid.negative_eigenvalues() for grid in grids]
    counted, solver_e = schedule.take()
    floor = 1e-11 * _unit(model)
    rows = []
    prev = None
    non_cauchy = False
    for m, vals in zip(ms, spectra):
        count = int(vals.size)
        if count == len(solver_e):
            deltas = tuple(abs(float(v) - e) for v, e in zip(vals, solver_e))
        else:
            deltas = ()
        if prev and deltas and len(prev) == len(deltas):
            # factor-2 slack plus a floor on the model's scale so root-search
            # noise (1e-12 brackets) near convergence does not raise the flag
            if any(d > 2.0 * p + floor for d, p in zip(deltas, prev)):
                non_cauchy = True
        if deltas:
            prev = deltas
        rows.append(ConvergenceRow(m, count, tuple(float(v) for v in vals),
                                   deltas))
    return ConvergenceTable(tuple(rows), counted.count, tuple(solver_e), non_cauchy)
