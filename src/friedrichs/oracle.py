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
rule once.  A grid searched alone never runs the solver: each branch starts
from the generic [seed, -gap], and the grid keeps what it found, so it
searches once however often it is asked.  `compare_negative_spectrum`
runs the solver's count and branch search, as in `solve_model`, and hands
its roots r_n to the schedule's one search, the solver's `_branch_roots`
with one row per (grid, branch) pair, on one eigencurve family keyed by
(grid, E), which builds each step's new K_M(E) of a grid as one broadcast
stack and diagonalizes those of all grids in one stacked eigh.  Branch n
of a grid starts from [r_n - d_n, min(r_n + d_n / 2, -gap)], d_n = 2^-20
|r_n| + 2^10 times the roots' stop, where kappa_n - E changes sign
strictly across it, and from [seed, -gap] otherwise: a coarse grid's root
outside the seeded bracket, or a branch the solver does not count.
Sharing changes no bit: each grid finds what it finds searched alone from
the same roots.  The grid's count point at -gap and its seeded ends come
from one build; the count's point is the generic upper end, and each
root's point gives its level block.
Eigenvalues at or above -gap count as continuum; gap is 1e-8 times the
model's scale (`solver._unit`), as is 1e4 times the roots' tolerance.
When every form factor's phase is the first one's times exactly +1 or -1,
B is built real (for one model, on every grid); the discrete spectrum is
unchanged and the level-block eigenvectors stay directly comparable to the
solver's.  Any other ratio, however close to real, keeps B complex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError, _require_reach
from .quad import _gauss_legendre, _panel_nodes
from .solver import _ROOT_TOL, _branch_roots, _count_and_roots, _seed, _unit
from .spectral import _EigenCurves, _eigencurves

__all__ = ["DiscretizedHamiltonian", "ConvergenceRow", "ConvergenceTable",
           "discretize", "compare_negative_spectrum"]

# eigenvalues at or above -_GAP_RTOL times the model's scale count as
# continuum, not bound states
_GAP_RTOL = 1e-8
# branch n of a grid first tries [r_n - d_n, min(r_n + d_n / 2, -gap)]
# around the solver's root r_n, d_n = _SEED_RTOL |r_n| + _SEED_ATOL times
# the roots' stop, 1e-12 times the model's scale
_SEED_RTOL, _SEED_ATOL = 2.0 ** -20, 2.0 ** 10


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """The (N + M) dimensional arrowhead Hamiltonian, kept as its parts:
    the levels, the coupling block b (N x M) and the grid.  Its eigenvalues
    at or above -gap count as continuum; `discretize` sets gap to 1e-8
    times the model's scale (`solver._unit`).  The grid knows nothing of
    the solver: searched alone it starts every branch from [seed, -gap],
    and only a schedule hands it the solver's roots."""

    levels: np.ndarray
    b: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    gap: float = _GAP_RTOL
    # the root search this grid shares with the grids of its schedule
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

    @functools.cached_property
    def _roots(self):
        """The eigenvalues of h below -gap, ascending, and the eigencurve
        points of K_M(E) there, searched once per grid: its share of its
        schedule's search, or a search of its own from [seed, -gap]."""
        if self._schedule is not None:
            return self._schedule.take(self)
        return _search((self,), [])[0]

    def negative_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of h below -gap, ascending."""
        return np.array(self._roots[0])

    def negative_eigensystem(self):
        """Eigenpairs of h below -gap: (values, level blocks), the blocks
        normalized to unit columns like solver amplitudes."""
        vals, points = self._roots
        blocks = [p.vectors[:, i] for i, p in enumerate(points)]
        return np.array(vals), np.array(blocks).reshape(len(vals), self.levels.size).T


class _Schedule:
    """The grids of one schedule and the solver's roots that seed their one
    shared search (`_search`), which the first grid to ask runs for all."""

    def __init__(self, grids, solver):
        self._grids, self._solver, self._found = tuple(grids), solver, None
        for grid in self._grids:
            object.__setattr__(grid, "_schedule", self)  # a frozen dataclass

    def take(self, grid):
        if self._found is None:
            self._found = dict(zip(map(id, self._grids), _search(self._grids, self._solver)))
            self._grids = ()
        return self._found[id(grid)]


def _search(grids, solver):
    """(roots, points) of every grid: its eigenvalues below -gap and the
    eigencurve points of K_M(E) there.

    One `_branch_roots` call searches every (grid, branch) pair on one
    eigencurve family keyed by (grid, E): each grid's count appends its
    rows, each row its branch, grid, bracket, the grid's top -gap and its
    stop, 1e-12 times the model's scale.  Branch n of a grid searches
    [r_n - d_n, min(r_n + d_n / 2, -gap)] around the solver's root r_n
    where kappa_n - E changes sign strictly across it, and [seed, -gap]
    otherwise.  The seeded bracket is asymmetric because the search's first
    step bisects it: on a symmetric one that step lands on r_n, and the
    search stops there."""
    found = []
    curves = _EigenCurves(lambda es, i: grids[i]._k(es))
    tops, units = [-g.gap for g in grids], [g.gap / _GAP_RTOL for g in grids]
    # by inertia, kappa_n(-g) < -g counts the eigenvalues of h below -g:
    # that point is the generic upper end, built in one stack with the
    # seeded ends
    stacks = [[top, *(e for r in solver
                      for d in [_SEED_RTOL * abs(r) + _SEED_ATOL * _ROOT_TOL * unit]
                      for e in (r - d, min(r + 0.5 * d, top)))]
              for top, unit in zip(tops, units)]
    curves([e for es in stacks for e in es], [i for i, es in enumerate(stacks) for _ in es])
    counts, rows = [], []
    for i, (grid, stack) in enumerate(zip(grids, stacks)):
        top, *ends = curves(stack, [i] * len(stack))
        count = int(np.count_nonzero(top.kappa < top.e))
        brackets = [(a.e, b.e) if a.kappa[n] - a.e > 0.0 > b.kappa[n] - b.e else None
                    for n, (a, b) in enumerate(zip(ends[:2 * count:2], ends[1:2 * count:2]))]
        brackets += [None] * (count - len(brackets))
        if None in brackets:
            seed = _seed(grid.levels, float(np.sum(np.abs(grid.b) ** 2)))
            brackets = [b or (seed, top.e) for b in brackets]
        counts.append(count)
        rows += [(n, i, lo, hi, top.e, _ROOT_TOL * (grid.gap / _GAP_RTOL))
                 for n, (lo, hi) in enumerate(brackets, 1)]
    branch, member, lo, hi, top, xatol = zip(*rows) if rows else [()] * 6
    roots = iter(e for e, _ in _branch_roots(curves, branch, lo, hi, top, xatol, member))
    for i, count in enumerate(counts):
        vals = [next(roots) for _ in range(count)]
        found.append((vals, curves(vals, [i] * count)))
    return found


def _coupling_block(model, nodes, weights):
    """lambda * conj(v_n(omega_j)) * sqrt(w_j), real-gauged when every
    factor's phase is the first one's times an exactly real sigma."""
    sw = np.sqrt(weights)
    phases = [f.common_phase for f in model.form_factors]
    if all(p is not None for p in phases):
        base = phases[0]
        sigma = np.array([p / base for p in phases])
        if not sigma.imag.any():
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
    m must be a whole number (an integral float will do) of at least 10;
    anything else raises a ConfigError.
    """
    if not (np.isfinite(m) and m == int(m) >= 10):
        raise ConfigError(f"the grid needs a whole number of at least 10 points, not {m!r}")
    m = int(m)
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
    refinement study should shrink monotonically.  After building the
    grids, it runs the solver's count and branch roots, as in
    `solve_model`; the first grid's `negative_eigenvalues` then runs one
    search over every (grid, branch) pair, each from a bracket a few steps
    wide around the solver's root on its branch, or from [seed, -gap] where
    the root lies outside it or the solver has no root on that branch.
    Each search stops on its own root, so a converged grid's delta reads
    the solver's own error, within its stop of 1e-12 times the model's
    scale.
    """
    ms = list(m_schedule)
    grids = [discretize(model, m) for m in ms]
    counted, roots = _count_and_roots(model, _eigencurves(model))
    solver_e = [e for e, _ in roots]
    _Schedule(grids, solver_e)  # seeds the grids' one shared search
    spectra = [grid.negative_eigenvalues() for grid in grids]
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
        rows.append(ConvergenceRow(int(m), count, tuple(float(v) for v in vals),
                                   deltas))
    return ConvergenceTable(tuple(rows), counted.count, tuple(solver_e), non_cauchy)
