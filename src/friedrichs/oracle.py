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
bound states as the grid refines, and it comes from a count and a root
search on K_M at O(N^2 M) per energy; the level block of
each eigenvector of H is the kernel vector of K_M(E) - E at its root.  The
dense H is built only on request.  This brute-force model is an independent
check of the solver: `oracle-check` and the acceptance gate compare the two.

Nodes follow composite Gauss-Legendre panels on geometrically spaced edges
(dense near threshold, where the kernels vary fastest) and on every
form-factor breakpoint, plus an algebraic tail beyond omega_max.  The
panels come from the kernels' own routine `quad._panel_nodes` and both rules
from its cache `quad._gauss_legendre`, so a schedule of grids builds each
rule once.  A grid searched alone never runs the solver: each branch is
one row of the solver's `_branch_roots` search from the generic
[seed, -gap], and the grid keeps what it found, so it searches once however
often it is asked.  `compare_negative_spectrum` runs the solver's count
and branch search, as in `solve_model`, and hands its roots r_n to the
schedule's one search (`_search`) on one eigencurve family keyed by
(grid, E), which builds the new K_M(E) of a grid as one broadcast stack and
diagonalizes those of all grids in one stacked eigh.  Each grid's first
stack is its count point -gap and the solver's roots below it; from r_n,
branch n takes one Newton step on kappa_n - E, and the steps of all grids
are one second stack.  For E < 0 every kappa_n is nonincreasing, so
kappa_n - E falls with slope at most -1 and |E - E*| <= |kappa_n(E) - E|:
a step where that is within the roots' stop is the grid's root, and any
other counted branch (a step not taken, a branch the solver does not
count) falls back to a row of the search from [seed, -gap].  Sharing
changes no bit: each grid finds what it finds searched alone from the
same roots, and each root's point gives its level block.
Eigenvalues at or above -gap count as continuum.  The gap, 1e-8 times the
narrowest width, and the roots' stop, 1e-12 times it + 4 eps |E|, come
with each grid from `solver._tolerances`, which also gives the
non-Cauchy floor.
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
from .solver import _branch_roots, _count_and_roots, _seed, _tolerances
from .spectral import _EigenCurves, _eigencurves

__all__ = ["DiscretizedHamiltonian", "ConvergenceRow", "ConvergenceTable",
           "discretize", "compare_negative_spectrum"]


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """The (N + M) dimensional arrowhead Hamiltonian, kept as its parts:
    the levels, the coupling block b (N x M) and the grid.  Its eigenvalues
    at or above -gap count as continuum, and its roots' stop is (xatol,
    xrtol); `discretize` sets both from `solver._tolerances` (a gap of 1e-8
    and a stop of 1e-12 + 4 eps |E|, times the narrowest width, which the
    defaults take as 1).  The grid knows nothing of the solver: searched
    alone it starts every branch from [seed, -gap], and only a schedule
    hands it the solver's roots."""

    levels: np.ndarray
    b: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    gap: float = 1e-8
    _stop: tuple = field(default=(1e-12, 4.0 * np.finfo(float).eps), kw_only=True)
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
    eigencurve points of K_M(E) there, on one eigencurve family keyed by
    (grid, E).

    Each grid's first stack holds its count point -gap and every solver
    root r_n below it.  From r_n, branch n takes one Newton step,
    E_1 = r_n + g_n(r_n) / slope with g_n = kappa_n - E and slope =
    1 + sum_j (|y_j| / (omega_j - r_n))^2, y = b^dagger c, c the branch's
    eigenvector at r_n: -slope is g_n's derivative there.  The steps of
    every grid below -gap are one second stack.  Since kappa_n is
    nonincreasing, g_n has slope at most -1 and |E - E*| <= |g_n(E)|, so
    E_1 is taken as the root where |g_n(E_1)| is within the grid's roots'
    stop, xatol + xrtol |E_1|.  Every other counted branch (a step not
    taken, a branch the solver does not count, a grid searched alone) is
    one row of a `_branch_roots` search from [seed, -gap] to the same
    stop."""
    curves = _EigenCurves(lambda es, i: grids[i]._k(es))
    tops = [-g.gap for g in grids]
    # by inertia, kappa_n(-g) < -g counts the eigenvalues of h below -g;
    # the solver's roots below it, r_1 <= r_2 <= ..., join its stack
    below = [next((n for n, r in enumerate(solver) if not r < top), len(solver)) for top in tops]
    stacks = [[top, *solver[:k]] for top, k in zip(tops, below)]
    curves([e for es in stacks for e in es], [i for i, es in enumerate(stacks) for _ in es])
    counts, steps = [], {}
    for i, (grid, stack) in enumerate(zip(grids, stacks)):
        top, *at = curves(stack, [i] * len(stack))
        count = int(np.count_nonzero(top.kappa < top.e))
        counts.append(count)
        at = at[:count]
        if at:
            r = np.array([p.e for p in at])
            c = np.array([p.vectors[:, n] for n, p in enumerate(at)]).T
            g = np.array([p.kappa[n] for n, p in enumerate(at)]) - r
            # the quotient first: (omega_j - r)^2 alone can overflow
            y = np.abs(grid._b_dagger @ c) / (grid.nodes[:, None] - r)
            e1 = r + g / (1.0 + np.sum(y * y, axis=0))
            steps.update(((i, n), e) for n, e in enumerate(e1.tolist(), 1) if e < top.e)
    roots = {}
    for (i, n), p in zip(steps, curves(list(steps.values()), [i for i, _ in steps])):
        xatol, xrtol = grids[i]._stop
        if abs(p.kappa[n - 1] - p.e) <= xatol + xrtol * abs(p.e):
            roots[i, n] = p.e
    rows = []
    for i, (grid, count) in enumerate(zip(grids, counts)):
        missing = [n for n in range(1, count + 1) if (i, n) not in roots]
        if missing:
            seed = _seed(grid.levels, float(np.sum(np.abs(grid.b) ** 2)))
            rows += [(n, i, seed, tops[i], *grid._stop) for n in missing]
    if rows:
        branch, member, lo, hi, xatol, xrtol = zip(*rows)
        searched = _branch_roots(curves, branch, lo, hi, hi, xatol, xrtol, member)
        roots.update(((i, n), e) for (n, i, *_), (e, _) in zip(rows, searched))
    found = []
    for i, count in enumerate(counts):
        vals = [roots[i, n] for n in range(1, count + 1)]
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
    tol = _tolerances(model)
    return DiscretizedHamiltonian(model.level_array(),
                                  _coupling_block(model, nodes, weights),
                                  nodes, weights, tol.gap, _stop=tol.root_stop)


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
    search for every grid (`_search`): one Newton step from the solver's
    root on each branch, taken where it lands within the roots' stop of
    the grid's own root, and a search from [seed, -gap] on every other
    branch.  Each grid's root is its own, so a converged grid's delta reads
    the solver's own error, within its stop of `solver._tolerances`, 1e-12
    times the narrowest width plus 4 eps |E|.
    """
    ms = list(m_schedule)
    grids = [discretize(model, m) for m in ms]
    counted, roots = _count_and_roots(model, _eigencurves(model))
    solver_e = [e for e, _ in roots]
    _Schedule(grids, solver_e)  # seeds the grids' one shared search
    spectra = [grid.negative_eigenvalues() for grid in grids]
    # factor-2 slack plus a floor, so that root-search noise near
    # convergence does not raise the flag: the floor of `_tolerances`, 1e-11
    # times the narrowest width, plus both roots' relative stops, 4 eps |E|
    # each, since a deep root's delta can read one ulp of E
    tol = _tolerances(model)
    floors = [tol.floor + 2.0 * tol.root_stop[1] * abs(e) for e in solver_e]
    rows, prev, non_cauchy = [], (), False
    for m, vals in zip(ms, spectra):
        count = int(vals.size)
        deltas = (tuple(abs(float(v) - e) for v, e in zip(vals, solver_e))
                  if count == len(solver_e) else ())
        if deltas:
            # against the last row whose count agreed, if there is one
            non_cauchy |= any(d > 2.0 * p + f for d, p, f in zip(deltas, prev, floors))
            prev = deltas
        rows.append(ConvergenceRow(int(m), count, tuple(float(v) for v in vals), deltas))
    return ConvergenceTable(tuple(rows), counted.count, tuple(solver_e), non_cauchy)
