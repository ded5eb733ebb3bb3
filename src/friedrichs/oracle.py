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
rule once.  The search runs on one eigencurve family of K_M(E), which
builds and diagonalizes each energy once per grid: the count's point at -g
is the search's upper bracket end, and each root's point gives its level
block.  When all form factors share a global phase times a sign, B is built
real; the discrete spectrum is unchanged and the level-block eigenvectors
stay directly comparable to the solver's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quad import _gauss_legendre, _panel_nodes
from .solver import _branch_roots, _count_and_roots, _seed
from .spectral import _EigenCurves

__all__ = ["DiscretizedHamiltonian", "ConvergenceRow", "ConvergenceTable",
           "discretize", "compare_negative_spectrum"]

# eigenvalues at or above -_GAP_TOL count as continuum, not bound states
_GAP_TOL = 1e-8


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """The (N + M) dimensional arrowhead Hamiltonian, kept as its parts:
    the levels, the coupling block b (N x M) and the grid."""

    levels: np.ndarray
    b: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

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

    def _k(self, e):
        """K_M(E) = diag(omega) - b diag(1/(omega_j - E)) b^dagger."""
        return np.diag(self.levels) - (self.b / (self.nodes - e)) @ self._b_dagger

    def _roots(self):
        """The eigenvalues of h below -_GAP_TOL, ascending, and the
        eigencurve family of K_M(E) they were found on."""
        curves = _EigenCurves(lambda es: np.array([self._k(e) for e in es]))
        # by inertia, kappa_n(-g) < -g counts the eigenvalues of h below -g;
        # that point is also the search's upper bracket end
        (top,) = curves([-_GAP_TOL])
        count = int(np.count_nonzero(top.kappa < -_GAP_TOL))
        e_lo = _seed(self.levels, float(np.sum(np.abs(self.b) ** 2)))
        return [e for e, _ in _branch_roots(curves, count, e_lo, -_GAP_TOL)], curves

    def negative_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of h below -_GAP_TOL, ascending."""
        return np.array(self._roots()[0])

    def negative_eigensystem(self):
        """Eigenpairs of h below -_GAP_TOL: (values, level blocks), the
        blocks normalized to unit columns like solver amplitudes."""
        vals, curves = self._roots()
        blocks = [p.vectors[:, i] for i, p in enumerate(curves(vals))]
        return np.array(vals), np.array(blocks).reshape(len(vals), self.levels.size).T


def _coupling_block(model, nodes, weights):
    """lambda * conj(v_n(omega_j)) * sqrt(w_j), real-gauged when possible."""
    sw = np.sqrt(weights)
    phases = [f.common_phase for f in model.form_factors]
    if all(p is not None for p in phases):
        base = phases[0]
        sigma = np.array([p / base for p in phases])
        if np.allclose(sigma.imag, 0.0, atol=1e-12):
            rows = [model.coupling * s.real * (f.value(nodes) / f.common_phase).real * sw
                    for s, f in zip(sigma, model.form_factors)]
            return np.array(rows)
    rows = [model.coupling * np.conj(f.value(nodes)) * sw
            for f in model.form_factors]
    return np.array(rows)


def discretize(model, m: int) -> DiscretizedHamiltonian:
    """Discretize the continuum with about m nodes.

    Composite Gauss-Legendre panels cover [0, omega_max] on geometric edges,
    with omega_max 20 times the widest form factor, plus a mapped tail
    omega = omega_max + t/(1-t) carrying a small share of the nodes.  Every
    form-factor breakpoint inside (0, omega_max) is one more edge, taken out
    of the geometric budget, so the node count lands within a few percent of
    m unless the breakpoints outnumber m / 12.  Nodes come out ascending.
    """
    if m < 10:
        raise ValueError("need at least 10 grid points")
    omega_max = 20.0 * model.max_scale()

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
    nodes = np.concatenate((panel_x.ravel(), omega_max + t / (1.0 - t)))
    weights = np.concatenate((panel_w.ravel(), 0.5 * tw * jac))
    return DiscretizedHamiltonian(model.level_array(),
                                  _coupling_block(model, nodes, weights),
                                  nodes, weights)


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
    refinement study should shrink monotonically.
    """
    counted, roots, _ = _count_and_roots(model)
    solver_e = tuple(e for e, _ in roots)
    rows = []
    prev = None
    non_cauchy = False
    for m in m_schedule:
        vals = discretize(model, int(m)).negative_eigenvalues()
        count = int(vals.size)
        if count == len(solver_e):
            deltas = tuple(abs(float(v) - e) for v, e in zip(vals, solver_e))
        else:
            deltas = ()
        if prev and deltas and len(prev) == len(deltas):
            # factor-2 slack plus an absolute floor so root-search noise
            # (1e-12 brackets) near convergence does not raise the flag
            if any(d > 2.0 * p + 1e-11 for d, p in zip(deltas, prev)):
                non_cauchy = True
        if deltas:
            prev = deltas
        rows.append(ConvergenceRow(int(m), count, tuple(float(v) for v in vals),
                                   deltas))
    return ConvergenceTable(tuple(rows), counted.count, solver_e, non_cauchy)
