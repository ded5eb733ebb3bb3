"""Brute-force check: diagonalize the model on a finite continuum grid.

The continuum is replaced by M quadrature nodes omega_j with weights w_j,
giving the (N + M) dimensional Hermitian matrix

    H = [ diag(omega_n)            lambda conj(v_n(omega_j)) sqrt(w_j) ]
        [ (adjoint)                diag(omega_j)                       ]

Eliminating the grid block at energy E reproduces exactly
diag(omega) - lambda^2 S_M(E) with S_M the quadrature approximation of the
Gram matrix, so the discrete negative spectrum converges to the true bound
states as the grid refines.  This module exists to cross-check the solver;
it is a test dependency, not part of the public computational path.

Nodes follow composite Gauss-Legendre panels on geometrically spaced edges
(dense near threshold, where the kernels vary fastest) plus an algebraic
tail beyond omega_max.  When all form factors share a global phase times a
sign, the coupling block is built real; the discrete spectrum is unchanged
and the level-block eigenvectors stay directly comparable to the solver's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .solver import solve_model

__all__ = ["GridSpec", "DiscretizedHamiltonian", "ConvergenceRow",
           "ConvergenceTable", "discretize", "compare_negative_spectrum"]

# eigenvalues at or above -_GAP_TOL count as continuum, not bound states
_GAP_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    m_requested: int
    m_actual: int
    omega_max: float
    rule: str
    n_tail: int


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """The assembled (N + M) x (N + M) matrix with its grid."""

    h: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    n_levels: int
    spec: GridSpec

    @property
    def dimension(self) -> int:
        return self.h.shape[0]

    def negative_eigenvalues(self) -> np.ndarray:
        """Eigenvalues below -_GAP_TOL, ascending."""
        return scipy.linalg.eigh(self.h, eigvals_only=True,
                                 subset_by_value=(-np.inf, -_GAP_TOL))

    def negative_eigensystem(self):
        """Eigenpairs below -_GAP_TOL; returns (values, level-block vectors).

        The level-block columns are renormalized to unit length so they can
        be compared directly with solver amplitudes.
        """
        vals, vecs = scipy.linalg.eigh(self.h,
                                       subset_by_value=(-np.inf, -_GAP_TOL))
        blocks = vecs[:self.n_levels, :]
        norms = np.linalg.norm(blocks, axis=0)
        norms[norms == 0.0] = 1.0
        return vals, blocks / norms


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


def from_arrays(levels, coupling, factor_values, nodes, weights) -> DiscretizedHamiltonian:
    """Assemble a discretized Hamiltonian from explicit grid data.

    factor_values[n, j] holds v_n(omega_j).  Intended for hand-built checks;
    `discretize` is the production constructor.
    """
    levels = np.asarray(levels, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    vals = np.asarray(factor_values)
    n, m = vals.shape
    coupling_block = coupling * np.conj(vals) * np.sqrt(weights)[None, :]
    real = np.isrealobj(coupling_block) or np.allclose(coupling_block.imag, 0.0)
    dtype = float if real else complex
    h = np.zeros((n + m, n + m), dtype=dtype)
    h[:n, :n] = np.diag(levels)
    h[n:, n:] = np.diag(nodes)
    h[:n, n:] = coupling_block.real if dtype is float else coupling_block
    h[n:, :n] = h[:n, n:].conj().T
    spec = GridSpec(m, m, float(nodes[-1]) if m else 0.0, "explicit", 0)
    return DiscretizedHamiltonian(h, nodes, weights, n, spec)


def discretize(model, m: int) -> DiscretizedHamiltonian:
    """Discretize the continuum with about m nodes.

    Composite Gauss-Legendre panels cover [0, omega_max] on geometric edges,
    with omega_max 20 times the widest form factor, plus a mapped tail
    omega = omega_max + t/(1-t) carrying a small share of the nodes.  The
    actual node count lands within a few percent of m.
    """
    if m < 10:
        raise ValueError("need at least 10 grid points")
    omega_max = 20.0 * model.max_scale()

    positive = [abs(w) for w in model.levels if w != 0.0]
    s_ref = min([f.scale for f in model.form_factors] + positive + [omega_max])

    n_tail = max(8, m // 50)
    m_main = m - n_tail
    degree = 12
    n_panels = max(2, m_main // degree)
    edges = np.concatenate(([0.0],
                            np.geomspace(1e-7 * s_ref, omega_max, n_panels)))
    base_x, base_w = np.polynomial.legendre.leggauss(degree)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * base_x)
        weights.append(half * base_w)

    tx, tw = np.polynomial.legendre.leggauss(n_tail)
    t = 0.5 + 0.5 * tx
    jac = 1.0 / (1.0 - t) ** 2
    nodes.append(omega_max + t / (1.0 - t))
    weights.append(0.5 * tw * jac)

    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    order = np.argsort(nodes)
    nodes, weights = nodes[order], weights[order]

    n = model.n_levels
    block = _coupling_block(model, nodes, weights)
    dtype = float if np.isrealobj(block) else complex
    dim = n + nodes.size
    h = np.zeros((dim, dim), dtype=dtype)
    h[:n, :n] = np.diag(model.level_array())
    h[n:, n:] = np.diag(nodes)
    h[:n, n:] = block
    h[n:, :n] = block.conj().T if dtype is complex else block.T
    spec = GridSpec(m, int(nodes.size), omega_max, "gauss-legendre", int(n_tail))
    return DiscretizedHamiltonian(h, nodes, weights, n, spec)


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
    report = solve_model(model)
    solver_e = tuple(s.energy for s in report.states)
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
            # factor-2 slack plus an absolute floor so eigh noise near
            # convergence does not raise the flag
            if any(d > 2.0 * p + 1e-11 for d, p in zip(deltas, prev)):
                non_cauchy = True
        if deltas:
            prev = deltas
        rows.append(ConvergenceRow(int(m), count, tuple(float(v) for v in vals),
                                   deltas))
    return ConvergenceTable(tuple(rows), report.count, solver_e, non_cauchy)
