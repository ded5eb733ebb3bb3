"""Eigencurves of the level-space operator family K(E).

For each probe energy E the continuum is folded into the N x N Hermitian
matrix

    K(E) = diag(omega_1..omega_N) - lambda^2 * S(E)    (E <= 0)
    K(E) = diag(omega_1..omega_N) - lambda^2 * D(E)    (E > 0)

whose sorted eigenvalues kappa_1(E) <= ... <= kappa_N(E) are the eigencurves:
the sign of E alone picks the matrix, and D(0) = S(0) joins the two.
Below threshold the curves are nonincreasing in E and bounded above by the
bare levels, which is what makes bound-state counting a matter of reading
signs at E = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quad import LevelShiftMatrix, _check_finite, gram_matrix, pv_matrix

__all__ = ["EigenCurvePoint", "LevelShiftMatrix", "k_matrix", "eigh", "kappa_curve"]

_HUGE = np.finfo(float).max


@dataclass(frozen=True)
class EigenCurvePoint:
    """Eigendecomposition of K at one probe energy.

    kappa is ascending; vectors holds the matching orthonormal eigenvectors
    as columns, vectors[:, i] belonging to kappa[i].
    """

    e: float
    kappa: np.ndarray
    vectors: np.ndarray


def k_matrix(model, shift: LevelShiftMatrix, *, lam2=None) -> np.ndarray:
    """diag(levels) - lambda^2 * shift, a complex Hermitian array or stack.

    lam2, a list of lambda^2 values, replaces the model's lambda^2: it
    scales one shift matrix into a stack of K, one per value.  Raises
    NumericalError, naming the first energy, when an entry is not finite
    (an overflowing shift).
    """
    if shift.n != model.n_levels:
        raise ValueError("shift matrix size does not match the model")
    entries = shift.entries
    if lam2 is None:
        lam2 = top = model.coupling ** 2
    else:
        top, lam2 = max(lam2, default=0.0), np.reshape(lam2, (-1, 1, 1))
    # |omega_n| + lambda^2 max |S_ij| bounds every entry: below the largest
    # double, nothing overflows, so neither numpy's error state nor a check
    # of the result is needed (a NaN fails the test)
    size = float(np.max(np.abs(entries), initial=0.0))
    if max(-model.levels[0], model.levels[-1]) + top * size < _HUGE:
        return model._level_diag - lam2 * entries
    with np.errstate(over="ignore", invalid="ignore"):
        k = model._level_diag - lam2 * entries
    _check_finite(k, np.broadcast_to(shift.e, k.shape[:-2]), "K(E)")
    return k


def eigh(k: np.ndarray, e: float = float("nan")) -> EigenCurvePoint:
    """Sorted eigendecomposition of a Hermitian matrix as an EigenCurvePoint."""
    kappa, vectors = np.linalg.eigh(k)
    return EigenCurvePoint(float(e), kappa, vectors)


def kappa_curve(model, e_grid):
    """Eigencurve points along an energy grid, K(E) from S(E) at E <= 0 and
    D(E) at E > 0, built as one stack and diagonalized in one call."""
    return _eigencurves(model)(np.atleast_1d(np.asarray(e_grid, dtype=float)))


def _eigencurves(model, points=()):
    """The eigencurve family of K(E) (`_EigenCurves`), from the points on."""
    return _EigenCurves(functools.partial(_k_stack, model), points)


def _k_stack(model, e):
    """K(E) at each energy of the array e, as one complex stack: S(E) at
    E <= 0 and D(E) at E > 0, each side of E = 0 built as one stack."""
    below = e <= 0.0
    if below.all() or not below.any():
        return k_matrix(model, (gram_matrix if below.all() else pv_matrix)(model, e))
    k = np.empty(e.shape + (model.n_levels,) * 2, dtype=complex)
    for part, shift in ((below, gram_matrix), (~below, pv_matrix)):
        k[part] = k_matrix(model, shift(model, e[part]))
    return k


class _EigenCurves:
    """A family K(E) of Hermitian matrices, remembered as one EigenCurvePoint
    per energy: each call builds the energies not seen before as one stack,
    build(array of energies), and diagonalizes it with one stacked eigh,
    which gives every point bit for bit as one energy alone.

    A family of several members (the grids of one oracle schedule) is
    keyed by (member, E) instead: a call names the member of each energy,
    each member's new energies are built as one stack, build(energies,
    member), and the stacks of all members are diagonalized with one
    stacked eigh.  The members share one dtype (the grids of one model are
    all real-gauged or all complex), so each keeps the LAPACK path and bits
    it has alone.
    """

    def __init__(self, build, points=()):
        self._build, self._points = build, {p.e: p for p in points}

    def __call__(self, energies, members=None) -> list:
        """The points at the energies, flattened, in their order (of member
        members[i] at energies[i] on a family of several members)."""
        es = np.ravel(energies).tolist()
        keys = es if members is None else list(zip(np.ravel(members).tolist(), es))
        new = list(dict.fromkeys(k for k in keys if k not in self._points))
        if new and members is None:
            self._add(new, new, self._build(np.array(new)))
        elif new:
            by_member = {}
            for key in new:
                by_member.setdefault(key[0], []).append(key)
            part = [key for ks in by_member.values() for key in ks]
            self._add(part, [e for _, e in part], np.concatenate(
                [self._build(np.array([e for _, e in ks]), member)
                 for member, ks in by_member.items()]))
        return [self._points[k] for k in keys]

    def _add(self, keys, energies, k):
        """Remember the points of the stack k, diagonalized in one eigh."""
        kappa, vectors = np.linalg.eigh(k)
        self._points.update((key, EigenCurvePoint(e, a, v))
                            for key, e, a, v in zip(keys, energies, kappa, vectors))
