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

k_matrix builds K from a public LevelShiftMatrix.  The model's eigencurve
family (`_eigencurves`), behind the solver's count and branch roots, the
crossing scan and compare_negative_spectrum's solver search, takes a
stack's S(E) and D(E) entries straight from the kernels' sums
(`quad._shift_stack`) into K and one stacked eigh: no LevelShiftMatrix and
no err, bit for bit the public matrices' K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quad import LevelShiftMatrix, _check_finite, _shift_stack

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
    k, finite = _k(model, shift.entries, lam2)
    if not finite:
        _check_finite(k, np.broadcast_to(shift.e, k.shape[:-2]), "K(E)")
    return k


def _k(model, entries, lam2=None):
    """(K, finite): diag(levels) - lambda^2 * entries (lam2 as in k_matrix),
    and whether every entry is known to be finite without a check."""
    if lam2 is None:
        lam2 = top = model.coupling ** 2
    else:
        top, lam2 = max(lam2, default=0.0), np.reshape(lam2, (-1, 1, 1))
    # |omega_n| + lambda^2 max |S_ij| bounds every entry: below the largest
    # double, nothing overflows, so neither numpy's error state nor a check
    # of the result is needed (a NaN fails the test)
    size = float(np.maximum.reduce(np.abs(entries), axis=None, initial=0.0))
    if max(-model.levels[0], model.levels[-1]) + top * size < _HUGE:
        return model._level_diag - lam2 * entries, True
    with np.errstate(over="ignore", invalid="ignore"):
        return model._level_diag - lam2 * entries, False


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
    """K(E) at each energy of the 1-d array e, as one complex stack, each
    bit for bit k_matrix of gram_matrix (E <= 0) or pv_matrix (E > 0) at E
    alone: the entries straight from the kernels' sums (`quad._shift_stack`,
    which checks the energies as those two do), with no LevelShiftMatrix
    and no err.  Its errors are those of S(E) and D(E) built apart, the
    side at or below 0 first: an overflowing K names its first energy
    there, else its first above 0, and an energy above 0 that fails its
    check is reported only once K at or below 0 has passed."""
    try:
        entries = _shift_stack(model, e)
    except ValueError:
        below = e <= 0.0
        if 0 < np.count_nonzero(below) < e.size:
            _k_stack(model, e[below])
        raise
    k, finite = _k(model, entries)
    if not finite:
        below = e <= 0.0
        for part in (below, ~below):
            _check_finite(k[part], e[part], "K(E)")
    return k


class _EigenCurves:
    """A family K(E) of Hermitian matrices, remembered as one EigenCurvePoint
    per key: E, or (member, E) on a family of several members (the grids of
    one oracle schedule).  Each call builds the new energies of each member
    as one stack, build(energies) or build(energies, member), and
    diagonalizes the stacks of all members with one stacked eigh, which
    gives every point bit for bit as one energy alone.  The members share
    one dtype (the grids of one model are all real-gauged or all complex),
    so each keeps the LAPACK path and bits it has alone.
    """

    def __init__(self, build, points=()):
        self._build, self._points = build, {p.e: p for p in points}

    def __call__(self, energies, members=None) -> list:
        """The points at the energies, flattened, in their order (of member
        members[i] at energies[i] on a family of several members)."""
        points, es = self._points, np.ravel(energies).tolist()
        if members is None:
            keys, members = es, [()] * len(es)
        else:
            members = [(m,) for m in np.ravel(members).tolist()]
            keys = list(zip(members, es))
        new = {}
        for key, member, e in zip(keys, members, es):
            if key not in points:
                new.setdefault(member, {})[key] = e
        if new:
            stacks = [self._build(np.array(list(part.values())), *member)
                      for member, part in new.items()]
            kappa, vectors = np.linalg.eigh(stacks[0] if len(stacks) == 1
                                            else np.concatenate(stacks))
            made = (item for part in new.values() for item in part.items())
            points.update((key, EigenCurvePoint(e, a, v))
                          for (key, e), a, v in zip(made, kappa, vectors))
        return [points[k] for k in keys]
