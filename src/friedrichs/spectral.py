"""Eigencurves of the level-space operator family K(E).

For each probe energy E the continuum is folded into the N x N Hermitian
matrix

    K(E) = diag(omega_1..omega_N) - lambda^2 * S(E)    (E below threshold)
    K(E) = diag(omega_1..omega_N) - lambda^2 * D(E)    (E at or above threshold)

whose sorted eigenvalues kappa_1(E) <= ... <= kappa_N(E) are the eigencurves.
Below threshold the curves are nonincreasing in E and bounded above by the
bare levels, which is what makes bound-state counting a matter of reading
signs at E = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quad import LevelShiftMatrix, NumericalError, gram_matrix, pv_matrix

__all__ = ["EigenCurvePoint", "LevelShiftMatrix", "k_matrix", "eigh", "kappa_curve"]


@dataclass(frozen=True)
class EigenCurvePoint:
    """Eigendecomposition of K at one probe energy.

    kappa is ascending; vectors holds the matching orthonormal eigenvectors
    as columns, vectors[:, i] belonging to kappa[i].
    """

    e: float
    kappa: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.kappa.size

    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.kappa))) if self.kappa.size else 0.0


def k_matrix(model, shift: LevelShiftMatrix) -> np.ndarray:
    """diag(levels) - lambda^2 * shift, a complex Hermitian array or stack.

    Raises NumericalError when an entry is not finite (an overflowing shift).
    """
    if shift.n != model.n_levels:
        raise ValueError("shift matrix size does not match the model")
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.diag(model.level_array()) - model.coupling ** 2 * shift.entries
    if not np.isfinite(k).all():
        raise NumericalError(f"K(E) has a non-finite entry at E = {shift.e}")
    return k


def eigh(k: np.ndarray, e: float = float("nan")) -> EigenCurvePoint:
    """Sorted eigendecomposition of a Hermitian matrix as an EigenCurvePoint."""
    kappa, vectors = np.linalg.eigh(k)
    return EigenCurvePoint(float(e), kappa, vectors)


def kappa_curve(model, e_grid, kind: str = "auto"):
    """Eigencurve points along an energy grid.

    kind "auto" picks the Gram matrix for E < 0 and the principal-value
    matrix for E >= 0; "S" or "D" force one family (with the corresponding
    domain restriction).  The grid is built as one stack and diagonalized in
    one call.
    """
    return _eigencurves(model, kind)(np.atleast_1d(np.asarray(e_grid, dtype=float)))


def _eigencurves(model, kind):
    """The eigencurve family of K(E) on the shift kind ("auto", "S" or "D",
    as for `kappa_curve`), remembered per energy (see `_EigenCurves`)."""
    if kind not in ("auto", "S", "D"):
        raise ValueError(f"unknown shift kind {kind!r}")

    def build(e):
        below = e < 0.0 if kind == "auto" else np.full(e.shape, kind == "S")
        k = np.empty(e.shape + (model.n_levels,) * 2, dtype=complex)
        for part, shift in ((below, gram_matrix), (~below, pv_matrix)):
            if part.any():
                k[part] = k_matrix(model, shift(model, e[part]))
        return k

    return _EigenCurves(build)


class _EigenCurves:
    """A family K(E) of Hermitian matrices, remembered as one EigenCurvePoint
    per energy: each call builds the energies not seen before as one stack,
    build(array of energies), and diagonalizes it with one stacked eigh,
    which gives every point bit for bit as one energy alone."""

    def __init__(self, build):
        self._build, self._points = build, {}

    def __call__(self, energies) -> list:
        """The points at the energies, flattened, in their order."""
        es = np.ravel(energies).tolist()
        new = list(dict.fromkeys(e for e in es if e not in self._points))
        if new:
            kappa, vectors = np.linalg.eigh(self._build(np.array(new)))
            self._points.update((e, EigenCurvePoint(e, a, v))
                                for e, a, v in zip(new, kappa, vectors))
        return [self._points[e] for e in es]
