"""Eigencurves of the level-space operator family K(E).

For each probe energy E the continuum is folded into the N x N Hermitian
matrix

    K(E) = diag(omega_1..omega_N) - lambda^2 * S(E)    (E below threshold)
    K(E) = diag(omega_1..omega_N) - lambda^2 * D(E)    (E at or above threshold)

whose sorted eigenvalues kappa_1(E) <= ... <= kappa_N(E) are the eigencurves.
Below threshold the curves are nonincreasing in E and bounded above by the
bare levels, which is what makes bound-state counting a matter of reading
signs at E = 0.  Spectral projectors onto simple eigencurve branches come
either exactly from the eigendecomposition or as a truncated resolvent
contour series in powers of lambda^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .quad import LevelShiftMatrix, NumericalError, gram_matrix, pv_matrix

__all__ = [
    "EigenCurvePoint", "LevelShiftMatrix", "DegeneracyError",
    "k_matrix", "eigh", "kappa_curve", "projector", "projector_series",
]


class DegeneracyError(NumericalError):
    """An operation needed a simple eigenvalue but found a near-degenerate one."""


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
    """diag(levels) - lambda^2 * shift, as a complex Hermitian array.

    Raises NumericalError when an entry is not finite (an overflowing shift).
    """
    if shift.n != model.n_levels:
        raise ValueError("shift matrix size does not match the model")
    k = np.diag(model.level_array()).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        k -= model.coupling ** 2 * shift.entries
    if not np.isfinite(k).all():
        raise NumericalError(f"K(E) has a non-finite entry at E = {shift.e}")
    return k


def eigh(k: np.ndarray, e: float = float("nan")) -> EigenCurvePoint:
    """Sorted eigendecomposition of a Hermitian matrix as an EigenCurvePoint."""
    kappa, vectors = np.linalg.eigh(k)
    return EigenCurvePoint(float(e), kappa, vectors)


def _shift_for(model, e, kind, settings):
    if kind == "auto":
        kind = "S" if e < 0.0 else "D"
    if kind == "S":
        return gram_matrix(model, e, settings)
    if kind == "D":
        return pv_matrix(model, e, settings)
    raise ValueError(f"unknown shift kind {kind!r}")


def kappa_curve(model, e_grid, kind: str = "auto", settings=None):
    """Eigencurve points along an energy grid.

    kind "auto" picks the Gram matrix for E < 0 and the principal-value
    matrix for E >= 0; "S" or "D" force one family (with the corresponding
    domain restriction).
    """
    points = []
    for e in np.atleast_1d(np.asarray(e_grid, dtype=float)):
        shift = _shift_for(model, float(e), kind, settings)
        points.append(eigh(k_matrix(model, shift), float(e)))
    return points


def projector(point: EigenCurvePoint, n: int) -> np.ndarray:
    """Rank-one spectral projector onto the n-th eigencurve branch (1-based).

    Raises DegeneracyError when the branch is not separated from its
    neighbours by more than 1e-12 times the operator norm.
    """
    if not 1 <= n <= point.n:
        raise ValueError(f"branch index {n} outside 1..{point.n}")
    idx = n - 1
    scale = max(point.operator_norm(), 1e-300)
    gaps = [abs(point.kappa[idx] - point.kappa[m]) for m in range(point.n) if m != idx]
    if gaps and min(gaps) <= 1e-12 * scale:
        raise DegeneracyError(
            f"eigenvalue {n} at E = {point.e} is degenerate within 1e-12 "
            f"of the operator norm (gap {min(gaps):.3e})")
    v = point.vectors[:, idx]
    return np.outer(v, v.conj())


def projector_series(model, e, n, order, settings=None, *,
                     contour_nodes: int = 256, lambda_n: float | None = None) -> np.ndarray:
    """Perturbative projector onto the branch continuing from level n.

    Sums the resolvent contour series through the given order in lambda^2:
    the j-th term is -(1/2 pi i) times the contour integral of
    R0(z) [shift * R0(z)]^j around level n, with R0 the bare resolvent and
    the circle radius one third of the distance to the nearest other level.
    The contour integral uses a trapezoid rule with contour_nodes points,
    which converges geometrically for these analytic integrands.

    When the convergence threshold lambda_n for this level is supplied and
    |lambda| >= lambda_n, a divergence warning is emitted and the partial sum
    is still returned.
    """
    if not 1 <= n <= model.n_levels:
        raise ValueError(f"level index {n} outside 1..{model.n_levels}")
    if order < 0:
        raise ValueError("order must be >= 0")
    levels = model.level_array()
    idx = n - 1
    others = np.delete(levels, idx)
    if others.size == 0:
        # single level: the projector is trivially the full space at order 0
        return np.ones((1, 1), dtype=complex)
    gap = float(np.min(np.abs(others - levels[idx])))
    if gap == 0.0:
        raise DegeneracyError(f"level {n} is degenerate, no isolating contour exists")
    if lambda_n is not None and abs(model.coupling) >= lambda_n:
        warnings.warn(
            f"coupling {model.coupling!r} is at or beyond the series threshold "
            f"{lambda_n!r} for level {n}; the projector series may diverge",
            RuntimeWarning, stacklevel=2)

    d = _shift_for(model, e, "auto", settings).entries
    radius = gap / 3.0
    m = int(contour_nodes)
    phase = np.exp(2j * np.pi * np.arange(m) / m)
    lam_sq = model.coupling ** 2

    total = np.zeros((model.n_levels, model.n_levels), dtype=complex)
    for ph in phase:
        zeta = levels[idx] + radius * ph
        rho = 1.0 / (levels - zeta)
        cur = np.diag(rho)
        acc = cur.copy()
        lam_pow = 1.0
        for _ in range(order):
            cur = (cur @ d) * rho[None, :]
            lam_pow *= lam_sq
            acc += lam_pow * cur
        total += ph * acc
    return -(radius / m) * total
