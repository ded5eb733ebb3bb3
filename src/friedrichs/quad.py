"""Semi-infinite quadrature and the level-shift matrix family.

Three Hermitian N x N matrices summarize how the continuum acts back on the
levels.  For energies E below the continuum (E < 0, or E = 0 when every form
factor vanishes at threshold) the Gram matrix

    S_nm(E)    = integral  conj(v_n(w)) v_m(w) / (w - E)  dw,
    T_nm(E,E') = integral  conj(v_n(w)) v_m(w) / ((w - E)(w - E'))  dw,

and for E inside the continuum (E >= 0) the principal-value matrix

    D_nm(E)    = PV integral  conj(v_n(w)) v_m(w) / (w - E)  dw.

The principal value is computed from the absolutely integrable rewrite

    PV int eta(w)/(w-E) dw = int [eta(w) - eta(E) bump_delta(w-E)] / (w-E) dw,

where bump_delta(y) = exp(1 - 1/(1 - (y/delta)^2)) on |y| < delta and 0
outside.  Because the bump is even and supported inside [E-delta, E+delta]
with delta <= E/2, the subtracted term integrates to zero exactly and the
result does not depend on delta; varying delta is therefore a consistency
check, not a tuning knob.  delta = min(E/2, 1/2), and within 1e-8 max(E, 1)
of w = E the integrand is replaced by its limit eta'(E).

Integrals run over [0, split] with QUADPACK using explicit breakpoints, plus
an algebraic tail w = split + t/(1-t), t in [0, 1).  Every matrix entry is a
pair integral of conj(v_n) v_m against the matrix's kernel (`_pair`,
`_level_shift`).  Pair products of the built-in families reduce to real
integrands times a constant phase, so the complex path is only taken for
tabulated form factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _quadpack

__all__ = [
    "QuadratureSettings", "LevelShiftMatrix",
    "NumericalError", "QuadratureError",
    "integrate_semiinf", "pv_integral", "gram_matrix", "t_matrix", "pv_matrix",
]


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget."""


# QUADPACK subdivision budget per interval
_MAX_SUBDIVISIONS = 2000
# principal value: bump half width min(E/2, _DELTA_CAP), and the half width
# (relative to max(E, 1)) of the window around w = E patched by eta'(E)
_DELTA_CAP = 0.5
_ANALYTIC_WINDOW = 1e-8


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("quadrature tolerances must be finite and positive")


DEFAULT_QUAD = QuadratureSettings()


@dataclass(frozen=True)
class LevelShiftMatrix:
    """A Gram, difference-kernel or principal-value matrix at one energy.

    entries: N x N complex Hermitian array.
    e: evaluation energy (internal units).
    kind: "S", "T" or "D".
    err: per-entry quadrature error estimates (absolute).
    e2: second energy for kind "T", None otherwise.
    """

    entries: np.ndarray
    e: float
    kind: str
    err: np.ndarray
    e2: float | None = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries, 2))


def bump(y, delta):
    """The even C-infinity bump with support (-delta, delta), value 1 at 0."""
    y = np.asarray(y, dtype=float)
    t = (y / delta) ** 2
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    return out if out.ndim else float(out)


def _run_quadpack(f, a, b, settings, points):
    kwargs = dict(epsabs=settings.abs_tol, epsrel=settings.rel_tol,
                  limit=_MAX_SUBDIVISIONS, full_output=1)
    if points:
        kwargs["points"] = points
    res = _quadpack(f, a, b, **kwargs)
    value, abserr = res[0], res[1]
    if len(res) > 3:
        # QUADPACK flagged trouble; accept only if the reported error still
        # meets the contract with some slack (benign roundoff flags happen
        # at very tight tolerances).
        tol = 10.0 * max(settings.abs_tol, settings.rel_tol * abs(value))
        if not (abserr <= tol):
            raise QuadratureError(
                f"integral did not converge on [{a}, {b}]: {res[3]} "
                f"(error estimate {abserr:.3e})")
    return value, abserr


def integrate_semiinf(f, settings=None, *, breakpoints=(), split=10.0,
                      complex_valued=False):
    """Integrate f over [0, infinity).

    The direct piece covers [0, split] with QUADPACK and the given interior
    breakpoints; the remainder uses the substitution w = split + t/(1-t).
    A complex-valued f is integrated as its real and imaginary parts.
    Returns (value, error_estimate).  Raises QuadratureError when either
    piece fails to converge within the subdivision budget.
    """
    if complex_valued:
        re, ere = integrate_semiinf(lambda w: f(w).real, settings,
                                    breakpoints=breakpoints, split=split)
        im, eim = integrate_semiinf(lambda w: f(w).imag, settings,
                                    breakpoints=breakpoints, split=split)
        return complex(re, im), ere + eim
    settings = settings or DEFAULT_QUAD
    split = float(split)
    if not (split > 0.0 and math.isfinite(split)):
        raise ValueError("split must be positive and finite")
    pts = sorted(p for p in set(breakpoints) if 0.0 < p < split)

    def tail(t):
        if t >= 1.0:
            return 0.0
        r = 1.0 / (1.0 - t)
        return f(split + t * r) * r * r

    main, emain = _run_quadpack(f, 0.0, split, settings, pts)
    tval, etail = _run_quadpack(tail, 0.0, 1.0, settings, None)
    return main + tval, emain + etail


def pv_integral(eta, e, settings=None, *, eta_prime_at_e=None, split=10.0,
                extra_breakpoints=(), complex_valued=False):
    """Principal value of integral eta(w)/(w - e) dw over [0, infinity), e > 0.

    eta must be smooth near w = e.  eta_prime_at_e may be supplied when a
    closed form is available; otherwise eta is differenced with step
    min(1e-6 max(e, 1), e/2), which stays on the half line.  Returns
    (value, error).
    """
    e = float(e)
    if not e > 0.0:
        raise ValueError("pv_integral requires e > 0")
    delta = min(0.5 * e, _DELTA_CAP)
    window = _ANALYTIC_WINDOW * max(e, 1.0)
    eta_e, eta_p = eta(e), eta_prime_at_e
    if eta_p is None:
        h = min(1e-6 * max(e, 1.0), 0.5 * e)
        eta_p = (eta(e + h) - eta(e - h)) / (2.0 * h)
    inv_delta_sq = 1.0 / (delta * delta)

    def integrand(w):
        d = w - e
        if abs(d) < window:
            return eta_p
        t = d * d * inv_delta_sq
        if t < 1.0:
            return (eta(w) - eta_e * math.exp(1.0 - 1.0 / (1.0 - t))) / d
        return eta(w) / d

    split_eff = max(split, 2.0 * (e + delta))
    pts = [e - delta, e, e + delta, *extra_breakpoints]
    return integrate_semiinf(integrand, settings, breakpoints=pts,
                             split=split_eff, complex_valued=complex_valued)


# ---------------------------------------------------------------------------
# Matrix assembly


def _pair(fn, fm):
    """(phase, a, b, a', b', complex_valued) with conj(v_n) v_m = phase * a * b.

    For the built-in families a and b are the real profiles, a' and b' their
    exact derivatives.  Otherwise a = conj(v_n), b = v_m and no derivatives
    are known (None).
    """
    if fn.common_phase is not None and fm.common_phase is not None:
        return (complex(np.conj(fn.common_phase) * fm.common_phase),
                fn.profile_scalar, fm.profile_scalar,
                fn.profile_derivative_scalar, fm.profile_derivative_scalar, False)
    vn = fn.value_scalar
    return 1.0, lambda w: np.conj(vn(w)), fm.value_scalar, None, None, True


def _level_shift(model, kind, e, integral, e2=None) -> LevelShiftMatrix:
    """Hermitian matrix of pair integrals, built over the upper triangle and
    mirrored, with the per-entry error estimates in err.  integral(a, b, a',
    b', complex_valued) integrates one pair density a * b against the
    matrix's kernel and returns (value, error estimate).
    """
    n = model.n_levels
    entries = np.zeros((n, n), dtype=complex)
    err = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            phase, *pair = _pair(model.form_factors[i], model.form_factors[j])
            value, estimate = integral(*pair)
            entries[i, j] = phase * value
            err[i, j] = estimate
            if j != i:
                entries[j, i] = np.conj(entries[i, j])
                err[j, i] = estimate
    return LevelShiftMatrix(entries, e, kind, err, e2)


def _factor_breakpoints(model):
    """Union of the factors' non-smooth abscissas, ascending."""
    return sorted({float(b) for f in model.form_factors for b in f.breakpoints()})


def _check_below_threshold(model, e, op):
    if e > 0.0:
        raise ValueError(f"{op} requires E <= 0, got E = {e}")
    if e == 0.0:
        for k, f in enumerate(model.form_factors, start=1):
            if not f.p_exponent > 0.0:
                raise ValueError(
                    f"{op} at E = 0 needs a positive threshold exponent, "
                    f"form factor {k} has p = {f.p_exponent}")


def gram_matrix(model, e, settings=None) -> LevelShiftMatrix:
    """Gram matrix S(E) for E < 0 (E = 0 allowed when all p_exponent > 0)."""
    e = float(e)
    _check_below_threshold(model, e, "gram_matrix")
    split, pts = 10.0 * model.max_scale(), _factor_breakpoints(model)

    def integral(a, b, da, db, complex_valued):
        return integrate_semiinf(lambda w: a(w) * b(w) / (w - e), settings,
                                 breakpoints=pts, split=split,
                                 complex_valued=complex_valued)

    return _level_shift(model, "S", e, integral)


def t_matrix(model, e, e2, settings=None) -> LevelShiftMatrix:
    """Difference-kernel matrix T(E, E') with kernel 1/((w-E)(w-E')).

    Satisfies S(E) - S(E') = (E - E') T(E, E'); at E' = E it equals dS/dE.
    Both energies must lie below the continuum (0 allowed when p > 0).
    """
    e, e2 = float(e), float(e2)
    _check_below_threshold(model, e, "t_matrix")
    _check_below_threshold(model, e2, "t_matrix")
    split, pts = 10.0 * model.max_scale(), _factor_breakpoints(model)

    def integral(a, b, da, db, complex_valued):
        return integrate_semiinf(lambda w: a(w) * b(w) / ((w - e) * (w - e2)),
                                 settings, breakpoints=pts, split=split,
                                 complex_valued=complex_valued)

    return _level_shift(model, "T", e, integral, e2)


def pv_matrix(model, e, settings=None) -> LevelShiftMatrix:
    """Principal-value matrix D(E) for E >= 0.

    D(0) coincides with S(0).  For E > 0 each entry uses the bump-regularized
    rewrite described in the module docstring, with the removable point at
    w = E patched by the exact product-rule derivative of the pair density
    for the built-in families (central differences for tabulated data).
    """
    e = float(e)
    if e < 0.0:
        raise ValueError(f"pv_matrix requires E >= 0, got E = {e}")
    if e == 0.0:
        s = gram_matrix(model, 0.0, settings)
        return LevelShiftMatrix(s.entries, 0.0, "D", s.err)
    split, pts = max(10.0 * model.max_scale(), 2.0 * e + 1.0), _factor_breakpoints(model)

    def integral(a, b, da, db, complex_valued):
        eta_p = None if da is None else da(e) * b(e) + a(e) * db(e)
        return pv_integral(lambda w: a(w) * b(w), e, settings, eta_prime_at_e=eta_p,
                           split=split, extra_breakpoints=pts,
                           complex_valued=complex_valued)

    return _level_shift(model, "D", e, integral)
