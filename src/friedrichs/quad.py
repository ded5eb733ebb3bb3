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
check, not a tuning knob.

Integrals run over [0, split] with QUADPACK using explicit breakpoints, plus
an algebraic tail w = split + t/(1-t), t in [0, 1).  Pair products of the
built-in families reduce to real integrands times a constant phase, so the
complex path is only taken for tabulated form factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _quadpack

__all__ = [
    "QuadratureSettings", "PvSettings", "LevelShiftMatrix",
    "NumericalError", "QuadratureError",
    "integrate_semiinf", "pv_integral", "gram_matrix", "t_matrix", "pv_matrix",
]


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget."""


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


@dataclass(frozen=True)
class PvSettings:
    """Controls the bump regularization of principal-value integrals.

    delta = min(E/2, delta_cap) keeps the bump inside the half line;
    analytic_window is the half width (relative to max(E, 1)) of the region
    around w = E where the integrand is replaced by its limit eta'(E).
    """

    delta_cap: float = 0.5
    analytic_window: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.delta_cap:
            raise ValueError("delta_cap must be positive")
        if not 0.0 < self.analytic_window < 1e-2:
            raise ValueError("analytic_window must lie in (0, 1e-2)")


DEFAULT_QUAD = QuadratureSettings()
DEFAULT_PV = PvSettings()


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
                  limit=settings.max_subdivisions, full_output=1)
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
    Returns (value, error_estimate).  Raises QuadratureError when either
    piece fails to converge within settings.max_subdivisions.
    """
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

    if complex_valued:
        re, ere = _run_quadpack(lambda w: f(w).real, 0.0, split, settings, pts)
        im, eim = _run_quadpack(lambda w: f(w).imag, 0.0, split, settings, pts)
        tre, etre = _run_quadpack(lambda t: tail(t).real, 0.0, 1.0, settings, None)
        tim, etim = _run_quadpack(lambda t: tail(t).imag, 0.0, 1.0, settings, None)
        return complex(re + tre, im + tim), ere + eim + etre + etim

    main, emain = _run_quadpack(f, 0.0, split, settings, pts)
    tval, etail = _run_quadpack(tail, 0.0, 1.0, settings, None)
    return main + tval, emain + etail


def pv_integral(eta, e, settings=None, pv=None, *, eta_at_e=None,
                eta_prime_at_e=None, split=10.0, extra_breakpoints=(),
                complex_valued=False):
    """Principal value of integral eta(w)/(w - e) dw over [0, infinity), e > 0.

    eta must be smooth near w = e.  eta_at_e and eta_prime_at_e may be
    supplied when closed forms are available; otherwise eta is evaluated at e
    and differenced with step min(1e-6 max(e, 1), e/2), which stays on the
    half line.  Returns (value, error).
    """
    settings = settings or DEFAULT_QUAD
    pv = pv or DEFAULT_PV
    e = float(e)
    if not e > 0.0:
        raise ValueError("pv_integral requires e > 0")
    delta = min(0.5 * e, pv.delta_cap)
    window = pv.analytic_window * max(e, 1.0)
    eta_e = eta(e) if eta_at_e is None else eta_at_e
    if eta_prime_at_e is None:
        h = min(1e-6 * max(e, 1.0), 0.5 * e)
        eta_p = (eta(e + h) - eta(e - h)) / (2.0 * h)
    else:
        eta_p = eta_prime_at_e
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


def _pair_paths(fn, fm):
    """Phase prefactor and real-profile flag for the product conj(v_n) v_m."""
    if fn.common_phase is not None and fm.common_phase is not None:
        return complex(np.conj(fn.common_phase) * fm.common_phase), True
    return 1.0 + 0.0j, False


def _assemble(model, entry_fn):
    """Build a Hermitian matrix entry by entry over the upper triangle."""
    n = model.n_levels
    entries = np.zeros((n, n), dtype=complex)
    err = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            value, estimate = entry_fn(model.form_factors[i], model.form_factors[j])
            entries[i, j] = value
            err[i, j] = estimate
            if j != i:
                entries[j, i] = np.conj(value)
                err[j, i] = estimate
    return entries, err


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
    """Gram matrix S(E) for E < 0 (E = 0 allowed when all p_exponent > 0).

    Entries are computed over the upper triangle and mirrored, so the result
    is Hermitian by construction.  The per-entry quadrature error estimates
    land in the err field.
    """
    e = float(e)
    _check_below_threshold(model, e, "gram_matrix")
    settings = settings or DEFAULT_QUAD
    split = 10.0 * model.max_scale()
    scales = _factor_breakpoints(model)

    def entry(fn, fm):
        pref, real_path = _pair_paths(fn, fm)
        if real_path:
            pn, pm = fn.profile_scalar, fm.profile_scalar
            f = lambda w: pn(w) * pm(w) / (w - e)
            v, est = integrate_semiinf(f, settings, breakpoints=scales, split=split)
            return pref * v, est
        vn, vm = fn.value_scalar, fm.value_scalar
        f = lambda w: np.conj(vn(w)) * vm(w) / (w - e)
        return integrate_semiinf(f, settings, breakpoints=scales, split=split,
                                 complex_valued=True)

    entries, err = _assemble(model, entry)
    return LevelShiftMatrix(entries, e, "S", err)


def t_matrix(model, e, e2, settings=None) -> LevelShiftMatrix:
    """Difference-kernel matrix T(E, E') with kernel 1/((w-E)(w-E')).

    Satisfies S(E) - S(E') = (E - E') T(E, E'); at E' = E it equals dS/dE.
    Both energies must lie below the continuum (0 allowed when p > 0).
    """
    e, e2 = float(e), float(e2)
    _check_below_threshold(model, e, "t_matrix")
    _check_below_threshold(model, e2, "t_matrix")
    settings = settings or DEFAULT_QUAD
    split = 10.0 * model.max_scale()
    scales = _factor_breakpoints(model)

    def entry(fn, fm):
        pref, real_path = _pair_paths(fn, fm)
        if real_path:
            pn, pm = fn.profile_scalar, fm.profile_scalar
            f = lambda w: pn(w) * pm(w) / ((w - e) * (w - e2))
            v, est = integrate_semiinf(f, settings, breakpoints=scales, split=split)
            return pref * v, est
        vn, vm = fn.value_scalar, fm.value_scalar
        f = lambda w: np.conj(vn(w)) * vm(w) / ((w - e) * (w - e2))
        return integrate_semiinf(f, settings, breakpoints=scales, split=split,
                                 complex_valued=True)

    entries, err = _assemble(model, entry)
    return LevelShiftMatrix(entries, e, "T", err, e2=e2)


def pv_matrix(model, e, settings=None, pv=None) -> LevelShiftMatrix:
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
    settings = settings or DEFAULT_QUAD
    pv = pv or DEFAULT_PV
    split = max(10.0 * model.max_scale(), 2.0 * e + 1.0)
    scales = _factor_breakpoints(model)

    def entry(fn, fm):
        pref, real_path = _pair_paths(fn, fm)
        if real_path:
            pn, pm = fn.profile_scalar, fm.profile_scalar
            eta = lambda w: pn(w) * pm(w)
            eta_e = pn(e) * pm(e)
            eta_p = (fn.profile_derivative_scalar(e) * pm(e)
                     + pn(e) * fm.profile_derivative_scalar(e))
            v, est = pv_integral(eta, e, settings, pv, eta_at_e=eta_e,
                                 eta_prime_at_e=eta_p, split=split,
                                 extra_breakpoints=scales)
            return pref * v, est
        vn, vm = fn.value_scalar, fm.value_scalar
        eta = lambda w: np.conj(vn(w)) * vm(w)
        return pv_integral(eta, e, settings, pv, split=split,
                           extra_breakpoints=scales, complex_valued=True)

    entries, err = _assemble(model, entry)
    return LevelShiftMatrix(entries, e, "D", err)
