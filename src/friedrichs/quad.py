"""Level-shift matrices: node sums for the built-in families, QUADPACK otherwise.

Three Hermitian N x N matrices summarize how the continuum acts back on the
levels.  For energies E below the continuum (E < 0, or E = 0 when every form
factor vanishes at threshold) the Gram matrix

    S_nm(E)    = integral  conj(v_n(w)) v_m(w) / (w - E)  dw,
    T_nm(E,E') = integral  conj(v_n(w)) v_m(w) / ((w - E)(w - E'))  dw,

and for E inside the continuum (E >= 0) the principal-value matrix

    D_nm(E)    = PV integral  conj(v_n(w)) v_m(w) / (w - E)  dw.

Every entry is a pair integral of conj(v_n) v_m against the matrix's kernel
(`_pair`, `_level_shift`).

Built-in families.  v(x) = phase * sqrt(x) * r(x) with r even and rational,
poles at +-i c only (`rational_part`), so the pair density is
phase * eta(w) with eta(w) = w r_n(w) r_m(w) rational and real on the half
line.  Its Cauchy integral F(z) = integral eta(w)/(w - z) dw is unchanged
when the path [0, infinity) turns about 0 into the ray w = t exp(-i alpha),
alpha = pi/6: the sector swept holds no pole of eta, eta decays like w^-7,
and z = E + i0 (E > 0) or E <= 0 stays off the ray.  With w = exp(x - i
alpha) the trapezoid rule in x converges geometrically (Trefethen and
Weideman, SIAM Rev. 56, 2014): in x every singularity sits a fixed distance
from the real axis, pi/6 for z = E and pi/3 for the poles +-i c, whatever
the widths.  Hence, with nodes w_k and coefficients c_k = h w_k^2 r_n(w_k)
r_m(w_k) built once per pair,

    S(E) = Re sum_k c_k / (w_k - E)                     (E <= 0),
    D(E) = Re sum_k c_k / (w_k - E) = Re F(E + i0)      (E > 0),
    T(E, E') = Re sum_k c_k / ((w_k - E)(w_k - E')),
    integral |v_n|^2 = Re sum_k c_k                     (pair n, n).

The terms are of the size of the integrand (no cancellation near a pole),
and E' -> E needs no difference quotient.  h = 1/16 and the range
exp(-48) c_lo .. exp(8) c_hi (c_lo <= c_hi the pair's widths) hold S, D
and the norms to rounding at every E.  T(E, E') omits the head
[0, t0 = exp(-48) c_lo) of relative size t0^2 / (2 |E E'|), below 1e-16
for |E|, |E'| >= 1e-12 c_lo (t0 / |E| when E' = 0).  err is the rounding
bound 24 eps sum_k |term_k|.

Pairs with a tabulated factor are integrated with QUADPACK over [0, split]
using explicit breakpoints, plus an algebraic tail w = split + t/(1-t),
t in [0, 1).  The principal value is computed from the absolutely
integrable rewrite

    PV int eta(w)/(w-E) dw = int [eta(w) - eta(E) 1{w < 2E}] / (w-E) dw,

which is exact because PV int_0^{2E} dw/(w-E) = 0.  E and 2E are quadrature
breakpoints: QUADPACK never evaluates the integrand at a breakpoint, so the
removable point w = E is never a node, and the difference quotient stays
bounded on both sides of it (also where E sits on a kink of eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError

__all__ = [
    "LevelShiftMatrix",
    "NumericalError", "QuadratureError",
    "integrate_semiinf", "pv_integral", "gram_matrix", "t_matrix", "pv_matrix",
]


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget."""


# QUADPACK accuracy contract (recorded in every CLI output's metadata) and
# subdivision budget per interval
_REL_TOL = 1e-10
_ABS_TOL = 1e-13
_MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class LevelShiftMatrix:
    """A Gram, difference-kernel or principal-value matrix at one energy.

    entries: N x N complex Hermitian array.
    e: evaluation energy (internal units).
    kind: "S", "T" or "D".
    err: per-entry absolute error bounds: the rounding bound of the node sum
         for built-in pairs, QUADPACK's estimate for the others.
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


def _quadpack(*args, **kwargs):
    """scipy.integrate.quad, imported on first use: only tabulated pairs
    need it, and the import costs more than a built-in model's whole run."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def _run_quadpack(f, a, b, points):
    kwargs = dict(epsabs=_ABS_TOL, epsrel=_REL_TOL,
                  limit=_MAX_SUBDIVISIONS, full_output=1)
    if points:
        kwargs["points"] = points
    res = _quadpack(f, a, b, **kwargs)
    value, abserr = res[0], res[1]
    if len(res) > 3:
        # QUADPACK flagged trouble; accept only if the reported error still
        # meets the contract with some slack (benign roundoff flags happen
        # at very tight tolerances).
        tol = 10.0 * max(_ABS_TOL, _REL_TOL * abs(value))
        if not (abserr <= tol):
            raise QuadratureError(
                f"integral did not converge on [{a}, {b}]: {res[3]} "
                f"(error estimate {abserr:.3e})")
    return value, abserr


def integrate_semiinf(f, *, breakpoints=(), split=10.0, complex_valued=False):
    """Integrate f over [0, infinity).

    The direct piece covers [0, split] with QUADPACK and the given interior
    breakpoints; the remainder uses the substitution w = split + t/(1-t).
    A complex-valued f is integrated as its real and imaginary parts.
    Returns (value, error_estimate).  Raises QuadratureError when either
    piece fails to converge within the subdivision budget.
    """
    if complex_valued:
        re, ere = integrate_semiinf(lambda w: f(w).real,
                                    breakpoints=breakpoints, split=split)
        im, eim = integrate_semiinf(lambda w: f(w).imag,
                                    breakpoints=breakpoints, split=split)
        return complex(re, im), ere + eim
    split = float(split)
    if not (split > 0.0 and math.isfinite(split)):
        raise ValueError("split must be positive and finite")
    pts = sorted(p for p in set(breakpoints) if 0.0 < p < split)

    def tail(t):
        if t >= 1.0:
            return 0.0
        r = 1.0 / (1.0 - t)
        return f(split + t * r) * r * r

    main, emain = _run_quadpack(f, 0.0, split, pts)
    tval, etail = _run_quadpack(tail, 0.0, 1.0, None)
    return main + tval, emain + etail


def pv_integral(eta, e, *, split=10.0, extra_breakpoints=(),
                complex_valued=False):
    """Principal value of integral eta(w)/(w - e) dw over [0, infinity), e > 0.

    Integrates [eta(w) - eta(e) 1{w < 2e}] / (w - e) with breakpoints at e
    and 2e and the direct piece extended to at least 4e (module docstring);
    eta must be Lipschitz on each side of w = e.  Returns (value, error).
    """
    e = float(e)
    if not e > 0.0:
        raise ValueError("pv_integral requires e > 0")
    eta_e, two_e = eta(e), 2.0 * e

    def integrand(w):
        return (eta(w) - eta_e if w < two_e else eta(w)) / (w - e)

    return integrate_semiinf(integrand, breakpoints=[e, two_e, *extra_breakpoints],
                             split=max(split, 4.0 * e),
                             complex_valued=complex_valued)


# ---------------------------------------------------------------------------
# Matrix assembly

# The rotated ray w = c_lo * exp(k h - i alpha) of every built-in pair: step
# h = 1/16 (k h is exact), alpha = pi/6, k from -48/h to (ln(c_hi/c_lo) + 8)/h.
_RAY_STEP = 1.0 / 16.0
_RAY_TURN = complex(math.cos(math.pi / 6.0), -math.sin(math.pi / 6.0))
_RAY_BELOW, _RAY_ABOVE = 48.0, 8.0
# rounding bound of a node sum per unit of sum |term|: about ten roundings in
# each coefficient (the Horner sums behind r_n r_m) plus log2 of the node count
_SUM_ERR = 24.0 * np.finfo(float).eps


def _ray_table(fn, fm):
    """Nodes w_k and coefficients c_k = h w_k^2 r_n(w_k) r_m(w_k) of the pair,
    built once and kept in fn._pair_tables (module docstring)."""
    table = fn._pair_tables.get(fm)
    if table is None:
        lo, hi = sorted((fn.scale, fm.scale))
        k = np.arange(-_RAY_BELOW / _RAY_STEP,
                      (math.log(hi / lo) + _RAY_ABOVE) / _RAY_STEP + 1.0)
        w = lo * np.exp(k * _RAY_STEP) * _RAY_TURN
        table = (w, _RAY_STEP * w * w * fn.rational_part(w) * fm.rational_part(w))
        fn._pair_tables[fm] = table
    return table


def _pair(fn, fm, kernel, integral):
    """(value, error bound) of the pair density conj(v_n) v_m against the
    matrix's kernel.  A pair of built-in factors is the real part of the node
    sum sum_k c_k kernel(w_k) times the pair's phase; any other pair goes to
    integral(a, b), which integrates a * b with a = conj(v_n), b = v_m.
    """
    if fn.common_phase is None or fm.common_phase is None:
        vn = fn.value_scalar
        return integral(lambda w: np.conj(vn(w)), fm.value_scalar)
    w, c = _ray_table(fn, fm)
    terms = c * kernel(w)
    phase = np.conj(fn.common_phase) * fm.common_phase
    return phase * terms.sum().real, _SUM_ERR * float(np.abs(terms).sum())


def _level_shift(model, kind, e, kernel, integral, e2=None) -> LevelShiftMatrix:
    """Hermitian matrix of pair integrals (`_pair`), built over the upper
    triangle and mirrored, with the per-entry error bounds in err.  kernel(w)
    is the matrix's kernel at complex nodes; integral(a, b) integrates a * b
    against it with QUADPACK (a principal value for D) and returns (value,
    error estimate).
    """
    n = model.n_levels
    entries = np.zeros((n, n), dtype=complex)
    err = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            value, estimate = _pair(model.form_factors[i], model.form_factors[j],
                                    kernel, integral)
            entries[i, j] = value
            err[i, j] = estimate
            if j != i:
                entries[j, i] = np.conj(value)
                err[j, i] = estimate
    return LevelShiftMatrix(entries, e, kind, err, e2)


def _norm_sq(f) -> float:
    """Integral of |v|^2 over the half line (the kernel 1)."""
    if f.common_phase is None:
        return integrate_semiinf(f.mod_sq_scalar, breakpoints=f.breakpoints(),
                                 split=10.0 * f.scale)[0]
    return float(_ray_table(f, f)[1].sum().real)


def _factor_breakpoints(model):
    """Union of the factors' non-smooth abscissas, ascending."""
    return sorted({float(b) for f in model.form_factors for b in f.breakpoints()})


def _check_below_threshold(model, e, op):
    if e > 0.0:
        raise ValueError(f"{op} requires E <= 0, got E = {e}")
    if e == 0.0:
        for k, f in enumerate(model.form_factors, start=1):
            if not f.p_exponent > 0.0:
                raise ConfigError(
                    f"{op} at E = 0 needs a positive threshold exponent, "
                    f"form factor {k} has p = {f.p_exponent}")


def gram_matrix(model, e) -> LevelShiftMatrix:
    """Gram matrix S(E) for E < 0 (E = 0 allowed when all p_exponent > 0).

    Built-in pairs: Re sum_k c_k / (w_k - E) on the rotated ray; pairs with
    a tabulated factor: QUADPACK.
    """
    e = float(e)
    _check_below_threshold(model, e, "gram_matrix")
    split, pts = 10.0 * model.max_scale(), _factor_breakpoints(model)

    def integral(a, b):
        return integrate_semiinf(lambda w: a(w) * b(w) / (w - e),
                                 breakpoints=pts, split=split, complex_valued=True)

    return _level_shift(model, "S", e, lambda w: 1.0 / (w - e), integral)


def t_matrix(model, e, e2) -> LevelShiftMatrix:
    """Difference-kernel matrix T(E, E') with kernel 1/((w-E)(w-E')).

    Satisfies S(E) - S(E') = (E - E') T(E, E'); at E' = E it equals dS/dE.
    Both energies must lie below the continuum (0 allowed when p > 0), and
    not both at 0, where the kernel 1/w^2 is not integrable for p <= 1/2.
    Built-in pairs: Re sum_k c_k / ((w_k - E)(w_k - E')), with no
    cancellation as E' approaches E; pairs with a tabulated factor: QUADPACK.
    """
    e, e2 = float(e), float(e2)
    _check_below_threshold(model, e, "t_matrix")
    _check_below_threshold(model, e2, "t_matrix")
    if e == 0.0 and e2 == 0.0:
        raise ValueError("t_matrix requires E < 0 or E' < 0")
    split, pts = 10.0 * model.max_scale(), _factor_breakpoints(model)

    def integral(a, b):
        return integrate_semiinf(lambda w: a(w) * b(w) / ((w - e) * (w - e2)),
                                 breakpoints=pts, split=split, complex_valued=True)

    return _level_shift(model, "T", e, lambda w: 1.0 / ((w - e) * (w - e2)),
                        integral, e2)


def pv_matrix(model, e) -> LevelShiftMatrix:
    """Principal-value matrix D(E) for E >= 0.

    D(0) coincides with S(0).  For E > 0 a built-in pair is
    Re sum_k c_k / (w_k - E), the real part of F(E + i0); a pair with a
    tabulated factor is pv_integral of the pair density: eta(E) subtracted
    on [0, 2E], as in the module docstring.
    """
    e = float(e)
    if e < 0.0:
        raise ValueError(f"pv_matrix requires E >= 0, got E = {e}")
    if e == 0.0:
        s = gram_matrix(model, 0.0)
        return LevelShiftMatrix(s.entries, 0.0, "D", s.err)
    split, pts = 10.0 * model.max_scale(), _factor_breakpoints(model)

    def integral(a, b):
        return pv_integral(lambda w: a(w) * b(w), e, split=split,
                           extra_breakpoints=pts, complex_valued=True)

    return _level_shift(model, "D", e, lambda w: 1.0 / (w - e), integral)
