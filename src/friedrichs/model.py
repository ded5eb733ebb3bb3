"""Model definitions for an N-level Friedrichs system.

A model consists of N discrete levels omega_1 <= ... <= omega_N coupled by a
single real constant lambda to a continuum occupying [0, infinity) with flat
spectral density.  Level n couples through a form factor v_n(omega), a
complex-valued function on the positive half line that vanishes like
omega**p (p > 0) at threshold and decays at large omega.

Everything numerical runs in a dimensionless internal unit system: energies
are stored as (physical energy) / reference_cutoff and form-factor values as
(physical value) / sqrt(reference_cutoff).  `UnitSystem` records the
reference cutoff; all other modules see only internal quantities.

Built-in form-factor families share one algebraic shape,

    v(x) = phase * A * sqrt(u) * Q(u**2) / (1 + u**2)**q,   u = x / c,

with a real polynomial Q, integer pole order q and width c.  This makes
closed-form modulus-squared derivatives available, whose suprema the
threshold certificate takes as maxima sampled on refined grids (not yet
upper bounds), and makes every pair density conj(v_n) v_m rational, which
the level-shift matrices integrate as node sums on a real Gram table and a
rotated ray (`quad`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

# Physical scales of the hydrogen-like preset (angular frequencies, 1/s).
# The three excited 2p/3p/4p levels decay to a common ground state; the
# sharpest transition sets the reference cutoff.
OMEGA_HYDROGEN = 1.55e16
LAMBDA1_HYDROGEN = 8.498e18
COUPLING_SQ_HYDROGEN = 6.435e-9

# Per-transition data for the hydrogen family, index i = 1, 2, 3:
# overall prefactor C_i, polynomial Q_i in s = u**2 (ascending coefficients),
# pole order q_i, and cutoff ratio c_i relative to the first transition.
_HYDROGEN_PREFACTOR = (1.0, 81.0 / (128.0 * math.sqrt(2.0)), 54.0 * math.sqrt(3.0) / 15625.0)
_HYDROGEN_POLY = ((1.0,), (1.0, 2.0), (45.0, 146.0, 125.0))
_HYDROGEN_POLE_ORDER = (2, 3, 4)
_HYDROGEN_CUTOFF_RATIO = (1.0, 8.0 / 9.0, 10.0 / 12.0)

# Largest rational pole index.
_MAX_N_INDEX = 11


class ConfigError(ValueError):
    """Raised when a model description (file, preset name, field) is invalid."""


def _require_index(name, value, lo, hi) -> int:
    """value as an int in lo..hi; integral floats pass, bools and strings fail."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not lo <= value <= hi or value != int(value)):
        raise ConfigError(f"{name} must be an integer in {lo}..{hi}")
    return int(value)


def _require_finite(**fields):
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"{name} must be finite")


# a built-in factor of width c is evaluated through u = x / c and u^2, and
# on the kernels' ray (u^2 at angle -pi/3) through 1 / (1 + u^2), whose
# complex division forms |u|^2 / sin(pi/3): no layer may evaluate it beyond
# _REACH c (less a margin for rounding).  T(E, E')'s kernel
# 1 / ((w - E)(w - E')) forms (w - E)(w - E') >= w^2 of the Gram table's
# node w itself, so the kernels evaluate nothing beyond _REACH either.  The
# lower twin: the terms summed near a width c scale as c^2 (the tables'
# largest coefficient is at least 2^-10 c^2 on the built-ins at unit
# prefactor); a term below the smallest normal double loses digits: so
# 2^-10 c^2 must be at least that double, c at least _FLOOR
_REACH = 0.999 * math.sqrt(np.finfo(float).max * math.sin(math.pi / 3.0))
_FLOOR = 1.001 * 2.0 ** 5 * math.sqrt(np.finfo(float).tiny)


def _require_reach(factors, top, layer, squares=False):
    """ConfigError unless the narrowest built-in factor, if any, may be
    evaluated up to the abscissa top, the largest at which `layer` evaluates
    one, and, for a layer that squares abscissas, unless top <= _REACH and
    every width >= _FLOOR, with or without built-in factors."""
    widths = [f.scale for f in factors if f.common_phase is not None]
    widest, narrowest = max(f.scale for f in factors), min(f.scale for f in factors)
    if widths and not top / min(widths) <= _REACH:
        raise ConfigError(
            f"form-factor widths {min(widths):.6g} (narrowest built-in) and "
            f"{widest:.6g} are too far apart: {layer} would "
            f"evaluate the narrowest at omega = {top:.6g}, where (omega / width)^2 overflows")
    if squares and not top <= _REACH:
        raise ConfigError(
            f"form-factor width {widest:.6g} (widest) is too large: {layer} would "
            f"evaluate the factors at omega = {top:.6g}, where omega^2 overflows")
    if squares and not narrowest >= _FLOOR:
        raise ConfigError(
            f"form-factor width {narrowest:.6g} (narrowest) is too small: {layer} would "
            f"sum terms of its size squared, below the smallest normal double")


@dataclass(frozen=True)
class UnitSystem:
    """Fixes the reference cutoff used to nondimensionalize the model.

    `reference_cutoff` is a physical energy scale (same units as the user's
    level positions).  Internal energy = physical / reference_cutoff, and
    internal form-factor amplitude = physical / sqrt(reference_cutoff).
    """

    reference_cutoff: float = 1.0

    def __post_init__(self):
        if not (self.reference_cutoff > 0.0 and math.isfinite(self.reference_cutoff)):
            raise ConfigError("reference_cutoff must be finite and positive")


class FormFactor:
    """Base class of the coupling functions v(omega) on the half line.

    Every factor provides `value`, `mod_sq` and `mod_sq_derivative`
    (vectorized), `descriptor`, a characteristic width `scale`, the
    exponents of the leading powers v ~ x^p_exponent at 0 and
    v ~ x^tail_exponent at infinity, and `common_phase`: a unit complex
    number phi with v(x) = phi * profile(x) for a real signed profile, or
    None when no such global phase exists.  A factor with a common phase is
    one of the rational built-ins and also provides `rational_part`; the
    level-shift matrices of pairs of such factors are node sums on a real
    Gram table and a rotated ray, all others are sums on a table of panels
    (see `quad`), which reads a tabulated factor's `grid` and `_piece`.  So
    the built-in and the tabulated families are the only ones: this class
    is not an extension point.
    """

    p_exponent: float = 0.5
    tail_exponent: float = -1.5
    scale: float = 1.0
    common_phase: complex | None = None

    def breakpoints(self) -> tuple:
        """Abscissas where the factor is not smooth, where `quad` splits its
        panels."""
        return (self.scale,)


def _over_pole(desc, s, gap):
    """Q(s) / (1+s)**(d + gap) for Q of degree d (coefficients in descending
    order) and gap >= 1, on floats or arrays.  Evaluated as r**gap * sum_k
    Q_k t**k r**(d - k) with r = 1/(1+s) and t = s r, both in [0, 1], so
    nothing overflows where (1+s)**(d + gap) would."""
    r = 1.0 / (1.0 + s)
    t = s * r
    acc, rk = 0.0, r ** gap
    for coef in desc:
        acc = acc * t + coef * rk
        rk = rk * r
    return acc


class _PolynomialFormFactor(FormFactor):
    """Shared engine for the built-in families (see module docstring)."""

    def __init__(self, amplitude, phase, poly, pole_order, width):
        self._amp = float(amplitude)
        if not math.isfinite(self._amp * self._amp):
            raise ConfigError(f"form-factor amplitude {self._amp:.3g} overflows when squared")
        self.common_phase = complex(phase)
        poly = tuple(float(c) for c in poly)                 # Q in s = u**2, ascending
        # _over_pole keeps r and t in [0, 1], so |v|^2 / u <= (amp sum_k |Q_k|)^2
        bound = self._amp * math.fsum(abs(c) for c in poly)
        if not math.isfinite(bound * bound):
            raise ConfigError(f"form-factor coefficients {poly} with amplitude "
                              f"{self._amp:.3g} overflow |v|^2")
        dpoly = tuple(i * c for i, c in enumerate(poly))[1:] or (0.0,)
        self._desc, self._ddesc = poly[::-1], dpoly[::-1]    # Q and dQ/ds, descending
        self._q = int(pole_order)
        # Q / (1+s)^q and Q' / (1+s)^(q-1) as _over_pole gaps
        self._gap, self._dgap = self._q - len(poly) + 1, self._q - len(dpoly)
        self._c = float(width)
        self.scale = self._c
        self.p_exponent = 0.5
        # sqrt(u) Q(u^2) / (1 + u^2)^q ~ u^(1/2 - 2 (q - deg Q)) at infinity
        self.tail_exponent = 0.5 - 2.0 * self._gap

    def rational_part(self, z):
        """r(z) with v(x) = common_phase * sqrt(x) * r(x) for x >= 0.

        r = (amp / sqrt(c)) Q(s) / (1+s)**q, s = (z/c)**2, is even and
        rational with poles at +-i c only, so it is evaluated at complex z
        as well as on the half line.
        """
        return self._amp / math.sqrt(self._c) * _over_pole(self._desc, (z / self._c) ** 2,
                                                           self._gap)

    def _u(self, x):
        """u = x / c, a float or an array as x, for x >= 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        return x / self._c

    def _profile(self, u):
        """amp sqrt(u) Q(u^2) / (1 + u^2)^q, v / common_phase at x = c u."""
        return self._amp * np.sqrt(u) * _over_pole(self._desc, u * u, self._gap)

    def _mod_sq(self, u):
        """amp^2 u (Q(u^2) / (1 + u^2)^q)^2, |v|^2 at x = c u."""
        qr = _over_pole(self._desc, u * u, self._gap)
        return self._amp * self._amp * u * qr * qr

    def profile_scalar(self, x: float) -> float:
        return float(self._profile(self._u(x)))

    def profile_derivative_scalar(self, x: float) -> float:
        # d/dx of amp * sqrt(u) Q(s) (1+s)^(-q), s = u^2, valid for x > 0:
        # (amp/c) [Q r^q / (2 sqrt(u)) + 2 sqrt(u) u r (Q' r^(q-1) - q Q r^q)]
        # with r = 1/(1+s).
        u = x / self._c
        s = u * u
        qr = _over_pole(self._desc, s, self._gap)
        dqr = _over_pole(self._ddesc, s, self._dgap)
        root = math.sqrt(u)
        inner = qr / (2.0 * root) + 2.0 * root * (u / (1.0 + s)) * (dqr - self._q * qr)
        return self._amp * inner / self._c

    def mod_sq_scalar(self, x: float) -> float:
        return float(self._mod_sq(self._u(x)))

    def value(self, x):
        return self.common_phase * self._profile(self._u(x))

    def mod_sq(self, x):
        return self._mod_sq(self._u(x))

    def mod_sq_derivative(self, x):
        """Closed-form d|v|^2/domega.

        With F(u) = u Q(u^2)^2 (1+u^2)^(-m), m = 2q, the derivative is
        (amp^2/c) (1+u^2)^(-m-1) [Q^2 (1+u^2) + 4u^2 Q Q' (1+u^2) - 2m u^2 Q^2]
        evaluated at u = x/c, with Q' = dQ/ds, and computed without overflow as
        (amp^2/c) [(Q r^q)^2 (1 - 2m t) + 4t (Q r^q) (Q' r^(q-1))], r = 1/(1+u^2),
        t = u^2 r.
        """
        u = self._u(x)
        s = u * u
        t = s / (1.0 + s)
        qr = _over_pole(self._desc, s, self._gap)
        dqr = _over_pole(self._ddesc, s, self._dgap)
        num = qr * qr * (1.0 - 4.0 * self._q * t) + 4.0 * t * qr * dqr
        return (self._amp * self._amp / self._c) * num


class RationalFormFactor(_PolynomialFormFactor):
    """Family v(x) = sqrt(c) sqrt(u) (1 + a u^(2(n-1))) / (1+u^2)^(n+1), u = x/c.

    `n_index` >= 1 sets the pole order, `a` the single free polynomial
    coefficient, `cutoff` the internal width c.  The sqrt(c) prefactor keeps
    the peak amplitude O(1) independent of the width.
    """

    def __init__(self, n_index: int, a: float = 0.0, cutoff: float = 1.0, prefactor: float = 1.0):
        n_index = _require_index("n_index", n_index, 1, _MAX_N_INDEX)
        _require_finite(a=a, prefactor=prefactor)
        if not (cutoff > 0.0 and math.isfinite(cutoff)):
            raise ConfigError("cutoff must be finite and positive")
        if n_index == 1:
            poly = (1.0 + a,)
        else:
            poly = (1.0,) + (0.0,) * (n_index - 2) + (float(a),)
        super().__init__(prefactor * math.sqrt(cutoff), 1.0 + 0.0j, poly, n_index + 1, cutoff)
        self.n_index = n_index
        self.a = float(a)
        self.cutoff = float(cutoff)
        self.prefactor = float(prefactor)

    def descriptor(self) -> dict:
        return {"family": "rational", "n_index": self.n_index, "a": self.a,
                "cutoff": self.cutoff, "prefactor": self.prefactor}


class HydrogenFormFactor(_PolynomialFormFactor):
    """Dipole form factors of the lowest three p-to-ground transitions.

    Index i picks the transition.  `lambda1` is the first transition's cutoff
    in internal units (1.0 when the reference cutoff equals that scale); the
    remaining widths follow the fixed ratios 8/9 and 10/12.  The common phase
    is -i, so all pairwise products within the family are real.
    """

    def __init__(self, index: int, lambda1: float = 1.0, prefactor: float = 1.0):
        index = _require_index("hydrogen form-factor index", index, 1, 3)
        if not (lambda1 > 0.0 and math.isfinite(lambda1)):
            raise ConfigError("lambda1 must be finite and positive")
        _require_finite(prefactor=prefactor)
        i = index - 1
        width = _HYDROGEN_CUTOFF_RATIO[i] * lambda1
        amp = prefactor * _HYDROGEN_PREFACTOR[i] * math.sqrt(lambda1)
        super().__init__(amp, -1.0j, _HYDROGEN_POLY[i], _HYDROGEN_POLE_ORDER[i], width)
        self.index = index
        self.lambda1 = float(lambda1)
        self.prefactor = float(prefactor)

    def descriptor(self) -> dict:
        return {"family": "hydrogen", "index": self.index, "lambda1": self.lambda1,
                "prefactor": self.prefactor}


class TabulatedFormFactor(FormFactor):
    """Form factor given by complex samples on an ascending positive grid.

    v is linear between nodes, v(g0) (x/g0)**p_exponent below the first
    node and v(gN) (x/gN)**tail_exponent above the last, with tail_exponent
    < -1/2 so that |v|^2 stays integrable.  `value`, `mod_sq` and
    `mod_sq_derivative` (right-hand at a node) all read this interpolant,
    the one the level-shift kernels integrate, through `_piece`.
    """

    def __init__(self, grid, values, tail_exponent: float, p_exponent: float = 0.5):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ConfigError("tabulated grid needs at least two points")
        # finite first: np.diff of infinite nodes warns, and positive first:
        # the difference of two positive nodes cannot overflow
        _require_finite(grid=grid, values=values, tail_exponent=tail_exponent,
                        p_exponent=p_exponent)
        if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ConfigError("tabulated grid must be positive and strictly increasing")
        if values.shape != grid.shape:
            raise ConfigError("values must match the grid shape")
        if not tail_exponent < -0.5:
            raise ConfigError("tail_exponent must be < -1/2 for square integrability")
        if p_exponent < 0.0:
            raise ConfigError("p_exponent must be >= 0")
        self.grid = grid
        self.values = values
        self.tail_exponent = float(tail_exponent)
        self.p_exponent = float(p_exponent)
        self.scale = float(grid[-1])
        self.common_phase = None
        # each line's slope, kept for `_piece`; on the grid |v|^2 <= max
        # |v_k|^2, |d|v|^2/dx| <= 2 max |v_k| |slope|
        with np.errstate(over="ignore", invalid="ignore"):
            self._slopes = np.diff(values) / np.diff(grid)
            bound = 2.0 * np.abs(values).max() * np.abs(np.append(values, self._slopes))
        if not np.all(np.isfinite(bound)):
            raise ConfigError("tabulated |v|^2 or its slope overflows")

    def breakpoints(self) -> tuple:
        # the interpolant has a kink at every node
        return tuple(self.grid)

    def _piece(self, x, cell):
        """v on the piece `cell` continued to x, and the slope of its line:
        cell 0 is the power below the grid, cell k < N (N nodes) the line
        from node k - 1 to node k, cell N the power above.  The line is
        formed at every point, each power only on its own cell."""
        g, v = self.grid, self.values
        k = np.clip(cell, 1, g.size - 1) - 1
        slope = self._slopes[k]
        # the line away from its cell may overflow, and so may x / gN on
        # the tail cell
        with np.errstate(all="ignore"):
            out = slope * (x - g[k]) + v[k]
            for part, end, a in ((cell == 0, 0, self.p_exponent),
                                 (cell == g.size, -1, self.tail_exponent)):
                if part.any():
                    out[part] = v[end] * (x[part] / g[end]) ** a
        return out, slope

    def _at(self, x):
        """x >= 0 as a 1-d array, the cell of each point (searchsorted to the
        right, so that v at a node is its sample) and `_piece` there."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        cell = self.grid.searchsorted(x, side="right")
        return x, cell, *self._piece(x, cell)

    def value(self, x):
        v = self._at(x)[2]
        return v if np.ndim(x) else v[0]

    def mod_sq(self, x):
        v = self._at(x)[2]
        out = v.real * v.real + v.imag * v.imag
        return out if np.ndim(x) else float(out[0])

    def mod_sq_derivative(self, x):
        """2 Re(conj(v) v') on the lines, e |v(g)|^2 / g (x / g)^(e-1) on the
        power of an end node g with e twice its exponent (no g^e, which
        underflows on a far end): at x = 0, 0 for e > 1 or e = 0,
        |v(g0)|^2 / g0 for e = 1 and inf otherwise."""
        xs, cell, v, slope = self._at(x)
        out = 2.0 * (v.real * slope.real + v.imag * slope.imag)
        for part, end, a in ((cell == 0, 0, self.p_exponent),
                             (cell == self.grid.size, -1, self.tail_exponent)):
            e, g = 2.0 * a, self.grid[end]
            with np.errstate(divide="ignore"):
                out[part] = e and e * abs(self.values[end]) ** 2 / g * (xs[part] / g) ** (e - 1.0)
        return out if np.ndim(x) else float(out[0])

    def descriptor(self, array=np.ndarray.tolist) -> dict:
        """The factor's description, each of its three arrays entered as
        `array(a)`: a list of floats, or `model_digest`'s hash."""
        return {"family": "tabulated", "grid": array(self.grid),
                "values_re": array(self.values.real), "values_im": array(self.values.imag),
                "tail_exponent": self.tail_exponent, "p_exponent": self.p_exponent}


@dataclass(frozen=True)
class FriedrichsModel:
    """N discrete levels coupled to the half-line continuum.

    levels: internal level positions, ascending.
    coupling: the overall real coupling constant (the config key is "lambda").
    form_factors: one per level, same order.
    units: the unit system the internal quantities refer to.
    """

    levels: tuple
    coupling: float
    form_factors: tuple
    units: UnitSystem

    def __post_init__(self):
        levels = tuple(float(w) for w in self.levels)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "form_factors", tuple(self.form_factors))
        if len(levels) == 0:
            raise ConfigError("at least one level is required")
        _require_finite(levels=levels)
        if any(levels[i] > levels[i + 1] for i in range(len(levels) - 1)):
            raise ConfigError("levels must be sorted ascending")
        if len(self.form_factors) != len(levels):
            raise ConfigError("need exactly one form factor per level")
        if not math.isfinite(self.coupling * self.coupling):
            raise ConfigError("coupling must be finite and its square must not overflow")
        from .quad import _reach

        _require_reach(self.form_factors, _reach(self.form_factors), "the level-shift kernels",
                       squares=True)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)

    @functools.cached_property
    def _level_diag(self):
        """diag(levels), read-only, built once per model for every K(E)."""
        diag = np.diag(self.level_array())
        diag.flags.writeable = False
        return diag

    @functools.cached_property
    def _ray_rows(self):
        """quad's rotated ray table of the built-in pairs (`quad._ray_rows`)
        for D(E > 0), built on first use and kept on the model, so it dies
        with it."""
        from .quad import _RAY_STEP, _RAY_TURN, _ray_rows

        return _ray_rows(self.form_factors, _RAY_STEP, _RAY_TURN)

    @functools.cached_property
    def _gram_rows(self):
        """quad's real Gram table of the built-in pairs, the unrotated ray
        at the coarser step 1/8 (`quad._ray_rows`), for S(E <= 0), T(E, E')
        and the norms: there no singularity comes nearer the real half line
        than the form factors' poles (`quad` module docstring).  Kept like
        `_ray_rows`; a run that stays at E <= 0 builds this table alone."""
        from .quad import _GRAM_STEP, _ray_rows

        return _ray_rows(self.form_factors, _GRAM_STEP, 1.0)

    @functools.cached_property
    def _panel_rows(self):
        """quad's panel table of the pairs with a tabulated factor
        (`quad._panel_rows`), kept like `_ray_rows`."""
        from .quad import _panel_rows

        return _panel_rows(self.form_factors)

    def max_scale(self) -> float:
        return max(f.scale for f in self.form_factors)

    def with_coupling(self, coupling: float) -> "FriedrichsModel":
        return replace(self, coupling=float(coupling))

    def descriptor(self, array=np.ndarray.tolist) -> dict:
        """The model's description, each tabulated array entered as
        `array(a)` (`TabulatedFormFactor.descriptor`)."""
        return {
            "reference_cutoff": self.units.reference_cutoff,
            "levels": list(self.levels),
            "lambda": self.coupling,
            "form_factors": [f.descriptor() if f.common_phase is not None
                             else f.descriptor(array) for f in self.form_factors],
        }


def _array_digest(a) -> str:
    """Hex sha256 of the array's little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(a, "<f8").tobytes()).hexdigest()


def model_digest(model: FriedrichsModel) -> str:
    """Short stable hash of the model description, for output metadata: the
    first 16 hex digits of the sha256 of the sorted JSON descriptor, with
    each tabulated array (grid, values_re, values_im) entered as the hex
    sha256 of its little-endian float64 bytes.  Two models share a hash
    exactly when their descriptors hold the same floats."""
    payload = json.dumps(model.descriptor(_array_digest), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def l2_norm_sq(model: FriedrichsModel, n: int) -> float:
    """Integral of |v_n|^2 over the half line: a node sum for the built-in
    families, the panel table and power-law ends for tabulated factors
    (`quad._norms_sq`)."""
    from .quad import _norms_sq

    if not 1 <= n <= model.n_levels:
        raise ValueError(f"level index {n} outside 1..{model.n_levels}")
    return _norms_sq(model)[n - 1]


def total_l2_norm_sq(model: FriedrichsModel) -> float:
    """sum_n `l2_norm_sq`, every norm read in one pass."""
    from .quad import _norms_sq

    return sum(_norms_sq(model))


# ---------------------------------------------------------------------------
# Presets and config files


def _hydrogen_preset() -> FriedrichsModel:
    omega_tilde = OMEGA_HYDROGEN / LAMBDA1_HYDROGEN
    levels = tuple(omega_tilde * r for r in (1.0, 32.0 / 27.0, 5.0 / 4.0))
    factors = tuple(HydrogenFormFactor(i) for i in (1, 2, 3))
    return FriedrichsModel(levels, math.sqrt(COUPLING_SQ_HYDROGEN), factors,
                           UnitSystem(LAMBDA1_HYDROGEN))


def _three_level_preset() -> FriedrichsModel:
    factors = (RationalFormFactor(1, 0.0, 1.0),
               RationalFormFactor(2, 2.0, 1.0),
               RationalFormFactor(3, 1.0, 1.0))
    return FriedrichsModel((-0.01, 0.01, 0.02), 1.0, factors, UnitSystem(1.0))


PRESETS = {
    "hydrogen-4level": _hydrogen_preset,
    "three-level-fig": _three_level_preset,
}


def make_preset(name: str, coupling: float | None = None) -> FriedrichsModel:
    try:
        model = PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    if coupling is not None:
        model = model.with_coupling(coupling)
    return model


def _factor_from_descriptor(d: dict) -> FormFactor:
    d = dict(d)
    family = d.pop("family", None)
    try:
        if family == "rational":
            return RationalFormFactor(**d)
        if family == "hydrogen":
            return HydrogenFormFactor(**d)
        if family == "tabulated":
            values = np.asarray(d.pop("values_re"), dtype=float) + 1j * np.asarray(
                d.pop("values_im", 0.0), dtype=float)
            return TabulatedFormFactor(d.pop("grid"), values, **d)
    except (TypeError, OverflowError, ConfigError) as exc:
        raise ConfigError(f"bad form-factor description: {exc}") from exc
    raise ConfigError(f"unknown form-factor family {family!r}")


def model_from_dict(data: dict) -> FriedrichsModel:
    try:
        units = UnitSystem(float(data.get("reference_cutoff", 1.0)))
        levels = tuple(float(w) for w in data["levels"])
        coupling = float(data["lambda"])
        factors = tuple(_factor_from_descriptor(d) for d in data["form_factors"])
    except KeyError as exc:
        raise ConfigError(f"missing model field {exc}") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad model field: {exc}") from exc
    return FriedrichsModel(levels, coupling, factors, units)


def load_model(path) -> FriedrichsModel:
    """Read a model from a JSON config file.

    Expected keys: reference_cutoff (optional), levels, lambda,
    form_factors (list of family descriptors).  The quadrature tolerances
    are fixed, not read from the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("model file must contain a JSON object")
    return model_from_dict(data)
