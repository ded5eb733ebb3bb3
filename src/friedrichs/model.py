"""Model definitions for an N-level Friedrichs system.

A model consists of N discrete levels omega_1 <= ... <= omega_N coupled by a
single real constant lambda to a continuum occupying [0, infinity) with flat
spectral density.  Level n couples through a form factor v_n(omega), a
complex-valued function on the positive half line that vanishes like
omega**p (p > 0) at threshold and decays at large omega.

Everything numerical runs in a dimensionless internal unit system: energies
are stored as (physical energy) / reference_cutoff and form-factor values as
(physical value) / sqrt(reference_cutoff).  `UnitSystem` converts the
energies; all other modules see only internal quantities.

Built-in form-factor families share one algebraic shape,

    v(x) = phase * A * sqrt(u) * Q(u**2) / (1 + u**2)**q,   u = x / c,

with a real polynomial Q, integer pole order q and width c.  This makes
closed-form modulus-squared derivatives available, which the threshold
certificates need as exact suprema rather than sampled estimates.
"""

from __future__ import annotations

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

    def energy_to_internal(self, e):
        return np.asarray(e, dtype=float) / self.reference_cutoff if np.ndim(e) else float(e) / self.reference_cutoff

    def energy_to_physical(self, e):
        return np.asarray(e, dtype=float) * self.reference_cutoff if np.ndim(e) else float(e) * self.reference_cutoff


class FormFactor:
    """Base class for coupling functions v(omega) on the half line.

    Subclasses provide `value`, `mod_sq` and `mod_sq_derivative` (vectorized),
    scalar fast paths for quadrature callbacks, a characteristic width
    `scale`, the threshold exponent `p_exponent`, and `common_phase`: a unit
    complex number phi with v(x) = phi * profile(x) for a real signed profile,
    or None when no such global phase exists.  Pairwise products
    conj(v_n) v_m then reduce to real integrands whenever both phases are
    known, which keeps all built-in matrix elements on the real quadrature
    path.
    """

    p_exponent: float = 0.5
    scale: float = 1.0
    common_phase: complex | None = None

    def value(self, x):
        raise NotImplementedError

    def mod_sq(self, x):
        raise NotImplementedError

    def mod_sq_derivative(self, x):
        raise NotImplementedError

    def profile_scalar(self, x: float) -> float:
        raise NotImplementedError

    def profile_derivative_scalar(self, x: float) -> float:
        raise NotImplementedError

    def mod_sq_scalar(self, x: float) -> float:
        raise NotImplementedError

    def value_scalar(self, x: float) -> complex:
        if self.common_phase is None:
            raise NotImplementedError
        return self.common_phase * self.profile_scalar(x)

    def breakpoints(self) -> tuple:
        """Abscissas where the factor is not smooth, for adaptive quadrature."""
        return (self.scale,)

    def scaled(self, factor: float) -> "FormFactor":
        """Return a copy with the overall amplitude multiplied by `factor`."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


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
        dpoly = tuple(i * c for i, c in enumerate(poly))[1:] or (0.0,)
        self._desc, self._ddesc = poly[::-1], dpoly[::-1]    # Q and dQ/ds, descending
        self._q = int(pole_order)
        # Q / (1+s)^q and Q' / (1+s)^(q-1) as _over_pole gaps
        self._gap, self._dgap = self._q - len(poly) + 1, self._q - len(dpoly)
        self._c = float(width)
        self.scale = self._c
        self.p_exponent = 0.5

    def profile_scalar(self, x: float) -> float:
        if x < 0.0:
            raise ValueError("form factors are defined for omega >= 0")
        u = x / self._c
        return self._amp * math.sqrt(u) * _over_pole(self._desc, u * u, self._gap)

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
        if x < 0.0:
            raise ValueError("form factors are defined for omega >= 0")
        u = x / self._c
        qr = _over_pole(self._desc, u * u, self._gap)
        return self._amp * self._amp * u * qr * qr

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        u = x / self._c
        out = self._amp * np.sqrt(u) * _over_pole(self._desc, u * u, self._gap)
        return self.common_phase * out

    def mod_sq(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        u = x / self._c
        qr = _over_pole(self._desc, u * u, self._gap)
        return self._amp * self._amp * u * qr * qr

    def mod_sq_derivative(self, x):
        """Closed-form d|v|^2/domega.

        With F(u) = u Q(u^2)^2 (1+u^2)^(-m), m = 2q, the derivative is
        (amp^2/c) (1+u^2)^(-m-1) [Q^2 (1+u^2) + 4u^2 Q Q' (1+u^2) - 2m u^2 Q^2]
        evaluated at u = x/c, with Q' = dQ/ds, and computed without overflow as
        (amp^2/c) [(Q r^q)^2 (1 - 2m t) + 4t (Q r^q) (Q' r^(q-1))], r = 1/(1+u^2),
        t = u^2 r.
        """
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        u = x / self._c
        s = u * u
        t = s / (1.0 + s)
        qr = _over_pole(self._desc, s, self._gap)
        dqr = _over_pole(self._ddesc, s, self._dgap)
        num = qr * qr * (1.0 - 4.0 * self._q * t) + 4.0 * t * qr * dqr
        out = (self._amp * self._amp / self._c) * num
        return float(out[0]) if scalar else out


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

    def scaled(self, factor: float) -> "RationalFormFactor":
        return RationalFormFactor(self.n_index, self.a, self.cutoff, self.prefactor * factor)

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

    def scaled(self, factor: float) -> "HydrogenFormFactor":
        return HydrogenFormFactor(self.index, self.lambda1, self.prefactor * factor)

    def descriptor(self) -> dict:
        return {"family": "hydrogen", "index": self.index, "lambda1": self.lambda1,
                "prefactor": self.prefactor}


class TabulatedFormFactor(FormFactor):
    """Form factor given by complex samples on an ascending positive grid.

    Inside the grid the value is linearly interpolated.  Below the first grid
    point the value continues as v(g0) (x/g0)**p_exponent, above the last as
    v(gN) (x/gN)**tail_exponent, with tail_exponent < -1/2 required so that
    the modulus squared stays integrable.  The modulus-squared derivative is
    built from central differences on the grid, so certificates over
    tabulated data are only as sharp as the tabulation.
    """

    def __init__(self, grid, values, tail_exponent: float, p_exponent: float = 0.5):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ConfigError("tabulated grid needs at least two points")
        if np.any(np.diff(grid) <= 0.0) or grid[0] <= 0.0:
            raise ConfigError("tabulated grid must be positive and strictly increasing")
        if values.shape != grid.shape:
            raise ConfigError("values must match the grid shape")
        _require_finite(grid=grid, values=values, tail_exponent=tail_exponent,
                        p_exponent=p_exponent)
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
        self._msq = np.abs(values) ** 2
        self._dmsq = np.gradient(self._msq, grid)

    def breakpoints(self) -> tuple:
        # the interpolant has a kink at every node
        return tuple(self.grid)

    def value(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        g0, gn = self.grid[0], self.grid[-1]
        re = np.interp(x, self.grid, self.values.real)
        im = np.interp(x, self.grid, self.values.imag)
        out = re + 1j * im
        lo = x < g0
        if np.any(lo):
            out[lo] = self.values[0] * (x[lo] / g0) ** self.p_exponent
        hi = x > gn
        if np.any(hi):
            out[hi] = self.values[-1] * (x[hi] / gn) ** self.tail_exponent
        return out[0] if scalar else out

    def value_scalar(self, x: float) -> complex:
        return complex(self.value(x))

    def mod_sq(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        g0, gn = self.grid[0], self.grid[-1]
        out = np.interp(x, self.grid, self._msq)
        lo = x < g0
        if np.any(lo):
            out[lo] = self._msq[0] * (x[lo] / g0) ** (2.0 * self.p_exponent)
        hi = x > gn
        if np.any(hi):
            out[hi] = self._msq[-1] * (x[hi] / gn) ** (2.0 * self.tail_exponent)
        return float(out[0]) if scalar else out

    def mod_sq_scalar(self, x: float) -> float:
        return float(self.mod_sq(x))

    def mod_sq_derivative(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0):
            raise ValueError("form factors are defined for omega >= 0")
        g0, gn = self.grid[0], self.grid[-1]
        out = np.interp(x, self.grid, self._dmsq)
        lo = x < g0
        if np.any(lo):
            # |v|^2 = msq0 (x/g0)^e below the grid, e = 2 p_exponent; at x = 0
            # the derivative is 0, msq0/g0 or +inf depending on e vs 1.
            e = 2.0 * self.p_exponent
            xs = x[lo]
            vals = np.empty_like(xs)
            pos = xs > 0.0
            vals[pos] = self._msq[0] * e * xs[pos] ** (e - 1.0) / g0 ** e
            if np.any(~pos):
                at0 = self._msq[0] * e / g0 if e == 1.0 else (0.0 if e > 1.0 else np.inf)
                vals[~pos] = at0
            out[lo] = vals
        hi = x > gn
        if np.any(hi):
            e = 2.0 * self.tail_exponent
            out[hi] = self._msq[-1] * e * x[hi] ** (e - 1.0) / gn ** e
        return float(out[0]) if scalar else out

    def scaled(self, factor: float) -> "TabulatedFormFactor":
        return TabulatedFormFactor(self.grid, self.values * factor, self.tail_exponent, self.p_exponent)

    def descriptor(self) -> dict:
        return {"family": "tabulated", "grid": self.grid.tolist(),
                "values_re": self.values.real.tolist(), "values_im": self.values.imag.tolist(),
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

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)

    def max_scale(self) -> float:
        return max(f.scale for f in self.form_factors)

    def with_coupling(self, coupling: float) -> "FriedrichsModel":
        return replace(self, coupling=float(coupling))

    def descriptor(self) -> dict:
        return {
            "reference_cutoff": self.units.reference_cutoff,
            "levels": list(self.levels),
            "lambda": self.coupling,
            "form_factors": [f.descriptor() for f in self.form_factors],
        }


def model_digest(model: FriedrichsModel) -> str:
    """Short stable hash of the model description, for output metadata."""
    payload = json.dumps(model.descriptor(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def eval_form_factor(model: FriedrichsModel, n: int, omega) -> complex:
    """Value of v_n at omega (level index n is 1-based)."""
    if not 1 <= n <= model.n_levels:
        raise ValueError(f"level index {n} outside 1..{model.n_levels}")
    if np.any(np.asarray(omega) < 0.0):
        raise ValueError("form factors are defined for omega >= 0")
    return model.form_factors[n - 1].value(omega)


def l2_norm_sq(model: FriedrichsModel, n: int, settings=None) -> float:
    """Integral of |v_n|^2 over the half line."""
    from .quad import integrate_semiinf

    if not 1 <= n <= model.n_levels:
        raise ValueError(f"level index {n} outside 1..{model.n_levels}")
    f = model.form_factors[n - 1]
    value, _ = integrate_semiinf(f.mod_sq_scalar, settings, breakpoints=f.breakpoints(),
                                 split=10.0 * f.scale)
    return value


def total_l2_norm_sq(model: FriedrichsModel, settings=None) -> float:
    return sum(l2_norm_sq(model, n, settings) for n in range(1, model.n_levels + 1))


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
    form_factors (list of family descriptors).  Quadrature tolerances come
    from the command line, not from the file.
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
