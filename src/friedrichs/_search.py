"""The two searches behind the solver and the certificate.

Every root and every maximum in the package goes through one of the helpers
below.  Both are Chandrupatla's bracketing methods: the root finder mixes
inverse quadratic interpolation with bisection (Adv. Eng. Softw. 28, 145,
1997), the minimizer quadratic fits with golden sections (Comput. Methods
Appl. Mech. Eng. 152, 211, 1998).  They are ports of
scipy.optimize.elementwise.find_root and find_minimum as of scipy 1.17.1,
step for step: the same updates, termination tests, default tolerances and
iteration limits, the same arrays handed to the objective and the same
final brackets, so results agree to the last bit.  Objectives are
elementwise: f(x, *args)[i] depends only on x[i] and args[i], so one call
can refine many brackets at once.

The package's objectives are called with 1 to 15 elements, where every
numpy call on the search state costs about a microsecond whatever its size.
So each element's state is a dict of Python floats, stepped by scalar code
whose +, -, *, / and sqrt round as numpy's float64 loops do; only the
objective sees arrays, one call per iteration on the elements still
active.  The helpers `_div`, `_clip` and `_same_sign` keep numpy's answers
where Python's differ: division by zero, NaN and signed zeros.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .quad import NumericalError

# status codes of scipy.optimize.elementwise
_CONVERGED, _SIGN_ERROR, _MAXITER, _VALUE_ERROR = 0, -1, -2, -3
_EPS = np.finfo(float).eps
_TINY = float(np.finfo(float).smallest_normal)
_GOLDEN = 0.5 + 0.5 * 5 ** 0.5
_POINTS = itemgetter("x1", "x2", "x3", "f1", "f2", "f3")


class BracketError(NumericalError):
    """No sign-changing bracket could be established for a root search."""


class SearchResult(NamedTuple):
    """Per-element outcome of a search, shaped like the broadcast bracket.

    x, f_x: the root (or minimizer) and f there; bracket, f_bracket: the
    final bracket, ascending, and f at its points; status: 0 converged, -1
    invalid bracket, -2 iteration limit, -3 non-finite value.
    """

    x: np.ndarray
    f_x: np.ndarray
    bracket: tuple
    f_bracket: tuple
    status: np.ndarray
    success: np.ndarray


def _div(a, b):
    """a / b as numpy divides: by zero, +-inf or NaN instead of an error."""
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _clip(t, lo, hi):
    """np.clip(t, lo, hi) on arrays: NaN in any operand gives NaN, and a tie
    gives the bound."""
    m = t if t != t or t > lo else lo
    return m if m != m or m < hi else hi


def _same_sign(a, b):
    """np.sign(a) == np.sign(b): false where either is NaN."""
    return a > 0 and b > 0 or a < 0 and b < 0 or a == 0 and b == 0


def _start(f, xs, args):
    """Broadcast the bracket points and args, evaluate f at the points, and
    return 1-D working copies of all with the broadcast shape."""
    arrays = np.broadcast_arrays(*xs, *args)
    xs, args = [np.asarray(x, dtype=float) for x in arrays[:len(xs)]], arrays[len(xs):]
    fs = [f(x, *args) for x in xs]
    shape = xs[0].shape
    fs = [np.broadcast_to(np.asarray(v, dtype=float), shape) for v in fs]
    flat = [np.array(a).reshape(-1) for a in (*xs, *fs, *args)]
    return flat[:len(xs)], flat[len(xs):2 * len(xs)], flat[2 * len(xs):], shape


def _iterate(f, args, states, maxiter, step, absorb, check):
    """The loop shared by both searches.

    states holds one dict of Python floats per element.  check(s) tells
    whether element s has stopped, and sets s["status"] if so.  Each
    iteration evaluates f once, on the array of step(s) over the elements
    still active, with args taken at their positions, and hands each of
    them its value through absorb(s, x, fx).  Elements still active after
    maxiter iterations get status -2.
    """
    active = [i for i, s in enumerate(states) if not check(s)]
    nit = 0
    while nit < maxiter and active:
        x = [step(states[i]) for i in active]
        part = args if len(active) == len(states) else [a[active] for a in args]
        fx = np.asarray(f(np.array(x), *part), dtype=float).tolist()
        for i, xi, fi in zip(active, x, fx, strict=True):
            absorb(states[i], xi, fi)
        nit += 1
        active = [i for i in active if not check(states[i])]
    for i in active:
        states[i]["status"] = _MAXITER


def _record(states, x, f_x, xs, fs, swap, shape) -> SearchResult:
    """SearchResult from the final states: bracket points xs with values fs,
    whose two ends trade places where swap(s), so that the bracket
    ascends."""
    for s in states:
        if swap(s):
            for lo, hi in ((xs[0], xs[-1]), (fs[0], fs[-1])):
                s[lo], s[hi] = s[hi], s[lo]

    def out(key, dtype=float):
        return np.array([s[key] for s in states], dtype=dtype).reshape(shape)[()]

    status = out("status", np.int32)
    return SearchResult(out(x), out(f_x), tuple(map(out, xs)), tuple(map(out, fs)),
                        status, status == _CONVERGED)


def _per_element(tol, shape):
    """A tolerance, scalar or array, broadcast to the bracket: one float per
    element."""
    return np.broadcast_to(np.asarray(tol, dtype=float), shape).reshape(-1).tolist()


def _find_root(f, lo, hi, *, args=(), xatol=None, xrtol=None, fatol=None, frtol=0.0,
               maxiter=None) -> SearchResult:
    """Chandrupatla's root search on [lo, hi], elementwise; xatol, xrtol and
    fatol may be arrays that broadcast to the bracket, one tolerance per
    element."""
    (x1, x2), (f1, f2), args, shape = _start(f, (lo, hi), args)
    xatol = _per_element(4 * _TINY if xatol is None else xatol, shape)
    fatol = _per_element(_TINY if fatol is None else fatol, shape)
    xrtol = _per_element(4 * _EPS if xrtol is None else xrtol, shape)
    frtol = float(frtol)
    if maxiter is None:
        maxiter = math.log2(np.finfo(float).max) - math.log2(_TINY)
    states = []
    for x1, x2, f1, f2, xa, xr, fa in zip(x1.tolist(), x2.tolist(), f1.tolist(), f2.tolist(),
                                          xatol, xrtol, fatol):
        a1, a2 = abs(f1), abs(f2)  # np.minimum of the two, NaN propagating
        states.append(dict(x1=x1, f1=f1, x2=x2, f2=f2, x3=None, f3=None, xatol=xa, xrtol=xr,
                           ftol=fa + frtol * (a1 if a1 != a1 or a1 < a2 else a2)))

    def step(s):
        x1, x2 = s["x1"], s["x2"]
        t = 0.5
        if s["x3"] is not None:
            # inverse quadratic interpolation where Chandrupatla's test
            # admits it, bisection elsewhere, kept tol/2 inside the bracket.
            # x3 - x2 and x2 - x1, the widths of the last bracket and of this
            # one, are never 0.  phi1, where scipy ignores numpy's divide
            # warnings, and the test's square roots, which numpy takes of a
            # negative as NaN, keep numpy's answers
            x3, f1, f2, f3 = s["x3"], s["f1"], s["f2"], s["f3"]
            xi1 = (x1 - x2) / (x3 - x2)
            phi1 = _div(f1 - f2, f3 - f2)
            if 0 <= xi1 <= 1 and 1 - math.sqrt(1 - xi1) < phi1 < math.sqrt(xi1):
                alpha = (x3 - x1) / (x2 - x1)
                t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                     - alpha * f1 / (f3 - f1) * f2 / (f2 - f3))
            tl = 0.5 * s["tol"] / s["dx"]
            t = _clip(t, tl, 1 - tl)
        return x1 + t * (x2 - x1)

    def absorb(s, x, fx):
        if _same_sign(fx, s["f1"]):
            s["x3"], s["f3"] = s["x1"], s["f1"]
        else:
            s["x3"], s["f3"], s["x2"], s["f2"] = s["x2"], s["f2"], s["x1"], s["f1"]
        s["x1"], s["f1"] = x, fx

    def check(s):
        x1, x2, f1, f2 = s["x1"], s["x2"], s["f1"], s["f2"]
        xmin, fmin = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        if abs(fmin) <= s["ftol"]:
            status = _CONVERGED
        elif _same_sign(f1, f2):
            status = _SIGN_ERROR
        elif not (math.isfinite(x1) and math.isfinite(x2)) or f1 != f1 and f2 != f2:
            status = _VALUE_ERROR
        else:
            s["xmin"], s["fmin"] = xmin, fmin
            s["dx"] = dx = abs(x2 - x1)
            s["tol"] = tol = abs(xmin) * s["xrtol"] + s["xatol"]
            if not dx < tol:
                return False
            status = _CONVERGED
        if status != _CONVERGED:
            xmin = fmin = math.nan
        s["xmin"], s["fmin"], s["status"] = xmin, fmin, status
        return True

    _iterate(f, args, states, maxiter, step, absorb, check)
    return _record(states, "xmin", "fmin", ("x1", "x2"), ("f1", "f2"),
                   lambda s: not s["x1"] < s["x2"], shape)


def _find_minimum(f, bracket, *, xatol=None, xrtol=None, fatol=None,
                  frtol=None, maxiter=100) -> SearchResult:
    """Chandrupatla's minimum search on the three-point bracket (x1, x2, x3),
    elementwise; a valid bracket has f(x2) at or below f at both ends."""
    xs, fs, args, shape = _start(f, bracket, ())
    xs, fs = np.stack(xs), np.stack(fs)
    order = np.argsort(xs, axis=0)
    points = (*np.take_along_axis(xs, order, axis=0), *np.take_along_axis(fs, order, axis=0))
    fatol = float(_TINY if fatol is None else fatol)
    frtol = float(_TINY if frtol is None else frtol)
    xatol = float(_TINY if xatol is None else xatol)
    xrtol = float(math.sqrt(_EPS) if xrtol is None else xrtol)
    states = [dict(x1=x1, x2=x2, x3=x3, f1=f1, f2=f2, f3=f3, q0=x3)
              for x1, x2, x3, f1, f2, f3 in zip(*(p.tolist() for p in points))]

    def step(s):
        x1, x2, x3, f1, f2, f3 = _POINTS(s)
        xtol = s["xtol"]
        x21, x32 = x2 - x1, x3 - x2
        a = x21 * (f3 - f2)
        b = x32 * (f1 - f2)
        q1 = 0.5 * (_div(a, a + b) * (x1 - x3) + x2 + x3)
        # the parabola's vertex where it moved less than half the last step
        # (kept xtol away from x2), a golden section step otherwise
        fit = abs(q1 - s["q0"]) < 0.5 * abs(x21)
        s["q0"] = q1
        if not fit:
            return x2 + (2 - _GOLDEN) * x32
        if abs(q1 - x2) <= xtol:
            return x2 + ((x32 > 0) - (x32 < 0)) * xtol  # np.sign(x32) * xtol
        return q1

    def absorb(s, x, fx):
        up = fx > s["f2"]
        if _same_sign(x - s["x2"], s["x3"] - s["x2"]):  # x lies towards x3
            if up:
                s["x3"], s["f3"] = x, fx
            else:
                s["x1"], s["f1"], s["x2"], s["f2"] = s["x2"], s["f2"], x, fx
        elif up:
            s["x1"], s["f1"] = x, fx
        else:
            s["x3"], s["f3"], s["x2"], s["f2"] = s["x2"], s["f2"], x, fx

    def check(s):
        x1, x2, x3, f1, f2, f3 = _POINTS(s)
        if f2 > f1 or f2 > f3 or not math.isfinite(x1 + x2 + x3 + f1 + f2 + f3):
            s["status"] = _SIGN_ERROR if f2 > f1 or f2 > f3 else _VALUE_ERROR
            s["x2"] = s["f2"] = math.nan
            return True
        # x3 becomes the end farther from x2, where a golden section goes
        if abs(x3 - x2) < abs(x2 - x1):
            s["x1"], s["x3"], s["f1"], s["f3"] = x1, x3, f1, f3 = x3, x1, f3, f1
        s["xtol"] = xtol = abs(x2) * xrtol + xatol
        ftol = abs(f2) * frtol + fatol
        if abs(x3 - x2) <= 2 * xtol or f1 - 2 * f2 + f3 <= 2 * ftol:
            s["status"] = _CONVERGED
            return True
        return False

    _iterate(f, args, states, maxiter, step, absorb, check)
    return _record(states, "x2", "f2", ("x1", "x2", "x3"), ("f1", "f2", "f3"),
                   lambda s: s["x1"] >= s["x3"], shape)


def bracketed_root(f, lo, hi, *, args=(), what="root search", **tolerances) -> SearchResult:
    """Roots of f inside [lo, hi], elementwise over array brackets.

    The result's bracket is the final one and encloses x.  Raises
    BracketError where f(lo) and f(hi) share a sign, NumericalError where
    the search did not converge.
    """
    res = _find_root(f, lo, hi, args=args, **tolerances)
    status = np.atleast_1d(res.status)
    if np.any(status == _SIGN_ERROR):
        flo, fhi = res.f_bracket
        raise BracketError(f"{what}: no sign change on [{lo}, {hi}] "
                           f"(f = {flo}, {fhi})")
    if not np.all(res.success):
        raise NumericalError(f"{what} did not converge (status {status.min()})")
    return res


def grid_max(f, grid, vals, *, what="maximum search", **tolerances):
    """Largest of the samples vals = f(grid) on an ascending grid, refined
    around the argmax.

    An interior grid maximum is refined by minimizing -f on the three-point
    bracket around it; a maximum at either end of the grid is returned as
    sampled.  Returns (argmax, max).
    """
    k = int(np.argmax(vals))
    if k == 0 or k == grid.size - 1:
        return float(grid[k]), float(vals[k])
    res = _find_minimum(lambda x: -f(x), tuple(grid[k - 1:k + 2]), **tolerances)
    if not res.success:
        raise NumericalError(f"{what} did not converge (status {res.status})")
    return float(res.x), float(-res.f_x)
