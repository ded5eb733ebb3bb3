"""The two searches behind the solver and the certificate.

Every root and every maximum in the package goes through one of the helpers
below.  Both are Chandrupatla's bracketing methods: the root finder mixes
inverse quadratic interpolation with bisection (Adv. Eng. Softw. 28, 145,
1997), the minimizer quadratic fits with golden sections (Comput. Methods
Appl. Mech. Eng. 152, 211, 1998).  They are numpy ports of
scipy.optimize.elementwise.find_root and find_minimum as of scipy 1.17.1,
step for step: the same updates, termination tests, default tolerances and
iteration limits, the same compression of finished elements and the same
final brackets, so results agree to the last bit.  Objectives are
elementwise: f(x, *args)[i] depends only on x[i] and args[i], so one call
can refine many brackets at once.
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
_TINY = np.finfo(float).smallest_normal
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


def _iterate(f, args, work, maxiter, step, absorb, check):
    """The loop shared by both searches.

    work holds the search state: 1-D arrays over the elements still active,
    which are compressed as elements finish, and shared scalars.  Each
    iteration evaluates f once at step(work) on the active elements, hands
    the values to absorb, and retires the elements that check marks
    stopped (check also sets their work["status"]).  Elements still active
    after maxiter iterations get status -2.  Returns the final work arrays
    of every element, in input order.
    """
    n = work["status"].size
    active = np.arange(n)
    done = {}

    def retire(stop):
        nonlocal active, args
        if not stop.any():
            return
        for k, v in work.items():
            if np.ndim(v):
                done.setdefault(k, np.zeros(n, v.dtype))[active[stop]] = v[stop]
                work[k] = v[~stop]
        active, args = active[~stop], [a[~stop] for a in args]

    retire(check(work))
    nit = 0
    while nit < maxiter and active.size:
        x = step(work)
        absorb(work, x, np.asarray(f(x, *args), dtype=float))
        nit += 1
        retire(check(work))
    work["status"][:] = _MAXITER
    retire(np.ones(active.size, dtype=bool))
    return done


def _record(done, x, f_x, xs, fs, swap, shape) -> SearchResult:
    """SearchResult from the final work arrays: bracket points xs with values
    fs, whose two ends trade places where swap, so that the bracket
    ascends."""
    def out(a):
        return a.reshape(shape)[()]

    def ends(keys):
        lo, hi = done[keys[0]], done[keys[-1]]
        return (np.where(swap, hi, lo), *(done[k] for k in keys[1:-1]),
                np.where(swap, lo, hi))

    status = done["status"]
    return SearchResult(out(done[x]), out(done[f_x]),
                        tuple(map(out, ends(xs))), tuple(map(out, ends(fs))),
                        out(status), out(status == _CONVERGED))


def _find_root(f, lo, hi, *, args=(), xatol=None, xrtol=None, fatol=None, frtol=0.0,
               maxiter=None) -> SearchResult:
    """Chandrupatla's root search on [lo, hi], elementwise; xatol may be an
    array that broadcasts to the bracket, one tolerance per element."""
    (x1, x2), (f1, f2), args, shape = _start(f, (lo, hi), args)
    xatol = 4 * _TINY if xatol is None else xatol
    if np.ndim(xatol):
        xatol = np.broadcast_to(np.asarray(xatol, dtype=float), shape).reshape(-1)
    xrtol = 4 * _EPS if xrtol is None else xrtol
    fatol = _TINY if fatol is None else fatol
    if maxiter is None:
        maxiter = math.log2(np.finfo(float).max) - math.log2(_TINY)
    work = dict(x1=x1, f1=f1, x2=x2, f2=f2, x3=None, f3=None, t=0.5, xatol=xatol,
                frtol=frtol * np.minimum(np.abs(f1), np.abs(f2)),
                status=np.full(x1.size, 1, dtype=np.int32))

    def step(w):
        if w["x3"] is not None:
            # inverse quadratic interpolation where Chandrupatla's test
            # admits it, bisection elsewhere, kept tol/2 inside the bracket
            x1, x2, x3, f1, f2, f3 = _POINTS(w)
            xi1 = (x1 - x2) / (x3 - x2)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi1 = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
            f1j, f2j, f3j, alphaj = f1[j], f2[j], f3[j], alpha[j]
            t = np.full_like(alpha, 0.5)
            t[j] = (f1j / (f1j - f2j) * f3j / (f3j - f2j)
                    - alphaj * f1j / (f3j - f1j) * f2j / (f2j - f3j))
            tl = 0.5 * w["tol"] / w["dx"]
            w["t"] = np.clip(t, tl, 1 - tl)
        return w["x1"] + w["t"] * (w["x2"] - w["x1"])

    def absorb(w, x, fx):
        same = np.sign(fx) == np.sign(w["f1"])
        w["x3"] = np.where(same, w["x1"], w["x2"])
        w["f3"] = np.where(same, w["f1"], w["f2"])
        w["x2"] = np.where(same, w["x2"], w["x1"])
        w["f2"] = np.where(same, w["f2"], w["f1"])
        w["x1"], w["f1"] = x, fx

    def check(w):
        x1, x2, f1, f2, status = w["x1"], w["x2"], w["f1"], w["f2"], w["status"]
        first = np.abs(f1) < np.abs(f2)
        xmin, fmin = np.where(first, x1, x2), np.where(first, f1, f2)
        stop = np.abs(fmin) <= fatol + w["frtol"]
        # masked assignments only where their mask holds an element
        if stop.any():
            status[stop] = _CONVERGED
        for bad, code in ((np.sign(f1) == np.sign(f2), _SIGN_ERROR),
                          (~(np.isfinite(x1) & np.isfinite(x2))
                           | np.isnan(f1) & np.isnan(f2), _VALUE_ERROR)):
            bad &= ~stop
            if bad.any():
                xmin[bad], fmin[bad], status[bad], stop[bad] = np.nan, np.nan, code, True
        w["xmin"], w["fmin"] = xmin, fmin
        w["dx"] = np.abs(x2 - x1)
        w["tol"] = np.abs(xmin) * xrtol + w["xatol"]
        narrow = w["dx"] < w["tol"]
        if narrow.any():
            status[narrow], stop[narrow] = _CONVERGED, True
        return stop

    done = _iterate(f, args, work, maxiter, step, absorb, check)
    swap = ~(done["x1"] < done["x2"])
    return _record(done, "xmin", "fmin", ("x1", "x2"), ("f1", "f2"), swap, shape)


def _find_minimum(f, bracket, *, xatol=None, xrtol=None, fatol=None,
                  frtol=None, maxiter=100) -> SearchResult:
    """Chandrupatla's minimum search on the three-point bracket (x1, x2, x3),
    elementwise; a valid bracket has f(x2) at or below f at both ends."""
    xs, fs, args, shape = _start(f, bracket, ())
    xs, fs = np.stack(xs), np.stack(fs)
    order = np.argsort(xs, axis=0)
    x1, x2, x3 = np.take_along_axis(xs, order, axis=0)
    f1, f2, f3 = np.take_along_axis(fs, order, axis=0)
    fatol = _TINY if fatol is None else fatol
    frtol = _TINY if frtol is None else frtol
    xatol = _TINY if xatol is None else xatol
    xrtol = math.sqrt(_EPS) if xrtol is None else xrtol
    golden = np.asarray(0.5 + 0.5 * 5 ** 0.5)[()]
    work = dict(x1=x1, f1=f1, x2=x2, f2=f2, x3=x3, f3=f3, q0=x3.copy(),
                status=np.full(x1.size, 1, dtype=np.int32))

    def step(w):
        x1, x2, x3, f1, f2, f3 = _POINTS(w)
        xtol = w["xtol"]
        x21, x32 = x2 - x1, x3 - x2
        a = x21 * (f3 - f2)
        b = x32 * (f1 - f2)
        c = a / (a + b)
        q1 = 0.5 * (c * (x1 - x3) + x2 + x3)
        # the parabola's vertex where it moved less than half the last step
        # (kept xtol away from x2), a golden section step otherwise
        fit = np.abs(q1 - w["q0"]) < 0.5 * np.abs(x21)
        q = np.where(np.abs(q1 - x2) <= xtol, x2 + np.sign(x32) * xtol, q1)
        w["q0"] = q1
        return np.where(fit, q, x2 + (2 - golden) * x32)

    def absorb(w, x, fx):
        x1, x2, x3, f1, f2, f3 = _POINTS(w)
        outer = np.sign(x - x2) == np.sign(x3 - x2)  # x lies towards x3
        up = fx > f2
        w["x1"] = np.where(outer, np.where(up, x1, x2), np.where(up, x, x1))
        w["f1"] = np.where(outer, np.where(up, f1, f2), np.where(up, fx, f1))
        w["x3"] = np.where(outer, np.where(up, x, x3), np.where(up, x3, x2))
        w["f3"] = np.where(outer, np.where(up, fx, f3), np.where(up, f3, f2))
        w["x2"], w["f2"] = np.where(up, x2, x), np.where(up, f2, fx)

    def check(w):
        x1, x2, x3, f1, f2, f3 = _POINTS(w)
        status = w["status"]
        stop = (f2 > f1) | (f2 > f3)
        x2[stop], f2[stop], status[stop] = np.nan, np.nan, _SIGN_ERROR
        bad = ~(np.isfinite(x1 + x2 + x3 + f1 + f2 + f3) | stop)
        x2[bad], f2[bad], status[bad], stop[bad] = np.nan, np.nan, _VALUE_ERROR, True
        # x3 becomes the end farther from x2, where a golden section goes
        near = np.abs(x3 - x2) < np.abs(x2 - x1)
        w["x1"], w["x3"] = np.where(near, x3, x1), np.where(near, x1, x3)
        w["f1"], w["f3"] = np.where(near, f3, f1), np.where(near, f1, f3)
        w["xtol"] = np.abs(x2) * xrtol + xatol
        ftol = np.abs(f2) * frtol + fatol
        small = ((np.abs(w["x3"] - x2) <= 2 * w["xtol"])
                 | (w["f1"] - 2 * f2 + w["f3"] <= 2 * ftol)) & ~stop
        status[small], stop[small] = _CONVERGED, True
        return stop

    done = _iterate(f, args, work, maxiter, step, absorb, check)
    swap = done["x1"] >= done["x3"]
    return _record(done, "x2", "f2", ("x1", "x2", "x3"), ("f1", "f2", "f3"),
                   swap, shape)


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
