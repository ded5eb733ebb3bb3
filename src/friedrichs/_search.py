"""The two searches behind the solver and the certificate.

Every root and every maximum in the package goes through one of the helpers
below.  Both are Chandrupatla's bracketing methods (Adv. Eng. Softw. 28, 145,
1997) from scipy.optimize.elementwise, which mix inverse quadratic
interpolation with bisection and report their final bracket.  Objectives are
elementwise: f(x, *args)[i] depends only on x[i] and args[i], so one call can
refine many brackets at once.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import elementwise

from .quad import NumericalError


class BracketError(NumericalError):
    """No sign-changing bracket could be established for a root search."""


def bracketed_root(f, lo, hi, *, args=(), what="root search", **tolerances):
    """Roots of f inside [lo, hi], elementwise over array brackets.

    Returns the SciPy result, whose bracket is the final one and encloses x.
    Raises BracketError where f(lo) and f(hi) share a sign, NumericalError
    where the search did not converge.
    """
    res = elementwise.find_root(f, (lo, hi), args=args, tolerances=tolerances)
    status = np.atleast_1d(res.status)
    if np.any(status == -1):
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
    res = elementwise.find_minimum(lambda x: -f(x), tuple(grid[k - 1:k + 2]),
                                   tolerances=tolerances)
    if not res.success:
        raise NumericalError(f"{what} did not converge (status {res.status})")
    return float(res.x), float(-res.f_x)
