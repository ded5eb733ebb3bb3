"""Level-shift matrices: node sums for the built-in families, exact piecewise
Cauchy integrals and Gauss-Legendre panels for pairs with a tabulated factor.

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
r_m(w_k) built once per model, one ray and one row of c_k per built-in pair,

    S(E) = Re sum_k c_k / (w_k - E)                     (E <= 0),
    D(E) = Re sum_k c_k / (w_k - E) = Re F(E + i0)      (E > 0),
    T(E, E') = Re sum_k c_k / ((w_k - E)(w_k - E')),
    integral |v_n|^2 = Re sum_k c_k                     (pair n, n).

The terms are of the size of the integrand (no cancellation near a pole),
and E' -> E needs no difference quotient.  h = 1/16 and the range
exp(-48) c_lo .. exp(8) c_hi (c_lo <= c_hi the smallest and largest
built-in widths) hold S, D and the norms to rounding at every E.  The
kernel is evaluated once per energy for all pairs, and each pair's row is
summed on its own, in the order of a single sum.  T(E, E') omits the head
[0, t0 = exp(-48) c_lo) of relative size t0^2 / (2 |E E'|), below 1e-16
for |E|, |E'| >= 1e-12 c_lo (t0 / |E| when E' = 0).  err is the rounding
bound 24 eps sum_k |c_k| |kernel(w_k)|.

Pairs with a tabulated factor.  A tabulated factor is linear in v between
its nodes, v(g0) (x/g0)^p below the grid and v(gN) (x/gN)^tau above it.
Every entry is then a regular part plus logarithms collected by parts at
the nodes: a piece eta_k of the density on [x0, x1] leaves
eta_k(E) log|x1 - E| - eta_k(E) log|x0 - E|, so the node x_j carries
(eta_{j-1}(E) - eta_j(E)) log|x_j - E|.  The pieces meeting at a node agree
there, so a node at E contributes 0, and D(E) stays finite with E on a node.

Two tabulated factors: on every cell of the union of both grids where both
are linear, the pair density is a quadratic q(t) = A + B t + C t^2 in
t = (w - x0)/h, and with zeta = (E - x0)/h

    int_cell eta(w)/(w - E) dw = B + C (zeta + 1/2) + q(zeta) log|(x1 - E)/(x0 - E)|,

exact, and a principal value when E lies in the cell.  A cell farther than
four widths from E is summed as -sum_k zeta^(-k-1) int_0^1 t^k q(t) dt
instead, where the closed form would cancel.  Below and above both grids
the density is a power c w^s, and with w = g0 u (head) or w = X/u (tail,
s = -beta - 1 for the pair's tail exponent beta) both ends reduce to

    J_s(zeta) = PV int_0^1 u^s/(u - zeta) du,

summed as -sum_k zeta^(-k-1)/(s + k + 1) for |zeta| >= 2; for
|zeta| <= 1/2 by the downward recurrence J_s = 1/s + zeta J_(s-1) to
s' in (-1, 0] and the closed form of PV int_0^infinity u^s'/(u - zeta) du
(pi/sin, pi cot; log|(1 - zeta)/zeta| at s' = 0) less
sum_k zeta^k/(k - s'); in between (and for s' < -0.9, where the
recurrence would cancel), by that series on [0, |zeta|/2] plus
Gauss-Legendre on geometric panels of [|zeta|/2, 1] with the pole
subtracted.  The logarithm
of J_s at zeta = 1 (E on an end node) joins the node sum.

Everything else with a tabulated factor (a built-in partner, cells where
one factor is already on its power law, and every T(E, E')) is
Gauss-Legendre with 16 nodes on panels split at every node and graded
geometrically (ratio 2) from w1 to W, where below w1 and above W each factor
is its leading power (exactly for a tabulated factor, to (w1/c)^2 and
(c/W)^2 for a built-in one of width c) and |E| / w1, W / |E| >= 2.  The two
ends integrate that power exactly, as the series of J_s.  For D(E) the
panels also split at E, and every panel nearer to E than half its width
integrates [eta_k(w) - eta_k(E)]/(w - E), eta_k its own piece continued to
E, leaving eta_k(E) log|(x1 - E)/(x0 - E)| to the node sum.  The terms are
of the size of the integrand, so T(E, E') as E' -> E needs no difference
quotient.  As for the built-ins, err is 24 eps sum |term| over every term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError

__all__ = [
    "LevelShiftMatrix", "NumericalError", "gram_matrix", "t_matrix", "pv_matrix",
]


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


# the accuracy contract, recorded in every CLI output's metadata, that the
# kernels are tested against
_REL_TOL = 1e-10
_ABS_TOL = 1e-13


@dataclass(frozen=True)
class LevelShiftMatrix:
    """A Gram, difference-kernel or principal-value matrix at one energy, or
    a stack of them over an array of energies.

    entries: N x N complex Hermitian array (e.shape + (N, N) for a stack).
    e: evaluation energy (internal units), or the array of them.
    kind: "S", "T" or "D".
    err: per-entry absolute rounding bounds, 24 eps sum |term| over the
         terms of the entry (module docstring).
    e2: second energy for kind "T", None otherwise.
    """

    entries: np.ndarray
    e: float
    kind: str
    err: np.ndarray
    e2: float | None = None

    @property
    def n(self) -> int:
        return self.entries.shape[-1]

    def norm(self):
        """The spectral norm, or the array of them for a stack."""
        norms = np.linalg.norm(self.entries, 2, axis=(-2, -1))
        return float(norms) if norms.ndim == 0 else norms


# ---------------------------------------------------------------------------
# Built-in pairs: node sums on a rotated ray

# The rotated ray w = c_lo exp(k h - i alpha) of a model's built-in pairs:
# h = 1/16 (k h exact), alpha = pi/6, k from -48/h to (ln(c_hi/c_lo) + 8)/h.
_RAY_STEP = 1.0 / 16.0
_RAY_TURN = complex(math.cos(math.pi / 6.0), -math.sin(math.pi / 6.0))
_RAY_BELOW, _RAY_ABOVE = 48.0, 8.0
# rounding bound of a node sum per unit of sum |term|: about ten roundings in
# each coefficient (the Horner sums behind r_n r_m) plus log2 of the node count
_SUM_ERR = 24.0 * np.finfo(float).eps


def _ray_rows(factors):
    """Nodes w_k of the factors' built-in pairs n <= m, a row c_k = h w_k^2
    r_n(w_k) r_m(w_k) per pair, |c_k|, the phases conj(phi_n) phi_m and the
    indices n, m (module docstring); None without built-in factors."""
    built = [i for i, f in enumerate(factors) if f.common_phase is not None]
    if not built:
        return None
    lo, hi = min(factors[i].scale for i in built), max(factors[i].scale for i in built)
    k = np.arange(-_RAY_BELOW / _RAY_STEP,
                  (math.log(hi / lo) + _RAY_ABOVE) / _RAY_STEP + 1.0)
    w = lo * np.exp(k * _RAY_STEP) * _RAY_TURN
    r = {i: factors[i].rational_part(w) for i in built}
    pairs = [(i, j) for i in built for j in built if j >= i]
    c = np.array([_RAY_STEP * w * w * r[i] * r[j] for i, j in pairs])
    phase = np.array([np.conj(factors[i].common_phase) * factors[j].common_phase
                      for i, j in pairs])
    return w, c, np.abs(c), phase, *np.array(pairs).T


def _kernel(w, e, e2=None):
    """1/(w - e), or 1/((w - e)(w - e2)), at the ray nodes: once per energy."""
    return 1.0 / (w - e) if e2 is None else 1.0 / ((w - e) * (w - e2))


# ---------------------------------------------------------------------------
# Pairs with a tabulated factor

# exponents of a power series in a ratio of modulus <= 1/2: 2^-64 < eps/1000
_SERIES = np.arange(64)
# a cell at least _FAR_CELL widths from E is summed as a series in 1/zeta
# of modulus <= 1/4: 4^-30 < eps/100
_FAR_CELL = 4.0
_CELL_SERIES = np.arange(1.0, 31.0)
# a built-in factor of width c is its leading power below _END_RATIO c and
# above c / _END_RATIO, to a relative (_END_RATIO)^2
_END_RATIO = 1e-6


def _moments(s, ys):
    """int_0^1 u^s prod_i 1/(1 - u y_i) du = sum_k h_k(y) / (s + k + 1) for
    s > -1 and |y_i| <= 1/2, h_k the complete homogeneous polynomials of the
    y_i (the power series of the kernel about w = 0 or w = infinity)."""
    h = 1.0
    for y in ys:
        h = np.convolve(h, y ** _SERIES)[:_SERIES.size]
    return float(np.sum(h / (s + 1.0 + _SERIES[:np.size(h)])))


def _geometric_edges(lo, hi, *points):
    """Panel edges of [lo, hi], 0 < lo < hi: lo 2^k and the given points that
    fall inside, so that each panel [x, y] has y <= 2 x."""
    n = max(math.ceil(math.log2(hi / lo)), 1)
    edges = np.concatenate((lo * 2.0 ** np.arange(n), [hi], *points))
    return np.unique(edges[(edges >= lo) & (edges <= hi)])


@functools.cache
def _gauss_legendre(n=16):
    """The n-point Gauss-Legendre rule (nodes, weights) on [-1, 1], built once
    per n on first use and returned read-only, since every caller shares it:
    importing numpy.polynomial costs a built-in model's run several
    milliseconds, and the oracle's 80-point tail rule milliseconds more."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _panel_nodes(edges, n=16):
    """Midpoints, n-point Gauss-Legendre nodes and weights of the panels
    between consecutive edges, one row per panel.  The kernels' panels and
    the oracle's continuum grid both come from here."""
    x, w = _gauss_legendre(n)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return mid, mid[:, None] + half * x, half * w


def _near_one(z):
    """Whether J_s(z) leaves its logarithm at z = 1 to the node sum."""
    return 0.5 < z < 2.0


def _j(s, z):
    """J_s(z) = PV int_0^1 u^s / (u - z) du for real z and s > -1 (s > 0 at
    z = 0), less z^s log|1 - z| where `_near_one(z)`: that logarithm of an
    end node near E belongs to the node sum (module docstring)."""
    if z == 0.0:
        return 1.0 / s
    m = math.ceil(s)
    r = s - m                     # in (-1, 0]
    if abs(z) >= 2.0:
        y = 1.0 / z
        return -y * _moments(s, (y,))
    if abs(z) <= 0.5 and (r == 0.0 or r > -0.9):
        # below r = -0.9 the recurrence would cancel to 1/(r + 1)
        if r == 0.0:
            base = math.log1p(-z) - math.log(abs(z))
        else:
            pole = (math.pi * (-z) ** r / math.sin(math.pi * (r + 1.0)) if z < 0.0
                    else -math.pi * z ** r / math.tan(math.pi * (r + 1.0)))
            base = pole - float(np.sum(z ** _SERIES / (_SERIES - r)))
        return sum(z ** i / (s - i) for i in range(m)) + z ** m * base
    a = 0.5 * abs(z)
    _, u, wts = _panel_nodes(_geometric_edges(a, 1.0))
    if z < 0.0:
        return a ** s * _j(s, -2.0) + float(np.sum(wts * u ** s / (u - z)))
    zs = z ** s
    value = (a ** s * _j(s, 2.0) + float(np.sum(wts * (u ** s - zs) / (u - z)))
             - zs * math.log(z - a))
    return value if _near_one(z) else value + zs * math.log1p(-z)


def _piece(f, mid, x):
    """f at x (one row per panel), continued from the piece of f that holds
    the panel's midpoint: the cell's linear interpolant or the power law
    below or above the grid.  A built-in factor is one piece."""
    if f.common_phase is not None:
        return f.value(x)
    g, v = f.grid, f.values
    j = np.searchsorted(g, mid)[:, None]
    k = np.clip(j, 1, g.size - 1)
    lin = v[k - 1] + (v[k] - v[k - 1]) * ((x - g[k - 1]) / (g[k] - g[k - 1]))
    head = v[0] * (x / g[0]) ** f.p_exponent
    tail = v[-1] * (x / g[-1]) ** f.tail_exponent
    return np.where(j == 0, head, np.where(j == g.size, tail, lin))


def _eta(fa, fb, w):
    """The pair density conj(v_a) v_b at one point."""
    return complex(np.conj(fa.value(w)) * fb.value(w))


def _panels(fa, fb, lo, hi, energies):
    """Gauss-Legendre terms of the pair density against prod 1/(w - e) over
    [lo, hi], and the logarithms that the subtraction near E > 0 leaves at
    panel edges, as (terms, edges, coefficients) (module docstring)."""
    pv = len(energies) == 1 and energies[0] > 0.0
    points = [np.asarray(f.breakpoints(), dtype=float) for f in (fa, fb)]
    edges = _geometric_edges(lo, hi, *points, energies[:1] if pv else ())
    mid, w, wts = _panel_nodes(edges)
    eta = np.conj(_piece(fa, mid, w)) * _piece(fb, mid, w)
    kernel = 1.0
    for e in energies:
        kernel = kernel / (w - e)
    if not pv:
        return (wts * eta * kernel).ravel(), (), ()
    e = energies[0]
    x0, x1 = edges[:-1], edges[1:]
    near = np.maximum(x0 - e, e - x1) < 0.5 * (x1 - x0)
    at = np.full((np.count_nonzero(near), 1), e)
    eta_e = np.conj(_piece(fa, mid[near], at)) * _piece(fb, mid[near], at)
    eta[near] -= eta_e
    return ((wts * eta * kernel).ravel(), np.concatenate((x1[near], x0[near])),
            np.concatenate((eta_e[:, 0], -eta_e[:, 0])))


def _power_range(f):
    """(lo, hi): f is its leading power below lo and above hi (module
    docstring)."""
    if f.common_phase is None:
        return f.grid[0], f.grid[-1]
    return _END_RATIO * f.scale, f.scale / _END_RATIO


def _panel_pair(fa, fb, energies):
    """Terms and node logarithms of a pair on the panels of [w1, W] plus its
    leading powers on [0, w1] and [W, infinity)."""
    nonzero = [abs(e) for e in energies if e != 0.0]
    ranges = [_power_range(f) for f in (fa, fb)]
    w1 = min([lo for lo, _ in ranges] + [0.5 * e for e in nonzero])
    big = max([hi for _, hi in ranges] + [2.0 * e for e in nonzero])
    m = len(energies)
    ys = [w1 / e for e in energies if e != 0.0]
    head = (_eta(fa, fb, w1) * w1 ** (1 - m) * math.prod(-y for y in ys)
            * _moments(fa.p_exponent + fb.p_exponent - (m - len(ys)), ys))
    tail = (_eta(fa, fb, big) * big ** (1 - m)
            * _moments(m - 2.0 - fa.tail_exponent - fb.tail_exponent,
                       [e / big for e in energies]))
    terms, nodes, coefs = _panels(fa, fb, w1, big, energies)
    return [np.array([head, tail]), terms], [nodes], [coefs]


def _cell_table(fa, fb):
    """The exact path's data of two tabulated factors, built once and kept
    in fa._pair_tables: the ends g_lo <= g_hi of both grids' starts and
    x_lo <= x_hi of their ends, the pair density there, the exponents s and
    beta of its power-law ends, and the nodes x of the union grid on
    [g_hi, x_lo] (None if empty) with the cells' coefficients A, B, C."""
    table = fa._pair_tables.get(fb)
    if table is None:
        (g_lo, g_hi), (x_lo, x_hi) = (sorted((fa.grid[0], fb.grid[0])),
                                      sorted((fa.grid[-1], fb.grid[-1])))
        x = np.union1d(fa.grid, fb.grid)
        x = x[(x >= g_hi) & (x <= x_lo)]
        cells = None
        if x.size > 1:
            a, b = fa.value(x), fb.value(x)
            da, db = np.diff(a), np.diff(b)
            a, b = np.conj(a[:-1]), b[:-1]
            cells = (x, a * b, a * db + np.conj(da) * b, np.conj(da) * db)
        table = (g_lo, g_hi, x_lo, x_hi, _eta(fa, fb, g_lo), _eta(fa, fb, x_hi),
                 fa.p_exponent + fb.p_exponent, fa.tail_exponent + fb.tail_exponent,
                 cells)
        fa._pair_tables[fb] = table
    return table


# the far-cell series: sum_j y^j (A/j + B/(j+1) + C/(j+2)), j = 1..30
_CELL_WEIGHTS = 1.0 / (_CELL_SERIES[:, None] + np.arange(3.0))


def _cells(cells, energies):
    """Exact terms of the cells where both factors are linear, and the node
    logarithms of the cells near E (module docstring)."""
    x, qa, qb, qc = cells
    if not energies:
        return np.diff(x) * (qa + qb / 2.0 + qc / 3.0), (), ()
    z = (energies[0] - x[:-1]) / np.diff(x)
    far = np.abs(z) >= _FAR_CELL
    powers = np.cumprod(np.broadcast_to((1.0 / z[far])[:, None],
                                        (np.count_nonzero(far), _CELL_SERIES.size)), axis=1)
    sums = powers @ _CELL_WEIGHTS
    series = -(qa[far] * sums[:, 0] + qb[far] * sums[:, 1] + qc[far] * sums[:, 2])
    near = ~far
    z, qa, qb, qc = z[near], qa[near], qb[near], qc[near]
    q = qa + z * (qb + z * qc)
    return (np.concatenate((series, qb + qc * (z + 0.5))),
            np.concatenate((x[1:][near], x[:-1][near])), np.concatenate((q, -q)))


def _exact_pair(fa, fb, energies):
    """Terms and node logarithms of two tabulated factors against 1 or
    1/(w - E): exact cells where both are linear, J_s for the power-law
    ends, panels where only one is on its power law."""
    g_lo, g_hi, x_lo, x_hi, eta_lo, eta_hi, s, beta, cells = _cell_table(fa, fb)
    terms, nodes, coefs = [], [], []
    if not energies:
        terms.append(np.array([eta_lo * g_lo / (s + 1.0), eta_hi * x_hi / (-1.0 - beta)]))
    else:
        e = energies[0]
        head = eta_lo * _j(s, e / g_lo)
        if _near_one(e / g_lo):
            # E near g_lo: J_s less its end-node logarithm, which goes to
            # the node sum
            at_head = eta_lo * (e / g_lo) ** s
            head -= at_head * math.log(g_lo)
            nodes.append([g_lo])
            coefs.append([at_head])
        if abs(e) <= 0.5 * x_hi:
            tail = eta_hi * _moments(-1.0 - beta, (e / x_hi,))
        else:
            tail = -eta_hi * (x_hi / e) * _j(-1.0 - beta, x_hi / e)
            if _near_one(x_hi / e):
                at_tail = eta_hi * (e / x_hi) ** beta
                tail += at_tail * math.log(e)
                nodes.append([x_hi])
                coefs.append([-at_tail])
        terms.append(np.array([head, tail]))
    strips = [(g_lo, x_hi)]
    if cells is not None:
        t, n, c = _cells(cells, energies)
        terms.append(t)
        nodes.append(n)
        coefs.append(c)
        strips = [(g_lo, g_hi), (x_lo, x_hi)]
    for lo, hi in strips:
        if hi > lo:
            t, n, c = _panels(fa, fb, lo, hi, energies)
            terms.append(t)
            nodes.append(n)
            coefs.append(c)
    return terms, nodes, coefs


def _tabulated_pair(fa, fb, energies):
    """(value, rounding bound) of the pair density against prod 1/(w - e)
    when a factor is tabulated (module docstring)."""
    tabulated = fa.common_phase is None and fb.common_phase is None
    build = _exact_pair if tabulated and len(energies) <= 1 else _panel_pair
    terms, nodes, coefs = build(fa, fb, energies)
    nodes = np.concatenate([np.asarray(n, dtype=float) for n in nodes])
    coefs = np.concatenate([np.asarray(c, dtype=complex) for c in coefs])
    if nodes.size:
        # a node at E has coefficient 0: the pieces meeting there agree
        off = nodes != energies[0]
        terms.append(coefs[off] * np.log(np.abs(nodes[off] - energies[0])))
    terms = np.concatenate(terms)
    return terms.sum(), _SUM_ERR * float(np.abs(terms).sum())


# ---------------------------------------------------------------------------
# Matrix assembly


@functools.cache
def _triangles(n):
    """Index arrays of an n x n diagonal, strict lower triangle and its mirror."""
    return np.arange(n), *np.tril_indices(n, -1)


def _level_shift(model, kind, e, e2=None) -> LevelShiftMatrix:
    """Hermitian matrices of pair integrals against 1/(w - E) (with e2,
    1/((w - E)(w - e2))) and their error bounds, shaped e.shape + (N, N) for
    E in e: built-in pairs are phase * Re sum_k c_k kernel(w_k) on the
    model's ray table, the others `_tabulated_pair`; the upper triangle is
    mirrored."""
    energies = np.ravel(e).tolist()
    n = model.n_levels
    entries = np.zeros((len(energies), n, n), dtype=complex)
    err = np.zeros((len(energies), n, n), dtype=float)
    table = model._ray_rows
    if table is not None:
        w, c, c_abs, phase, rows, cols = table
        sums = np.empty((len(energies), rows.size), dtype=complex)
        bounds = np.empty((len(energies), rows.size), dtype=float)
        # one energy at a time, so no (energies, pairs, nodes) temporary; the
        # values are row sums, not a matrix product, which keeps each pair's
        # summation order (the bounds need no such care)
        for b, x in enumerate(energies):
            kernel = _kernel(w, x, e2)
            sums[b] = np.add.reduce(c * kernel, axis=-1)
            bounds[b] = c_abs @ np.abs(kernel)
        entries[:, rows, cols] = phase * sums.real
        err[:, rows, cols] = _SUM_ERR * bounds
    factors = model.form_factors
    for i in range(n):
        for j in range(i, n):
            if factors[i].common_phase is None or factors[j].common_phase is None:
                for b, x in enumerate(energies):
                    entries[b, i, j], err[b, i, j] = _tabulated_pair(
                        factors[i], factors[j], (x,) if e2 is None else (x, e2))
    # a Hermitian matrix has a real diagonal
    diag, low, up = _triangles(n)
    entries[:, diag, diag] = entries[:, diag, diag].real
    entries[:, low, up] = np.conj(entries[:, up, low])
    err[:, low, up] = err[:, up, low]
    shape = np.shape(e) + (n, n)
    return LevelShiftMatrix(entries.reshape(shape), e, kind, err.reshape(shape), e2)


def _norm_sq(model, n) -> float:
    """Integral of |v_n|^2 over the half line (the kernel 1), n 0-based."""
    f = model.form_factors[n]
    if f.common_phase is None:
        return float(_tabulated_pair(f, f, ())[0].real)
    _, c, _, _, rows, cols = model._ray_rows
    return float(c[np.flatnonzero((rows == n) & (cols == n))[0]].sum().real)


def _check_below_threshold(model, e, op):
    if np.any(np.greater(e, 0.0)):
        raise ValueError(f"{op} requires E <= 0, got E = {np.max(e)}")
    if np.any(np.equal(e, 0.0)):
        for k, f in enumerate(model.form_factors, start=1):
            if not f.p_exponent > 0.0:
                raise ConfigError(
                    f"{op} at E = 0 needs a positive threshold exponent, "
                    f"form factor {k} has p = {f.p_exponent}")


def gram_matrix(model, e) -> LevelShiftMatrix:
    """Gram matrix S(E) for E < 0 (E = 0 allowed when all p_exponent > 0),
    or the stack of them over an array of energies.

    Built-in pairs: Re sum_k c_k / (w_k - E) on the rotated ray; pairs with
    a tabulated factor: exact cells and power-law ends, or panels.
    """
    e = float(e) if np.ndim(e) == 0 else np.asarray(e, dtype=float)
    _check_below_threshold(model, e, "gram_matrix")
    return _level_shift(model, "S", e)


def t_matrix(model, e, e2) -> LevelShiftMatrix:
    """Difference-kernel matrix T(E, E') with kernel 1/((w-E)(w-E')).

    Satisfies S(E) - S(E') = (E - E') T(E, E'); at E' = E it equals dS/dE.
    Both energies must lie below the continuum (0 allowed when p > 0), and
    not both at 0, where the kernel 1/w^2 is not integrable for p <= 1/2.
    Built-in pairs: Re sum_k c_k / ((w_k - E)(w_k - E')); pairs with a
    tabulated factor: Gauss-Legendre panels.  Neither cancels as E'
    approaches E.
    """
    e, e2 = float(e), float(e2)
    _check_below_threshold(model, e, "t_matrix")
    _check_below_threshold(model, e2, "t_matrix")
    if e == 0.0 and e2 == 0.0:
        raise ValueError("t_matrix requires E < 0 or E' < 0")
    return _level_shift(model, "T", e, e2)


def pv_matrix(model, e) -> LevelShiftMatrix:
    """Principal-value matrix D(E) for E >= 0, or the stack of them over an
    array of energies, each bit for bit D(E) at its energy alone.

    D(0) coincides with S(0).  For E > 0 a built-in pair is
    Re sum_k c_k / (w_k - E), the real part of F(E + i0); a pair with a
    tabulated factor is the principal value of its exact cells and ends, or
    of its panels with the piece at E subtracted near E.
    """
    e = float(e) if np.ndim(e) == 0 else np.asarray(e, dtype=float)
    if np.any(np.less(e, 0.0)):
        raise ValueError(f"pv_matrix requires E >= 0, got E = {np.min(e)}")
    if np.any(np.equal(e, 0.0)):
        _check_below_threshold(model, 0.0, "gram_matrix")
    return _level_shift(model, "D", e)
