"""Level-shift matrices: node sums on a real Gram table and a rotated ray for
the built-in families and on a table of Gauss-Legendre panels for pairs
with a tabulated factor.

Three Hermitian N x N matrices summarize how the continuum acts back on the
levels.  For energies E below the continuum (E < 0, or E = 0 when every form
factor vanishes at threshold) the Gram matrix

    S_nm(E)    = integral  conj(v_n(w)) v_m(w) / (w - E)  dw,
    T_nm(E,E') = integral  conj(v_n(w)) v_m(w) / ((w - E)(w - E'))  dw,

and for E inside the continuum (E >= 0) the principal-value matrix

    D_nm(E)    = PV integral  conj(v_n(w)) v_m(w) / (w - E)  dw.

Every entry is a pair integral of conj(v_n) v_m against the matrix's kernel
(`_pair_sums`).

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
the widths.  For E <= 0 the half line itself is such a path: in x = ln w
the poles +-i c sit pi/2 from the axis and E < 0 sits pi from it, so on
the unrotated line the rule converges like exp(-pi^2 / h).  Each model
therefore keeps two node tables of one kind (`_ray_rows`), each with nodes
w_k and coefficients c_k = h w_k^2 r_n(w_k) r_m(w_k) built once per model,
one row of c_k per built-in pair:

  - the rotated ray (`model._ray_rows`), h = 1/16, complex, for D(E > 0)
    and the lattice below;
  - the Gram table (`model._gram_rows`), w_k = c_lo exp(k h) at h = 1/8,
    real, for S(E <= 0), T(E, E') and the norms, with half the ray's nodes
    and real arithmetic.

Each energy goes by its sign: E = 0 is on the Gram side, so D(0) is S(0),
and a stack holding 0 and positive energies is split there.  Then

    S(E) = Re sum_k c_k / (w_k - E)                     (E <= 0, Gram table),
    D(E) = Re sum_k c_k / (w_k - E) = Re F(E + i0)      (E > 0, ray),
    T(E, E') = sum_k c_k / ((w_k - E)(w_k - E'))        (Gram table),
    integral |v_n|^2 = sum_k c_k                        (pair n, n, Gram table).

The terms are of the size of the integrand (no cancellation near a pole),
and E' -> E needs no difference quotient.  Both tables span exp(-48) c_lo
.. exp(8) c_hi (c_lo <= c_hi the smallest and largest built-in widths),
with k h exact; they hold S, D and the norms to rounding at every E.  At
h = 1/8 the Gram table's sums lie within 0.2 of the ray's err of the
ray's sums (S, T and the norms, on the ray models of the tests and 50
drawn ones); at h = 1/5 the gap is over 200 times err, so no step coarser
than 1/6 will do.  T(E, E') omits [0, t0 = exp(-48) c_lo), of relative
size t0^2 / (2 |E E'|), below 1e-16 for |E|, |E'| >= 1e-12 c_lo (t0 / |E|
when E' = 0).

Every sum runs over every node of its table.  The kernel is evaluated once
per energy for all pairs; a stack's energies go in blocks (T(E, E') with
its second energies aligned to them, as for the solver's T(E_n, E_n) of
every root), and each pair's row is summed on its own along the
contiguous last axis, so a stack holds each energy's matrix bit for bit.
One builder (`_pair_sums`) makes every stack's entries.  The public
matrices wrap it in a LevelShiftMatrix whose err, computed when first
read, is the rounding bound 24 eps sum_k |c_k| |kernel(w_k)|; the
eigencurves and the solver's states take the entries alone
(`_shift_stack`), after the same checks of the energies, and never build
err.

The lattice.  At E_j = a exp(j h/2), a = c_lo, the ray's nodes give
1/(w_k - E_j) = g(2k - j) / E_j = exp(-k h) g~(2k - j) / a, with
g(m) = 1/(exp(m h/2 - i alpha) - 1) and g~(m) = 1/(exp(-i alpha) -
exp(-m h/2)), both at most 2 in modulus.  So for each parity of j the sums
over k are a Toeplitz product: the correlation of a pair's row (c_k, or
c_k exp(-k h)) with g (or g~), one FFT convolution of a power-of-two length
N per parity and weighting, each row scaled by a power of two so that
nothing overflows (`_ray_lattice`, numpy.fft, imported on first use).  The
first weighting suits energies above a pair's nodes, the second energies
below them, and each sum takes the one whose bound is smaller.  The
certificate's scan reads the lattice (`_pv_lattice`); every other energy
keeps the direct sums, and the lattice stack is not the direct stack bit
for bit.  Its err adds two bounds.  The first is the direct sums' err at
E_j, 24 eps sum |term| over every term.  It covers the terms' own
roundings (the coefficient's, the kernel's, the weights' and E_j's; E_j
moves a term by at most twice its relative error, since |w - E| >=
max(|w|, E)/2 on the ray), a few tens of unit roundoffs u per term.  The
second is the FFT's, over E_j (or a).  For a convolution of x and y by
FFTs of length N = 2^t, with Z the computed product of the two transforms,
Cauchy-Schwarz gives, as in Percival (Math. Comp. 72, 2003),

    |conv_i - exact_i| <= |Z - XY|_1 / N + phi |Z|_2 / sqrt(N)
                       <= (2 phi + mu)(1 + phi)^2 |x|_2 |y|_2 + phi |Z|_2 / sqrt(N),

where phi = t eta / (1 - t eta), eta = u + gamma_4 (sqrt(2) + u), bounds
the relative error of one FFT (Higham, Accuracy and Stability, 2nd ed.,
thm. 24.2: radix 2, twiddle factors correct to u, taken to hold for
numpy's pocketfft) and mu = sqrt(2) gamma_2 that of a complex product.
The bound holds up to the rounding of its own few operations, but it is
normwise.  On both presets and on two-level ray models with widths up to
1e4 apart, the lattice's err is 30 to 41 times the direct sums' err at the
median lattice energy and at most 54 times; the FFT sums differ from the
direct ones by at most 0.11 of the direct sums' err.

Pairs with a tabulated factor.  A tabulated factor is linear in v between
its nodes, v(g0) (x/g0)^p below the grid and v(gN) (x/gN)^tau above it; a
built-in factor of width c is its leading power below 1e-6 c and above
1e6 c, to a relative 1e-12.  So below w1 and above W, the least and the
greatest of these ends, each pair density is a power.  In between, one
table per model holds 16-point Gauss-Legendre panels graded geometrically
(ratio 2) and split at every breakpoint of every factor, and one row of
weighted densities d_k = wts_k conj(v_n(w_k)) v_m(w_k) per pair with a
tabulated factor: S, D and T are sum_k d_k times the kernel at w_k, one
kernel per energy and one row sum per pair, plus the ends.  For D(E) each
panel [x0, x1] nearer to E than half its width integrates
[eta_k(w) - eta_k(E)]/(w - E), eta_k its own piece continued to E, and
leaves eta_k(E) log|(x1 - E)/(x0 - E)|; the pieces meeting at a node agree
there, so a node at E contributes 0.  The panel that holds E is split at E
unless E is within 2^-10 of its width of an edge, and panels thinner than
2^-30 of their edge merge: no panel degenerates, no node comes within ulps
of E.  With s the exponent of the power, the head is eta(w1) J_s(E/w1) and
the tail eta(W) sum_k (E/W)^k/(s + k + 1), or -eta(W) (W/E) J_s(W/E) for
|E| > W/2, where J_s(z) = PV int_0^1 u^s/(u - z) du is that series in 1/z
for |z| >= 2; the series on [0, 1/4] and Gauss-Legendre on [1/4, 1] with
the pole subtracted as z^s expm1(s log1p((u - z)/z))/(u - z), which no node
next to z cancels, for 1/2 <= |z| < 2; and (2|z|)^s J_s(+-1/2) plus a
series for |z| < 1/2.  T(E, E') (E, E' <= 0) integrates the powers in
closed form below min(w1, |E|/2) and above max(W, 2|E|) and on geometric
panels between.  The terms are of the size of the integrand, so T(E, E')
as E' -> E needs no difference quotient; err is 24 eps sum |term|.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError

__all__ = [
    "LevelShiftMatrix", "NumericalError", "gram_matrix", "t_matrix", "pv_matrix",
]


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


def _check_finite(stack, e, name):
    """NumericalError naming the first energy of e (one per matrix of the
    stack) at which the matrix `name` has a non-finite entry."""
    bad = ~np.isfinite(stack).all(axis=(-2, -1))
    if bad.any():
        e = np.ravel(e)[np.argmax(np.ravel(bad))]
        raise NumericalError(f"{name} has a non-finite entry at E = {float(e)}")


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
    bounds: a function of no arguments that computes err.

    err, computed on first read: per-entry absolute error bounds, shaped as
    entries, each energy's as at that energy alone: 24 eps sum |term| over
    every term summed, plus on the ray's lattice the FFT's bound (module
    docstring).
    """

    entries: np.ndarray
    e: float
    bounds: object = field(repr=False)

    @functools.cached_property
    def err(self) -> np.ndarray:
        return self.bounds()

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
# h = 1/16 (k h exact), alpha = pi/6, k from -48/h to (ln(c_hi/c_lo) + 8)/h;
# the Gram table is the unrotated ray w = c_lo exp(k h) at h = 1/8
_RAY_STEP = 1.0 / 16.0
_RAY_TURN = complex(math.cos(math.pi / 6.0), -math.sin(math.pi / 6.0))
_GRAM_STEP = 1.0 / 8.0
_RAY_BELOW, _RAY_ABOVE = 48.0, 8.0
# rounding bound of a node sum per unit of sum |term|: about ten roundings in
# each coefficient (the Horner sums behind r_n r_m) plus log2 of the node count
_SUM_ERR = 24.0 * np.finfo(float).eps
# terms per block of energies in the ray and Gram table sums
_RAY_BLOCK = 2 ** 14

# A model's ray or Gram table (module docstring): the nodes w, a row c of
# coefficients per built-in pair n <= m (indices rows, cols, and at among
# the model's pairs, `_pairs`), |c| and the pair phases.
_RayTable = collections.namedtuple("_RayTable", "w c c_abs phase rows cols at")


def _ray_rows(factors, step, turn):
    """The factors' `_RayTable` of their built-in pairs n <= m on the ray
    w_k = c_lo exp(k h) turn, h = step, with c_k = h w_k^2 r_n(w_k) r_m(w_k)
    (module docstring): complex on the rotated ray, real for turn = 1.0;
    None without built-in factors."""
    built = [i for i, f in enumerate(factors) if f.common_phase is not None]
    if not built:
        return None
    lo, hi = min(factors[i].scale for i in built), max(factors[i].scale for i in built)
    k = np.arange(-_RAY_BELOW / step, (math.log(hi / lo) + _RAY_ABOVE) / step + 1.0)
    w = lo * np.exp(k * step) * turn
    r = {i: factors[i].rational_part(w) for i in built}
    pairs = [(i, j) for i in built for j in built if j >= i]
    rows, cols = np.array(pairs).T
    # h w^2 once for all pairs, the same product as per pair
    with np.errstate(over="ignore", invalid="ignore"):
        hw2 = step * w * w
        c = np.array([hw2 * r[i] * r[j] for i, j in pairs])
        c_abs = np.abs(c)
        _require_finite_mass(np.add.reduce(c_abs, axis=-1), rows, cols)
    phase = np.array([np.conj(factors[i].common_phase) * factors[j].common_phase
                      for i, j in pairs])
    return _RayTable(w, c, c_abs, phase, rows, cols, _pairs(len(factors))[0][rows, cols])


def _require_finite_mass(mass, rows, cols):
    """ConfigError naming the first pair n <= m (0-based rows[k], cols[k])
    whose mass[k], the sum of |coefficient| of its row of a table, is not
    finite: a coefficient, or their sum, overflowed."""
    bad = np.flatnonzero(~np.isfinite(mass))
    if bad.size:
        n, m = rows[bad[0]] + 1, cols[bad[0]] + 1
        raise ConfigError(f"pair density conj(v_{n}) v_{m} overflows on the "
                          f"level-shift kernels' nodes")


def _kernel(w, e, e2=None):
    """1/(w - e), or 1/((w - e)(w - e2)), at a table's nodes w: once per
    energy, one row per energy for a column e of energies (and e2)."""
    return 1.0 / (w - e) if e2 is None else 1.0 / ((w - e) * (w - e2))


def _ray_reduce(t, coef, e, e2=None, part=None):
    """sum_k coef_k part(kernel(w_k)) (part None: the kernel itself) of every
    pair over every node of t, (e.size, pairs), e2 None, one energy or one
    per energy of e: one kernel per energy, in blocks of energies of at
    most _RAY_BLOCK terms, and each row reduced on its own along the
    contiguous last axis, so that a sum does not depend on the energies
    beside it."""
    size = max(1, _RAY_BLOCK // coef.size)
    if e2 is not None:
        e2 = np.broadcast_to(e2, e.shape)
    if e.size <= size:
        kernel = _kernel(t.w, e[:, None], None if e2 is None else e2[:, None])
        if part is not None:
            kernel = part(kernel)
        return np.add.reduce(coef * kernel[:, None, :], axis=-1)
    return np.concatenate([_ray_reduce(t, coef, e[b:b + size],
                                       None if e2 is None else e2[b:b + size], part)
                           for b in range(0, e.size, size)])


def _ray_sums(t, e, e2=None):
    """The sums sum_k c_k kernel(w_k) on the table t (ray or Gram table) at
    the energies e, (e.size, pairs)."""
    return _ray_reduce(t, t.c, e, e2)


def _ray_bounds(t, e, e2=None):
    """The error bounds of the sums on the table t (ray or Gram table) at
    the energies e, (e.size, pairs): the rounding bound
    _SUM_ERR sum_k |c_k kernel(w_k)| over every node."""
    return _SUM_ERR * _ray_reduce(t, t.c_abs, e, e2, np.abs)


# ---------------------------------------------------------------------------
# Built-in pairs on the ray's lattice: one FFT convolution per weighting

# the lattice E_j = a exp(j h/2) of the ray's widths (module docstring)
_LATTICE_STEP = _RAY_STEP / 2.0
# unit roundoff; the rounding of one FFT stage with twiddle factors correct
# to u and of a complex product (Higham, Accuracy and Stability, 2nd ed.,
# lemma 3.5 and theorem 24.2)
_U = 0.5 * np.finfo(float).eps
_FFT_STAGE = _U + 4.0 * _U / (1.0 - 4.0 * _U) * (math.sqrt(2.0) + _U)
_PRODUCT = math.sqrt(2.0) * 2.0 * _U / (1.0 - 2.0 * _U)


def _ray_lattice(t, e, a, j):
    """(sums, bounds) of every built-in pair against 1/(w - E) at the
    lattice energies e = a exp(j h/2), a the ray's c_lo and j an ascending
    run of at least two consecutive integers, each (j.size, pairs) (module
    docstring): for each parity of j and each weighting, one FFT
    convolution of the pair's row, over a power of two, with the kernel."""
    n = t.c.shape[1]
    k = np.arange(n) - _RAY_BELOW / _RAY_STEP
    # the rows, reversed, weighted by 1 and by exp(-k h), each over a power
    # of two near its largest |entry|, so that no sum overflows
    x = np.stack((t.c, t.c * np.exp(-_RAY_STEP * k)))[..., ::-1]
    scale = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=-1))[1])
    # the real and imaginary parts apart, exact for a normal row: numpy
    # divides a complex array by a real one as complex division, which
    # overflows when the row's largest entry is subnormal
    x = x.real / scale[..., None] + 1j * (x.imag / scale[..., None])
    big = 1 << (n + (j.size + 1) // 2 - 2).bit_length()     # 1/N is exact
    xf = np.fft.fft(x, big, axis=-1)
    phi = math.log2(big) * _FFT_STAGE / (1.0 - math.log2(big) * _FFT_STAGE)
    sums = np.empty((2, j.size, t.c.shape[0]), dtype=complex)
    bounds = np.empty(sums.shape)
    for run in (slice(0, None, 2), slice(1, None, 2)):
        js = j[run]
        # the kernels at m = 2k - j, j = 2i + r over the run, from its last
        # i down
        r = int(js[0]) % 2
        m = _RAY_STEP * (2.0 * (k[0] - (js[-1] - r) // 2 + np.arange(n + js.size - 1)) - r)
        y = np.stack((1.0 / (np.exp(0.5 * m) * _RAY_TURN - 1.0),
                      1.0 / (_RAY_TURN - np.exp(-0.5 * m))))
        z = xf * np.fft.fft(y, big, axis=-1)[:, None, :]
        conv = np.fft.ifft(z, axis=-1)[..., n - 1:n - 1 + js.size][..., ::-1]
        # the convolution's bound (module docstring)
        err = ((2.0 * phi + _PRODUCT) * (1.0 + phi) ** 2 * np.linalg.norm(x, axis=-1)
               * np.linalg.norm(y, axis=-1)[:, None]
               + phi * np.linalg.norm(z, axis=-1) / math.sqrt(big))
        factor = scale[:, None, :] / np.stack((e[run], np.full(js.size, a)))[:, :, None]
        sums[:, run] = np.swapaxes(conv, -1, -2) * factor
        bounds[:, run] = err[:, None, :] * factor
    # each sum from the weighting with the smaller bound
    pick = bounds[1] < bounds[0]
    return np.where(pick, sums[1], sums[0]), np.where(pick, bounds[1], bounds[0])


# ---------------------------------------------------------------------------
# Pairs with a tabulated factor: one panel table per model

# exponents of a power series in a ratio of modulus <= 1/2: 2^-64 < eps/1000
_SERIES = np.arange(64)
# a built-in factor of width c is its leading power below _END_RATIO c and
# above c / _END_RATIO, to a relative (_END_RATIO)^2
_END_RATIO = 1e-6
# a panel thinner than _MERGE times its right edge merges into its neighbour,
# and E splits the panel that holds it only farther than _SPLIT of its width
# from both ends (module docstring)
_MERGE, _SPLIT = 2.0 ** -30, 2.0 ** -10
# terms per block of energies in the panel sums (a megabyte of them)
_BLOCK = 2 ** 16


def _series(s, h):
    """sum_k h_k / (s + k + 1) = int_0^1 u^s sum_k h_k u^k du, over the
    last axis of h."""
    return np.add.reduce(h / (s + 1.0 + _SERIES), axis=-1)


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
    between consecutive edges (along the last axis), one row per panel.  The
    kernels' panels and the oracle's continuum grid both come from here."""
    x, w = _gauss_legendre(n)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    return mid, mid[..., None] + half * x, half * w


def _j(s, z):
    """J_s(z) = PV int_0^1 u^s / (u - z) du for real z (an array) and s > -1
    (s > 0 at z = 0), less z^s log|1 - z| for 1/2 < z < 2: that logarithm
    of an end node near E belongs to the node's logarithms."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    out = np.empty(z.shape)
    for part, value in ((z == 0.0, lambda z: 1.0 / s),
                        (a >= 2.0, lambda z: -_series(s, (1.0 / z[:, None]) ** _SERIES) / z),
                        ((a >= 0.5) & (a < 2.0), lambda z: _j_mid(s, z)),
                        ((a < 0.5) & (z != 0.0), lambda z: _j_small(s, z))):
        if part.any():
            out[part] = value(z[part])
    return out


@functools.cache
def _quarter_rule():
    """(nodes, weights) of the panels [1/4, 1/2] and [1/2, 1], built once
    on first use like `_gauss_legendre` and returned read-only."""
    _, u, w = _panel_nodes(np.array([0.25, 0.5, 1.0]))
    rule = u.ravel(), w.ravel()
    for a in rule:
        a.flags.writeable = False
    return rule


def _j_mid(s, z):
    """`_j` for 1/2 <= |z| < 2: the series on [0, 1/4] and the quarter rule
    on [1/4, 1], where for z > 0 the pole goes as z^s log|(1 - z)/(1/4 - z)|
    and the rest is the divided difference z^s expm1(s log1p(g/z)) / g,
    g = u - z, which no node next to z can cancel."""
    (u, w), pos = _quarter_rule(), z > 0.0
    zp = np.where(pos, z, 1.0)[:, None]
    g = u - z[:, None]
    g0 = np.where(g == 0.0, 1.0, g)
    f = np.where(g == 0.0, s * zp ** (s - 1.0), zp ** s * np.expm1(s * np.log1p(g / zp)) / g0)
    f = np.where(pos[:, None], f, u ** s / g0)
    out = (-0.25 ** (s + 1.0) / z * _series(s, (0.25 / z[:, None]) ** _SERIES)
           + np.add.reduce(w * f, axis=-1))
    zs = np.where(pos, zp[:, 0] ** s, 0.0)
    # log|1 - z| stays in at z = 1/2
    return out - zs * np.log(np.abs(z - 0.25)) + np.where(z == 0.5, zs * math.log(0.5), 0.0)


def _j_small(s, z):
    """`_j` for 0 < |z| < 1/2: (2|z|)^s J_s(+-1/2) on [0, 2|z|], and on
    [2|z|, 1] the series of u^(s-1) / (1 - z/u) term by term,
    z^k (1 - (2|z|)^(s-k)) / (s - k), the term with |s - k| <= 1/2 through
    expm1, where the difference would cancel."""
    two = 2.0 * np.abs(z)
    lg = np.log(two)
    k, near = _SERIES, int(round(s))
    c = 1.0 / np.where(k == near, 1.0, s - k)
    sign = np.where(z < 0.0, -0.5, 0.5)
    terms = (z[:, None] ** k - (two ** s)[:, None] * sign[:, None] ** k) * c
    if near < k.size:
        terms[:, near] = z ** near * (-lg if s == near else -np.expm1((s - near) * lg) / (s - near))
    half = _j_mid(s, np.array([-0.5, 0.5]))
    return two ** s * np.where(z < 0.0, half[0], half[1]) + np.add.reduce(terms, axis=-1)


def _j_end(s, z, gap, r):
    """J_s(z) at an end node x, z = E/x (head, r = x) or x/E (tail, r = E),
    with the logarithm that `_j` leaves restored from gap = |x - E| as
    log|1 - z| = log(gap) - log(r), less log(gap) with E on the node, where
    the pieces meeting there cancel it."""
    out = _j(s, z)
    back = (z > 0.5) & (z < 2.0)
    if back.any():
        gap, r = gap[back], np.broadcast_to(r, z.shape)[back]
        out[back] += z[back] ** s * (np.log(np.where(gap > 0.0, gap, 1.0)) - np.log(r))
    return out


# A model's panel table (module docstring): the factors, each tabulated
# one's cell of every panel (`TabulatedFormFactor._piece`), the edges over
# [w1, W], nodes w and weights (a row per panel), a row d of weighted
# densities per pair n <= m (indices rows, cols, and at among the model's
# pairs, `_pairs`), and per pair its density at w1 and W and the exponents
# p, beta of its powers below and above.
_PanelTable = collections.namedtuple(
    "_PanelTable", "factors cells edges w wts d d_abs rows cols at eta_lo eta_hi p beta")


def _panel_ends(factors):
    """(w1, W): every factor is its leading power below w1 and above W."""
    ends = [(f.grid[0], f.grid[-1]) if f.common_phase is None
            else (_END_RATIO * f.scale, f.scale / _END_RATIO) for f in factors]
    return min(lo for lo, _ in ends), max(hi for _, hi in ends)


def _reach(factors):
    """The largest abscissa at which the model's tables evaluate its
    factors: the ray's top node, at most exp(_RAY_ABOVE) times the widest
    built-in width, and with a tabulated factor the panel table's end W."""
    built = [f.scale for f in factors if f.common_phase is not None]
    top = math.exp(_RAY_ABOVE) * max(built, default=0.0)
    return top if len(built) == len(factors) else max(top, _panel_ends(factors)[1])


def _panel_rows(factors):
    """The model's `_PanelTable`, or None without tabulated factors."""
    n = len(factors)
    pairs = [(i, j) for i in range(n) for j in range(i, n)
             if factors[i].common_phase is None or factors[j].common_phase is None]
    if not pairs:
        return None
    w1, big = _panel_ends(factors)
    edges = _geometric_edges(w1, big, *(np.asarray(f.breakpoints(), dtype=float)
                                        for f in factors))
    if edges.size > 2:
        edges = np.delete(edges, np.maximum(
            np.flatnonzero(np.diff(edges) <= _MERGE * edges[1:]), 1))
    mid, w, wts = _panel_nodes(edges)
    cells = tuple(None if f.common_phase is not None
                  else f.grid.searchsorted(mid, side="right") for f in factors)
    v = np.array([f.value(np.append(w, (w1, big))) for f in factors])
    rows, cols = np.array(pairs).T
    with np.errstate(over="ignore", invalid="ignore"):
        eta = np.conj(v[rows]) * v[cols]
        d = wts.ravel() * eta[:, :-2]
        d_abs = np.abs(d)
        # the nodes' and the ends' share of each pair's norm
        _require_finite_mass(np.add.reduce(d_abs, axis=-1) + np.abs(eta[:, -2]) * w1
                             + np.abs(eta[:, -1]) * big, rows, cols)
    exponents = [[factors[i].p_exponent + factors[j].p_exponent,
                  factors[i].tail_exponent + factors[j].tail_exponent] for i, j in pairs]
    return _PanelTable(tuple(factors), cells, edges, w, wts, d, d_abs, rows, cols,
                       _pairs(n)[0][rows, cols], eta[:, -2], eta[:, -1], *np.array(exponents).T)


def _ends(t, e):
    """(value, bound) of the powers below w1 and above W of every pair
    against 1/(w - E), E in the array e, each (e.size, pairs):
    eta(w1) J_p(E/w1) and eta(W) times the series in E/W, or
    -(W/E) J_s(W/E) beyond W/2, s = -1 - beta."""
    out = np.zeros((e.size, t.rows.size), dtype=complex)
    w1, big = t.edges[0], t.edges[-1]
    y = e / big
    far = np.abs(y) > 0.5
    for s in set(t.p.tolist()):
        out[:, t.p == s] += _j_end(s, e / w1, np.abs(w1 - e), w1)[:, None] * t.eta_lo[t.p == s]
    for s in set((-1.0 - t.beta).tolist()):
        tail = _series(s, np.where(far, 0.0, y)[:, None] ** _SERIES)
        if far.any():
            x = e[far]
            tail[far] = -_j_end(s, 1.0 / y[far], np.abs(big - x), x) / y[far]
        out[:, -1.0 - t.beta == s] += tail[:, None] * t.eta_hi[-1.0 - t.beta == s]
    return out, np.abs(out)


def _t_ends(t, e, e2):
    """(value, bound) of the powers below w1 and above W of every pair
    against 1/((w - e)(w - e2)), e, e2 <= 0: power series below
    lo = min(w1, |E|/2) and above hi = max(W, 2|E|) over the nonzero
    energies, and geometric panels of the powers between."""
    w1, big = t.edges[0], t.edges[-1]
    mags = [abs(x) for x in (e, e2) if x]
    lo, hi = min([w1] + [0.5 * m for m in mags]), max([big] + [2.0 * m for m in mags])
    ys = [lo / x for x in (e, e2) if x]
    h = ys[0] ** _SERIES
    if len(ys) == 2:
        h = np.convolve(h, ys[1] ** _SERIES)[:_SERIES.size]
    h2 = np.convolve((e / hi) ** _SERIES, (e2 / hi) ** _SERIES)[:_SERIES.size]
    terms = [t.eta_lo * (lo / w1) ** t.p / lo * math.prod(-y for y in ys)
             * _series(t.p[:, None] - (2 - len(ys)), h),
             t.eta_hi * (hi / big) ** t.beta / hi * _series(-t.beta[:, None], h2)]
    size = np.abs(terms[0]) + np.abs(terms[1])
    for a, b, eta, s, at in ((lo, w1, t.eta_lo, t.p, w1), (big, hi, t.eta_hi, t.beta, big)):
        if b > a:
            _, u, wts = _panel_nodes(_geometric_edges(a, b))
            u, wts = u.ravel(), wts.ravel()
            part = eta[:, None] * (u / at) ** s[:, None] * (wts / ((u - e) * (u - e2)))
            terms.append(np.add.reduce(part, axis=-1))
            size = size + np.add.reduce(np.abs(part), axis=-1)
    return sum(terms), size


def _near_terms(t, e, kk, pp, own):
    """(terms, bounds), one row per panel pp[i] near E = e[kk[i]] > 0:
    the piece at E subtracted on the panel's nodes, or on its halves split
    at E where own, and its logarithms at the panel's edges."""
    at, c = e[kk], pp[own]
    _, nodes, wts = _panel_nodes(np.stack((t.edges[c], at[own], t.edges[c + 1]), axis=-1))
    nodes, wts = (a.reshape(c.size, 2 * t.w.shape[1]) for a in (nodes, wts))
    # every factor at E and at the split halves' nodes in one evaluation, a
    # tabulated one on the panel's piece (`TabulatedFormFactor._piece`)
    x = np.concatenate((at, nodes.ravel()))
    panel = np.concatenate((pp, np.repeat(c, nodes.shape[1])))
    v = np.array([f.value(x) if j is None else f._piece(x, j[panel])[0]
                  for f, j in zip(t.factors, t.cells)])
    dens = np.conj(v[t.rows]) * v[t.cols]
    eta = dens[:, :kk.size]
    gap = t.w[pp] - at[:, None]
    gap[own] = np.inf
    kern = t.wts[pp] / gap
    dist = np.abs(np.stack((t.edges[1:][pp], t.edges[:-1][pp])) - at)
    # a node at E has coefficient 0: the pieces meeting there agree
    logs = np.log(np.where(dist > 0.0, dist, 1.0))
    terms = eta * (logs[0] - logs[1] - np.add.reduce(kern, axis=-1))
    size = np.abs(eta) * (np.abs(logs).sum(axis=0) + np.add.reduce(np.abs(kern), axis=-1))
    part = (wts * (dens[:, kk.size:].reshape(t.rows.size, *nodes.shape) - eta[:, own, None])
            / (nodes - at[own, None]))
    terms[:, own] += np.add.reduce(part, axis=-1)
    size[:, own] += np.add.reduce(np.abs(part), axis=-1)
    return terms.T, size.T


def _panel_sums(t, e, e2=None):
    """(values, bounds) of the table's pairs against 1/(w - E) for E in the
    array e (with e2, aligned with e, 1/((w - E)(w - E'))), each (e.size,
    pairs): one kernel on the table's nodes per energy and one row sum per
    pair, the ends, and for E > 0 the panels near E, the one that holds E
    split there."""
    x0, x1 = t.edges[:-1], t.edges[1:]
    half = 0.5 * (x1 - x0)
    near = ((e[:, None] > 0.0) & (e2 is None)
            & (np.maximum(x0 - e[:, None], e[:, None] - x1) < half))
    hold = np.clip(np.searchsorted(t.edges, e, side="right") - 1, 0, half.size - 1)
    split = (near[np.arange(e.size), hold]
             & (np.minimum(e - x0[hold], x1[hold] - e) > 2.0 * _SPLIT * half[hold]))
    nodes, width = t.w.ravel(), t.w.shape[1]
    if e2 is None:
        sums, bounds = _ends(t, e)
    else:
        ends = [_t_ends(t, x, x2) for x, x2 in zip(e.tolist(), e2.tolist())]
        sums, bounds = map(np.array, zip(*ends))
    # a block of energies at once, each row summed on its own along the
    # contiguous last axis, so each sum is that energy's alone
    block = max(1, _BLOCK // t.d.size)
    for b in range(0, e.size, block):
        gap = nodes - e[b:b + block, None]
        cut = np.flatnonzero(split[b:b + block])
        gap[cut[:, None], hold[b + cut, None] * width + np.arange(width)] = np.inf
        kernel = (1.0 / (gap if e2 is None
                         else gap * (nodes - e2[b:b + block, None])))[:, None, :]
        sums[b:b + block] += np.add.reduce(t.d * kernel, axis=-1)
        bounds[b:b + block] += np.add.reduce(t.d_abs * np.abs(kernel), axis=-1)
    kk, pp = np.nonzero(near)
    if kk.size:
        terms, size = _near_terms(t, e, kk, pp, split[kk] & (pp == hold[kk]))
        np.add.at(sums, kk, terms)
        np.add.at(bounds, kk, size)
    return sums, bounds


# ---------------------------------------------------------------------------
# Matrix assembly


@functools.cache
def _pairs(n):
    """(index, fill, pair) for n x n Hermitian matrices held as the values
    v of their pairs i <= j, in the row-major order of the upper triangle:
    index[i, j] of each pair, and for each entry of the flattened matrix
    its place in [v, conj(v), Re v] (upper triangle, lower triangle,
    diagonal) and its pair."""
    rows, cols = np.triu_indices(n)
    index = np.zeros((n, n), dtype=int)
    index[rows, cols] = np.arange(rows.size)
    a, b = np.divmod(np.arange(n * n), n)
    pair = index[np.minimum(a, b), np.maximum(a, b)]
    return index, pair + rows.size * np.where(a < b, 0, np.where(a > b, 1, 2)), pair


def _ray_parts(model, x, up=None):
    """[(table, part)] for the built-in pairs at the energies x: those at
    or below 0 on the model's Gram table, those above 0 on its ray, part
    None or, for a stack that holds both, a mask of x; [] without built-in
    factors.  up is True or False when every energy is known to lie above
    0 (the lattice) or at or below 0 (a checked stack), None to read the
    signs.  A stack of energies of one sign reads one table and builds no
    other; one energy skips numpy."""
    if up is None and x.size == 1:
        up = bool(x[0] > 0.0)
    elif up is None:
        up = x > 0.0
        above = np.count_nonzero(up)
        if above in (0, x.size):
            up = bool(above)
    if isinstance(up, bool):
        parts = [(model._ray_rows if up else model._gram_rows, None)]
    else:
        parts = [(model._gram_rows, ~up), (model._ray_rows, up)]
    return parts if parts[0][0] is not None else []


def _by_table(parts, x, e2, reduce):
    """reduce(table, energies, e2), real, of each (table, part) of
    `_ray_parts` at the energies x (e2 None or aligned with x), in their
    order, (x.size, pairs)."""
    if len(parts) == 1:
        return reduce(parts[0][0], x, e2).real
    out = np.empty((x.size, parts[0][0].at.size))
    for t, part in parts:
        out[part] = reduce(t, x[part], None if e2 is None else e2[part]).real
    return out


def _pair_sums(model, x, e2=None, lattice=None, up=None):
    """(entries, fft, panel): the Hermitian matrices of pair integrals
    against 1/(w - E) (with e2, aligned with x, 1/((w - E)(w - E'))) at the
    energies of the 1-d array x as one complex stack (x.size, N, N), and
    the bounds that come with their sums, the lattice's FFT bound and the
    panel table's sum |term| (None where there are none); up as in
    `_ray_parts`, True with the lattice.  Built-in pairs
    are phase * Re sum_k c_k kernel(w_k) over every node of the model's
    Gram table (E <= 0) or ray (E > 0) (`_ray_reduce`), or with lattice
    (a, j), x the lattice energies a exp(j h/2), by FFT on the ray
    (`_ray_lattice`); the others `_panel_sums` on its panel table.  Every
    pair is on the ray and Gram tables (which list the same pairs) or on
    the panel table, at its place `at`, and each entry is read from its
    pair (`_pairs`).  No check of the energies and no err: the public
    matrices (`_level_shift`) and the eigencurves (`_shift_stack`) check
    them first."""
    n = model.n_levels
    parts, panels = _ray_parts(model, x, up), model._panel_rows
    v = fft = panel = None
    if parts:
        table = parts[0][0]
        if lattice is not None:
            sums, fft = _ray_lattice(table, x, *lattice)
        else:
            sums = _by_table(parts, x, e2, _ray_sums)
        # in the table's order, which is the pairs' own order when every
        # factor is built in (no panel table)
        v = table.phase * sums.real
    if panels is not None:
        ray, v = v, np.empty((x.size, n * (n + 1) // 2), dtype=complex)
        if ray is not None:
            v[:, table.at] = ray
        sums, panel = _panel_sums(panels, x, e2)
        v[:, panels.at] = sums
    # a Hermitian matrix has a real diagonal; take keeps each matrix
    # C-contiguous, as a matrix alone is
    entries = np.concatenate((v, v.conj(), v.real), axis=1).take(_pairs(n)[1], axis=1)
    return entries.reshape(x.size, n, n), fft, panel


def _level_shift(model, e, e2=None, lattice=None) -> LevelShiftMatrix:
    """The LevelShiftMatrix of `_pair_sums` at the energies e (a float or an
    array; e2 a float), shaped e.shape + (N, N), and its error bounds,
    computed when first read: the ray's and Gram table's 24 eps sum |term|
    (`_ray_bounds`), plus on the lattice the FFT's bound, and the panel
    table's."""
    x, up = np.ravel(e), (None if lattice is None else True)
    e2 = None if e2 is None else np.full(x.shape, e2)
    entries, fft, panel = _pair_sums(model, x, e2, lattice, up)
    shape = np.shape(e) + entries.shape[1:]

    def bounds():
        n = model.n_levels
        parts, panels = _ray_parts(model, x, up), model._panel_rows
        err = np.empty((x.size, n * (n + 1) // 2))
        if parts:
            ray_err = _by_table(parts, x, e2, _ray_bounds)
            err[:, parts[0][0].at] = ray_err if fft is None else ray_err + fft
        if panels is not None:
            err[:, panels.at] = _SUM_ERR * panel
        return err[:, _pairs(n)[2]].reshape(shape)

    return LevelShiftMatrix(entries.reshape(shape), e, bounds)


def _norms_sq(model) -> list:
    """Integral of |v_n|^2 over the half line (the kernel 1) of every level
    n, in order: one row sum per level, on the Gram table for a built-in
    factor, on the panel table plus its power-law ends for a tabulated
    one."""
    norms = np.empty(model.n_levels)
    t = model._gram_rows
    if t is not None:
        k = t.rows == t.cols
        norms[t.rows[k]] = np.add.reduce(t.c[k], axis=-1)
    t = model._panel_rows
    if t is not None:
        k = t.rows == t.cols
        norms[t.rows[k]] = (np.add.reduce(t.d[k], axis=-1)
                            + t.eta_lo[k] * t.edges[0] / (t.p[k] + 1.0)
                            + t.eta_hi[k] * t.edges[-1] / (-1.0 - t.beta[k])).real
    return norms.tolist()


def _extreme(e, reduce, empty):
    """The energy e, or reduce (np.maximum or np.minimum, which propagate
    NaN) of an array of them, empty when it has none: one reduction
    validates a stack, and a float skips numpy."""
    return e if isinstance(e, float) else float(reduce.reduce(e, axis=None, initial=empty))


def _check_energies(model, e, op, above=False):
    """The checks of gram_matrix and t_matrix (op), or with above those of
    pv_matrix (op), on the energy or array of energies e: a ValueError
    unless each is at or below 0 (at or above 0 with above; a NaN is
    neither), and a ConfigError when one is 0 and a form factor has p <= 0,
    where S(0) = D(0) diverges."""
    edge = _extreme(e, np.minimum, np.inf) if above else _extreme(e, np.maximum, -np.inf)
    if not (edge >= 0.0 if above else edge <= 0.0):
        raise ValueError(f"{op} requires E {'>=' if above else '<='} 0, got E = {edge}")
    if edge == 0.0:
        for k, f in enumerate(model.form_factors, start=1):
            if not f.p_exponent > 0.0:
                raise ConfigError(
                    f"{'gram_matrix' if above else op} at E = 0 needs a positive "
                    f"threshold exponent, form factor {k} has p = {f.p_exponent}")


def _shift_stack(model, e, e2=None):
    """The entries alone of the level-shift matrices at the energies of the
    1-d array e, as one complex stack (e.size, N, N) from `_pair_sums`,
    with no LevelShiftMatrix and no err: S(E) at E <= 0 and D(E) at E > 0,
    each bit for bit gram_matrix or pv_matrix at E alone, after the same
    checks (of the energies at or below 0 first); with e2, aligned with e,
    T(E, E') after t_matrix's checks."""
    if e2 is not None:
        for x in (e, e2):
            _check_energies(model, x, "t_matrix")
        if np.any((e == 0.0) & (e2 == 0.0)):
            raise ValueError("t_matrix requires E < 0 or E' < 0")
        return _pair_sums(model, e, e2, up=False)[0]
    top = _extreme(e, np.maximum, -np.inf)
    if top <= 0.0:
        _check_energies(model, top, "gram_matrix")
        return _pair_sums(model, e, up=False)[0]
    below = e <= 0.0
    _check_energies(model, e[below], "gram_matrix")
    _check_energies(model, e[~below], "pv_matrix", above=True)
    return _pair_sums(model, e)[0]


def gram_matrix(model, e) -> LevelShiftMatrix:
    """Gram matrix S(E) for E < 0 (E = 0 allowed when all p_exponent > 0),
    or the stack of them over an array of energies.

    Built-in pairs: sum_k c_k / (w_k - E) on the model's real Gram table;
    pairs with a tabulated factor: the model's panel table and power-law
    ends.
    """
    e = float(e) if np.ndim(e) == 0 else np.asarray(e, dtype=float)
    _check_energies(model, e, "gram_matrix")
    return _level_shift(model, e)


def t_matrix(model, e, e2) -> LevelShiftMatrix:
    """Difference-kernel matrix T(E, E') with kernel 1/((w-E)(w-E')).

    Satisfies S(E) - S(E') = (E - E') T(E, E'); at E' = E it equals dS/dE.
    Both energies must lie below the continuum (0 allowed when p > 0), and
    not both at 0, where the kernel 1/w^2 is not integrable for p <= 1/2.
    Built-in pairs: sum_k c_k / ((w_k - E)(w_k - E')) on the Gram table;
    pairs with a tabulated factor: the model's panel table.  Neither
    cancels as E' approaches E.
    """
    e, e2 = float(e), float(e2)
    _check_energies(model, e, "t_matrix")
    _check_energies(model, e2, "t_matrix")
    if e == 0.0 and e2 == 0.0:
        raise ValueError("t_matrix requires E < 0 or E' < 0")
    return _level_shift(model, e, e2)


def pv_matrix(model, e) -> LevelShiftMatrix:
    """Principal-value matrix D(E) for E >= 0, or the stack of them over an
    array of energies, each bit for bit D(E) at its energy alone.

    D(0) is S(0), on the Gram table.  For E > 0 a built-in pair is
    Re sum_k c_k / (w_k - E) on the rotated ray, the real part of
    F(E + i0); a pair with a tabulated factor is the principal value on
    the panel table, each panel near E with its own piece at E subtracted.
    """
    e = float(e) if np.ndim(e) == 0 else np.asarray(e, dtype=float)
    _check_energies(model, e, "pv_matrix", above=True)
    return _level_shift(model, e)


def _pv_lattice(model, lo, hi):
    """(a, t, D): the lattice t = j h/2, j every integer with lo <= a exp(t)
    <= hi (up to rounding at the ends), of the model's anchor a, the
    narrowest built-in width (the ray's c_lo) or without built-in factors
    the widest width, and the stack of D(E) at its energies a * np.exp(t)
    (0 < lo <= hi).  The built-in pairs are summed by FFT (`_ray_lattice`),
    the pairs with a tabulated factor directly; err adds the FFT's bound to
    the direct sums' (module docstring)."""
    built = [f.scale for f in model.form_factors if f.common_phase is not None]
    a = min(built) if built else model.max_scale()
    j = np.arange(math.ceil(math.log(lo / a) / _LATTICE_STEP),
                  math.floor(math.log(hi / a) / _LATTICE_STEP) + 1)
    t = _LATTICE_STEP * j
    return a, t, _level_shift(model, a * np.exp(t), lattice=(a, j))
