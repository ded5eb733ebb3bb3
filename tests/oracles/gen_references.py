"""Generate frozen reference values for the test suite.

Everything here is computed with mpmath (tanh-sinh quadrature at 30
significant digits) from form-factor formulas written out from scratch, so
the numbers are independent of the package's QUADPACK/LAPACK pipeline.
Run from the repository root:

    python3 tests/oracles/gen_references.py

and paste the printed dictionary into tests/_references.py.
"""

import mpmath as mp

mp.mp.dps = 30

# --- form factors, written independently -----------------------------------

SQ2 = mp.sqrt(2)
SQ3 = mp.sqrt(3)


def hydrogen_profile(i, x):
    """|v_i| profile of the hydrogen-like family, reference cutoff units."""
    if i == 1:
        u = x
        return mp.sqrt(u) / (1 + u * u) ** 2
    if i == 2:
        u = x / (mp.mpf(8) / 9)
        return (81 / (128 * SQ2)) * mp.sqrt(u) * (1 + 2 * u * u) / (1 + u * u) ** 3
    u = x / (mp.mpf(10) / 12)
    s = u * u
    return (54 * SQ3 / 15625) * mp.sqrt(u) * (45 + 146 * s + 125 * s * s) / (1 + s) ** 4


def rational_profile(k, a, x):
    """sqrt(u) (1 + a u^(2(k-1))) / (1+u^2)^(k+1) with unit cutoff."""
    u = x
    s = u * u
    return mp.sqrt(u) * (1 + a * s ** (k - 1)) / (1 + s) ** (k + 1)


THREE_LEVEL = [(1, 0), (2, 2), (3, 1)]
THREE_LEVEL_OMEGA = [mp.mpf("-0.01"), mp.mpf("0.01"), mp.mpf("0.02")]


def eta_h(n, m, x):
    return hydrogen_profile(n, x) * hydrogen_profile(m, x)


def eta_3(n, m, x):
    kn, an = THREE_LEVEL[n - 1]
    km, am = THREE_LEVEL[m - 1]
    return rational_profile(kn, an, x) * rational_profile(km, am, x)


def gram_entry(eta, e):
    return mp.quad(lambda w: eta(w) / (w - e), [0, 1, 10, mp.inf])


def pv_entry(eta, e):
    """Split form: smooth difference quotient on [0, 2e] plus the far part."""
    def dq(w):
        if abs(w - e) < mp.mpf("1e-18"):
            h = mp.mpf("1e-10")
            return (eta(e + h) - eta(e - h)) / (2 * h)
        return (eta(w) - eta(e)) / (w - e)

    near = mp.quad(dq, [0, e, 2 * e])
    far = mp.quad(lambda w: eta(w) / (w - e), [2 * e, 10 * (1 + e), mp.inf])
    return near + far


def herm3_eigen(mat):
    """Eigenvalues of a symmetric 3x3 mpmath matrix, ascending, as mpf."""
    es, _ = mp.eigsy(mp.matrix(mat))
    return sorted(es)


def matrix_of(entry_fn):
    return [[entry_fn(n, m) for m in (1, 2, 3)] for n in (1, 2, 3)]


def spectral_norm3(mat):
    return max(abs(v) for v in herm3_eigen(mat))


def fmt(x):
    return float(mp.mpf(x))


out = {}

# Gram matrix of the hydrogen family at E = -1 (upper triangle, row major)
vals = []
for n in (1, 2, 3):
    for m in range(n, 4):
        vals.append(((n, m), gram_entry(lambda w: eta_h(n, m, w), mp.mpf(-1))))
out["hydrogen_gram_minus1"] = {f"{n}{m}": fmt(v) for (n, m), v in vals}

# PV matrix of the hydrogen family at E = 0.5
vals = []
for n in (1, 2, 3):
    for m in range(n, 4):
        vals.append(((n, m), pv_entry(lambda w: eta_h(n, m, w), mp.mpf("0.5"))))
out["hydrogen_pv_half"] = {f"{n}{m}": fmt(v) for (n, m), v in vals}

# supremum of the hydrogen PV-matrix norm over E > 0: coarse log scan,
# then golden-section refinement in log E
def hydrogen_pv_norm(e):
    mat = [[pv_entry(lambda w: eta_h(n, m, w), e) for m in (1, 2, 3)]
           for n in (1, 2, 3)]
    return spectral_norm3(mat)


def golden_max(f, a, b, tol):
    """Golden-section search for a maximum of f on [a, b]; returns the final
    bracket, narrowed to width tol."""
    gr = (mp.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return a, b


lo, hi = mp.mpf("0.01"), mp.mpf("1.0")
grid = [lo * (hi / lo) ** (mp.mpf(i) / 40) for i in range(41)]
norms = [hydrogen_pv_norm(e) for e in grid]
k = norms.index(max(norms))
a, b = golden_max(lambda t: hydrogen_pv_norm(mp.e ** t),
                  mp.log(grid[max(k - 1, 0)]), mp.log(grid[min(k + 1, 40)]),
                  mp.mpf("1e-6"))
e_star = mp.e ** ((a + b) / 2)
sup_d = hydrogen_pv_norm(e_star)
out["hydrogen_sup_d"] = {"value": fmt(sup_d), "e_star": fmt(e_star)}


# certificate constants of the hydrogen preset at its levels omega_tilde *
# (1, 32/27, 5/4), omega_tilde = 1.55e16 / 8.498e18:
#   lambda_n^2   = (gap_n / 3) / sup ||D||, gap_n the distance to the nearest
#                  other level,
#   lambda_a^2   = R_a / sup ||D||, R_a = min(smallest level, min gap) / 3,
#   alpha_n      = |v_n(omega_n)|^2,
#   beta_n       = (gap_n / 3) sup_{w >= 0} |d|v_n|^2/dw|,
#   gamma_n      = sum_i sup |v_i|^2 over |w - omega_n| < R_a, w >= 0,
#   lambda_bar_n^2 = lambda_n^2 / (2 beta_n) (A - sqrt(A^2 - 4 alpha_n beta_n)),
#                  A = alpha_n + beta_n + gamma_n.
def sup_on_grid(f, grid):
    """Largest value of f on an ascending grid, sharpened by golden-section
    search between the neighbours of the best sample."""
    vals = [f(x) for x in grid]
    k = vals.index(max(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    a, b = golden_max(f, a, b, mp.mpf("1e-20") * b)
    return max(vals[k], f((a + b) / 2))


def hydrogen_mod_sq_slope(i, x):
    """d|v_i|^2/dw at w = x, one-sided at the threshold x = 0."""
    return mp.diff(lambda w: eta_h(i, i, w), x, direction=1 if x == 0 else 0)


H_OMEGA = mp.mpf("1.55e16") / mp.mpf("8.498e18")
H_LEVELS = [H_OMEGA * r for r in (1, mp.mpf(32) / 27, mp.mpf(5) / 4)]
h_gaps = [min(abs(w - v) for v in H_LEVELS if v != w) for w in H_LEVELS]
h_r_a = min(H_LEVELS[0], min(h_gaps)) / 3
slope_grid = [mp.mpf(0)] + [mp.mpf(10) ** (-6 + 9 * mp.mpf(j) / 600) for j in range(601)]
lambda_n_sq, lambda_bar_sq = [], []
for n, w in zip((1, 2, 3), H_LEVELS):
    lam_sq = h_gaps[n - 1] / 3 / sup_d
    alpha = eta_h(n, n, w)
    beta = h_gaps[n - 1] / 3 * sup_on_grid(
        lambda x: abs(hydrogen_mod_sq_slope(n, x)), slope_grid)
    lo, hi = max(0, w - h_r_a), w + h_r_a
    window = [lo + (hi - lo) * mp.mpf(j) / 400 for j in range(401)]
    gamma = sum(sup_on_grid(lambda x: eta_h(i, i, x), window) for i in (1, 2, 3))
    a_tot = alpha + beta + gamma
    lambda_n_sq.append(fmt(lam_sq))
    lambda_bar_sq.append(fmt(lam_sq / (2 * beta)
                             * (a_tot - mp.sqrt(a_tot ** 2 - 4 * alpha * beta))))
out["hydrogen_lambda_n_sq"] = tuple(lambda_n_sq)
out["hydrogen_lambda_a_sq"] = fmt(h_r_a / sup_d)
out["hydrogen_lambda_bar_sq"] = tuple(lambda_bar_sq)

# norm of the hydrogen PV matrix at e = 1 (used by a matrix-vs-diagonal bound)
out["hydrogen_pv_norm_at_1"] = fmt(hydrogen_pv_norm(mp.mpf(1)))

# smallest eigenvalue of D(E) for hydrogen: bracket the first sign change
def hydrogen_pv_mineig(e):
    mat = [[pv_entry(lambda w: eta_h(n, m, w), e) for m in (1, 2, 3)]
           for n in (1, 2, 3)]
    return herm3_eigen(mat)[0]


lo, hi = mp.mpf("0.10"), mp.mpf("0.30")
flo = hydrogen_pv_mineig(lo)
for _ in range(40):
    mid = (lo + hi) / 2
    fm = hydrogen_pv_mineig(mid)
    if (fm < 0) == (flo < 0):
        lo, flo = mid, fm
    else:
        hi = mid
out["hydrogen_r_b"] = fmt((lo + hi) / 2)

# modulus-squared l2 norms (closed forms exist; quadrature cross-check)
out["l2"] = {
    "hydrogen_1": fmt(mp.quad(lambda w: eta_h(1, 1, w), [0, 1, mp.inf])),
    "hydrogen_2": fmt(mp.quad(lambda w: eta_h(2, 2, w), [0, 1, mp.inf])),
    "hydrogen_3": fmt(mp.quad(lambda w: eta_h(3, 3, w), [0, 1, mp.inf])),
    "three_level_1": fmt(mp.quad(lambda w: eta_3(1, 1, w), [0, 1, mp.inf])),
    "three_level_2": fmt(mp.quad(lambda w: eta_3(2, 2, w), [0, 1, mp.inf])),
    "three_level_3": fmt(mp.quad(lambda w: eta_3(3, 3, w), [0, 1, mp.inf])),
}

# three-level Gram matrix at E = 0 and bound-state roots for the standard
# couplings: kappa_1(E) = E solved on the smallest eigenvalue branch
vals = []
for n in (1, 2, 3):
    for m in range(n, 4):
        vals.append(((n, m), gram_entry(lambda w: eta_3(n, m, w), mp.mpf(0))))
out["three_level_gram_zero"] = {f"{n}{m}": fmt(v) for (n, m), v in vals}


def three_level_kappa(e, lam, branch):
    s = [[gram_entry(lambda w: eta_3(n, m, w), e) for m in (1, 2, 3)]
         for n in (1, 2, 3)]
    k = [[(THREE_LEVEL_OMEGA[i] if i == j else 0) - lam ** 2 * s[i][j]
          for j in range(3)] for i in range(3)]
    return herm3_eigen(k)[branch - 1]


def three_level_root(lam, branch, lo, hi):
    glo = three_level_kappa(lo, lam, branch) - lo
    for _ in range(60):
        mid = (lo + hi) / 2
        gm = three_level_kappa(mid, lam, branch) - mid
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return (lo + hi) / 2


roots = {}
roots["lam_0.1"] = [fmt(three_level_root(mp.mpf("0.1"), 1, mp.mpf("-0.1"), mp.mpf("-0.001")))]
roots["lam_0.7"] = [
    fmt(three_level_root(mp.mpf("0.7"), 1, mp.mpf("-0.6"), mp.mpf("-0.1"))),
    fmt(three_level_root(mp.mpf("0.7"), 2, mp.mpf("-0.1"), mp.mpf("-0.0001"))),
]
roots["lam_10"] = [
    fmt(three_level_root(mp.mpf("10"), 1, mp.mpf("-20"), mp.mpf("-1"))),
    fmt(three_level_root(mp.mpf("10"), 2, mp.mpf("-1"), mp.mpf("-0.1"))),
    fmt(three_level_root(mp.mpf("10"), 3, mp.mpf("-0.1"), mp.mpf("-0.001"))),
]
out["three_level_roots"] = roots

# hydrogen bound states at the coupling lambda = 1e120: for |E| far above
# every width, S(E) = G/|E| + O(|E|^-2) with G_nm = integral v_n v_m dw the
# norm Gram matrix, so kappa_k(E) = E gives |E_k| = lambda sqrt(g_k), g_k
# the eigenvalues of G in descending order, to a relative 1e-116 (the
# widths and levels over |E|).  cond(G) = g_max / g_min bounds how far a
# double-precision S(E) may move the smallest root: eps cond(G) / 2
g_norm = [[mp.quad(lambda w: eta_h(n, m, w), [0, 1, mp.inf]) for m in (1, 2, 3)]
          for n in (1, 2, 3)]
g_eig = sorted(herm3_eigen(g_norm), reverse=True)
out["hydrogen_huge_coupling_roots"] = {
    "lam_1e120": [fmt(-mp.mpf("1e120") * mp.sqrt(g)) for g in g_eig]}
out["hydrogen_norm_gram_cond"] = fmt(g_eig[0] / g_eig[-1])

import pprint

pprint.pprint(out, width=100)
