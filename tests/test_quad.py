import bisect
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from friedrichs import (
    FriedrichsModel,
    HydrogenFormFactor,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    discretize,
    gram_matrix,
    l2_norm_sq,
    load_model,
    make_preset,
    pv_matrix,
    t_matrix,
)

from _references import (
    HYDROGEN_GRAM_MINUS1,
    HYDROGEN_PV_HALF,
    L2_HYDROGEN,
    L2_THREE_LEVEL,
    THREE_LEVEL_GRAM_ZERO,
)
from property_suites import draw_model


def test_gram_matrix_hydrogen(hydrogen):
    # frozen by tests/oracles/gen_references.py
    m = gram_matrix(hydrogen, -1.0)
    assert m.e == -1.0
    for key, want in HYDROGEN_GRAM_MINUS1.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        assert m.entries[i, j] == pytest.approx(want, rel=1e-10)
        assert m.entries[j, i] == pytest.approx(want, rel=1e-10)
    assert np.allclose(m.entries.imag, 0.0, atol=1e-15)


def test_gram_matrix_three_level_at_zero(three_level):
    # frozen by tests/oracles/gen_references.py
    m = gram_matrix(three_level, 0.0)
    for key, want in THREE_LEVEL_GRAM_ZERO.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        assert m.entries[i, j] == pytest.approx(want, rel=1e-10)


def test_gram_matrix_determinism(three_level):
    a = gram_matrix(three_level, -0.3)
    b = gram_matrix(three_level, -0.3)
    assert np.array_equal(a.entries, b.entries)


def test_gram_matrix_domain(three_level):
    with pytest.raises(ValueError):
        gram_matrix(three_level, 0.1)


def test_gram_matrix_zero_needs_positive_exponent():
    f = TabulatedFormFactor(np.array([1.0, 2.0, 3.0]),
                            np.array([0.5, 0.4, 0.2]),
                            tail_exponent=-1.0, p_exponent=0.0)
    model = FriedrichsModel((0.5,), 1.0, (f,), UnitSystem(1.0))
    with pytest.raises(ValueError):
        gram_matrix(model, 0.0)
    # strictly below threshold the same model is fine
    m = gram_matrix(model, -0.1)
    assert np.isfinite(m.entries).all()


def test_t_matrix_difference_identity(three_level):
    e1, e2 = -0.4, -1.3
    s1 = gram_matrix(three_level, e1).entries
    s2 = gram_matrix(three_level, e2).entries
    t = t_matrix(three_level, e1, e2)
    lhs = s1 - s2
    rhs = (e1 - e2) * t.entries
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-13 * max(np.linalg.norm(lhs, 2), 1e-3)


def test_t_matrix_psd(three_level):
    t = t_matrix(three_level, -0.7, -0.7)
    evals = np.linalg.eigvalsh(t.entries)
    assert evals.min() >= -1e-13 * max(evals.max(), 1.0)


def test_t_matrix_domain(three_level):
    # T(0, 0) = integral |v|^2 / w^2 diverges at the built-in exponent 1/2
    with pytest.raises(ValueError):
        t_matrix(three_level, 0.0, 0.0)
    with pytest.raises(ValueError):
        t_matrix(three_level, -0.1, 0.1)
    assert np.isfinite(t_matrix(three_level, -1e-9, 0.0).entries).all()


def test_pv_matrix_hydrogen(hydrogen):
    # frozen by tests/oracles/gen_references.py
    m = pv_matrix(hydrogen, 0.5)
    for key, want in HYDROGEN_PV_HALF.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        assert m.entries[i, j] == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_pv_matrix_domain(hydrogen):
    with pytest.raises(ValueError):
        pv_matrix(hydrogen, -0.2)


@pytest.mark.parametrize("call", [lambda m: gram_matrix(m, math.nan),
                                  lambda m: gram_matrix(m, np.array([math.nan, -1.0])),
                                  lambda m: pv_matrix(m, [math.nan, 1.0]),
                                  lambda m: t_matrix(m, math.nan, -1.0)],
                         ids=["gram", "gram-stack", "pv-stack", "t"])
def test_nan_energy_is_rejected(three_level, call):
    # a NaN energy is outside every domain: the validating reduction
    # propagates it, where np.fmax / np.fmin passed over it and the call
    # returned a NaN matrix with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="got E = nan"):
            call(three_level)


def _pv_poly(coef, a, b, e):
    """P int_a^b P(w) / (w - E) dw for P with ascending coefficients coef:
    the polynomial quotient (P(w) - P(E)) / (w - E) integrated exactly plus
    P(E) log|(b - E)/(a - E)|."""
    p = np.polynomial.Polynomial(coef)
    quot, rem = divmod(p, np.polynomial.Polynomial([-e, 1.0]))
    smooth = quot.integ()
    return smooth(b) - smooth(a) + rem(e) * math.log(abs((b - e) / (a - e)))


def _closed_form_pv_tabulated(f, e):
    """P int_0^inf |v|^2 / (w - E) dw of a one-level tabulated factor whose
    head power 2 p and tail power -2 tail_exponent are integers: w^n on the
    head, |a + d w|^2 on every cell, and w^-m on the tail, mapped by t = 1/w
    to -(1/E) P int_0^(1/gN) t^(m-1) / (t - 1/E) dt."""
    g, v = f.grid, f.values
    n, m = round(2.0 * f.p_exponent), round(-2.0 * f.tail_exponent)
    total = abs(v[0]) ** 2 / g[0] ** n * _pv_poly([0.0] * n + [1.0], 0.0, g[0], e)
    for k in range(len(g) - 1):
        d = (v[k + 1] - v[k]) / (g[k + 1] - g[k])
        a = v[k] - d * g[k]
        coef = [abs(a) ** 2, 2.0 * (np.conj(a) * d).real, abs(d) ** 2]
        total += _pv_poly(coef, g[k], g[k + 1], e)
    tail = -_pv_poly([0.0] * (m - 1) + [1.0], 0.0, 1.0 / g[-1], 1.0 / e) / e
    return total + abs(v[-1]) ** 2 * g[-1] ** m * tail


def _one_level_tabulated(p_exponent, tail_exponent):
    # E = 0.3 falls on the head, 0.5 inside the first cell, 2.0 on the tail
    grid = np.array([0.4, 0.7, 1.0, 1.5])
    vals = np.array([0.8, 0.5 + 0.6j, 0.3 - 0.2j, 0.25j])
    f = TabulatedFormFactor(grid, vals, tail_exponent=tail_exponent, p_exponent=p_exponent)
    return FriedrichsModel((0.1,), 0.5, (f,), UnitSystem(1.0))


@pytest.mark.parametrize("e", [0.3, 0.5, 2.0])
def test_pv_closed_form_even(e):
    # |v|^2 ~ w^2 on the head and w^-2 on the tail
    model = _one_level_tabulated(1.0, -1.0)
    m = pv_matrix(model, e)
    want = _closed_form_pv_tabulated(model.form_factors[0], e)
    assert m.entries[0, 0].real == pytest.approx(want, rel=1e-12)
    assert m.entries[0, 0].imag == 0.0
    assert m.err[0, 0] < 1e-12


@pytest.mark.parametrize("e", [0.3, 0.5, 2.0])
def test_pv_closed_form_odd(e):
    # |v|^2 ~ w on the head and w^-3 on the tail
    model = _one_level_tabulated(0.5, -1.5)
    m = pv_matrix(model, e)
    want = _closed_form_pv_tabulated(model.form_factors[0], e)
    assert m.entries[0, 0].real == pytest.approx(want, rel=1e-12)


def test_pv_matrix_at_zero_matches_gram(three_level):
    d = pv_matrix(three_level, 0.0)
    s = gram_matrix(three_level, 0.0)
    assert np.array_equal(d.entries, s.entries)


def test_pv_matrix_hermitian_complex_path():
    model = _tabulated_rational()
    m = pv_matrix(model, 0.9)
    assert np.iscomplexobj(m.entries)
    assert np.allclose(m.entries, m.entries.conj().T, atol=1e-12)
    s = gram_matrix(model, -0.5)
    assert np.allclose(s.entries, s.entries.conj().T, atol=1e-12)


def _complex_tabulated():
    grid = np.linspace(0.25, 6.0, 60)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * np.tanh(grid))
    return TabulatedFormFactor(grid, vals, tail_exponent=-1.5)


def _tabulated_rational():
    return FriedrichsModel((0.1, 0.3), 0.5,
                           (_complex_tabulated(), RationalFormFactor(2, 1.0, 1.0)),
                           UnitSystem(1.0))


def _cauchy_reference(model, e):
    """D(E) without the 2E subtraction: the Cauchy-weighted rule (QAWC) on
    the breakpoint cell [lo, hi] that contains E, QAGP with the kinks as
    points on [0, lo] and [hi, top], and QAGI on [top, infinity)."""
    kinks = sorted({float(b) for f in model.form_factors for b in f.breakpoints()})
    lo = max([0.0] + [b for b in kinks if b < e])
    hi = min([b for b in kinks if b > e] or [2.0 * e])
    top = max(kinks[-1], hi)
    tol = dict(epsabs=1e-15, epsrel=1e-12, limit=5000)

    def piece(f, a, b):
        inner = [k for k in kinks if a < k < b]
        return integrate.quad(f, a, b, points=inner or None, **tol)[0] if b > a else 0.0

    n = model.n_levels
    out = np.zeros((n, n), dtype=complex)
    for i, fi in enumerate(model.form_factors):
        for j, fj in enumerate(model.form_factors):
            for part, unit in ((np.real, 1.0), (np.imag, 1j)):
                eta = lambda w: part(np.conj(fi.value(w)) * fj.value(w))
                over = lambda w: eta(w) / (w - e)
                cell = integrate.quad(eta, lo, hi, weight="cauchy", wvar=e, **tol)[0]
                tail = integrate.quad(over, top, np.inf, **tol)[0]
                out[i, j] += unit * (cell + piece(over, 0.0, lo) + piece(over, hi, top) + tail)
    return out


_PV_MODELS = {
    "hydrogen-4level": lambda: make_preset("hydrogen-4level"),
    "three-level-fig": lambda: make_preset("three-level-fig"),
    "tabulated-rational": _tabulated_rational,
}


@pytest.mark.parametrize("name", sorted(_PV_MODELS))
def test_pv_matrix_matches_cauchy_reference(name):
    # the 2E subtraction against an independent principal value; every
    # energy lies strictly between tabulated nodes
    model = _PV_MODELS[name]()
    for e in (1e-6 * model.max_scale(), 0.0813, 0.5, 90.0):
        d = pv_matrix(model, e).entries
        ref = _cauchy_reference(model, e)
        assert np.abs(d - ref).max() <= 1e-10 * np.abs(ref).max(), e


@pytest.mark.parametrize("where", ["on-node", "half-node"])
def test_pv_matrix_on_tabulated_kink(where):
    # E on a node puts the kink at w = E, where the two cells' logarithms
    # cancel by parts; E at half a node puts it at w = 2E.  D stays finite,
    # Hermitian and continuous
    model = _tabulated_rational()
    node = float(model.form_factors[0].grid[7])
    e = node if where == "on-node" else 0.5 * node
    d = pv_matrix(model, e).entries
    assert np.isfinite(d).all()
    assert np.array_equal(d, d.conj().T)
    mean = 0.5 * (pv_matrix(model, e * (1.0 - 1e-9)).entries
                  + pv_matrix(model, e * (1.0 + 1e-9)).entries)
    assert np.abs(d - mean).max() <= 1e-9 * np.abs(mean).max()


@pytest.mark.parametrize("first,tol", [
    (lambda: HydrogenFormFactor(1), 1e-12),
    (_complex_tabulated, 1e-9),
], ids=["hydrogen-rational", "tabulated-rational"])
def test_gram_matrix_pair_phase_convention(first, tol):
    # S_nm = sum_j w_j conj(v_n(w_j)) v_m(w_j) / (w_j - E) on the oracle's
    # nodes; the hydrogen-rational pair has phase i, the tabulated one a
    # varying phase, so a conjugate on the wrong factor shows up off the
    # diagonal.  The oracle's panels end on the tabulated nodes, so the
    # kinks do not limit the node sum (entries are O(0.1), so the bound is
    # absolute).
    model = FriedrichsModel((0.1, 0.3), 0.5, (first(), RationalFormFactor(2)),
                            UnitSystem(1.0))
    e = -0.5
    ham = discretize(model, 2000)
    vals = np.array([f.value(ham.nodes) for f in model.form_factors])
    direct = (np.conj(vals) * (ham.weights / (ham.nodes - e))) @ vals.T
    s = gram_matrix(model, e).entries
    assert abs(s[0, 1].imag) > 0.1 * abs(s[0, 1])
    assert np.abs(s - direct).max() <= tol


def test_level_shift_matrix_norm(three_level):
    m = gram_matrix(three_level, -1.0)
    direct = np.linalg.norm(m.entries, 2)
    assert m.norm() == pytest.approx(direct, rel=1e-13)
    assert m.n == 3
    stack = gram_matrix(three_level, [-1.0, -0.5])
    assert stack.n == 3
    assert stack.norm().tolist() == [m.norm(), gram_matrix(three_level, -0.5).norm()]


def _kernel_reference(model, kernel, points=()):
    """integral conj(v_i) v_j kernel(w) dw over [0, infinity) by QUADPACK:
    QAGP on [0, top] with the widths and the given points as breakpoints,
    QAGI beyond."""
    kinks = sorted({f.scale for f in model.form_factors} | {p for p in points if p > 0.0})
    top = 10.0 * kinks[-1]
    tol = dict(epsabs=0.0, epsrel=1e-13, limit=5000)
    n = model.n_levels
    out = np.zeros((n, n), dtype=complex)
    for i, fi in enumerate(model.form_factors):
        for j, fj in enumerate(model.form_factors):
            for part, unit in ((np.real, 1.0), (np.imag, 1j)):
                f = lambda w: part(np.conj(fi.value(w)) * fj.value(w)) * kernel(w)
                out[i, j] += unit * (integrate.quad(f, 0.0, top, points=kinks, **tol)[0]
                                     + integrate.quad(f, top, np.inf, **tol)[0])
    return out


def _ray_models():
    """Seeded two-level built-in models: rational factors with n_index 1..11
    and random a, the second a rational or hydrogen factor of width
    ratio * the first's (a narrow factor next to a wide one at 1e4)."""
    rng = np.random.default_rng(20261018)
    for ratio in (1.0, 1.2, 2.0, 2.5, 3.0, 4.0, 8.0, 1e4):
        c = float(rng.uniform(0.5, 2.0))
        first = RationalFormFactor(int(rng.integers(1, 12)), float(rng.uniform(-2, 2)), c)
        if rng.random() < 0.5:
            second = RationalFormFactor(int(rng.integers(1, 12)),
                                        float(rng.uniform(-2, 2)), ratio * c)
        else:
            index = int(rng.integers(1, 4))
            width = [1.0, 8.0 / 9.0, 10.0 / 12.0][index - 1]
            second = HydrogenFormFactor(index, lambda1=ratio * c / width)
        yield ratio, FriedrichsModel((-0.1, 0.2), 0.5, (first, second), UnitSystem(1.0))


_RAY_MODELS = list(_ray_models())


@pytest.mark.parametrize("model", [m for _, m in _RAY_MODELS],
                         ids=[f"ratio{r:g}" for r, _ in _RAY_MODELS])
def test_ray_kernel_matches_quadpack(model):
    # S, T(E, E), T(E, E(1 + 1e-8)), D and the norms against QUADPACK, to
    # 1e-10 of the largest entry, from E = -3 c to -1e-9 c and 0, and from
    # 1e-6 c to 100 c; err is a positive rounding bound, not an estimate
    lo, hi = sorted(f.scale for f in model.form_factors)

    def close(got, ref):
        assert np.abs(got.entries - ref).max() <= 1e-10 * np.abs(ref).max()
        assert np.all(got.err > 0.0) and np.all(got.err <= 1e-12 * np.abs(ref).max())

    for e in (-3.0 * hi, -lo, -1e-9 * lo, 0.0):
        close(gram_matrix(model, e), _kernel_reference(model, lambda w: 1.0 / (w - e), [-e]))
        if e < 0.0:
            for e2 in (e, e * (1.0 + 1e-8)):
                close(t_matrix(model, e, e2),
                      _kernel_reference(model, lambda w: 1.0 / ((w - e) * (w - e2)), [-e]))
    for e in (1e-6 * lo, 0.5 * lo, hi, 100.0 * hi):
        with warnings.catch_warnings():
            # at ratio 1e4 QUADPACK flags the reference's tail beyond
            # 2E = 200 c_hi (below 1e-17, entries are O(1)) as slowly
            # convergent; the comparison still holds
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            ref = _cauchy_reference(model, e)
        close(pv_matrix(model, e), ref)
    for n, f in enumerate(model.form_factors, 1):
        want = integrate.quad(f.mod_sq, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=5000)[0]
        assert l2_norm_sq(model, n) == pytest.approx(want, rel=1e-10)


def test_ray_tables_die_with_the_model():
    # the node table lives on the model, not in a module cache or on the
    # factors, so dropping the model frees it
    model = make_preset("three-level-fig")
    gram_matrix(model, -0.3)
    pv_matrix(model, 0.5)
    w, c, _, _, rows, cols, _ = model._ray_rows
    assert c.shape == (6, w.size)
    assert sorted(zip(rows.tolist(), cols.tolist())) == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    factor = weakref.ref(model.form_factors[0])
    nodes = weakref.ref(w)
    del model, w, c, rows, cols
    assert factor() is None
    assert nodes() is None


def _head_drop_models():
    """The ray models, both presets, and a narrow rational factor of index
    11 with a zero of its polynomial near its width 1e-6 next to a wide one
    of width 1e6: a cut at a fixed fraction of |E| drops up to 1e52 times
    the kept terms' rounding bound there."""
    yield from (m for _, m in _RAY_MODELS)
    yield make_preset("hydrogen-4level")
    yield make_preset("three-level-fig")
    yield FriedrichsModel((-0.1, 0.2), 0.5,
                          (RationalFormFactor(11, -0.999, 1e-6), RationalFormFactor(1, 0.0, 1e6)),
                          UnitSystem(1.0))


@pytest.mark.parametrize("model", list(_head_drop_models()),
                         ids=[f"ray{i}" for i in range(len(_RAY_MODELS))]
                         + ["hydrogen", "three-level", "adversarial"])
def test_ray_head_drop_is_within_err(model):
    # no sum drops a table's head: at E in +-[1e-8 c_lo, 1e3 c_hi] and one
    # ulp either side of the modulus of every 16th node of either table,
    # each built-in entry of S(E) or D(E) is the node sum over the whole
    # table, the Gram table for E <= 0 and the ray for E > 0, bit for bit,
    # and err is the rounding bound of all its terms
    import friedrichs.quad as quad

    lo, hi = min(f.scale for f in model.form_factors), model.max_scale()
    moduli = np.abs(np.concatenate((model._ray_rows.w[15::16], model._gram_rows.w[15::16])))
    mags = np.concatenate((np.geomspace(1e-8 * lo, 1e3 * hi, 60),
                           np.nextafter(moduli, 0.0), moduli, np.nextafter(moduli, np.inf)))
    for e in np.concatenate((mags, -mags)):
        t = model._ray_rows if e > 0.0 else model._gram_rows
        terms = t.c * (1.0 / (t.w - e))
        m = (pv_matrix if e > 0.0 else gram_matrix)(model, e)
        full = t.phase * np.add.reduce(terms, axis=-1).real
        assert np.array_equal(m.entries[t.rows, t.cols], full), e
        size = quad._SUM_ERR * np.add.reduce(np.abs(terms), axis=-1)
        assert np.allclose(m.err[t.rows, t.cols], size, rtol=1e-12, atol=0.0), e


_DRAWN_MODELS = [draw_model(np.random.default_rng(20261020 + i)) for i in range(50)]


@pytest.mark.parametrize("model", list(_head_drop_models()) + _DRAWN_MODELS,
                         ids=[f"ray{i}" for i in range(len(_RAY_MODELS))]
                         + ["hydrogen", "three-level", "adversarial"]
                         + [f"drawn{i}" for i in range(len(_DRAWN_MODELS))])
def test_gram_table_matches_the_ray(model):
    # S(E), T(E, E), T(E, E(1 + 1e-8)) and the norms on the real Gram table
    # (h = 1/8) against the same sums on the rotated ray (h = 1/16), at 81
    # energies in -[1e-9 c_lo, 3e3 c_hi] and E = 0: each built-in pair sum
    # lies within 0.5 of the ray's err (the rounding bound 24 eps sum |term|)
    import friedrichs.quad as quad

    gram, ray = model._gram_rows, model._ray_rows
    assert gram.w.dtype == gram.c.dtype == float and 2 * gram.w.size <= ray.w.size + 16
    lo, hi = min(f.scale for f in model.form_factors), model.max_scale()
    energies = np.append(-np.geomspace(1e-9 * lo, 3e3 * hi, 80), 0.0)

    def gap(e, e2=None):
        """(|Gram - ray|, ray's err) of every pair at the energies e."""
        x = np.array([e])
        sums = [quad._ray_reduce(t, t.c, x, e2, lambda k: k).real for t in (gram, ray)]
        return np.abs(sums[0] - sums[1]), quad._ray_bounds(ray, x, e2)

    for e in energies:
        for e2 in ((None,) if e == 0.0 else (None, e, e * (1.0 + 1e-8))):
            diff, err = gap(e, e2)
            assert np.all(diff <= 0.5 * err), (e, e2)
    diff = np.abs(gram.c.sum(axis=-1) - ray.c.sum(axis=-1).real)
    assert np.all(diff <= 0.5 * quad._SUM_ERR * ray.c_abs.sum(axis=-1))


def test_gram_table_holds_the_references(hydrogen, three_level):
    # the frozen 30-digit references at their stated tolerances, summed on
    # the Gram table itself
    import friedrichs.quad as quad

    for model, e, want in ((hydrogen, -1.0, HYDROGEN_GRAM_MINUS1),
                           (three_level, 0.0, THREE_LEVEL_GRAM_ZERO)):
        t = model._gram_rows
        sums = t.phase * quad._ray_reduce(t, t.c, np.array([e]), None, lambda k: k)[0]
        for n, m, got in zip(t.rows, t.cols, sums):
            assert got == pytest.approx(want[f"{n + 1}{m + 1}"], rel=1e-10)
    for model, want, rel in ((hydrogen, L2_HYDROGEN, 1e-11), (three_level, L2_THREE_LEVEL, 1e-12)):
        t = model._gram_rows
        assert t.c[t.rows == t.cols].sum(axis=-1) == pytest.approx(want, rel=rel)


def test_panel_tables_die_with_the_model():
    # the tabulated pairs' panel table lives on the model, like the ray
    # table: one row per pair with a tabulated factor, and dropping the
    # model frees it with the factors
    model = FriedrichsModel((0.1, 0.3, 0.5), 0.5,
                            (_complex_tabulated(), RationalFormFactor(2), HydrogenFormFactor(1)),
                            UnitSystem(1.0))
    gram_matrix(model, -0.3)
    pv_matrix(model, 0.5)
    table = model._panel_rows
    assert table is model._panel_rows
    assert sorted(zip(table.rows.tolist(), table.cols.tolist())) == [(0, 0), (0, 1), (0, 2)]
    assert table.d.shape == (3, table.w.size)
    assert model._ray_rows[1].shape[0] == 3
    factor = weakref.ref(model.form_factors[0])
    nodes = weakref.ref(table.w)
    del model, table
    assert factor() is None
    assert nodes() is None


def _golden_with_rational():
    """The golden tabulated model with form factor 2 a rational factor:
    its panel table has the edges 1e-6 2^k."""
    model = load_model(Path(__file__).resolve().parent / "golden" / "tabulated.json")
    return FriedrichsModel(model.levels, model.coupling,
                           (model.form_factors[0], RationalFormFactor(1)), model.units)


def test_pv_matrix_one_ulp_from_a_panel_edge():
    # E one ulp beside the panel edge 1e-6 2^k: no panel degenerates and no
    # node lands on E, so D(E) is finite, silent and within rounding of
    # D at the edge
    model = _golden_with_rational()
    for k in range(5, 25):
        edge = 1e-6 * 2.0 ** k
        at = pv_matrix(model, edge).entries
        for to in (np.inf, -np.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d = pv_matrix(model, np.nextafter(edge, to)).entries
            assert np.isfinite(d).all(), (k, to)
            assert np.abs(d - at).max() <= 1e-10 * np.abs(at).max(), (k, to)


@pytest.mark.parametrize("name", ["golden", "two-grids"])
def test_pv_matrix_next_to_the_table_ends(name):
    # E a relative 1e-14 or 1e-12 beside w1 or W, where the power-law ends
    # meet the panels: the end node's logarithm comes from |x - E|, not
    # from 1 - E/x, so D(E) stays within rounding of D at the node
    model = (_two_grids() if name == "two-grids" else
             load_model(Path(__file__).resolve().parent / "golden" / "tabulated.json"))
    edges = model._panel_rows.edges
    for x in (edges[0], edges[-1]):
        at = pv_matrix(model, x).entries
        for delta in (1e-14, -1e-14, 1e-12, -1e-12):
            d = pv_matrix(model, x * (1.0 + delta)).entries
            assert np.abs(d - at).max() <= 1e-10 * np.abs(at).max(), (x, delta)


def _mixed(first):
    return FriedrichsModel((0.1, 0.3), 0.5, (first, RationalFormFactor(2)),
                           UnitSystem(1.0))


_STACK_MODELS = {
    "hydrogen": lambda: make_preset("hydrogen-4level"),
    "three-level": lambda: make_preset("three-level-fig"),
    "golden-tabulated": lambda: load_model(
        Path(__file__).resolve().parent / "golden" / "tabulated.json"),
    "hydrogen-rational": lambda: _mixed(HydrogenFormFactor(1)),
    "tabulated-rational": lambda: _mixed(_complex_tabulated()),
}


@pytest.mark.parametrize("name", _STACK_MODELS)
def test_stacked_matrices_match_single_energies(name):
    # a stack over an array of energies holds, bit for bit, the matrix of
    # each energy alone, E = 0 and the tabulated nodes included; with a
    # panel table also E below w1/2 and above 2 W, and one ulp from a
    # tabulated node and from the panel edge 2 w1
    import friedrichs.quad as quad

    model = _STACK_MODELS[name]()
    scale = model.max_scale()
    nodes = [g for f in model.form_factors if f.common_phase is None for g in f.grid[::4]]
    table = model._panel_rows
    if table is not None:
        w1, big = table.edges[0], table.edges[-1]
        nodes += [0.25 * w1, 4.0 * big] + [np.nextafter(x, to) for x in (nodes[1], 2.0 * w1)
                                           for to in (0.0, np.inf)]
    grid = np.concatenate(([0.0], np.geomspace(1e-6 * scale, 100.0 * scale, 23 - len(nodes)),
                           nodes))
    # on the ray the stack spans more than one block of energies
    ray = model._ray_rows
    assert ray is None or grid.size > quad._RAY_BLOCK // ray.c.size
    stack = pv_matrix(model, grid)
    assert stack.entries.shape == stack.err.shape == (grid.size, model.n_levels,
                                                      model.n_levels)
    for e, entries, err in zip(grid, stack.entries, stack.err):
        one = pv_matrix(model, e)
        assert np.array_equal(entries, one.entries) and np.array_equal(err, one.err), e
    below = -grid[::-1].reshape(4, -1)
    stack = gram_matrix(model, below)
    assert stack.entries.shape == below.shape + (model.n_levels, model.n_levels)
    flat = (a.reshape(grid.size, *a.shape[2:]) for a in (stack.entries, stack.err))
    for e, entries, err in zip(below.ravel(), *flat):
        one = gram_matrix(model, e)
        assert np.array_equal(entries, one.entries) and np.array_equal(err, one.err), e


@pytest.mark.parametrize("name", _STACK_MODELS)
def test_t_stack_matches_t_matrix(name):
    # T(E, E') of every energy of a stack (`quad._shift_stack` with e2
    # aligned with e), as the solver builds T(E, E) at its roots, is bit for
    # bit t_matrix at each pair of energies alone, each matrix C-contiguous
    # as one alone is (a strided matrix changes the bits of T @ c), also
    # where the stack spans more than one block of energies
    import friedrichs.quad as quad

    model = _STACK_MODELS[name]()
    blocks = [quad._RAY_BLOCK // t.c.size for t in [model._gram_rows] if t is not None]
    blocks += [quad._BLOCK // t.d.size for t in [model._panel_rows] if t is not None]
    e = -model.max_scale() * np.geomspace(1e-4, 10.0, max(blocks) + 2)
    for e2 in (e, e[::-1].copy(), np.append(e[1:], 0.0)):
        stack = quad._shift_stack(model, e, e2)
        assert stack.shape == (e.size, model.n_levels, model.n_levels)
        for x, x2, t in zip(e, e2, stack):
            assert t.flags.c_contiguous
            assert t.tobytes() == t_matrix(model, x, x2).entries.tobytes(), (x, x2)


def test_kernel_evaluated_once_per_energy(hydrogen, monkeypatch):
    # each energy goes into exactly one kernel 1/(w - E) on the ray, which
    # serves all six built-in pairs, also in a stack; err, computed on
    # first read, evaluates it again.  A tabulated-only model has no ray
    # table and does no ray work (its pairs are on its panel table)
    import friedrichs.quad as quad

    calls = []
    kernel = quad._kernel
    monkeypatch.setattr(quad, "_kernel", lambda w, e, e2=None: calls.append(
        (np.ravel(e).tolist(), e2)) or kernel(w, e, e2))
    for grid in (np.linspace(0.01, 1.0, 7), np.geomspace(1e-6, 100.0, 50)):
        stack = pv_matrix(hydrogen, grid)
        assert sorted(e for energies, _ in calls for e in energies) == grid.tolist()
        calls.clear()
        stack.err
        assert sorted(e for energies, _ in calls for e in energies) == grid.tolist()
        calls.clear()
    t_matrix(hydrogen, -0.5, -0.25)
    gram_matrix(hydrogen, -0.5)
    assert calls == [([-0.5], -0.25), ([-0.5], None)]
    calls.clear()
    tabulated = _STACK_MODELS["golden-tabulated"]()
    pv_matrix(tabulated, np.linspace(0.01, 1.0, 7))
    assert tabulated._ray_rows is None and calls == []
    assert tabulated._panel_rows is not None


_LATTICE_MODELS = {
    **{f"ratio{r:g}": m for r, m in _RAY_MODELS},
    "hydrogen": make_preset("hydrogen-4level"),
    "three-level": make_preset("three-level-fig"),
    "tabulated-rational": _STACK_MODELS["tabulated-rational"](),
    "golden-tabulated": _STACK_MODELS["golden-tabulated"](),
}


@pytest.mark.parametrize("model", _LATTICE_MODELS.values(), ids=_LATTICE_MODELS)
def test_lattice_sums_match_direct_sums(model):
    # D(E) on the ray's lattice over the certificate's scan range, the
    # built-in pairs by FFT: at every lattice energy the FFT differs from
    # the direct sums by at most the lattice's err (the direct sums' bound
    # plus the FFT's) and at most the direct sums' own err.  The FFT's bound
    # is at most 60 times the direct one; the pairs with a tabulated factor
    # are the direct sums.  A second call returns the same bytes
    import friedrichs.quad as quad

    scale = model.max_scale()
    a, t, lattice = quad._pv_lattice(model, 1e-6 * scale, 100.0 * scale)
    assert np.array_equal(lattice.e, a * np.exp(t))
    assert np.array_equal(np.diff(t), np.full(t.size - 1, 1.0 / 32.0))
    assert 1e-6 * scale <= lattice.e[0] * (1.0 + 1e-15) < 1e-6 * scale * math.exp(1.0 / 32.0)
    direct = pv_matrix(model, lattice.e)
    diff = np.abs(lattice.entries - direct.entries)
    assert np.all(diff <= lattice.err) and np.all(diff <= direct.err)
    assert np.all(direct.err <= lattice.err) and np.all(lattice.err <= 60.0 * direct.err)
    if model._ray_rows is None:
        assert np.array_equal(lattice.entries, direct.entries)
    again = quad._pv_lattice(model, 1e-6 * scale, 100.0 * scale)
    assert again[0] == a and np.array_equal(again[1], t)
    assert again[2].entries.tobytes() == lattice.entries.tobytes()
    assert again[2].err.tobytes() == lattice.err.tobytes()


# ---------------------------------------------------------------------------
# Pairs with a tabulated factor against an independent QUADPACK reference


def _two_grids():
    """Two complex tabulated factors on different grids, with non-integer
    threshold and tail exponents (p = 0.3 and 0.6, tau = -1.7 and -1.2)."""
    ga = np.geomspace(0.05, 6.0, 12)
    gb = np.linspace(0.1, 5.0, 9)
    fa = TabulatedFormFactor(ga, ga ** 0.3 / (1.0 + ga ** 2) * np.exp(0.4j * np.log(ga)),
                             tail_exponent=-1.7, p_exponent=0.3)
    fb = TabulatedFormFactor(gb, np.sqrt(gb) / (1.0 + 0.5 * gb ** 2) * np.exp(1j * np.tanh(gb)),
                             tail_exponent=-1.2, p_exponent=0.6)
    return FriedrichsModel((-0.1, 0.2), 0.5, (fa, fb), UnitSystem(1.0))


def _pointwise(f):
    """v(w) at one point on Python floats: bisection, the linear
    interpolant and the power-law ends of a tabulated factor (what
    `TabulatedFormFactor.value` computes, much faster at one point)."""
    if f.common_phase is not None:
        return lambda w: complex(f.value(w))
    grid, values = f.grid.tolist(), f.values.tolist()

    def value(w):
        if w <= grid[0]:
            return values[0] * (w / grid[0]) ** f.p_exponent
        if w >= grid[-1]:
            return values[-1] * (w / grid[-1]) ** f.tail_exponent
        j = bisect.bisect_right(grid, w)
        x0, x1, v0, v1 = grid[j - 1], grid[j], values[j - 1], values[j]
        return v0 + (v1 - v0) * ((w - x0) / (x1 - x0))

    return value


def _quadpack(model, energies):
    """The matrix against prod_e 1/(w - e) by QUADPACK, independently of
    friedrichs.quad: QAGS between the factors' breakpoints (and E/2, 2E for
    E > 0), QAWC (weight "cauchy") on the piece that holds E inside, eta(E)
    subtracted on the two pieces that meet at E when E is a node, and QAGI
    beyond the last breakpoint."""
    e = energies[0] if len(energies) == 1 and energies[0] > 0.0 else None
    edges = {0.0} | {float(b) for f in model.form_factors for b in f.breakpoints()}
    edges = sorted(edges | ({0.5 * e, 2.0 * e} if e else set()))
    tol = dict(epsabs=0.0, epsrel=2e-14, limit=1000)

    def kernel(w):
        out = 1.0
        for x in energies:
            out = out / (w - x)
        return out

    n = model.n_levels
    out = np.zeros((n, n), dtype=complex)
    with warnings.catch_warnings():
        # QUADPACK flags its roundoff at epsrel 2e-14; the estimates stay
        # far below the 1e-12 compared
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        values = [_pointwise(f) for f in model.form_factors]
        for i, vi in enumerate(values):
            for j, vj in enumerate(values[i:], start=i):
                for part in ("real", "imag"):
                    eta = lambda w: getattr(vi(w).conjugate() * vj(w), part)
                    f = lambda w: eta(w) * kernel(w)
                    total = integrate.quad(f, edges[-1], np.inf, **tol)[0]
                    for a, b in zip(edges[:-1], edges[1:]):
                        if e and a < e < b:
                            total += integrate.quad(eta, a, b, weight="cauchy", wvar=e,
                                                    **tol)[0]
                        elif e in (a, b):
                            at = eta(e)
                            total += integrate.quad(lambda w: (eta(w) - at) / (w - e),
                                                    a, b, **tol)[0]
                            total += at * (math.log(b - e) if a == e else -math.log(e - a))
                        else:
                            total += integrate.quad(f, a, b, **tol)[0]
                    out[i, j] += total if part == "real" else 1j * total
                out[j, i] = np.conj(out[i, j])
    return out


def _tabulated_cases():
    """name -> (model, energies): E < 0, E = 0, E in the head, in a cell, on
    a node, in the strips where one factor is on its power law, near the
    last node and in the tail."""
    two = _two_grids()
    ga, gb = (f.grid for f in two.form_factors)
    mixed = FriedrichsModel((-0.1, 0.2), 0.5,
                            (two.form_factors[0], RationalFormFactor(2, 1.0, 0.7)),
                            UnitSystem(1.0))
    golden = load_model(Path(__file__).resolve().parent / "golden" / "tabulated.json")
    g = golden.form_factors[0].grid
    wide = (-0.7, -1e-3, 0.0, 0.02, 0.06, 0.07, 1.2345, float(ga[6]), float(gb[4]),
            5.5, 7.0, 20.0)
    return {
        "two-grids": (two, wide),
        "tabulated-rational": (mixed, wide),
        "shared-grid": (golden, (-0.7, -1e-3, 0.0, 0.001, 0.015, float(g[0]), float(g[5]),
                                 0.5, float(g[-1]), 9.0, 40.0)),
    }


_TABULATED_CASES = _tabulated_cases()


@pytest.mark.parametrize("name", sorted(_TABULATED_CASES))
def test_tabulated_pairs_match_quadpack(name):
    # S, T(E, E), T(E, E(1 + 1e-8)), T(E, 0), D and the norms against
    # QUADPACK to 1e-12 of the matrix 2-norm; err is a positive rounding
    # bound below that
    model, energies = _TABULATED_CASES[name]

    def close(got, energies):
        ref = _quadpack(model, energies)
        scale = np.linalg.norm(ref, 2)
        assert np.linalg.norm(got.entries - ref, 2) <= 1e-12 * scale, energies
        assert np.all(got.err > 0.0) and got.err.max() <= 1e-12 * scale, energies

    for e in energies:
        close(gram_matrix(model, e) if e <= 0.0 else pv_matrix(model, e), (e,))
        if e < 0.0:
            for e2 in (e, e * (1.0 + 1e-8), 0.0):
                close(t_matrix(model, e, e2), (e, e2))
    for n, f in enumerate(model.form_factors, 1):
        if f.common_phase is None:
            # the kernel 1 on the factor alone: |v|^2 of the interpolant,
            # quadratic on each cell (mod_sq interpolates the sampled |v|^2)
            single = FriedrichsModel((0.0,), 1.0, (f,), UnitSystem(1.0))
            want = _quadpack(single, ())[0, 0].real
            assert l2_norm_sq(model, n) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", sorted(_TABULATED_CASES))
def test_tabulated_t_matrix_is_ds_de(name):
    # T(E, E) against a fourth-order central difference of S (T's end
    # panels against S's closed-form ends), and T(E, E') as E' -> E without
    # cancellation: it moves by about (E' - E) dT/dE, down to E' - E = 1e-14 E
    model, _ = _TABULATED_CASES[name]
    for e in (-0.7, -0.01):
        t = t_matrix(model, e, e).entries
        h = 1e-3 * abs(e)
        s = {k: gram_matrix(model, e + k * h).entries for k in (-2, -1, 1, 2)}
        ds = (8.0 * (s[1] - s[-1]) - (s[2] - s[-2])) / (12.0 * h)
        assert np.linalg.norm(t - ds, 2) <= 1e-9 * np.linalg.norm(t, 2)
        for delta in (1e-6, 1e-10, 1e-14):
            near = t_matrix(model, e, e * (1.0 + delta)).entries
            assert np.linalg.norm(near - t, 2) <= (1e-13 + 10.0 * delta) * np.linalg.norm(t, 2)


def _random_tabulated_model(rng):
    """A seeded two-level model: a complex tabulated factor on 2-8 random or
    geometric nodes, with p in {0, 1/2, 1, U(0.05, 2)} and tau in {-1, -3/2,
    U(-3, -0.55)}, against a second such factor or a rational one."""
    factors = []
    for k in range(2):
        if k == 1 and rng.random() < 0.3:
            factors.append(RationalFormFactor(int(rng.integers(1, 5)), float(rng.uniform(-1, 2)),
                                              float(rng.uniform(0.3, 3.0))))
            continue
        n = int(rng.integers(2, 9))
        grid = (np.sort(rng.uniform(0.01, 5.0, n)) if rng.random() < 0.5
                else np.geomspace(rng.uniform(0.005, 0.2), rng.uniform(1.0, 10.0), n))
        values = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        p = float(rng.choice([0.0, 0.5, 1.0, rng.uniform(0.05, 2.0)]))
        tau = float(rng.choice([-1.0, -1.5, rng.uniform(-3.0, -0.55)]))
        factors.append(TabulatedFormFactor(grid, values, tail_exponent=tau, p_exponent=p))
    return FriedrichsModel((-0.1, 0.2), 0.5, tuple(factors), UnitSystem(1.0))


def test_random_tabulated_pairs_match_quadpack():
    # seeded models and energies: below 0, at 0 (when every p > 0), on a
    # random node, anywhere in (0, 12), around the first and the last node;
    # S, D and T(E, E) to 1e-12 of the matrix 2-norm.  An energy within 1e-6
    # of a node but not on it is redrawn: there the reference's QAWC, with
    # its pole next to an end of its interval, loses digits (checked against
    # 40-digit mpmath at E = node (1 + 1e-9))
    rng = np.random.default_rng(20261019)
    for _ in range(12):
        model = _random_tabulated_model(rng)
        nodes = np.array(sorted({float(b) for f in model.form_factors for b in f.breakpoints()}))
        energies = [-float(rng.uniform(1e-3, 3.0)), float(rng.choice(nodes))]
        while len(energies) < 5:
            e = float(rng.choice([rng.uniform(1e-3, 12.0), nodes[0] * rng.uniform(0.3, 1.9),
                                  nodes[-1] * rng.uniform(0.3, 3.0)]))
            if np.abs(nodes - e).min() > 1e-6 * e:
                energies.append(e)
        if all(f.p_exponent > 0.0 for f in model.form_factors):
            energies.append(0.0)
        for e in energies:
            got = gram_matrix(model, e) if e <= 0.0 else pv_matrix(model, e)
            ref = _quadpack(model, (e,))
            assert np.linalg.norm(got.entries - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2), e
            if e < 0.0:
                ref = _quadpack(model, (e, e))
                assert (np.linalg.norm(t_matrix(model, e, e).entries - ref, 2)
                        <= 1e-12 * np.linalg.norm(ref, 2))


@pytest.mark.parametrize("s", [0.0, 0.3, 0.6, 1.0, 1.05, 1.7, 2.0, 2.95])
def test_power_end_integral_matches_mpmath(s):
    # J_s(z) = PV int_0^1 u^s/(u - z) du in all its regimes (the series for
    # |z| >= 2; the fixed panels on [1/4, 1] for 1/2 <= |z| < 2, z on one of
    # their nodes included; (2|z|)^s J_s(+-1/2) and the term series below
    # 1/2, its term k = s through the logarithm and |s - k| <= 1/2 through
    # expm1), less z^s log|1 - z| for 1/2 < z < 2, against 30-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    from friedrichs.quad import _gauss_legendre, _j

    node = 0.75 + 0.25 * float(_gauss_legendre()[0][-1])
    mpmath.mp.dps = 30
    for z in (1e-6, -1e-6, 0.05, -0.4, 0.3, 0.5, -0.5, 0.7, -0.7, 0.999, 1.0, 1.001, 1.3,
              -1.5, 1.9, 2.0, -2.0, 2.5, -3.0, 40.0, node):
        zm, sm = mpmath.mpf(z), mpmath.mpf(s)
        if z > 0.0:
            # the pole subtracted: int (u^s - z^s)/(u - z) + z^s log|(1 - z)/z|
            want = (mpmath.quad(lambda u: (u ** sm - zm ** sm) / (u - zm),
                                [0, zm, 1] if z < 1.0 else [0, 1])
                    - zm ** sm * mpmath.log(zm))
            if not 0.5 < z < 2.0:
                want += zm ** sm * mpmath.log(abs(1 - zm))
        else:
            want = mpmath.quad(lambda u: u ** sm / (u - zm), [0, 1])
        want = float(want)
        assert math.isfinite(want)
        assert abs(_j(s, z) - want) <= 1e-14 * max(1.0, abs(want)), z
