import math
import warnings
import weakref

import numpy as np
import pytest
from scipy import integrate

from friedrichs import (
    FriedrichsModel,
    HydrogenFormFactor,
    QuadratureError,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    discretize,
    gram_matrix,
    integrate_semiinf,
    l2_norm_sq,
    make_preset,
    pv_integral,
    pv_matrix,
    t_matrix,
)

from _references import (
    HYDROGEN_GRAM_MINUS1,
    HYDROGEN_PV_HALF,
    THREE_LEVEL_GRAM_ZERO,
)


def test_integrate_semiinf_exponential():
    v, err = integrate_semiinf(lambda w: math.exp(-w))
    assert v == pytest.approx(1.0, rel=1e-12)
    assert err < 1e-8


def test_integrate_semiinf_lorentzian_tail():
    # slow 1/w^2 falloff exercises the algebraic tail map
    v, _ = integrate_semiinf(lambda w: 1.0 / (1.0 + w * w))
    assert v == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_integrate_semiinf_moment():
    v, _ = integrate_semiinf(lambda w: w / (1.0 + w * w) ** 4)
    assert v == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_integrate_semiinf_complex():
    v, _ = integrate_semiinf(lambda w: (1.0 + 2.0j) * math.exp(-w),
                             complex_valued=True)
    assert v == pytest.approx(1.0 + 2.0j, rel=1e-12)


def test_integrate_semiinf_divergent_raises():
    with pytest.raises(QuadratureError):
        integrate_semiinf(lambda w: 1.0 / w if w > 0.0 else 0.0)


def closed_form_pv_even(e):
    # P int_0^inf dw / ((1+w^2)(w-E)) = -(ln E + pi E / 2) / (1 + E^2)
    return -(math.log(e) + math.pi * e / 2.0) / (1.0 + e * e)


def closed_form_pv_odd(e):
    # P int_0^inf w dw / ((1+w^2)(w-E)) = pi/2 + E * (even form)
    return math.pi / 2.0 + e * closed_form_pv_even(e)


@pytest.mark.parametrize("e", [0.3, 0.5, 2.0])
def test_pv_closed_form_even(e):
    eta = lambda w: 1.0 / (1.0 + w * w)
    v, err = pv_integral(eta, e)
    assert v == pytest.approx(closed_form_pv_even(e), rel=1e-11)
    assert err < 1e-7


@pytest.mark.parametrize("e", [0.3, 0.5, 2.0])
def test_pv_closed_form_odd(e):
    eta = lambda w: w / (1.0 + w * w)
    v, _ = pv_integral(eta, e)
    assert v == pytest.approx(closed_form_pv_odd(e), rel=1e-11)


def test_gram_matrix_hydrogen(hydrogen):
    # frozen by tests/oracles/gen_references.py
    m = gram_matrix(hydrogen, -1.0)
    assert m.kind == "S"
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
    assert t.kind == "T"
    assert t.e2 == e2
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
    assert m.kind == "D"
    for key, want in HYDROGEN_PV_HALF.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        assert m.entries[i, j] == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_pv_matrix_domain(hydrogen):
    with pytest.raises(ValueError):
        pv_matrix(hydrogen, -0.2)


def test_pv_matrix_at_zero_matches_gram(three_level):
    d = pv_matrix(three_level, 0.0)
    s = gram_matrix(three_level, 0.0)
    assert d.kind == "D"
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
    # E on a node puts the kink at w = E, E at half a node puts it at w = 2E;
    # both are breakpoints, so D stays finite, Hermitian and continuous
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
    # the node tables live on the form factors, not in a module cache, so
    # dropping the model frees them
    model = make_preset("three-level-fig")
    gram_matrix(model, -0.3)
    pv_matrix(model, 0.5)
    tables = model.form_factors[0]._pair_tables
    assert len(tables) == 3
    factor = weakref.ref(model.form_factors[0])
    nodes = weakref.ref(tables[model.form_factors[1]][0])
    del model, tables
    assert factor() is None
    assert nodes() is None
