import functools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import friedrichs._search
import friedrichs.model
import friedrichs.oracle
import friedrichs.quad
import friedrichs.solver
import friedrichs.spectral
from friedrichs import (
    DiscretizedHamiltonian,
    FriedrichsModel,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    certificate,
    compare_negative_spectrum,
    discretize,
    l2_norm_sq,
    load_model,
    make_preset,
    solve_model,
)
from friedrichs.oracle import _GAP_RTOL, _coupling_block

from _references import THREE_LEVEL_ROOTS
from property_suites import draw_model
from test_quad import _complex_tabulated


def test_hand_built_hamiltonian():
    # one level at -1, two continuum nodes with unit weights and values:
    # H = [[-1, 1, 1], [1, 1, 0], [1, 0, 3]], whose characteristic
    # polynomial is x^3 - 3x^2 - 3x + 7
    ham = DiscretizedHamiltonian(np.array([-1.0]), np.array([[1.0, 1.0]]),
                                 np.array([1.0, 3.0]), np.array([1.0, 1.0]))
    want = np.sort(np.roots([1.0, -3.0, -3.0, 7.0]).real)
    assert ham.dimension == 3
    assert np.allclose(np.linalg.eigvalsh(ham.h), want, atol=1e-12)
    neg = ham.negative_eigenvalues()
    assert len(neg) == 1
    assert neg[0] == pytest.approx(want[0], abs=1e-12)


def _tabulated_rational(lam):
    return FriedrichsModel((0.1, 0.3), lam,
                           (_complex_tabulated(), RationalFormFactor(2)),
                           UnitSystem(1.0))


@pytest.mark.parametrize("make,lam,m", [
    ("three-level", 0.1, 500), ("three-level", 0.7, 500),
    ("three-level", 10.0, 500), ("tabulated-rational", 2.0, 400),
    ("tabulated-rational", 5.0, 400),
])
def test_node_sum_matches_dense_eigh(three_level, make, lam, m):
    # the count and roots on K_M(E) against LAPACK on the assembled matrix
    model = (three_level.with_coupling(lam) if make == "three-level"
             else _tabulated_rational(lam))
    ham = discretize(model, m)
    want, vecs = scipy.linalg.eigh(ham.h, subset_by_value=(-np.inf, -ham.gap))
    got, blocks = ham.negative_eigensystem()
    assert got.size == want.size > 0
    assert np.array_equal(ham.negative_eigenvalues(), got)
    assert np.allclose(got, want, rtol=0.0, atol=1e-10)
    ref = vecs[:model.n_levels] / np.linalg.norm(vecs[:model.n_levels], axis=0)
    overlaps = np.abs(np.sum(ref.conj() * blocks, axis=0))
    assert np.allclose(overlaps, 1.0, rtol=0.0, atol=1e-8)


def test_compare_negative_spectrum_large_grid(three_level):
    # H would be a 100003^2 dense matrix (80 GB); the node sum needs 3 x M
    model = three_level.with_coupling(0.7)
    table = compare_negative_spectrum(model, (100000,))
    row = table.rows[0]
    assert table.solver_count == row.count == 2
    for e, delta in zip(table.solver_energies, row.deltas):
        assert delta <= 1e-6 * abs(e)


def test_real_gauge_for_common_phase_families(hydrogen, three_level):
    for model in (hydrogen, three_level):
        ham = discretize(model, 150)
        assert ham.h.dtype == np.float64
        assert np.allclose(ham.h, ham.h.T, atol=1e-15)


def test_complex_gauge_for_tabulated():
    grid = np.linspace(0.3, 5.0, 40)
    vals = np.sqrt(grid) / (1.0 + grid ** 2) * np.exp(1j * grid)
    f = TabulatedFormFactor(grid, vals, tail_exponent=-1.5)
    model = FriedrichsModel((0.2,), 0.4, (f,), UnitSystem(1.0))
    ham = discretize(model, 120)
    assert np.iscomplexobj(ham.h)
    assert np.allclose(ham.h, ham.h.conj().T, atol=1e-15)


def test_complex_gauge_for_nearly_common_phase():
    # phases 1 and exp(1e-13 i) share no global phase: sigma = exp(1e-13 i)
    # is not real, so b keeps the imaginary part that a real gauge drops
    factors = tuple(friedrichs.model._PolynomialFormFactor(a, phase, (1.0,), 2, c)
                    for a, phase, c in ((1.0, 1.0, 1.0), (0.5, np.exp(1e-13j), 2.0)))
    model = FriedrichsModel((-0.01, 0.02), 1.5, factors, UnitSystem(1.0))
    ham = discretize(model, 300)
    assert np.iscomplexobj(ham.b)
    want = scipy.linalg.eigh(ham.h, eigvals_only=True, subset_by_value=(-np.inf, -ham.gap))
    got = ham.negative_eigenvalues()
    assert got.size == want.size > 0
    assert np.allclose(got, want, rtol=0.0, atol=1e-10)


def test_discretize_grid_quality(three_level):
    ham = discretize(three_level, 400)
    assert ham.nodes.size == ham.weights.size
    assert np.all(ham.weights > 0.0)
    assert np.all(np.diff(ham.nodes) > 0.0)
    assert ham.dimension == 3 + ham.nodes.size
    # the grid must integrate the form-factor moduli to quadrature accuracy
    for n in (1, 2, 3):
        f = three_level.form_factors[n - 1]
        got = float(np.sum(ham.weights * f.mod_sq(ham.nodes)))
        assert got == pytest.approx(l2_norm_sq(three_level, n), rel=1e-8)


def test_discretize_validation(three_level):
    with pytest.raises(ValueError):
        discretize(three_level, 5)


def test_negative_eigensystem_matches_solver(three_level, three_level_reports):
    ham = discretize(three_level.with_coupling(0.7), 800)
    energies, vectors = ham.negative_eigensystem()
    assert len(energies) == 2
    for k, e in enumerate(energies):
        st = three_level_reports[0.7].states[k]
        assert e == pytest.approx(st.energy, abs=1e-9)
        # level-space blocks agree up to a global sign
        block = vectors[: 3, k]
        overlap = abs(np.vdot(block, st.c)) / (
            np.linalg.norm(block) * np.linalg.norm(st.c))
        assert overlap == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("lam,count", [(0.1, 1), (0.7, 2), (10.0, 3)])
def test_compare_negative_spectrum(three_level, lam, count):
    model = three_level.with_coupling(lam)
    table = compare_negative_spectrum(model, (400, 800))
    assert table.solver_count == count
    assert not table.non_cauchy
    assert [r.m for r in table.rows] == [400, 800]
    for row in table.rows:
        assert row.count == count
        assert len(row.energies) == count
        for e_ref, delta in zip(THREE_LEVEL_ROOTS[lam], row.deltas):
            assert delta <= 1e-8 * max(1.0, abs(e_ref))


def _panel_loop_grid(model, m):
    """discretize's nodes and weights, one 12-point panel at a time with
    fresh Gauss-Legendre rules: the reference for the shared panel routine."""
    scale = model.max_scale()
    omega_max = 20.0 * scale
    positive = [abs(w) for w in model.levels if w != 0.0]
    s_ref = min([f.scale for f in model.form_factors] + positive + [omega_max])
    n_tail = max(8, m // 50)
    kinks = [x for f in model.form_factors for x in f.breakpoints()
             if 0.0 < x < omega_max]
    n_panels = max(2, (m - n_tail) // 12 - len(set(kinks)))
    edges = np.unique(np.concatenate((
        [0.0], np.geomspace(1e-7 * s_ref, omega_max, n_panels), kinks)))
    base_x, base_w = np.polynomial.legendre.leggauss(12)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * base_x)
        weights.append(half * base_w)
    tx, tw = np.polynomial.legendre.leggauss(n_tail)
    t = 0.5 + 0.5 * tx
    nodes.append(omega_max + scale * t / (1.0 - t))
    weights.append(0.5 * tw * (1.0 / (1.0 - t) ** 2) * scale)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("m", [10, 137, 4000])
@pytest.mark.parametrize("name", ["three-level-fig", "hydrogen-4level", "tabulated"])
def test_discretize_matches_panel_loop(name, m):
    # bit for bit: the same elementwise operations, batched over panels;
    # the tabulated model puts a kink edge at each of its 16 nodes
    model = (load_model(Path(__file__).parent / "golden" / "tabulated.json")
             if name == "tabulated" else make_preset(name))
    ham = discretize(model, m)
    nodes, weights = _panel_loop_grid(model, m)
    assert ham.nodes.tobytes() == nodes.tobytes()
    assert ham.weights.tobytes() == weights.tobytes()
    assert ham.b.tobytes() == _coupling_block(model, nodes, weights).tobytes()


def test_schedule_builds_each_rule_once(three_level, monkeypatch):
    # the panels' 12-point rule and the tails' 10..80-point rules come from
    # one cache shared with the kernels, across grids and across calls
    degrees = Counter()
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: degrees.update([n]) or leggauss(n))
    friedrichs.quad._gauss_legendre.cache_clear()
    try:
        for lam in (0.7, 10.0):
            compare_negative_spectrum(three_level.with_coupling(lam),
                                      (500, 1000, 2000, 4000))
    finally:
        friedrichs.quad._gauss_legendre.cache_clear()
    assert {12, 10, 20, 40, 80} <= set(degrees)
    assert max(degrees.values()) == 1
    x, w = friedrichs.quad._gauss_legendre(12)
    assert not (x.flags.writeable or w.flags.writeable)


def test_negative_spectrum_builds_each_k_once(three_level, monkeypatch):
    # the count's K_M(-g) is the search's upper end, and each root's level
    # block reads the K_M its search built there
    energies = []
    build = DiscretizedHamiltonian._k
    monkeypatch.setattr(DiscretizedHamiltonian, "_k",
                        lambda self, e: energies.extend(e.tolist()) or build(self, e))
    model = three_level.with_coupling(10.0)
    assert discretize(model, 1000).negative_eigenvalues().size == 3
    assert len(energies) == len(set(energies))
    n_search = len(energies)
    energies.clear()
    vals, _ = discretize(model, 1000).negative_eigensystem()
    assert vals.size == 3
    assert len(energies) == len(set(energies)) == n_search


def test_negative_eigensystem_diagonalizes_each_energy_once(three_level, monkeypatch):
    # each level block is the eigenvector the search's point at its root
    # already holds (3 K_M(E) were diagonalized twice before), and a grid
    # searched alone builds no K(E) of the solver
    energies, solver_energies, matrices = [], [], []
    build, k_stack, eigh = DiscretizedHamiltonian._k, friedrichs.spectral._k_stack, np.linalg.eigh
    monkeypatch.setattr(DiscretizedHamiltonian, "_k",
                        lambda self, e: energies.extend(e.tolist()) or build(self, e))
    monkeypatch.setattr(friedrichs.spectral, "_k_stack",
                        lambda model, e: solver_energies.extend(e.tolist()) or k_stack(model, e))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: matrices.append(np.size(a) // a.shape[-1] ** 2) or eigh(a))
    vals, blocks = discretize(three_level.with_coupling(10.0), 1000).negative_eigensystem()
    assert vals.size == 3 and blocks.shape == (3, 3)
    assert 0 < len(energies) == len(set(energies))
    assert solver_energies == []
    assert sum(matrices) == len(energies)


def test_compare_negative_spectrum_solves_energies_only(three_level, monkeypatch):
    # the comparison prints counts and energies: no T(E, E) and no states
    calls = []
    monkeypatch.setattr(friedrichs.solver, "_shift_stack",
                        lambda *a: calls.append(a))
    table = compare_negative_spectrum(three_level.with_coupling(0.7), (400,))
    assert table.solver_count == 2
    assert calls == []


_GOLDEN_TABULATED = Path(__file__).parent / "golden" / "tabulated.json"
_SCHEDULE = (500, 1000, 2000, 4000)
# one level at 0.01 on RationalFormFactor(1) binds above lambda = 0.14272993;
# 1e-6 above that its root lies at -1.48e-8, just below the gap of 1e-8,
# and the grids below m = 500 miss it
_SHALLOW = 0.14273007202215099


def _single_level(lam):
    return FriedrichsModel((0.01,), lam, (RationalFormFactor(1),), UnitSystem(1.0))


def _check_rows_against_grids_alone(model, table):
    """The shared search gives every grid, bit for bit, its search alone
    from the same solver roots; a grid searched alone, from [seed, -gap],
    finds its row's roots within the roots' stop."""
    stop = friedrichs.solver._ROOT_TOL * friedrichs.solver._unit(model)
    roots = list(table.solver_energies)
    grids = [discretize(model, row.m) for row in table.rows]
    shared = friedrichs.oracle._search(grids, roots)
    for row, grid, (vals, _) in zip(table.rows, grids, shared):
        assert np.array(row.energies).tobytes() == np.array(vals).tobytes()
        seeded, _ = friedrichs.oracle._search((grid,), roots)[0]
        assert np.array(seeded).tobytes() == np.array(vals).tobytes()
        alone = discretize(model, row.m).negative_eigenvalues()
        assert alone.size == row.count
        err = np.abs(alone - np.array(row.energies))
        assert np.all(err <= stop + 4.0 * np.finfo(float).eps * np.abs(alone))


@pytest.mark.parametrize("name", ["0.1", "0.7", "10", "tabulated"])
def test_schedule_rows_match_grids_alone(name):
    model = (load_model(_GOLDEN_TABULATED) if name == "tabulated"
             else make_preset("three-level-fig", float(name)))
    table = compare_negative_spectrum(model, _SCHEDULE)
    assert all(row.count > 0 for row in table.rows)
    _check_rows_against_grids_alone(model, table)


def _record_fallback_rows(monkeypatch):
    """The (grid, branch) rows that the schedule's search hands to
    `_branch_roots`, in order: every row whose Newton step it did not take."""
    rows = []
    branch_roots = friedrichs.oracle._branch_roots
    monkeypatch.setattr(friedrichs.oracle, "_branch_roots",
                        lambda curves, branch, lo, hi, top, xatol, member:
                        rows.extend(zip(member, branch))
                        or branch_roots(curves, branch, lo, hi, top, xatol, member))
    return rows


@pytest.mark.parametrize("model,schedule,counts", [
    (make_preset("three-level-fig", 0.7), (500, 500), [2, 2]),
    (_single_level(_SHALLOW), (10, 100, 500, 1000), [0, 0, 1, 1]),
    (_single_level(0.1), (10, 500), [0, 0]),
    (make_preset("three-level-fig", 0.7), (10, 500), [2, 2]),
])
def test_schedule_runs_one_search(model, schedule, counts, monkeypatch):
    # the solver's branch search runs, and after it at most one more: the
    # rows whose Newton step from the solver's root was not taken, here
    # those of the coarse grids.  None where no branch is counted
    sizes = []
    find_root = friedrichs._search._find_root
    monkeypatch.setattr(friedrichs._search, "_find_root",
                        lambda f, lo, hi, **kw: sizes.append(np.size(lo))
                        or find_root(f, lo, hi, **kw))
    fell = _record_fallback_rows(monkeypatch)
    table = compare_negative_spectrum(model, schedule)
    assert [row.count for row in table.rows] == counts
    assert fell == [(i, n) for i, row in enumerate(table.rows) if row.m < 500
                    for n in range(1, row.count + 1)]
    assert sizes == [size for size in (table.solver_count, len(fell)) if size]
    monkeypatch.undo()
    _check_rows_against_grids_alone(model, table)


def _deep_root_model(cutoff=5.5e9):
    """three-level-fig with form factor 1's width 5.5e9: a root near -1.3e9
    that converges to a relative bracket, next to two shallow ones."""
    config = make_preset("three-level-fig").descriptor()
    config["form_factors"][0]["cutoff"] = cutoff
    return friedrichs.model.model_from_dict(config)


@pytest.mark.parametrize("name,lam", [
    ("three-level-fig", 0.1), ("three-level-fig", 0.7), ("three-level-fig", 10.0),
    ("hydrogen-4level", 0.3), ("hydrogen-4level", 3.0), ("tabulated", None),
    ("deep", None),
])
def test_schedule_solver_matches_solve_model(name, lam):
    # the solver's search, which the schedule runs first, keeps the count,
    # brackets and tolerance of `solve_model`: the same bytes
    model = (load_model(_GOLDEN_TABULATED) if name == "tabulated"
             else _deep_root_model() if name == "deep" else make_preset(name, lam))
    table = compare_negative_spectrum(model, (500, 1000))
    rep = solve_model(model)
    assert table.solver_count == rep.count > 0
    want = np.array([st.energy for st in rep.states])
    assert np.array(table.solver_energies).tobytes() == want.tobytes()


@pytest.mark.parametrize("cutoff,lam", [(5.5e5, 0.7), (5.5e7, 0.7), (5.5e9, 10.0)])
def test_deep_root_deltas_keep_the_cauchy_flag_down(cutoff, lam):
    # near convergence a deep root's delta reads an ulp or a few of E, not
    # a growing error: at width 5.5e5 delta_1 read 0 and then 1.455e-11,
    # one ulp of -7.89e4, above the floor of 1e-11 times the model's scale
    # alone.  The floor also holds both roots' relative stops, 8 eps |E|
    table = compare_negative_spectrum(_deep_root_model(cutoff).with_coupling(lam), _SCHEDULE)
    assert all(row.count == table.solver_count for row in table.rows)
    assert table.solver_energies[0] < -7e4
    assert not table.non_cauchy


def test_schedule_builds_each_k_once(three_level, monkeypatch):
    # each (grid, E) of the shared family is built once, the count's points
    # at -gap included, and every grid of the schedule is searched.  Two
    # stacks of K_M(E) per grid: the count point with the solver's roots,
    # then every grid's Newton steps, each taken (16 stacks with brackets
    # seeded by the solver's roots, 32 and 44 with the generic ones)
    built, stacks = [], []
    build = DiscretizedHamiltonian._k
    monkeypatch.setattr(DiscretizedHamiltonian, "_k",
                        lambda self, e: stacks.append(e.size)
                        or built.extend((id(self), x) for x in e.tolist())
                        or build(self, e))
    for lam, count in ((0.7, 2), (10.0, 3)):
        built.clear()
        stacks.clear()
        table = compare_negative_spectrum(three_level.with_coupling(lam), _SCHEDULE)
        assert [row.count for row in table.rows] == [count] * len(_SCHEDULE)
        assert len(built) == len(set(built)) == len(_SCHEDULE) * (1 + 2 * count)
        assert len({grid for grid, _ in built}) == len(_SCHEDULE)
        assert len(stacks) == 2 * len(_SCHEDULE)


@pytest.mark.parametrize("lam,schedule", [(0.7, (10, 500)), (0.18044971, (10, 137, 500))])
def test_schedule_falls_back_to_generic_brackets(lam, schedule, monkeypatch):
    # the coarse grids' roots lie too far from the solver's for one Newton
    # step (at lambda = 0.18 the m = 10 grid's first root, 6.5e-7 away, is
    # near enough; the m = 137 grid's, 1.9e-6 away, is not), and 1e-6 below
    # the second state's threshold they count a branch the solver does
    # not: those rows search [seed, -gap], the m = 500 grid takes every
    # step, and every root still matches LAPACK on the dense h
    model = make_preset("three-level-fig", lam)
    fell = _record_fallback_rows(monkeypatch)
    table = compare_negative_spectrum(model, schedule)
    assert fell == {0.7: [(0, 1), (0, 2)], 0.18044971: [(0, 2), (1, 1), (1, 2)]}[lam]
    for row in table.rows:
        ham = discretize(model, row.m)
        want = scipy.linalg.eigh(ham.h, eigvals_only=True,
                                 subset_by_value=(-np.inf, -ham.gap))
        assert row.count == want.size
        assert np.allclose(row.energies, want, rtol=0.0, atol=1e-10)
        assert (row.count > table.solver_count) == (lam < 0.5 and row.m < 500)


def test_schedule_roots_match_lapack_on_drawn_models(monkeypatch):
    # on drawn models and the golden tabulated one, every grid takes every
    # Newton step, each a root within the roots' stop (|kappa_n(E) - E|
    # bounds |E - E*|, since kappa_n - E falls with slope at most -1), and
    # every grid root lies within 1e-10 of LAPACK's eigenvalue of the dense h
    rng = np.random.default_rng(20261021)
    models = [draw_model(rng) for _ in range(20)] + [load_model(_GOLDEN_TABULATED)]
    fell = _record_fallback_rows(monkeypatch)
    roots = 0
    for model in models:
        table = compare_negative_spectrum(model, (500, 1000))
        assert fell == []
        for row in table.rows:
            ham = discretize(model, row.m)
            want = scipy.linalg.eigh(ham.h, eigvals_only=True,
                                     subset_by_value=(-np.inf, -ham.gap))
            assert row.count == want.size
            assert np.allclose(row.energies, want, rtol=0.0, atol=1e-10)
            stop = friedrichs.solver._ROOT_TOL * (ham.gap / _GAP_RTOL)
            for n, e in enumerate(row.energies, 1):
                kappa = np.linalg.eigh(ham._k(np.array([e])))[0][0, n - 1]
                assert abs(kappa - e) <= stop + friedrichs.solver._ROOT_RTOL * abs(e)
            roots += row.count
    assert roots == 74


@pytest.mark.parametrize("lam", [1.0, 3.0])
def test_grid_alone_without_solver_roots(lam, monkeypatch):
    # a grid searched alone never runs the solver's search: it finds LAPACK's
    # roots where the solver raises (a form factor with p = 0 has no K(0),
    # so the solver's count raises a ConfigError) and where the solver's
    # search is patched to fail, which `compare_negative_spectrum` still raises
    def fail(*args):
        raise AssertionError("the solver's search ran")

    monkeypatch.setattr(friedrichs.oracle, "_count_and_roots", fail)
    f = TabulatedFormFactor(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.4, 0.2]),
                            tail_exponent=-1.0, p_exponent=0.0)
    model = FriedrichsModel((0.5,), lam, (f,), UnitSystem(1.0))
    with pytest.raises(friedrichs.model.ConfigError):
        solve_model(model)
    ham = discretize(model, 500)
    want = scipy.linalg.eigh(ham.h, eigvals_only=True, subset_by_value=(-np.inf, -ham.gap))
    assert want.size == 1
    assert np.allclose(ham.negative_eigenvalues(), want, rtol=0.0, atol=1e-10)

    model = make_preset("three-level-fig", lam)
    ham = discretize(model, 500)
    want = scipy.linalg.eigh(ham.h, eigvals_only=True, subset_by_value=(-np.inf, -ham.gap))
    assert np.allclose(ham.negative_eigenvalues(), want, rtol=0.0, atol=1e-10)
    with pytest.raises(AssertionError, match="the solver's search ran"):
        compare_negative_spectrum(model, (500,))


def test_grid_asked_twice_searches_once(three_level, monkeypatch):
    # each grid keeps its search: asked again, alone or in a schedule, it
    # reads the roots it found and builds no K_M(E)
    stacks = []
    build = DiscretizedHamiltonian._k
    monkeypatch.setattr(DiscretizedHamiltonian, "_k",
                        lambda self, e: stacks.append(e.size) or build(self, e))
    model = three_level.with_coupling(10.0)
    ham = discretize(model, 1000)
    first = ham.negative_eigenvalues()
    searched = len(stacks)
    assert searched > 0
    assert ham.negative_eigenvalues().tobytes() == first.tobytes()
    assert ham.negative_eigensystem()[0].tobytes() == first.tobytes()
    assert len(stacks) == searched
    roots = [st.energy for st in solve_model(model).states]
    stacks.clear()
    grids = [discretize(model, m) for m in (500, 1000)]
    friedrichs.oracle._Schedule(grids, roots)
    spectra = [grid.negative_eigenvalues() for grid in grids * 2]
    assert [s.size for s in spectra] == [3] * 4
    assert spectra[2].tobytes() == spectra[0].tobytes()
    assert spectra[3].tobytes() == spectra[1].tobytes()
    assert len(stacks) == 2 * len(grids)


def test_grid_alone_binds_below_each_negative_level():
    # the paper's first claim on the solver-free oracle: K_M(E) <= diag(omega)
    # for E < 0, so by min-max h has at least as many eigenvalues below -gap
    # as there are levels, and the k-th lies at or below the k-th level
    rng = np.random.default_rng(20261020)
    for _ in range(100):
        model = draw_model(rng)
        ham = discretize(model, 500)
        levels = np.sort(model.level_array())
        levels = levels[levels < -ham.gap]
        vals = ham.negative_eigenvalues()
        assert vals.size >= levels.size
        assert np.all(vals[:levels.size] <= levels)


@pytest.mark.parametrize("m", [1000.7, 9.0, np.nan, np.inf])
def test_discretize_takes_whole_grid_sizes(three_level, m):
    # a size that is not a whole number of at least 10 is refused, not
    # rounded, by `discretize` and so by `compare_negative_spectrum`
    with pytest.raises(friedrichs.model.ConfigError):
        discretize(three_level, m)
    with pytest.raises(friedrichs.model.ConfigError):
        compare_negative_spectrum(three_level, (500, m))


def test_discretize_takes_integral_floats(three_level):
    whole, integral = discretize(three_level, 1000), discretize(three_level, np.float64(1000.0))
    assert whole.nodes.tobytes() == integral.nodes.tobytes()
    assert whole.b.tobytes() == integral.b.tobytes()
    table = compare_negative_spectrum(three_level, (1000.0,))
    assert table.rows[0].m == 1000 and type(table.rows[0].m) is int


def test_discretized_hamiltonian_takes_no_model():
    # the grid knows nothing of its model: the constructor takes no model
    with pytest.raises(TypeError):
        DiscretizedHamiltonian(np.array([-1.0]), np.array([[1.0]]), np.array([1.0]),
                               np.array([1.0]), 1e-8, make_preset("three-level-fig"))


def _scaled_three_level(s, lam):
    # levels and widths times s: K_s(sE) = s K(E), so the bound states keep
    # their count and their energies scale by s
    base = make_preset("three-level-fig")
    factors = tuple(RationalFormFactor(f.n_index, f.a, s * f.cutoff, f.prefactor)
                    for f in base.form_factors)
    return FriedrichsModel(tuple(s * w for w in base.levels), lam, factors, base.units)


@pytest.mark.parametrize("lam", [0.1, 0.7, 10.0])
@pytest.mark.parametrize("s", [2.0 ** -330, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 2.0 ** 330])
def test_oracle_count_is_scale_covariant(s, lam):
    # the gap is relative to the model's scale: with a fixed 1e-8 the grid
    # counted none of the states at s = 1e-9 and one of two at s = 1e-6.
    # So are the root tolerances and the oracle's tail: with a fixed 1e-12
    # and a tail of width 1 the roots were off by up to 7.7e-3 relative.
    # So is the lower bracket end, min(omega_1, 0) - 2 sqrt(lambda^2 sum_n
    # ||v_n||^2), which took hundreds of steps at 2^+-330 as an energy plus
    # an energy squared
    model = _scaled_three_level(s, lam)
    ham = discretize(model, 1000)
    assert ham.gap == 1e-8 * model.max_scale()
    table = compare_negative_spectrum(model, (1000,))
    assert table.rows[0].count == table.solver_count == {0.1: 1, 0.7: 2, 10.0: 3}[lam]
    ref, ref_cert = _unscaled(lam)
    for got, want in ((table.rows[0].energies, ref.rows[0].energies),
                      (table.solver_energies, ref.solver_energies)):
        assert np.allclose(np.array(got) / s, want, rtol=1e-10, atol=0.0)
    cert = certificate(model)
    assert cert.bound == pytest.approx(ref_cert.bound, rel=1e-9, abs=0.0)
    for got, want in ((cert.r_a, ref_cert.r_a), (cert.r_b, ref_cert.r_b)):
        assert got / s == pytest.approx(want, rel=1e-9, abs=0.0)


@functools.cache
def _unscaled(lam):
    """The s = 1 oracle table at m = 1000 and certificate of the covariance
    test's model."""
    model = _scaled_three_level(1.0, lam)
    return compare_negative_spectrum(model, (1000,)), certificate(model)
