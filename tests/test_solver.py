import math

import numpy as np
import pytest

import friedrichs.model
import friedrichs.solver
import friedrichs.spectral
from friedrichs import (
    FriedrichsModel,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    compare_negative_spectrum,
    count_negative,
    gram_matrix,
    kappa_curve,
    l2_norm_sq,
    positive_candidate_scan,
    residual,
    solve_model,
    total_l2_norm_sq,
)

from _references import HYDROGEN_HUGE_COUPLING_ROOTS, HYDROGEN_NORM_GRAM_COND, THREE_LEVEL_ROOTS
from test_quad import _tabulated_rational


@pytest.mark.parametrize("lam,want", [(0.1, 1), (0.7, 2), (10.0, 3)])
def test_count_negative(three_level, lam, want):
    res = count_negative(three_level.with_coupling(lam))
    assert res.count == want
    assert res.indeterminate == ()
    assert np.all(np.diff(res.kappa_at_zero) >= 0.0)


def test_count_negative_decoupled(three_level):
    res = count_negative(three_level.with_coupling(0.0))
    assert res.count == 1
    assert np.allclose(res.kappa_at_zero, three_level.levels, atol=1e-15)


@pytest.mark.parametrize("lam", [0.1, 0.7, 10.0])
def test_find_root_against_reference(three_level_reports, lam):
    # frozen by tests/oracles/gen_references.py
    rep = three_level_reports[lam]
    assert rep.count == len(THREE_LEVEL_ROOTS[lam])
    for st, want in zip(rep.states, THREE_LEVEL_ROOTS[lam]):
        assert st.energy == pytest.approx(want, abs=2e-10)


def test_solve_model_at_a_huge_coupling(hydrogen):
    # frozen by tests/oracles/gen_references.py: at lambda = 1e120 the roots
    # are lambda sqrt(g_k), g_k the eigenvalues of the norm Gram matrix G.
    # S(E) in double precision moves g_k by about eps ||G||, so each root
    # holds to a relative eps cond(G) / 2 (7e-10), the smallest one no better
    for lam, want in HYDROGEN_HUGE_COUPLING_ROOTS.items():
        rep = solve_model(hydrogen.with_coupling(lam))
        assert rep.count == 3 and rep.indeterminate == ()
        bound = np.finfo(float).eps * HYDROGEN_NORM_GRAM_COND / 2.0
        for st, ref in zip(rep.states, want):
            assert abs(st.energy - ref) <= bound * abs(ref), (st.energy, ref)


@pytest.mark.parametrize("name", ["hydrogen-4level", "three-level-fig"])
def test_bound_state_runs_never_build_the_ray(name, tmp_path, monkeypatch):
    # S(E <= 0), T(E, E') and the norms read the real Gram table alone:
    # solving, counting, sweeping lambda, kappa-curves at E <= 0 and the
    # oracle's solver member build it once and never build the rotated ray
    # of D(E > 0)
    import friedrichs.cli
    import friedrichs.quad as quad

    steps = []
    ray_rows = quad._ray_rows
    monkeypatch.setattr(quad, "_ray_rows", lambda factors, step, turn: (
        steps.append(step) or ray_rows(factors, step, turn)))
    for run in (solve_model, count_negative,
                lambda m: compare_negative_spectrum(m, [200, 400])):
        model = friedrichs.model.make_preset(name)
        run(model)
        assert "_ray_rows" not in model.__dict__ and "_gram_rows" in model.__dict__
    loaded = []
    load = friedrichs.cli._load
    monkeypatch.setattr(friedrichs.cli, "_load", lambda args: loaded.append(load(args))
                        or loaded[-1])
    for argv in (["sweep-lambda"], ["kappa-curves", "--e-min=-1", "--e-max=0", "--e-steps", "5"]):
        assert friedrichs.cli.main([*argv, "--preset", name, "--out", str(tmp_path)]) == 0
        assert "_ray_rows" not in loaded[-1].__dict__ and "_gram_rows" in loaded[-1].__dict__
    assert steps == [quad._GRAM_STEP] * 5


def test_bound_state_fields(three_level, three_level_reports):
    st = three_level_reports[0.7].states[0]
    assert st.branch_index == 1
    assert st.bracket[0] <= st.energy <= st.bracket[1]
    assert st.bracket[1] - st.bracket[0] < 1e-12
    assert st.total_norm_sq == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(st.c, st.c) + st.continuum_norm_sq - 1.0) <= 1e-10
    # c is the branch's eigenvector of K(E) at the root, scaled by the level
    # weight |c|^2 = 1 - continuum_norm_sq
    point = kappa_curve(three_level.with_coupling(0.7), [st.energy])[0]
    assert np.allclose(st.c, point.vectors[:, 0] * math.sqrt(1.0 - st.continuum_norm_sq),
                       rtol=0.0, atol=1e-14)


def test_bound_state_residual(three_level):
    for lam in (0.1, 0.7, 10.0):
        model = three_level.with_coupling(lam)
        rep = solve_model(model)
        for st in rep.states:
            assert residual(model, st) <= 1e-11


def test_bound_state_continuum_bound(three_level):
    # weighted continuum weight can never exceed lam^2 sum_n ||v_n||^2 / E^2
    model = three_level.with_coupling(10.0)
    total = total_l2_norm_sq(model)
    for st in solve_model(model).states:
        cap = model.coupling ** 2 * total / st.energy ** 2
        assert st.continuum_norm_sq <= cap * (1.0 + 1e-9)


def test_solve_model_report(three_level):
    model = three_level.with_coupling(0.7)
    rep = solve_model(model)
    assert rep.count == 2
    assert len(rep.states) == 2
    energies = [st.energy for st in rep.states]
    assert energies == sorted(energies)
    assert rep.indeterminate == ()


def test_solve_energy_ordering_matches_reference(three_level):
    rep = solve_model(three_level.with_coupling(10.0))
    got = [st.energy for st in rep.states]
    assert got == pytest.approx(list(THREE_LEVEL_ROOTS[10.0]), abs=2e-9)


def test_positive_scan_decoupled(three_level):
    # with lam = 0 each positive level is an exact crossing and the defect
    # equals |v_n| at the level, which is far from zero
    model = three_level.with_coupling(0.0)
    grid = np.linspace(5e-3, 0.2, 40)
    cands = positive_candidate_scan(model, grid)
    energies = sorted(c.energy for c in cands)
    assert len(cands) == 2
    assert energies[0] == pytest.approx(0.01, abs=1e-6)
    assert energies[1] == pytest.approx(0.02, abs=1e-6)
    for c in cands:
        assert c.zero_defect > 1e-2


def test_positive_scan_keeps_zero_on_last_grid_energy(three_level):
    # decoupled, each positive level is an exact zero of kappa_n(E) - E on
    # the grid; the one on the last grid energy counts like any other
    model = three_level.with_coupling(0.0)
    cands = positive_candidate_scan(model, np.linspace(5e-3, 0.02, 16))
    assert [(c.branch_index, c.energy) for c in cands] == [(2, 0.01), (3, 0.02)]


def test_positive_scan_finds_vanishing_defect():
    # a factor that vanishes at w = 1/2 supports a numerical embedded-
    # eigenvalue candidate there: Q(s) = 1 - 4s has a root at u = 1/2
    f = RationalFormFactor(2, -4.0, 1.0)
    assert abs(f.value(0.5)) <= 1e-15
    model = FriedrichsModel((0.5,), 1e-3, (f,), UnitSystem(1.0))
    cands = positive_candidate_scan(model, np.linspace(0.3, 0.8, 21))
    assert len(cands) == 1
    assert cands[0].energy == pytest.approx(0.5, abs=1e-4)
    assert cands[0].zero_defect <= 1e-5


def test_positive_scan_builds_each_energy_once(hydrogen, monkeypatch):
    # one D(E) per distinct energy: the grid, then the crossing search's
    # points, shared by the branches refined in one cell, and the crossings
    # themselves taken from the search; the search reads kappa_n(E) - E at
    # the cell ends from the grid's points, so no grid energy comes twice
    energies = []
    build = friedrichs.spectral._shift_stack
    monkeypatch.setattr(friedrichs.spectral, "_shift_stack",
                        lambda model, e: energies.extend(e.tolist()) or build(model, e))
    cands = positive_candidate_scan(hydrogen, np.linspace(1e-4, 0.5, 50))
    assert len(cands) == 3
    assert len(energies) == len(set(energies)) <= 57


def test_positive_scan_rejects_nonpositive_grid(three_level):
    with pytest.raises(ValueError):
        positive_candidate_scan(three_level, np.array([-0.1, 0.5]))
    # a NaN energy is not positive either (it raised NumericalError)
    with pytest.raises(ValueError, match="strictly positive grid"):
        positive_candidate_scan(three_level, [math.nan, 1.0])


def test_seed_energy_covers_strong_coupling(three_level, three_level_reports):
    # the deepest root at lam = 10 sits near -6.8; the bracket search must
    # reach it from the documented seed without manual hints
    model = three_level.with_coupling(10.0)
    seed = min(model.levels[0], 0.0) - 2.0 * math.sqrt(model.coupling ** 2 * sum(
        l2_norm_sq(model, n) for n in (1, 2, 3)))
    assert seed < THREE_LEVEL_ROOTS[10.0][0]
    assert three_level_reports[10.0].states[0].energy > seed


def _record_grams(monkeypatch, calls=None):
    """Every energy at which the eigencurve family builds an S(E) (every
    energy of a bound-state search is at or below 0), and in calls, when
    given, the number of energies of each stack it builds."""
    energies = []
    build = friedrichs.spectral._shift_stack

    def record(model, e):
        assert np.all(e <= 0.0)
        energies.extend(e.tolist())
        if calls is not None:
            calls.append(e.size)
        return build(model, e)

    monkeypatch.setattr(friedrichs.spectral, "_shift_stack", record)
    return energies


@pytest.mark.parametrize("lam", [0.1, 0.7, 10.0])
def test_find_root_gram_budget(three_level, lam, monkeypatch):
    # every Gram matrix of a solve: S(0) for the count, which also serves as
    # the branch search's upper bracket end, and the search to the 1e-12
    # bracket (the shared lower end built once for all branches); each
    # state reuses the S(E) the search built at its root.  S(0) and the
    # lower end are one stack, so the calls are one fewer than the search's
    # steps plus two (8, 9 and 12 calls before)
    calls = []
    energies = _record_grams(monkeypatch, calls)
    rep = solve_model(three_level.with_coupling(lam))
    assert rep.count == len(THREE_LEVEL_ROOTS[lam])
    assert 0 < len(energies) <= {0.1: 8, 0.7: 13, 10.0: 25}[lam]
    assert len(calls) <= {0.1: 7, 0.7: 8, 10.0: 11}[lam]
    assert calls[0] == 2


@pytest.mark.parametrize("s", [2.0 ** -330, 2.0 ** 330])
def test_find_root_cost_is_scale_covariant(s, monkeypatch):
    # levels and widths times a power of two scale every energy of the
    # search exactly, so it builds the same S(E) count; the seed
    # min(omega_1, 0) - 1 - lambda^2 sum_n ||v_n||^2 added an energy to an
    # energy squared, and the search took 571-572 objective calls at 2^+-330
    # against 7 at scale 1
    from test_oracle import _scaled_three_level

    calls = []
    energies = _record_grams(monkeypatch, calls)
    want = solve_model(_scaled_three_level(1.0, 1.0))
    n_calls, unscaled = len(calls), list(energies)
    got = solve_model(_scaled_three_level(s, 1.0))
    assert len(calls) - n_calls == n_calls
    assert energies[len(unscaled):] == [s * e for e in unscaled]
    assert [st.energy for st in got.states] == [s * st.energy for st in want.states]


def test_shallow_root_with_an_overflowing_t_is_a_numerical_error():
    # at widths of 6e-153 the second root is -4.6e-155, where T(E, E)'s
    # kernel 1/(w - E)^2 overflows: the continuum weight was NaN, printed
    # with exit 0 and a RuntimeWarning
    from test_oracle import _scaled_three_level

    with pytest.raises(friedrichs.solver.NumericalError, match=r"T\(E, E\) has a non-finite"):
        solve_model(_scaled_three_level(6e-153, 1.0))


def test_crossing_scan_sees_gaps_whose_product_underflows():
    # a one-level stub family with kappa(E) - E = +-1e-170 on either side of
    # E = 5e-161: the scan multiplied the two gaps, and their product, 1e-340,
    # underflowed to -0.0 and hid the sign change (a gap of 1e-170 at E = 0.5
    # is not a double difference, so the crossing sits at 5e-161)
    model = FriedrichsModel((0.1,), 1.0, (RationalFormFactor(1),), UnitSystem(1.0))

    def curves(energies, *member):
        return [friedrichs.spectral.EigenCurvePoint(e, np.array([e + 4e-10 * (5e-161 - e)]),
                                                    np.eye(1))
                for e in np.ravel(energies).tolist()]

    grid = np.array([2.5e-161, 7.5e-161])
    gaps = [p.kappa[0] - p.e for p in curves(grid)]
    assert gaps[0] > 0.0 > gaps[1] and gaps[0] * gaps[1] == 0.0
    (cand,) = friedrichs.solver._positive_candidates(model, curves, grid)
    assert cand.branch_index == 1 and grid[0] <= cand.energy <= grid[1]


def test_solve_model_takes_seed_norm_once(three_level, monkeypatch):
    # one pass over the levels' l2 integrals seeds every branch's bracket
    # (one l2_norm_sq call per level before), and its sum is the sum of
    # l2_norm_sq over the levels bit for bit
    calls = []
    norms = friedrichs.solver._norms_sq
    monkeypatch.setattr(friedrichs.solver, "_norms_sq",
                        lambda model: calls.append(norms(model)) or calls[-1])
    model = three_level.with_coupling(10.0)
    rep = solve_model(model)
    assert rep.count == 3
    assert len(calls) == 1
    assert sum(calls[0]) == total_l2_norm_sq(model)


def test_solve_model_builds_each_gram_once(three_level, monkeypatch):
    # each state's K(E) comes from the branch search's memo: one S(E) per
    # distinct energy (28 S(E) for 25 energies before)
    energies = _record_grams(monkeypatch)
    rep = solve_model(three_level.with_coupling(10.0))
    assert rep.count == 3
    assert 0 < len(energies) == len(set(energies)) <= 25


def test_searches_build_no_level_shift_matrix(three_level, tabulated_two_level,
                                             monkeypatch):
    # the searches of solve_model and compare_negative_spectrum, and the
    # states, take their K(E) and T(E, E) straight from the kernels' sums:
    # no LevelShiftMatrix is built and no err computed; the public matrices
    # still build both
    import friedrichs.quad as quad

    built, bounds = [], []
    cls, ray_bounds = quad.LevelShiftMatrix, quad._ray_bounds
    monkeypatch.setattr(quad, "LevelShiftMatrix", lambda *a: built.append(a) or cls(*a))
    monkeypatch.setattr(quad, "_ray_bounds", lambda *a: bounds.append(a) or ray_bounds(*a))
    assert solve_model(three_level.with_coupling(10.0)).count == 3
    assert solve_model(tabulated_two_level).count == 1
    table = compare_negative_spectrum(three_level.with_coupling(0.7), (500,))
    assert table.solver_count == 2
    assert built == [] and bounds == []
    assert gram_matrix(three_level, -0.5).err.shape == (3, 3)
    assert len(built) == len(bounds) == 1


def test_solve_model_diagonalizes_each_energy_once(three_level, monkeypatch):
    # the count, the branch search and the states read one eigendecomposition
    # per distinct energy (28 for 25 energies before: each state's K(E) was
    # diagonalized again)
    energies = _record_grams(monkeypatch)
    matrices = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: matrices.append(np.size(a) // a.shape[-1] ** 2) or eigh(a))
    rep = solve_model(three_level.with_coupling(10.0))
    assert rep.count == 3
    assert 0 < sum(matrices) == len(energies) == len(set(energies))


def test_count_band_scales_with_k_at_zero(three_level):
    # a coefficient of 3.4e8 makes ||K(0)|| = 2.1e15, where rounding alone
    # moves kappa_n(0) by about 1: kappa_2(0) and kappa_3(0) are inside the
    # band, whatever their rounded signs, so neither is a bound state (the
    # second one solved with a residual of 0.2 before)
    config = three_level.descriptor()
    config["form_factors"][1]["a"] = 3.4e8
    model = friedrichs.model.model_from_dict(config)
    res = count_negative(model)
    assert res.kappa_at_zero[0] < -1e15
    band = max(friedrichs.solver._tolerances(model).band,
               3 * np.finfo(float).eps * np.abs(res.kappa_at_zero).max())
    assert np.all(np.abs(res.kappa_at_zero[1:]) <= band)
    assert (res.count, res.indeterminate) == (1, (2, 3))
    rep = solve_model(model)
    assert rep.count == len(rep.states) == 1
    assert rep.indeterminate == (2, 3)


@pytest.mark.parametrize("site,value", [((1, "a"), 3.4e8), ((0, "cutoff"), 5.5e9)],
                         ids=["a", "cutoff"])
def test_deep_root_converges_to_relative_bracket(three_level, site, value):
    # below -8192 no bracket is 1e-12 wide: the search stops at a few ulps
    # of |E|, and the root solves (K(E) - E) c = 0 to rounding
    config = three_level.descriptor()
    config["form_factors"][site[0]][site[1]] = value
    model = friedrichs.model.model_from_dict(config)
    deep = solve_model(model).states[0]
    lo, hi = deep.bracket
    assert deep.energy < -1e7
    assert lo <= deep.energy <= hi
    assert hi - lo <= 1e-12 + 4.0 * np.finfo(float).eps * abs(deep.energy)
    assert residual(model, deep) <= 1e-14 * abs(deep.energy)


def _binary_scaled(model, k):
    # levels and widths times s = 4^k: a built-in amplitude follows through
    # its cutoff and a tabulated value scales by 2^k = sqrt(s), so that
    # K_s(sE) = s K(E) with every product exact
    s = 4.0 ** k
    factors = tuple(
        TabulatedFormFactor(s * f.grid, 2.0 ** k * f.values, f.tail_exponent, f.p_exponent)
        if isinstance(f, TabulatedFormFactor)
        else RationalFormFactor(f.n_index, f.a, s * f.cutoff, f.prefactor)
        for f in model.form_factors)
    return FriedrichsModel(tuple(s * w for w in model.levels), model.coupling, factors,
                           model.units)


@pytest.mark.parametrize("model", [
    friedrichs.model.make_preset("three-level-fig", 0.7),
    friedrichs.model.make_preset("three-level-fig", 10.0),
    _tabulated_rational(),
], ids=["three-level-0.7", "three-level-10", "tabulated-rational"])
def test_count_and_roots_are_binary_scale_equivariant(model):
    # a power-of-two scale moves no bit of the count or the roots: every
    # tolerance is relative to the model's width, and a fixed absolute one
    # (a band of 1e-12) counts nothing at s = 4^-30
    count, report = count_negative(model), solve_model(model)
    energies = np.array([st.energy for st in report.states])
    for k in (-30, -4, 4, 30):
        s = 4.0 ** k
        scaled = _binary_scaled(model, k)
        got_count, got_report = count_negative(scaled), solve_model(scaled)
        for got, want in ((got_count, count), (got_report, report)):
            assert (got.count, got.indeterminate) == (want.count, want.indeterminate), k
            assert (got.kappa_at_zero / s).tobytes() == want.kappa_at_zero.tobytes(), k
        got_energies = np.array([st.energy for st in got_report.states])
        assert (got_energies / s).tobytes() == energies.tobytes(), k


def _unit_stop():
    # the roots' stop (xatol, xrtol) of a model whose narrowest width is 1
    return friedrichs.solver._tolerances(friedrichs.model.make_preset("three-level-fig")).root_stop


def _two_members():
    # kappa(E) = -c + s E^2 on two members of scales 1 and 1e3, each row to
    # its own member's tolerance
    members = ((1.0, 0.3), (1e3, 1e-3))
    xatol, xrtol = _unit_stop()

    def curves():
        return friedrichs.spectral._EigenCurves(
            lambda e, m: (-members[m][0] + members[m][1] * e * e + 0j)[:, None, None])

    return curves, dict(branch=[1, 1], member=[0, 1], lo=[-20.0, -5e3], hi=0.0, top=0.0,
                        xatol=xatol * np.array([1.0, 1e3]), xrtol=xrtol)


def _solver_rows():
    # solve_model's rows on three-level-fig at lambda = 10: branches 1..3
    # from the seed to 0
    model = friedrichs.model.make_preset("three-level-fig", 10.0)
    seed = friedrichs.solver._model_seed(model)
    xatol, xrtol = friedrichs.solver._tolerances(model).root_stop
    return (lambda: friedrichs.spectral._eigencurves(model),
            dict(branch=np.arange(1, 4), lo=np.full(3, seed), hi=0.0, top=0.0,
                 xatol=xatol, xrtol=xrtol))


def _crossing_rows():
    # the crossing scan's rows on 8 energies across each hydrogen level
    # +- 4e-5, one crossing in each window
    model = friedrichs.model.make_preset("hydrogen-4level")
    branch, lo, hi = [], [], []
    for level in model.levels:
        grid = np.linspace(level - 4e-5, level + 4e-5, 8)
        signs = np.sign([p.kappa - p.e for p in kappa_curve(model, grid)])
        cell, n = np.nonzero(signs[:-1] * signs[1:] < 0.0)
        branch += (n + 1).tolist()
        lo += grid[cell].tolist()
        hi += grid[cell + 1].tolist()
    assert len(branch) == 3
    xatol, xrtol = friedrichs.solver._tolerances(model).scan_stop
    return (lambda: friedrichs.spectral._eigencurves(model),
            dict(branch=branch, lo=lo, hi=hi, top=np.inf, xatol=xatol, xrtol=xrtol,
                 what="positive crossing search"))


@pytest.mark.parametrize("rows", [_two_members, _solver_rows, _crossing_rows],
                         ids=["members", "solver", "crossing"])
def test_member_roots_keep_their_own_tolerance(rows):
    # every row of one search gives bit for bit the root and bracket it
    # gives searched alone, on a fresh family, to its own tolerance
    curves, columns = rows()
    both = friedrichs.solver._branch_roots(curves(), **columns)
    alone = [friedrichs.solver._branch_roots(curves(), **{
                 k: v if np.ndim(v) == 0 else np.asarray(v)[i:i + 1]
                 for k, v in columns.items()}) for i in range(len(both))]
    assert len(both) > 1 and both == [root for row in alone for root in row]
    if rows is _two_members:
        # with the first member's tolerance shared, the second's bracket
        # narrows further
        shared = friedrichs.solver._branch_roots(
            curves(), **dict(columns, xatol=_unit_stop()[0]))
        assert shared[0] == both[0]
        (_, (lo, hi)), (_, (lo1, hi1)) = both[1], shared[1]
        assert 1e-10 < hi - lo < 1e-9 and hi1 - lo1 < 1e-12 + 4 * np.finfo(float).eps * 618.1


def test_exact_zero_gap_reports_its_point_as_bracket():
    # kappa_1(E) - E = -1 - E vanishes exactly at E = -1, which the search
    # evaluates; the reported bracket is that point, not the search's last
    # bracket (-2, -1)
    curves = friedrichs.spectral._EigenCurves(lambda e: np.full((e.size, 1, 1), -1.0 + 0j))
    roots = friedrichs.solver._branch_roots(curves, [1], -2.0, 0.0, 0.0, *_unit_stop())
    assert roots == [(-1.0, (-1.0, -1.0))]


def test_solve_tabulated_bound_state(tabulated_two_level):
    # the interpolant's kinks must reach the quadrature as breakpoints, both
    # in the l2 norm that seeds the bracket and in the continuum weight
    rep = solve_model(tabulated_two_level)
    assert rep.count == 1
    (st,) = rep.states
    assert st.energy < -0.2
    assert abs(st.total_norm_sq - 1.0) <= 1e-10
    assert residual(tabulated_two_level, st) <= 1e-9
