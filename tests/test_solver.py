import numpy as np
import pytest

import friedrichs.model
import friedrichs.solver
import friedrichs.spectral
from friedrichs import (
    FriedrichsModel,
    RationalFormFactor,
    UnitSystem,
    bound_state,
    count_negative,
    l2_norm_sq,
    positive_candidate_scan,
    residual,
    solve_model,
    total_l2_norm_sq,
)

from _references import THREE_LEVEL_ROOTS


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


def test_bound_state_fields(three_level, three_level_reports):
    st = three_level_reports[0.7].states[0]
    assert st.branch_index == 1
    assert st.bracket[0] <= st.energy <= st.bracket[1]
    assert st.bracket[1] - st.bracket[0] < 1e-12
    assert st.total_norm_sq == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(st.c, st.c) + st.continuum_norm_sq - 1.0) <= 1e-10
    assert st.degenerate_partners == ()
    # assembled alone at the same energy, the state differs only in its
    # bracket, which only the root search knows
    alone = bound_state(three_level.with_coupling(0.7), 1, st.energy)
    assert np.isnan(alone.bracket).all()
    assert np.array_equal(alone.c, st.c)
    assert alone.continuum_norm_sq == st.continuum_norm_sq
    with pytest.raises(ValueError):
        bound_state(three_level, 1, 0.0)


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
    pv = friedrichs.spectral.pv_matrix
    monkeypatch.setattr(friedrichs.spectral, "pv_matrix",
                        lambda model, e: energies.extend(np.ravel(e)) or pv(model, e))
    cands = positive_candidate_scan(hydrogen, np.linspace(1e-4, 0.5, 50))
    assert len(cands) == 3
    assert len(energies) == len(set(energies)) <= 57


def test_positive_scan_rejects_nonpositive_grid(three_level):
    with pytest.raises(ValueError):
        positive_candidate_scan(three_level, np.array([-0.1, 0.5]))


def test_seed_energy_covers_strong_coupling(three_level, three_level_reports):
    # the deepest root at lam = 10 sits near -6.8; the bracket search must
    # reach it from the documented seed without manual hints
    model = three_level.with_coupling(10.0)
    seed = min(model.levels[0], 0.0) - 1.0 - model.coupling ** 2 * sum(
        l2_norm_sq(model, n) for n in (1, 2, 3))
    assert seed < THREE_LEVEL_ROOTS[10.0][0]
    assert three_level_reports[10.0].states[0].energy > seed


def _record_grams(monkeypatch):
    """Every energy at which the eigencurve family builds an S(E)."""
    energies = []
    gram = friedrichs.spectral.gram_matrix
    monkeypatch.setattr(friedrichs.spectral, "gram_matrix",
                        lambda model, e: energies.extend(np.ravel(e)) or gram(model, e))
    return energies


@pytest.mark.parametrize("lam", [0.1, 0.7, 10.0])
def test_find_root_gram_budget(three_level, lam, monkeypatch):
    # every Gram matrix of a solve: S(0) for the count, which also serves as
    # the branch search's upper bracket end, and the search to the 1e-12
    # bracket (the shared lower end built once for all branches); each
    # state reuses the S(E) the search built at its root
    energies = _record_grams(monkeypatch)
    rep = solve_model(three_level.with_coupling(lam))
    assert rep.count == len(THREE_LEVEL_ROOTS[lam])
    assert 0 < len(energies) <= {0.1: 8, 0.7: 13, 10.0: 25}[lam]


def test_solve_model_takes_seed_norm_once(three_level, monkeypatch):
    # one l2 integral per level seeds every branch's bracket
    calls = []
    l2 = friedrichs.model.l2_norm_sq
    monkeypatch.setattr(friedrichs.model, "l2_norm_sq",
                        lambda *a: calls.append(1) or l2(*a))
    rep = solve_model(three_level.with_coupling(10.0))
    assert rep.count == 3
    assert len(calls) == 3


def test_solve_model_builds_each_gram_once(three_level, monkeypatch):
    # each state's K(E) comes from the branch search's memo: one S(E) per
    # distinct energy (28 S(E) for 25 energies before)
    energies = _record_grams(monkeypatch)
    rep = solve_model(three_level.with_coupling(10.0))
    assert rep.count == 3
    assert 0 < len(energies) == len(set(energies)) <= 25


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
    # moves kappa_n(0) by about 1: kappa_2(0) = -0.46 and kappa_3(0) = 0.17
    # are inside the band, so neither is a bound state (the second one
    # solved with a residual of 0.2 before)
    config = three_level.descriptor()
    config["form_factors"][1]["a"] = 3.4e8
    model = friedrichs.model.model_from_dict(config)
    res = count_negative(model)
    assert res.kappa_at_zero[0] < -1e15
    assert -1.0 < res.kappa_at_zero[1] < 0.0 < res.kappa_at_zero[2] < 1.0
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


def test_exact_zero_gap_reports_its_point_as_bracket():
    # kappa_1(E) - E = -1 - E vanishes exactly at E = -1, which the search
    # evaluates; the reported bracket is that point, not the search's last
    # bracket (-2, -1)
    curves = friedrichs.spectral._EigenCurves(lambda e: np.full((e.size, 1, 1), -1.0 + 0j))
    roots = friedrichs.solver._branch_roots(curves, 1, -2.0)
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
