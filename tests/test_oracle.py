from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import friedrichs.quad
import friedrichs.solver
from friedrichs import (
    DiscretizedHamiltonian,
    FriedrichsModel,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    compare_negative_spectrum,
    discretize,
    l2_norm_sq,
    load_model,
    make_preset,
)
from friedrichs.oracle import _GAP_TOL, _coupling_block

from _references import THREE_LEVEL_ROOTS
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
    want, vecs = scipy.linalg.eigh(ham.h, subset_by_value=(-np.inf, -_GAP_TOL))
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
    omega_max = 20.0 * model.max_scale()
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
    nodes.append(omega_max + t / (1.0 - t))
    weights.append(0.5 * tw * (1.0 / (1.0 - t) ** 2))
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
                        lambda self, e: energies.append(e) or build(self, e))
    ham = discretize(three_level.with_coupling(10.0), 1000)
    assert ham.negative_eigenvalues().size == 3
    assert len(energies) == len(set(energies))
    n_search = len(energies)
    energies.clear()
    vals, _ = ham.negative_eigensystem()
    assert vals.size == 3
    assert len(energies) == len(set(energies)) == n_search


def test_negative_eigensystem_diagonalizes_each_energy_once(three_level, monkeypatch):
    # each level block is the eigenvector the search's point at its root
    # already holds (3 K_M(E) were diagonalized twice before)
    energies, matrices = [], []
    build, eigh = DiscretizedHamiltonian._k, np.linalg.eigh
    monkeypatch.setattr(DiscretizedHamiltonian, "_k",
                        lambda self, e: energies.append(e) or build(self, e))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: matrices.append(np.size(a) // a.shape[-1] ** 2) or eigh(a))
    vals, blocks = discretize(three_level.with_coupling(10.0), 1000).negative_eigensystem()
    assert vals.size == 3 and blocks.shape == (3, 3)
    assert 0 < sum(matrices) == len(energies) == len(set(energies))


def test_compare_negative_spectrum_solves_energies_only(three_level, monkeypatch):
    # the comparison prints counts and energies: no T(E, E) and no states
    calls = []
    monkeypatch.setattr(friedrichs.solver, "t_matrix",
                        lambda *a: calls.append(a))
    table = compare_negative_spectrum(three_level.with_coupling(0.7), (400,))
    assert table.solver_count == 2
    assert calls == []
