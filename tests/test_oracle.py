import numpy as np
import pytest

from friedrichs import (
    FriedrichsModel,
    RationalFormFactor,
    TabulatedFormFactor,
    UnitSystem,
    bound_state,
    compare_negative_spectrum,
    discretize,
    from_arrays,
    l2_norm_sq,
)

from _references import THREE_LEVEL_ROOTS


def test_from_arrays_hand_case():
    # one level at -1, two continuum nodes with unit weights and values:
    # H = [[-1, 1, 1], [1, 1, 0], [1, 0, 3]], whose characteristic
    # polynomial is x^3 - 3x^2 - 3x + 7
    ham = from_arrays([-1.0], 1.0, [[1.0, 1.0]], [1.0, 3.0], [1.0, 1.0])
    want = np.sort(np.roots([1.0, -3.0, -3.0, 7.0]).real)
    got = np.linalg.eigvalsh(ham.h)
    assert np.allclose(got, want, atol=1e-12)
    neg = ham.negative_eigenvalues()
    assert len(neg) == 1
    assert neg[0] == pytest.approx(want[0], abs=1e-12)


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
    assert ham.spec.m_requested == 400
    assert ham.nodes.size == ham.weights.size == ham.spec.m_actual
    assert np.all(ham.weights > 0.0)
    assert np.all(np.diff(ham.nodes) > 0.0)
    assert ham.n_levels == 3
    # the grid must integrate the form-factor moduli to quadrature accuracy
    for n in (1, 2, 3):
        f = three_level.form_factors[n - 1]
        got = float(np.sum(ham.weights * f.mod_sq(ham.nodes)))
        assert got == pytest.approx(l2_norm_sq(three_level, n), rel=1e-8)


def test_discretize_validation(three_level):
    with pytest.raises(ValueError):
        discretize(three_level, 5)


def test_negative_eigensystem_matches_solver(three_level):
    model = three_level.with_coupling(0.7)
    ham = discretize(model, 800)
    energies, vectors = ham.negative_eigensystem()
    assert len(energies) == 2
    for k, e in enumerate(energies):
        st = bound_state(model, k + 1)
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
