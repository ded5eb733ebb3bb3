"""Frozen reference values for the test suite.

Generated by tests/oracles/gen_references.py (mpmath tanh-sinh quadrature at
30 digits, form factors re-implemented from scratch there). Regenerate with

    python3 tests/oracles/gen_references.py

and paste the printed dictionary here if the model definitions ever change.
"""

# Gram matrix of the hydrogen family at E = -1, upper triangle, keys "nm"
HYDROGEN_GRAM_MINUS1 = {
    "11": 0.1101585629086523,
    "12": 0.057909646286150314,
    "13": 0.03713005748835303,
    "22": 0.03056161499580123,
    "23": 0.019619643293814545,
    "33": 0.01260024748492205,
}

# principal-value matrix of the hydrogen family at E = 0.5, upper triangle
HYDROGEN_PV_HALF = {
    "11": -0.0956393307756303,
    "12": -0.02974045968021957,
    "13": -0.014794998360297953,
    "22": -0.004711032109314466,
    "23": -0.0007488659738762813,
    "33": 0.0009812675389552522,
}

# sup over E > 0 of the hydrogen PV-matrix spectral norm, and its location
HYDROGEN_SUP_D = 0.8090016721482148
HYDROGEN_SUP_D_E_STAR = 0.08135877102084474

# certificate constants of the hydrogen preset built on HYDROGEN_SUP_D:
# lambda_n^2 per level, lambda_a^2, and the local closed form lambda_bar_n^2
HYDROGEN_LAMBDA_N_SQ = (0.00013917157353980563, 4.871005073893197e-05, 4.871005073893197e-05)
HYDROGEN_LAMBDA_A_SQ = 4.871005073893197e-05
HYDROGEN_LAMBDA_BAR_SQ = (5.856323059081284e-05, 7.010907103635167e-06, 2.9794902936542485e-06)

HYDROGEN_PV_NORM_AT_1 = 0.42879065438977054

# first energy at which the hydrogen PV matrix loses positive semidefiniteness
HYDROGEN_R_B = 0.12592399635350376

# squared l2 norms of the built-in form factors (reference cutoff units)
L2_HYDROGEN = (0.16666666666666666, 0.0474609375, 0.019734652635428573)
L2_THREE_LEVEL = (0.16666666666666666, 0.26666666666666666, 0.08571428571428572)

# three-level Gram matrix at E = 0, upper triangle
THREE_LEVEL_GRAM_ZERO = {
    "11": 0.4908738521234052,
    "12": 0.5522330836388308,
    "13": 0.4049709280018093,
    "22": 0.6320000846088842,
    "23": 0.44485442848683593,
    "33": 0.3466796580621549,
}

# bound-state energies of the three-level preset, ascending, per coupling
THREE_LEVEL_ROOTS = {
    0.1: (-0.0162161122183231,),
    0.7: (-0.31067097541423705, -0.0033869190302548958),
    10.0: (-6.842480608395853, -0.6812446941469646, -0.029677088607389737),
}

# bound-state energies of the hydrogen preset at lambda = 1e120, ascending:
# lambda sqrt(g_k), g_k the eigenvalues of the norm Gram matrix
# G_nm = integral v_n v_m dw, to a relative 1e-116; and cond(G), which sets
# the double-precision accuracy of the smallest one, eps cond(G) / 2
HYDROGEN_HUGE_COUPLING_ROOTS = {
    1e120: (-4.833501673419581e+119, -1.5324333821711576e+118, -1.9319812917246637e+116),
}
HYDROGEN_NORM_GRAM_COND = 6259186.806308787
