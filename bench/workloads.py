"""Seeded inputs and task lists for the four benchmark workloads.

Everything here is pure Python (``random.Random`` and ``json``), so a seed
gives byte-identical model files and argument lists on any platform and with
any numpy version.  The program under test only ever sees the model files and
the command-line arguments built here.

A task is one unit of user work on one model: the list of CLI calls a user
would make for it, plus what the correctness gate (``gate.py``) expects of
the files those calls write.  Tasks run back to back in whole cycles, so the
mix of task kinds in a run never depends on where the clock stopped.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Hydrogen-preset level positions in internal units, as the preset defines
# them; the candidate check of the certificate workload needs them.
HYDROGEN_OMEGA = 1.55e16 / 8.498e18
HYDROGEN_LEVELS = tuple(HYDROGEN_OMEGA * r for r in (1.0, 32.0 / 27.0, 5.0 / 4.0))
HYDROGEN_COUPLING_SQ = 6.435e-9

# Prefactors and polynomials of the hydrogen family (ascending coefficients
# in s = u^2), repeated from the model definition so that the generator can
# bound Gram matrices without importing the program.
_HYDROGEN_PREFACTOR = (1.0, 81.0 / (128.0 * math.sqrt(2.0)),
                       54.0 * math.sqrt(3.0) / 15625.0)
_HYDROGEN_POLY = ((1.0,), (1.0, 2.0), (45.0, 146.0, 125.0))

# integral of (1 + u^2)^-4 over the half line
_FOURTH_POWER_INTEGRAL = 5.0 * math.pi / 32.0

THREE_LEVEL_COUPLINGS = (0.1, 0.7, 10.0)


def _fmt(x: float) -> str:
    return repr(float(x))


def task(name, calls, check, **expect):
    """A task record: CLI argument lists (the runner turns the model name
    after --model into its file and appends --out) and what the gate's check
    of that kind expects."""
    return {"name": name, "calls": calls, "check": check, "expect": expect}


# ---------------------------------------------------------------------------
# Gram-matrix bounds used to fix bound-state counts by construction
#
# S(0) is positive semidefinite, so K(0) = diag(levels) - lambda^2 S(0) has at
# least as many negative eigenvalues as there are negative levels; by Weyl's
# inequality a level above lambda^2 tr S(0) keeps its eigenvalue positive.
# Placing k levels below zero and the rest above that bound therefore gives
# exactly k bound states, without running the program.


def _polynomial_factor_bound(amp: float, poly) -> float:
    """Upper bound on the integral of |v|^2 / w for the built-in families.

    |v|^2 / w = (amp^2 / c) Q(u^2)^2 / (1 + u^2)^(2q) and every built-in
    family has 2q - 2 deg Q = 4, so with M = sum |coefficients|,
    |Q(s)| <= M (1 + s)^deg Q and the integral is at most
    amp^2 M^2 * integral (1 + u^2)^-4 du.
    """
    m = sum(abs(c) for c in poly)
    return amp * amp * m * m * _FOURTH_POWER_INTEGRAL


def _rational_bound(n_index: int, a: float, cutoff: float) -> float:
    poly = (1.0 + a,) if n_index == 1 else (1.0,) + (0.0,) * (n_index - 2) + (a,)
    return _polynomial_factor_bound(math.sqrt(cutoff), poly)


def _hydrogen_bound(index: int, lambda1: float) -> float:
    amp = _HYDROGEN_PREFACTOR[index - 1] * math.sqrt(lambda1)
    return _polynomial_factor_bound(amp, _HYDROGEN_POLY[index - 1])


def _tabulated_bound(grid, values_re, values_im, tail_exponent, p_exponent) -> float:
    """Upper bound on the integral of |v|^2 / w for a tabulated factor.

    Between nodes the interpolant is linear in v, so |v|^2 stays below the
    larger end value; the power-law ends integrate in closed form.
    """
    msq = [re * re + im * im for re, im in zip(values_re, values_im)]
    total = msq[0] / (2.0 * p_exponent) + msq[-1] / (-2.0 * tail_exponent)
    for i in range(len(grid) - 1):
        total += max(msq[i], msq[i + 1]) * math.log(grid[i + 1] / grid[i])
    return total


def _jitter(rng, nominal, rel=0.05):
    """A seeded value within rel of its nominal one.

    Every model has fixed nominal parameters, and the seed only moves them
    slightly: runs with different seeds must cost nearly the same, since the
    benchmark's spread between seeds is its noise floor.
    """
    return nominal * rng.uniform(1.0 - rel, 1.0 + rel)


def _levels(rng, n_levels, n_negative, positive_floor):
    """n_negative levels spread over [-0.45, -0.05], the rest above the floor."""
    span = max(n_negative - 1, 1)
    negative = [_jitter(rng, -0.05 - 0.4 * (n_negative - 1 - j) / span)
                for j in range(n_negative)]
    positive = [positive_floor + _jitter(rng, 0.1 * (j + 1))
                for j in range(n_levels - n_negative)]
    return negative + positive


# ---------------------------------------------------------------------------
# Model files


def _seeded_built_in_model(rng, family, n_levels, n_negative, coupling):
    factors, bound = [], 0.0
    for i in range(n_levels):
        if family == "rational":
            n_index = 1 + i % 3
            a = _jitter(rng, 0.75)
            cutoff = _jitter(rng, 1.0)
            factors.append({"family": "rational", "n_index": n_index, "a": a,
                            "cutoff": cutoff})
            bound += _rational_bound(n_index, a, cutoff)
        else:
            index = 1 + i % 3
            lambda1 = _jitter(rng, 1.0)
            factors.append({"family": "hydrogen", "index": index,
                            "lambda1": lambda1})
            bound += _hydrogen_bound(index, lambda1)
    coupling = _jitter(rng, coupling)
    levels = _levels(rng, n_levels, n_negative, 1.5 * coupling * coupling * bound)
    return {"reference_cutoff": 1.0, "levels": levels, "lambda": coupling,
            "form_factors": factors}


def _tabulated_factor(rng, grid, width, twist):
    """Samples of amp sqrt(c) sqrt(u) / (1 + u^2) e^{i(t0 + t1 ln u)}, u = x/c,
    on the model's grid; the power-law ends continue the same shape."""
    c = _jitter(rng, width)
    amp = _jitter(rng, 0.8)
    t0 = _jitter(rng, twist[0])
    t1 = _jitter(rng, twist[1])
    re, im = [], []
    for g in grid:
        u = g / c
        mod = amp * math.sqrt(c) * math.sqrt(u) / (1.0 + u * u)
        phase = t0 + t1 * math.log(u)
        re.append(mod * math.cos(phase))
        im.append(mod * math.sin(phase))
    factor = {"family": "tabulated", "grid": grid, "values_re": re,
              "values_im": im, "tail_exponent": -1.5, "p_exponent": 0.5}
    return factor, _tabulated_bound(grid, re, im, -1.5, 0.5)


def _seeded_tabulated_model(rng, n_nodes, n_negative):
    # both factors share one geometric grid, so the quadrature sees n_nodes
    # kinks; their widths and phase twists differ
    c = _jitter(rng, 1.0)
    lo, hi = 0.02 * c, 8.0 * c
    grid = [lo * (hi / lo) ** (j / (n_nodes - 1)) for j in range(n_nodes)]
    factors, bound = [], 0.0
    for width, twist in ((1.0, (0.3, 0.7)), (0.75, (1.1, -0.4))):
        f, b = _tabulated_factor(rng, grid, width, twist)
        factors.append(f)
        bound += b
    coupling = _jitter(rng, 0.5)
    shift = coupling * coupling * bound
    levels = _levels(rng, 2, n_negative, 1.5 * shift)
    # an energy grid inside the sampled range (kinks near every energy) but
    # far enough above the levels and their shifts that no eigencurve
    # crosses the diagonal, so the candidate scan does no refinement
    e_min = max(3.0 * c, 2.0 * (max(levels) + shift) + 1.0)
    e_max = e_min + _jitter(rng, 0.75)
    model = {"reference_cutoff": 1.0, "levels": levels, "lambda": coupling,
             "form_factors": factors}
    return model, e_min, e_max


def write_models(models: dict, directory) -> list:
    """Write {name: model dict} as JSON files; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, model in models.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(model, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Workloads


def _bound_states(rng):
    models, tasks = {}, []
    for lam in THREE_LEVEL_COUPLINGS:
        preset = ["--preset", "three-level-fig"]
        tasks.append(task(
            f"three-level-{lam:g}",
            [["analyze", *preset, "--lambda", _fmt(lam)],
             ["sweep-lambda", *preset, "--lambda-min", _fmt(lam),
              "--lambda-max", _fmt(lam), "--lambda-steps", "1"]],
            "bound", coupling=lam, reference_roots=lam))
    # counts 1..N for N = 2..4 in both families, nominal couplings spread
    # geometrically over [0.25, 1.25]
    shapes = [(n, k) for n in (2, 3, 4) for k in range(1, n + 1)]
    for family in ("rational", "hydrogen"):
        for i, (n_levels, n_negative) in enumerate(shapes):
            coupling = 0.25 * 5.0 ** (i / (len(shapes) - 1))
            name = f"{family}-n{n_levels}-k{n_negative}"
            m = _seeded_built_in_model(rng, family, n_levels, n_negative, coupling)
            models[name] = m
            lam = m["lambda"]
            tasks.append(task(
                name,
                [["analyze", "--model", name],
                 ["sweep-lambda", "--model", name, "--lambda-min", _fmt(lam),
                  "--lambda-max", _fmt(lam), "--lambda-steps", "1"]],
                "bound", coupling=lam, count=n_negative, levels=m["levels"]))
    warmup = [["analyze", "--preset", "three-level-fig", "--lambda", "0.1"]]
    return {"models": models, "tasks": tasks, "warmup": warmup}


def _certificate(rng):
    preset = ["--preset", "hydrogen-4level"]
    tasks = [task("thresholds", [["thresholds", *preset]], "thresholds")]
    # physical coupling on a window around each positive level: one crossing,
    # refined by bisection on D(E); the half-width stays below half the
    # smallest level gap (1.2e-4), so no other branch crosses
    for n, level in enumerate(HYDROGEN_LEVELS, start=1):
        e_lo = level - _jitter(rng, 4e-5)
        e_hi = level + _jitter(rng, 4e-5)
        tasks.append(task(
            f"scan-level-{n}",
            [["kappa-curves", *preset, f"--e-min={_fmt(e_lo)}",
              f"--e-max={_fmt(e_hi)}", "--e-steps", "8"]],
            "hydrogen-scan", e_min=e_lo, e_max=e_hi, steps=8, branch=n))
    # unit coupling from E = 0.5, where the frozen D(0.5) pins kappa
    e_ref_hi = _jitter(rng, 3.0)
    tasks.append(task(
        "pv-reference",
        [["kappa-curves", *preset, "--lambda", "1.0", "--e-min=0.5",
          f"--e-max={_fmt(e_ref_hi)}", "--e-steps", "8"]],
        "hydrogen-pv", e_min=0.5, e_max=e_ref_hi, steps=8))
    warmup = [["kappa-curves", *preset, "--lambda", "1.0", "--e-min=0.5",
               "--e-max=1.0", "--e-steps", "2"]]
    return {"models": {}, "tasks": tasks, "warmup": warmup}


def _oracle(rng):
    tasks = [task(f"oracle-{lam:g}",
                  [["oracle-check", "--preset", "three-level-fig",
                    "--lambda", _fmt(lam)]],
                  "oracle", coupling=lam, reference_roots=lam)
             for lam in (0.7, 10.0)]
    warmup = [["oracle-check", "--preset", "three-level-fig", "--lambda", "0.7",
               "--grid", "500"]]
    return {"models": {}, "tasks": tasks, "warmup": warmup}


def _tabulated(rng):
    models, tasks, probes = {}, [], []
    # node counts fixed at both ends of the 40-120 range: the cost of the
    # complex path grows with the number of kinks, and only the shapes vary
    # with the seed
    for name, n_nodes, n_negative in (("tab-a", 40, 1), ("tab-b", 120, 2)):
        m, e_min, e_max = _seeded_tabulated_model(rng, n_nodes, n_negative)
        models[name] = m
        lam = m["lambda"]
        tasks.append(task(
            name,
            [["sweep-lambda", "--model", name, "--lambda-min", _fmt(lam),
              "--lambda-max", _fmt(lam), "--lambda-steps", "1"],
             ["kappa-curves", "--model", name, f"--e-min={_fmt(e_min)}",
              f"--e-max={_fmt(e_max)}", "--e-steps", "2"]],
            "tabulated", coupling=lam, count=n_negative, e_min=e_min,
            e_max=e_max, steps=2))
        # known defect: analyze exits 3 on tabulated models (see NOTES.md);
        # attempted once per model, never timed
        probes.append(task(f"{name}-analyze", [["analyze", "--model", name]],
                           "bound-probe", count=n_negative, levels=m["levels"]))
    # the probes run before the timed phase and warm the complex path
    return {"models": models, "tasks": tasks, "warmup": [], "probes": probes}


_GENERATORS = {"bound-states": _bound_states, "certificate": _certificate,
             "oracle": _oracle, "tabulated": _tabulated}
WORKLOADS = tuple(_GENERATORS)


def build(workload: str, seed: int) -> dict:
    """Models, the task cycle (in seeded order), untimed warm-up calls and
    known-defect probes of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    spec = _GENERATORS[workload](rng)
    rng.shuffle(spec["tasks"])
    spec.setdefault("probes", [])
    return spec
