"""The benchmark's tracer (bench/tracer.py) around real CLI calls.

``bench/run.py --trace 1`` wraps the package's functions and methods from
outside: it looks methods up with ``vars(cls)[name]`` and calls ``len`` on
what ``kappa_curve`` returns.  A refactor that breaks either breaks the
traced benchmark; these calls catch it in the test suite.
"""

import importlib.util
from pathlib import Path

import friedrichs.cli
import friedrichs.solver

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_traced_commands_report_every_layer_metric(tmp_path):
    preset = ["--preset", "three-level-fig", "--out", str(tmp_path)]
    commands = [
        ["analyze", *preset, "--lambda", "0.7"],
        ["kappa-curves", *preset, "--kind", "D", "--e-min=1e-3", "--e-max=1",
         "--e-steps", "20"],
        ["thresholds", *preset],
        ["oracle-check", *preset, "--lambda", "0.7", "--grid", "100,200"],
    ]
    solve = friedrichs.solver.solve_model
    t = tracer.Tracer()
    t.install()
    try:
        assert friedrichs.solver.solve_model is not solve
        for task, argv in enumerate(commands):
            t.task = task
            assert friedrichs.cli.main(argv) == 0
    finally:
        t.uninstall()
    assert friedrichs.solver.solve_model is solve
    metrics = tracer.layer_metrics(t, len(commands), 0, 0.0)
    assert list(metrics) == list(tracer.UNITS)
    for name in ("quad.gram_calls", "quad.pv_calls", "spectral.kappa_points",
                 "thresholds.self_s", "oracle.eig_s",
                 "oracle.max_dim", "cli.self_s"):
        assert metrics[name] > 0, name
