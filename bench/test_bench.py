"""Self-tests of the benchmark: seeded inputs and the correctness gate.

    python3 -m pytest bench
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _model_bytes(workload, seed, directory):
    paths = workloads.write_models(workloads.build(workload, seed)["models"], directory)
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("workload", ["bound-states", "tabulated"])
def test_seed_regenerates_identical_model_files(tmp_path, workload):
    first = _model_bytes(workload, 7, tmp_path / "a")
    again = _model_bytes(workload, 7, tmp_path / "b")
    other = _model_bytes(workload, 8, tmp_path / "c")
    assert first and first == again
    assert first != other
    assert workloads.build(workload, 7)["tasks"] == workloads.build(workload, 7)["tasks"]


@pytest.fixture(scope="module")
def refs():
    return gate.load_references(ROOT)


@pytest.fixture(scope="module")
def three_level_outputs(tmp_path_factory):
    """analyze + sweep-lambda outputs of the three-level preset at 0.7."""
    out = tmp_path_factory.mktemp("three-level")
    task = next(t for t in workloads.build("bound-states", 1)["tasks"]
                if t["name"] == "three-level-0.7")
    for call in task["calls"]:
        subprocess.run([sys.executable, "-m", "friedrichs", *call, "--out", str(out)],
                       check=True, capture_output=True, cwd=ROOT,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return task, out


def _edit(outdir, name, old, new):
    path = outdir / name
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_gate_passes_true_outputs(three_level_outputs, refs):
    task, out = three_level_outputs
    assert gate.check(task, out, refs) == []


def test_gate_fails_a_root_perturbed_by_1e_6(three_level_outputs, refs, tmp_path):
    task, out = three_level_outputs
    count, states = gate.parse_analyze((out / "analyze_report.txt").read_text())
    energy = f"{states[0][1]:.12e}"
    moved = f"{states[0][1] + 1e-6:.12e}"
    copy = tmp_path / "moved"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    _edit(copy, "analyze_report.txt", f"energy={energy}", f"energy={moved}")
    problems = gate.check(task, copy, refs)
    assert any("reference" in p for p in problems), problems


@pytest.mark.parametrize("name,old,new", [
    ("analyze_report.txt", "count: 2", "count: 3"),
    ("sweep_lambda.csv", "e-01,2,", "e-01,1,"),
])
def test_gate_fails_a_count_off_by_one(three_level_outputs, refs, tmp_path, name, old, new):
    task, out = three_level_outputs
    copy = tmp_path / "count"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    _edit(copy, name, old, new)
    assert gate.check(task, copy, refs)


def test_gate_reports_missing_output(refs, tmp_path):
    task = workloads.build("oracle", 1)["tasks"][0]
    problems = gate.check(task, tmp_path, refs)
    assert problems and problems[0].startswith("unreadable output")
