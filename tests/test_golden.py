"""Golden CLI outputs: every printed digit of a fixed set of commands.

The files under tests/golden/ were written by tests/golden/regenerate.py;
each case reruns its command into tmp_path and compares the bytes of every
output file and of its stdout (stdout.txt).
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import friedrichs
from golden import regenerate
from golden.regenerate import CASES, GOLDEN, STDOUT, main, moved, run


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, tmp_path):
    names = run(case, tmp_path)
    assert STDOUT in names
    assert names == sorted(p.name for p in (GOLDEN / case).iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


def test_tabulated_golden_in_fresh_process(tmp_path):
    # a fresh process, which imports no scipy module, writes the same bytes
    src = str(Path(friedrichs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "friedrichs", *CASES["analyze-tabulated"],
                           "--out", str(tmp_path)],
                          cwd=GOLDEN, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    name = "analyze_report.txt"
    assert (tmp_path / name).read_bytes() == (GOLDEN / "analyze-tabulated" / name).read_bytes()


def test_diff_lists_moved_numbers(monkeypatch, capsys):
    # regenerate.py --diff: one line per moved number, one per line that
    # changes in more than its numbers
    old = "# model 0123\nE,kappa_1\n1.0e-01,-2.50e-01\n"
    new = "# model 0123\nE,kappa_1\n1.0e-01,-2.51e-01\nstate\n"
    assert moved(old, old) == []
    assert moved(old, new) == ["line 3, number 2: -2.50e-01 -> -2.51e-01 (rel -4.0e-03)",
                               "line 4: None -> 'state'"]

    # and exits 1 when a number moved, 0 when none did
    case, name = "thresholds-three-level", "thresholds_report.txt"
    stored = (GOLDEN / case / name).read_text()
    monkeypatch.setattr(regenerate, "CASES", {case: CASES[case]})
    for text, code, last in ((stored, 0, "0 change(s)"),
                             (stored.replace("n_plus: 2", "n_plus: 3"), 1, "1 change(s)")):
        def fake_run(_, out, text=text):
            out.mkdir(parents=True, exist_ok=True)
            (out / name).write_text(text)
            (out / STDOUT).write_text((GOLDEN / case / STDOUT).read_text())
            return [STDOUT, name]
        monkeypatch.setattr(regenerate, "run", fake_run)
        assert main(["--diff"]) == code
        assert capsys.readouterr().out.splitlines()[-1] == last


@pytest.mark.parametrize("argv", [["--bogus"], ["--dif"], ["--help"], ["--diff", "extra"]])
def test_regenerate_rejects_unknown_arguments(argv):
    # --diff is the only option: anything else exits 2 before any case runs,
    # so no golden file is rewritten
    before = {p: p.read_bytes() for p in GOLDEN.rglob("*") if p.is_file()}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert {p: p.read_bytes() for p in GOLDEN.rglob("*") if p.is_file()} == before


def test_run_fails_on_a_runtime_warning(monkeypatch, tmp_path):
    # a case that warns fails --diff and regeneration as it fails the suite,
    # whatever the caller's warning filters
    import friedrichs.cli

    def warn(argv):
        warnings.warn("overflow encountered in divide", RuntimeWarning)
        return 0
    monkeypatch.setattr(friedrichs.cli, "main", warn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeWarning):
            run("thresholds-three-level", tmp_path)
