"""Regenerate the golden CLI outputs in this directory.

Each case is one CLI command; its output files are stored under
tests/golden/<case>/ and compared byte for byte by tests/test_golden.py.
A change that moves a printed digit reruns this script and lists every moved
digit in CHANGES.md.  Run from the repository root:

    python3 tests/golden/regenerate.py

The commands run with this directory as the working directory, so the
tabulated model is named by the relative path that its metadata records.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

_THREE = ["--preset", "three-level-fig"]
_HYDROGEN = ["--preset", "hydrogen-4level"]
_TABULATED = ["--model", "tabulated.json"]

CASES = {
    "analyze-three-level-0.7": ["analyze", *_THREE, "--lambda", "0.7"],
    "analyze-three-level-10": ["analyze", *_THREE, "--lambda", "10"],
    "analyze-hydrogen-0.3": ["analyze", *_HYDROGEN, "--lambda", "0.3"],
    "sweep-lambda-three-level": ["sweep-lambda", *_THREE],
    "kappa-three-level-S": ["kappa-curves", *_THREE, "--lambda", "0.7",
                            "--e-min=-1.0", "--e-max=-1e-6", "--e-steps", "40"],
    "kappa-three-level-D": ["kappa-curves", *_THREE, "--lambda", "0.7",
                            "--kind", "D", "--e-min=1e-3", "--e-max=1",
                            "--e-steps", "20"],
    "kappa-hydrogen-D": ["kappa-curves", *_HYDROGEN, "--kind", "D",
                         "--e-min=1e-4", "--e-max=0.5", "--e-steps", "50"],
    "oracle-three-level-0.7": ["oracle-check", *_THREE, "--lambda", "0.7"],
    "oracle-three-level-10": ["oracle-check", *_THREE, "--lambda", "10"],
    "thresholds-three-level": ["thresholds", *_THREE],
    "thresholds-hydrogen": ["thresholds", *_HYDROGEN],
    "analyze-tabulated": ["analyze", *_TABULATED],
    "kappa-tabulated-D": ["kappa-curves", *_TABULATED, "--kind", "D",
                          "--e-min=1e-3", "--e-max=0.4", "--e-steps", "12"],
}


def run(case: str, out: Path) -> list:
    """Run one case into the directory out; returns the names of the files
    written, sorted.  Raises RuntimeError on a nonzero exit code."""
    from friedrichs.cli import main

    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*CASES[case], "--out", str(out)])
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"golden case {case} exited {rc}")
    return sorted(p.name for p in out.iterdir())


def main():
    for case in CASES:
        out = GOLDEN / case
        shutil.rmtree(out, ignore_errors=True)
        names = run(case, out)
        print(f"{case}: {', '.join(names)}")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    main()
