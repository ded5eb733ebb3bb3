"""Regenerate the golden CLI outputs in this directory.

Each case is one CLI command; its output files are stored under
tests/golden/<case>/, next to the command's stdout in stdout.txt (with the
output directory written as <out>), and compared byte for byte by
tests/test_golden.py.  A RuntimeWarning fails a case, as it fails the test
suite.
A change that moves a printed digit reruns this script and lists every moved
digit in CHANGES.md.  Run from the repository root:

    python3 tests/golden/regenerate.py          # rewrite every case
    python3 tests/golden/regenerate.py --diff   # list moved numbers only

Any other argument (--help included) exits 2 without writing.

--diff reruns every case into a temporary directory and prints each number
that differs from the stored file as old -> new with its relative change;
it writes nothing here, and exits 1 when anything moved, 0 otherwise.

The commands run with this directory as the working directory, so the
tabulated model is named by the relative path that its metadata records.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import sys
import tempfile
import warnings
from itertools import zip_longest
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
STDOUT = "stdout.txt"

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
    "oracle-tabulated": ["oracle-check", *_TABULATED],
    "thresholds-tabulated": ["thresholds", *_TABULATED],
}


def run(case: str, out: Path) -> list:
    """Run one case into the directory out, with its stdout in out/stdout.txt;
    returns the names of the files written, sorted.  Raises RuntimeError on a
    nonzero exit code, and RuntimeWarning on a warning."""
    from friedrichs.cli import main

    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([*CASES[case], "--out", str(out)])
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"golden case {case} exited {rc}")
    (out / STDOUT).write_text(stdout.getvalue().replace(str(out), "<out>"))
    return sorted(p.name for p in out.iterdir())


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def moved(old: str, new: str) -> list:
    """The changes from the text old to new, one string per moved number
    ("line 3, number 2: 1.0e-01 -> 1.5e-01 (rel +5.0e-01)", counting the
    numbers of the line from 1), or per changed line where
    the two lines differ in more than their numbers."""
    out = []
    lines = zip_longest(old.splitlines(), new.splitlines(), fillvalue=None)
    for i, (a, b) in enumerate(lines, 1):
        if a == b:
            continue
        if a is None or b is None or _NUMBER.split(a) != _NUMBER.split(b):
            out.append(f"line {i}: {a!r} -> {b!r}")
            continue
        for k, (x, y) in enumerate(zip(_NUMBER.findall(a), _NUMBER.findall(b)), 1):
            if x != y:
                rel = (float(y) - float(x)) / abs(float(x)) if float(x) else float("inf")
                out.append(f"line {i}, number {k}: {x} -> {y} (rel {rel:+.1e})")
    return out


def diff() -> int:
    """Rerun every case into a temporary directory and print what moved
    against the stored files; returns the number of changes."""
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out = Path(tmp) / case
            names = set(run(case, out))
            for name in sorted(names | {p.name for p in (GOLDEN / case).iterdir()}):
                old, new = (d / name for d in (GOLDEN / case, out))
                changes = moved(old.read_text() if old.exists() else "",
                                new.read_text() if name in names else "")
                count += len(changes)
                for change in changes:
                    print(f"{case}/{name} {change}")
    print(f"{count} change(s)")
    return count


def main(argv=()) -> int:
    """Rewrite every case and return 0, or with --diff only list what moved
    and return 1 if anything did, else 0; any other argument exits 2
    (argparse) and writes nothing."""
    ap = argparse.ArgumentParser(description="regenerate the golden CLI outputs",
                                 add_help=False, allow_abbrev=False)
    ap.add_argument("--diff", action="store_true",
                    help="list moved numbers against the stored files, write nothing")
    if ap.parse_args(argv).diff:
        return 1 if diff() else 0
    for case in CASES:
        out = GOLDEN / case
        shutil.rmtree(out, ignore_errors=True)
        names = run(case, out)
        print(f"{case}: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
