#!/usr/bin/env python3
"""Benchmark of the friedrichs command line, run in-process on seeded inputs.

    python3 bench/run.py --workload bound-states --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and nothing else.  Load model: a closed loop with
one client, tasks back to back in one process, BLAS/OpenMP threads capped at
the number of usable cores.  Each workload's task cycle repeats whole until
``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each cycle
once untraced and once traced and reports the per-layer metrics (see
``tracer.py``) and the tracing overhead.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and the known defect probed by the
``tabulated`` workload are described in ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "task_p50_s": "s", "tasks_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable cores; must run before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import friedrichs.cli from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "friedrichs" / "cli.py").is_file():
        sys.exit(f"bench: no friedrichs sources under {src}")
    if not (ROOT / "tests" / "_references.py").is_file():
        sys.exit(f"bench: no frozen references at {ROOT / 'tests' / '_references.py'}")
    sys.path.insert(0, str(src))
    import friedrichs.cli as cli

    if Path(cli.__file__).resolve().parent != src / "friedrichs":
        sys.exit(f"bench: imported friedrichs from {cli.__file__}, not from {src}")
    return cli


def commit_id() -> str:
    """HEAD of the checkout if it carries git metadata, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(nproc, args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "friedrichs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": commit_id(), "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(args):
    """Child side of a set-up measurement: import the program, write the
    workload's model files, report the monotonic clock and exit."""
    pin_threads()
    import_program()
    workloads.write_models(workloads.build(args.workload, args.seed)["models"],
                           args.setup_probe)
    print(repr(time.monotonic()))


def measure_setup(args, directory):
    """Time from spawning a fresh process to its first task being ready
    (program imported, model files written), SETUP_REPEATS times.

    Not rescaled: the kernel in this process would share the two cores with
    the child's import and measure contention rather than speed.
    """
    times = []
    for i in range(SETUP_REPEATS):
        target = directory / f"setup-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe", str(target)]
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            sys.exit(f"bench: set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - t0)
        shutil.rmtree(target)
    return times


# ---------------------------------------------------------------------------
# Running tasks


def run_call(cli, argv):
    """One CLI call in-process; returns None on exit 0, else the reason."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback escaping the CLI is a failed task
        return "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    if rc == 0:
        return None
    return f"exit {rc}: {err.getvalue().strip()[:300]}"


def resolve(call, models_dir, outdir):
    argv = list(call)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--model":
            argv[i + 1] = str(models_dir / f"{argv[i + 1]}.json")
    return argv + ["--out", str(outdir)]


class Runner:
    """Runs tasks into numbered output directories and keeps their records."""

    def __init__(self, cli, models_dir, out_root, speed):
        self.cli = cli
        self.models_dir = models_dir
        self.out_root = out_root
        self.speed = speed
        self.records = []

    def run(self, task, tracer=None):
        outdir = self.out_root / f"{len(self.records):05d}-{task['name']}"
        outdir.mkdir(parents=True)
        argvs = [resolve(c, self.models_dir, outdir) for c in task["calls"]]
        if tracer is not None:
            tracer.task = len(self.records)
        t0 = time.perf_counter()
        for argv in argvs:
            error = run_call(self.cli, argv)
            if error:
                break
        t1 = time.perf_counter()
        record = {"task": task, "span": (t0, t1), "error": error,
                  "outdir": outdir, "traced": tracer is not None}
        self.records.append(record)
        return record

    def rescale(self):
        """Raw and rescaled task times, once the kernel runs after the last
        task are in."""
        for r in self.records:
            r["seconds"], r["scaled"] = self.speed.seconds(*r["span"])


def gate_records(records, refs):
    import gate

    for r in records:
        r["problems"] = [r["error"]] if r["error"] else gate.check(r["task"], r["outdir"], refs)


def bytes_written(records):
    return sum(p.stat().st_size for r in records for p in r["outdir"].iterdir())


def tail(times):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten samples above it, or None with fewer than eleven samples."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# Modes


def run_workload(args, nproc):
    cli = import_program()
    import gate
    import tracer as tracing
    from speed import SpeedProbe

    refs = gate.load_references(ROOT)
    env = environment(nproc, args)
    print("env: " + json.dumps(env, sort_keys=True))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setup = measure_setup(args, work) if args.trace == 0 else None
        speed = SpeedProbe()
        spec = workloads.build(args.workload, args.seed)
        models_dir = work / "models"
        workloads.write_models(spec["models"], models_dir)
        runner = Runner(cli, models_dir, work / "out", speed)
        probe_runner = Runner(cli, models_dir, work / "probes", speed)
        for call in spec["warmup"]:
            error = run_call(cli, resolve(call, models_dir, work / "warmup"))
            if error:
                print(f"warning: warm-up call {call} failed: {error}")
        probes = [probe_runner.run(t) for t in spec["probes"]]

        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        with speed:
            while True:
                for t in spec["tasks"]:
                    runner.run(t)
                if tracer is not None:
                    tracer.install()
                    try:
                        for t in spec["tasks"]:
                            runner.run(t, tracer)
                    finally:
                        tracer.uninstall()
                if time.perf_counter() - start >= args.seconds:
                    break
        wall = time.perf_counter() - start
        runner.rescale()

        gate_records(runner.records, refs)
        gate_records(probes, refs)
        records = runner.records
        failed = [r for r in records if r["problems"]]
        for r in failed:
            print(f"FAILED {r['task']['name']}: {'; '.join(r['problems'])}")
        report_probes(probes)
        n_bad = len(failed) + sum(1 for p in probes if p["problems"])
        print(f"fail_frac: {n_bad / (len(records) + len(probes)):.4g} "
              f"({n_bad} of {len(records) + len(probes)}, known-defect probes included)")
        correct = not failed and not any(p["problems"] and not p["error"] for p in probes)

        if tracer is None:
            metrics = end_to_end(records, setup, wall)
            units = END_TO_END_UNITS
        else:
            traced_records = [r for r in records if r["traced"]]
            overhead = (sum(r["scaled"] for r in traced_records)
                        / sum(r["scaled"] for r in records if not r["traced"]) - 1.0)
            metrics = tracing.layer_metrics(tracer, len(traced_records),
                                            bytes_written(traced_records), overhead)
            units = tracing.UNITS
            path = WORK / f"trace-{args.workload}-{args.seed}.json"
            tracer.dump(path)
            print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        print(f"tasks: {len(records)} in {wall:.2f} s ({len(spec['tasks'])} per cycle)")
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
        result = {"correct": correct, "attempted": len(records),
                  "failed": len(failed),
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def end_to_end(records, setup, wall):
    """The end-to-end metrics, on rescaled times; raw figures are printed."""
    ok = [r for r in records if not r["problems"]]
    population = ok or records
    raw_p50 = statistics.median(r["seconds"] for r in population)
    print(f"set-up samples: {' '.join(f'{t:.4f}' for t in setup)} s")
    print(f"raw: task_p50_s {raw_p50:.4f} s, tasks_per_s {len(ok) / wall:.4f} 1/s")
    t = tail([r["scaled"] for r in ok])
    print("task_tail_s: " + (f"{t[0]:.6g} s (p{t[1]:.1f} of {t[2]} tasks, 10 above)"
                             if t else "(fewer than 11 tasks: no percentile qualifies)"))
    return {"setup_s": statistics.median(setup),
            "task_p50_s": statistics.median(r["scaled"] for r in population),
            "tasks_per_s": len(ok) / sum(r["scaled"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}


def report_probes(probes):
    for p in probes:
        if p["error"]:
            status = f"failed as recorded ({p['error'][:120]})"
        elif p["problems"]:
            status = "exit 0 but wrong output: " + "; ".join(p["problems"])
        else:
            status = "passed: the recorded defect is gone"
        print(f"known-defect probe {p['task']['name']}: {status}")


def run_all(args):
    """Every workload in its own process, then one table of the results."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} failed: {done.stderr.strip()}")
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:>13}" for w in results) + "  unit")
    for n in names:
        cells = "  ".join(f"{r['metrics'][n]['value']:>13.6g}" for r in results.values())
        print(f"{n:<{width}}  {cells}  {results[workloads.WORKLOADS[0]]['metrics'][n]['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args, pin_threads())


if __name__ == "__main__":
    main()
