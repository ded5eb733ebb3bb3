"""Command-line front end.

Five subcommands cover the analysis workflows:

  analyze        count and solve all bound states, write a text report
  sweep-lambda   bound-state count and threshold eigencurves along a
                 log-spaced coupling sweep (CSV)
  kappa-curves   eigencurves on an energy grid (CSV), with a sidecar file of
                 diagonal intersections
  thresholds     the no-embedded-eigenvalue certificate (text report)
  oracle-check   discretized-Hamiltonian convergence study (CSV)

Every command takes --preset NAME or --model FILE, writes into --out, and
accepts --lambda to override the coupling.  One driver serves all five: it
loads the model and builds the '#'-prefixed metadata (model hash, the fixed
quadrature tolerances) once, runs the command, which returns its files and
its stdout summary, and only then creates --out, writes every file and
prints the summary.  So a command that fails writes nothing.  Exit codes: 0
success, 2 configuration problem (an unwritable --out included), 3
numerical failure.  Output files are byte-identical across reruns of the
same command.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .model import ConfigError, FriedrichsModel, load_model, make_preset, model_digest
from .quad import _ABS_TOL, _REL_TOL, NumericalError, gram_matrix
from .solver import CountResult, _positive_candidates, _solve, _unit, solve_model
from .spectral import _eigencurves, eigh, k_matrix, kappa_curve
from .oracle import compare_negative_spectrum
from .thresholds import certificate

_FMT = "{:.12e}"


def _add_common(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="built-in model name")
    src.add_argument("--model", help="path to a JSON model file")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--lambda", dest="coupling", type=float, default=None,
                   help="override the coupling constant")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about a millisecond per call."""
    ap = argparse.ArgumentParser(prog="friedrichs",
                                 description="bound states and embedded-eigenvalue "
                                             "thresholds of N-level Friedrichs models")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="solve all bound states")
    _add_common(p)

    p = sub.add_parser("sweep-lambda", help="bound-state count along a coupling sweep")
    _add_common(p)
    p.add_argument("--lambda-min", type=float, default=0.1)
    p.add_argument("--lambda-max", type=float, default=10.0)
    p.add_argument("--lambda-steps", type=int, default=60)

    p = sub.add_parser("kappa-curves", help="eigencurves on an energy grid")
    _add_common(p)
    p.add_argument("--e-min", type=float, default=-1.0)
    p.add_argument("--e-max", type=float, default=-1e-6)
    p.add_argument("--e-steps", type=int, default=200)
    p.add_argument("--kind", choices=["auto", "S", "D"], default="auto")

    p = sub.add_parser("thresholds", help="no-embedded-eigenvalue certificate")
    _add_common(p)

    p = sub.add_parser("oracle-check", help="discretized-Hamiltonian convergence study")
    _add_common(p)
    p.add_argument("--grid", default="500,1000,2000,4000",
                   help="comma-separated grid sizes")
    return ap


def _load(args) -> FriedrichsModel:
    if args.preset:
        model = make_preset(args.preset)
    else:
        model = load_model(args.model)
    if args.coupling is not None:
        model = model.with_coupling(args.coupling)
    return model


def _metadata(args, model) -> list:
    src = f"preset: {args.preset}" if args.preset else f"model-file: {args.model}"
    return [
        f"friedrichs {__version__}",
        src,
        f"model-hash: {model_digest(model)}",
        f"coupling: {_FMT.format(model.coupling)}",
        f"rel-tol: {_REL_TOL:g} abs-tol: {_ABS_TOL:g}",
    ]


def _report(schema, metadata) -> list:
    """The head of a text report: its schema line, then the metadata."""
    return [f"schema: friedrichs-{schema}-v1"] + [f"# {m}" for m in metadata]


def _csv(header, metadata, rows) -> list:
    lines = [",".join(header)]
    lines += [f"# {m}" for m in metadata]
    lines += [",".join(r) for r in rows]
    return lines


# Each command takes (args, model, metadata) and returns ({file name: lines},
# stdout lines); _run writes them once the command has returned.

def cmd_analyze(args, model, metadata):
    report = solve_model(model)
    lines = _report("analyze", metadata)
    lines.append(f"levels: {' '.join(_FMT.format(w) for w in model.levels)}")
    lines.append(f"count: {report.count}")
    lines.append("kappa_at_zero: "
                 + " ".join(_FMT.format(k) for k in report.kappa_at_zero))
    lines.append(f"indeterminate_branches: {list(report.indeterminate) or 'none'}")
    for st in report.states:
        lines.append(f"state branch={st.branch_index} "
                     f"energy={_FMT.format(st.energy)} "
                     f"continuum_norm_sq={_FMT.format(st.continuum_norm_sq)} "
                     f"total_norm_sq={_FMT.format(st.total_norm_sq)}")
        amp = " ".join(f"{c.real:.9e}{c.imag:+.9e}j" for c in st.c)
        lines.append(f"  amplitudes: {amp}")
        lines.append(f"  bracket: [{_FMT.format(st.bracket[0])}, "
                     f"{_FMT.format(st.bracket[1])}]")
    summary = [f"count: {report.count}"]
    for st in report.states:
        summary.append(f"  branch {st.branch_index}: E = {st.energy:.12e}")
    return {"analyze_report.txt": lines}, summary


def cmd_sweep_lambda(args, model, metadata):
    if not (0 < args.lambda_min <= args.lambda_max < np.inf):
        raise ConfigError("need 0 < --lambda-min <= --lambda-max, both finite")
    if args.lambda_steps < 1:
        raise ConfigError("--lambda-steps must be >= 1")
    # 10^log10(--lambda-max) may overflow; geomspace then sets the ends
    with np.errstate(over="ignore"):
        lams = (np.geomspace(args.lambda_min, args.lambda_max, args.lambda_steps).tolist()
                if args.lambda_steps > 1 else [args.lambda_min])
    # kappa(0) depends on lambda only through the prefactor of S(0), so one
    # Gram matrix, scaled by each lambda^2 into one stack of K(0) and
    # diagonalized in one call, serves the whole sweep.  The sweep ascends:
    # the couplings whose square overflows, which the model rejects, come
    # last, after every K(0) that could overflow before them
    s0 = gram_matrix(model, 0.0)
    finite = [lam for lam in lams if math.isfinite(lam * lam)]
    kappa = eigh(k_matrix(model, s0, lam2=[lam ** 2 for lam in finite]), 0.0).kappa
    if len(finite) < len(lams):
        model.with_coupling(lams[len(finite)])  # raises the ConfigError
    top, n, unit = model.levels[-1], model.n_levels, _unit(model)
    rows = []
    for lam, kap in zip(lams, kappa):
        row = [_FMT.format(lam), str(CountResult.from_kappa(kap, unit).count)]
        row += [_FMT.format(top - k) for k in kap]
        rows.append(row)
    header = ["lambda", "count"] + [f"top_minus_kappa_{i}" for i in range(1, n + 1)]
    return ({"sweep_lambda.csv": _csv(header, metadata, rows)},
            [f"wrote {Path(args.out) / 'sweep_lambda.csv'} ({len(rows)} rows)"])


def cmd_kappa_curves(args, model, metadata):
    if args.e_steps < 2 or not -np.inf < args.e_min < args.e_max < np.inf:
        raise ConfigError("need finite --e-min < --e-max and --e-steps >= 2")
    # a span past the largest double makes the steps inf or NaN; just below
    # it only the last point's product overflows, which linspace sets to
    # --e-max
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(args.e_min, args.e_max, args.e_steps)
    if not np.isfinite(grid).all():
        raise ConfigError("the span from --e-min to --e-max overflows a double")
    if args.kind == "S" and grid[-1] > 0 or args.kind == "D" and grid[0] < 0:
        side = "nonpositive" if args.kind == "S" else "nonnegative"
        raise ConfigError(f"kind '{args.kind}' needs a {side} energy grid")
    points = kappa_curve(model, grid)
    # the bound-state and crossing searches go on from the rows' points in
    # one eigencurve family, so each K(E) is built and diagonalized once
    curves = _eigencurves(model, points)
    n, top = model.n_levels, model.levels[-1]
    header = (["E"] + [f"kappa_{i}" for i in range(1, n + 1)]
              + [f"top_minus_kappa_{i}" for i in range(1, n + 1)] + ["top_minus_E"])
    rows = [[_FMT.format(x) for x in (p.e, *p.kappa, *(top - p.kappa), top - p.e)]
            for p in points]
    files = {"kappa_curves.csv": _csv(header, metadata, rows)}

    # sidecar: diagonal intersections, bound states on the negative side and
    # embedded candidates with their defects on the positive side
    rows = []
    if grid[0] < 0.0:
        report = _solve(model, curves)
        for st in report.states:
            rows.append([str(st.branch_index), _FMT.format(st.energy), "bound", ""])
    pos = grid[grid > 0.0]
    if pos.size >= 2:
        for cand in _positive_candidates(model, curves, pos):
            rows.append([str(cand.branch_index), _FMT.format(cand.energy),
                         "candidate", _FMT.format(cand.zero_defect)])
    header = ["branch", "energy", "kind", "zero_defect"]
    files["kappa_curves_intersections.csv"] = _csv(header, metadata, rows)
    return files, [f"wrote {Path(args.out) / 'kappa_curves.csv'} and intersections "
                   f"({len(rows)} found)"]


def cmd_thresholds(args, model, metadata):
    rep = certificate(model)
    lines = _report("thresholds", metadata)
    lines.append(f"sup_d_norm: {_FMT.format(rep.sup_d_norm)}")
    lines.append(f"sup_d_argmax: {_FMT.format(rep.sup_d_argmax)}")
    lines.append(f"r_a: {_FMT.format(rep.r_a)}")
    lines.append(f"r_b: {_FMT.format(rep.r_b)}")
    lines.append(f"lambda_a: {_FMT.format(rep.lambda_a)}")
    lines.append(f"lambda_b: {_FMT.format(rep.lambda_b)}")
    lines.append(f"n_plus: {rep.n_plus}")
    for lt in rep.level_thresholds:
        lines.append(f"level {lt.n}: lambda_n={_FMT.format(lt.lambda_n)} "
                     f"alpha={_FMT.format(lt.alpha)} beta={_FMT.format(lt.beta)} "
                     f"gamma={_FMT.format(lt.gamma)} "
                     f"lambda_bar={_FMT.format(lt.lambda_bar)}")
    lines.append(f"bound: {_FMT.format(rep.bound)}")
    lines.append(f"bound_without_b: {_FMT.format(rep.bound_without_b)}")
    lines.append(f"binding: {rep.binding}")
    lines.append(f"coupling: {_FMT.format(rep.coupling)}")
    lines.append(f"verdict: {rep.verdict}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    return {"thresholds_report.txt": lines}, [
        f"verdict: {rep.verdict} (bound {rep.bound:.6e}, "
        f"coupling {abs(rep.coupling):.6e}, {rep.binding})"]


def cmd_oracle_check(args, model, metadata):
    try:
        schedule = [int(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --grid list: {exc}") from exc
    if not schedule or min(schedule) < 10:
        raise ConfigError("--grid must name at least one size, each >= 10")
    table = compare_negative_spectrum(model, schedule)
    k = len(table.solver_energies)
    header = (["m", "count"] + [f"e_{i}" for i in range(1, k + 1)]
              + [f"delta_{i}" for i in range(1, k + 1)])
    meta = list(metadata)
    meta.append("solver-energies: "
                + " ".join(_FMT.format(e) for e in table.solver_energies))
    meta.append(f"solver-count: {table.solver_count}")
    meta.append(f"non-cauchy: {table.non_cauchy}")
    rows = []
    for r in table.rows:
        row = [str(r.m), str(r.count)]
        es = list(r.energies[:k]) + [float("nan")] * max(0, k - len(r.energies))
        row += [_FMT.format(e) for e in es]
        ds = list(r.deltas) + [float("nan")] * max(0, k - len(r.deltas))
        row += [_FMT.format(d) for d in ds]
        rows.append(row)
    return {"oracle_check.csv": _csv(header, meta, rows)}, [
        f"wrote {Path(args.out) / 'oracle_check.csv'}; solver count "
        f"{table.solver_count}, non-cauchy {table.non_cauchy}"]


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep-lambda": cmd_sweep_lambda,
    "kappa-curves": cmd_kappa_curves,
    "thresholds": cmd_thresholds,
    "oracle-check": cmd_oracle_check,
}


def _run(args):
    """Load the model, run the command, then create --out, write every file
    the command returned and print its summary."""
    model = _load(args)
    files, summary = _COMMANDS[args.command](args, model, _metadata(args, model))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    for name, lines in files.items():
        try:
            (out / name).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {out / name}: {exc}") from exc
    sys.stdout.write("\n".join(summary) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
