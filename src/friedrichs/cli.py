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
accepts --lambda to override the coupling plus --rel-tol/--abs-tol for the
quadrature.  Exit codes: 0 success, 2 configuration problem, 3 numerical
failure.  Output files carry '#'-prefixed metadata (model hash, tolerances)
and are byte-identical across reruns of the same command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .model import ConfigError, FriedrichsModel, load_model, make_preset, model_digest
from .quad import NumericalError, QuadratureSettings, gram_matrix
from .solver import CountResult, positive_candidate_scan, solve_model
from .spectral import eigh, k_matrix, kappa_curve
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
    p.add_argument("--rel-tol", type=float, default=None,
                   help="quadrature relative tolerance")
    p.add_argument("--abs-tol", type=float, default=None,
                   help="quadrature absolute tolerance")


def build_parser() -> argparse.ArgumentParser:
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


def _settings(args) -> QuadratureSettings:
    base = QuadratureSettings()
    rel = base.rel_tol if args.rel_tol is None else args.rel_tol
    abs_ = base.abs_tol if args.abs_tol is None else args.abs_tol
    try:
        return QuadratureSettings(rel_tol=rel, abs_tol=abs_)
    except ValueError as exc:
        raise ConfigError(f"--rel-tol/--abs-tol: {exc}") from exc


def _metadata(args, model, settings) -> list:
    src = f"preset: {args.preset}" if args.preset else f"model-file: {args.model}"
    return [
        f"friedrichs {__version__}",
        src,
        f"model-hash: {model_digest(model)}",
        f"coupling: {_FMT.format(model.coupling)}",
        f"rel-tol: {settings.rel_tol:g} abs-tol: {settings.abs_tol:g}",
    ]


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _csv(header, metadata, rows) -> str:
    lines = [",".join(header)]
    lines += [f"# {m}" for m in metadata]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    model = _load(args)
    settings = _settings(args)
    report = solve_model(model, settings)
    out = _outdir(args)
    lines = ["schema: friedrichs-analyze-v1"]
    lines += [f"# {m}" for m in _metadata(args, model, settings)]
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
    text = "\n".join(lines) + "\n"
    _write(out / "analyze_report.txt", text)
    sys.stdout.write(f"count: {report.count}\n")
    for st in report.states:
        sys.stdout.write(f"  branch {st.branch_index}: E = {st.energy:.12e}\n")
    return 0


def cmd_sweep_lambda(args) -> int:
    model = _load(args)
    settings = _settings(args)
    if not (0 < args.lambda_min <= args.lambda_max):
        raise ConfigError("need 0 < --lambda-min <= --lambda-max")
    if args.lambda_steps < 1:
        raise ConfigError("--lambda-steps must be >= 1")
    lams = (np.geomspace(args.lambda_min, args.lambda_max, args.lambda_steps)
            if args.lambda_steps > 1 else np.array([args.lambda_min]))
    # kappa(0) depends on lambda only through the prefactor of S(0), so one
    # Gram matrix serves the whole sweep
    s0 = gram_matrix(model, 0.0, settings)
    top = model.levels[-1]
    n = model.n_levels
    rows = []
    for lam in lams:
        point = eigh(k_matrix(model.with_coupling(lam), s0), 0.0)
        row = [_FMT.format(lam), str(CountResult.from_kappa(point.kappa).count)]
        row += [_FMT.format(top - k) for k in point.kappa]
        rows.append(row)
    header = ["lambda", "count"] + [f"top_minus_kappa_{i}" for i in range(1, n + 1)]
    out = _outdir(args)
    _write(out / "sweep_lambda.csv", _csv(header, _metadata(args, model, settings), rows))
    sys.stdout.write(f"wrote {out / 'sweep_lambda.csv'} ({len(rows)} rows)\n")
    return 0


def cmd_kappa_curves(args) -> int:
    model = _load(args)
    settings = _settings(args)
    if args.e_steps < 2 or not -np.inf < args.e_min < args.e_max < np.inf:
        raise ConfigError("need finite --e-min < --e-max and --e-steps >= 2")
    grid = np.linspace(args.e_min, args.e_max, args.e_steps)
    if args.kind == "S" and grid[-1] > 0:
        raise ConfigError("kind 'S' needs a nonpositive energy grid")
    if args.kind == "D" and grid[0] < 0:
        raise ConfigError("kind 'D' needs a nonnegative energy grid")
    points = kappa_curve(model, grid, kind=args.kind, settings=settings)
    n, top = model.n_levels, model.levels[-1]
    header = (["E"] + [f"kappa_{i}" for i in range(1, n + 1)]
              + [f"top_minus_kappa_{i}" for i in range(1, n + 1)] + ["top_minus_E"])
    rows = [[_FMT.format(x) for x in (p.e, *p.kappa, *(top - p.kappa), top - p.e)]
            for p in points]
    out = _outdir(args)
    _write(out / "kappa_curves.csv",
           _csv(header, _metadata(args, model, settings), rows))

    # sidecar: diagonal intersections, bound states on the negative side and
    # embedded candidates with their defects on the positive side
    rows = []
    if grid[0] < 0.0:
        report = solve_model(model, settings)
        for st in report.states:
            rows.append([str(st.branch_index), _FMT.format(st.energy), "bound", ""])
    pos = grid[grid > 0.0]
    if pos.size >= 2:
        for cand in positive_candidate_scan(model, pos, settings):
            rows.append([str(cand.branch_index), _FMT.format(cand.energy),
                         "candidate", _FMT.format(cand.zero_defect)])
    header = ["branch", "energy", "kind", "zero_defect"]
    _write(out / "kappa_curves_intersections.csv",
           _csv(header, _metadata(args, model, settings), rows))
    sys.stdout.write(f"wrote {out / 'kappa_curves.csv'} and intersections "
                     f"({len(rows)} found)\n")
    return 0


def cmd_thresholds(args) -> int:
    model = _load(args)
    settings = _settings(args)
    rep = certificate(model, settings)
    out = _outdir(args)
    lines = ["schema: friedrichs-thresholds-v1"]
    lines += [f"# {m}" for m in _metadata(args, model, settings)]
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
    text = "\n".join(lines) + "\n"
    _write(out / "thresholds_report.txt", text)
    sys.stdout.write(f"verdict: {rep.verdict} (bound {rep.bound:.6e}, "
                     f"coupling {abs(rep.coupling):.6e}, {rep.binding})\n")
    return 0


def cmd_oracle_check(args) -> int:
    model = _load(args)
    settings = _settings(args)
    try:
        schedule = [int(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --grid list: {exc}") from exc
    if not schedule or min(schedule) < 10:
        raise ConfigError("--grid must name at least one size, each >= 10")
    table = compare_negative_spectrum(model, schedule, settings)
    k = len(table.solver_energies)
    header = (["m", "count"] + [f"e_{i}" for i in range(1, k + 1)]
              + [f"delta_{i}" for i in range(1, k + 1)])
    meta = _metadata(args, model, _settings(args))
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
    out = _outdir(args)
    _write(out / "oracle_check.csv", _csv(header, meta, rows))
    sys.stdout.write(f"wrote {out / 'oracle_check.csv'}; solver count "
                     f"{table.solver_count}, non-cauchy {table.non_cauchy}\n")
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep-lambda": cmd_sweep_lambda,
    "kappa-curves": cmd_kappa_curves,
    "thresholds": cmd_thresholds,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
