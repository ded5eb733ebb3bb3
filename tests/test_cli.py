import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import friedrichs
from friedrichs import ConfigError, __version__, kappa_curve, make_preset, model_from_dict
from friedrichs.cli import main

from test_model import _BAD_VALUES, _DELETE, _MUTATION_SITES, _VALID_MODELS


def read_csv(path):
    header, meta, rows = None, [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, meta, rows


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_analyze(tmp_path, capsys):
    rc = main(["analyze", "--preset", "three-level-fig", "--lambda", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "count: 3" in out
    text = (tmp_path / "analyze_report.txt").read_text()
    assert text.startswith("schema: friedrichs-analyze-v1")
    assert "count: 3" in text
    assert text.count("state branch=") == 3
    assert "model-hash" in text
    assert "# rel-tol: 1e-10 abs-tol: 1e-13" in text.splitlines()
    # three energies, ascending, matching the frozen references loosely
    energies = [float(ln.split("energy=")[1].split()[0])
                for ln in text.splitlines() if ln.startswith("state branch=")]
    assert energies == sorted(energies)
    assert energies[0] == pytest.approx(-6.842480608, abs=1e-6)


def test_analyze_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert main(["analyze", "--preset", "three-level-fig",
                     "--lambda", "0.7", "--out", str(out)]) == 0
    assert (a / "analyze_report.txt").read_bytes() == \
        (b / "analyze_report.txt").read_bytes()


def test_parser_reused_after_error_exit(tmp_path, capsys):
    # the parser is built once per process: a call that argparse rejects
    # (exit 2) leaves it as it was, and the next call writes what a fresh
    # process writes
    argv = ["analyze", "--preset", "three-level-fig", "--lambda", "0.7"]
    with pytest.raises(SystemExit) as exc:
        main(argv[:-1] + ["x"])
    assert exc.value.code == 2
    assert "invalid float value" in capsys.readouterr().err
    assert main(argv + ["--out", str(tmp_path / "here")]) == 0
    src = str(Path(friedrichs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "friedrichs", *argv,
                           "--out", str(tmp_path / "fresh")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    name = "analyze_report.txt"
    assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_sweep_lambda(tmp_path):
    rc = main(["sweep-lambda", "--preset", "three-level-fig",
               "--lambda-min", "0.1", "--lambda-max", "10",
               "--lambda-steps", "13", "--out", str(tmp_path)])
    assert rc == 0
    header, meta, rows = read_csv(tmp_path / "sweep_lambda.csv")
    assert header[0] == "lambda"
    assert header[1] == "count"
    assert len(rows) == 13
    counts = [int(r[1]) for r in rows]
    assert counts[0] == 1
    assert counts[-1] == 3
    assert counts == sorted(counts)
    assert any("model-hash" in m for m in meta)


_GOLDEN_TABULATED = Path(__file__).resolve().parent / "golden" / "tabulated.json"


@pytest.mark.parametrize("source", [["--preset", "three-level-fig"],
                                    ["--preset", "hydrogen-4level"],
                                    ["--model", str(_GOLDEN_TABULATED)]])
def test_sweep_lambda_stack_matches_each_coupling(tmp_path, monkeypatch, source):
    # the sweep diagonalizes one stack of K(0): each coupling's kappa equals
    # that of its own model's K(0) bit for bit
    import friedrichs.cli as cli

    points = []
    monkeypatch.setattr(cli, "eigh", lambda k, e: points.append(friedrichs.eigh(k, e))
                        or points[-1])
    rc = main(["sweep-lambda", *source, "--lambda-min", "1e-3", "--lambda-max", "1e3",
               "--lambda-steps", "500", "--out", str(tmp_path)])
    assert rc == 0
    (point,) = points
    model = (make_preset(source[1]) if source[0] == "--preset"
             else friedrichs.load_model(source[1]))
    s0 = friedrichs.gram_matrix(model, 0.0)
    lams = np.geomspace(1e-3, 1e3, 500)
    assert point.kappa.shape == (500, model.n_levels)
    for lam, kappa in zip(lams, point.kappa):
        want = friedrichs.eigh(friedrichs.k_matrix(model.with_coupling(lam), s0)).kappa
        assert kappa.tobytes() == want.tobytes()


_HUGE_SHIFT = {"levels": [-0.1], "lambda": 1, "form_factors": [
    {"family": "rational", "n_index": 1, "prefactor": 1e150}]}  # S(0) near 5e299


@pytest.mark.parametrize("config, lambda_min, lambda_max, rc, message", [
    ("three-level-fig", "1", "1e200", 2, "error: coupling must be finite"),
    (_HUGE_SHIFT, "1e-10", "1e3", 0, "wrote "),
    (_HUGE_SHIFT, "1e-10", "1e10", 3, "numerical failure: K(E) has a non-finite entry"),
    # K(0) overflows at a coupling below the first whose square overflows
    (_HUGE_SHIFT, "1", "1e200", 3, "numerical failure: K(E) has a non-finite entry"),
])
def test_sweep_lambda_failures_keep_their_order(tmp_path, capsys, config, lambda_min,
                                               lambda_max, rc, message):
    if isinstance(config, str):
        source = ["--preset", config]
    else:
        (tmp_path / "model.json").write_text(json.dumps(config))
        source = ["--model", str(tmp_path / "model.json")]
    out = tmp_path / "out"
    assert main(["sweep-lambda", *source, "--lambda-min", lambda_min, "--lambda-max",
                 lambda_max, "--lambda-steps", "5", "--out", str(out)]) == rc
    captured = capsys.readouterr()
    assert (captured.err or captured.out).startswith(message)
    assert out.exists() == (rc == 0)


def test_kappa_curves(tmp_path):
    rc = main(["kappa-curves", "--preset", "three-level-fig",
               "--lambda", "0.7", "--e-min=-1.0", "--e-max=-1e-6",
               "--e-steps", "40", "--out", str(tmp_path)])
    assert rc == 0
    header, _, rows = read_csv(tmp_path / "kappa_curves.csv")
    assert header[0] == "E"
    assert len(rows) == 40
    ih, _, irows = read_csv(tmp_path / "kappa_curves_intersections.csv")
    assert "branch" in ih[0]
    bound = [r for r in irows if r[2] == "bound"]
    assert len(bound) == 2
    energies = sorted(float(r[1]) for r in bound)
    assert energies[0] == pytest.approx(-0.310670975, abs=1e-6)
    assert energies[1] == pytest.approx(-0.003386919, abs=1e-6)


def test_kappa_curves_csv(tmp_path):
    rc = main(["kappa-curves", "--preset", "three-level-fig",
               "--lambda", "0.7", "--e-min=-1.0", "--e-max=-0.25",
               "--e-steps", "4", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "kappa_curves.csv").read_text().splitlines()
    assert lines[0].split(",") == ["E", "kappa_1", "kappa_2", "kappa_3",
                                   "top_minus_kappa_1", "top_minus_kappa_2",
                                   "top_minus_kappa_3", "top_minus_E"]
    assert sum(1 for ln in lines if ln.startswith("#")) >= 1
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == 4
    first = [float(tok) for tok in data[0].split(",")]
    point = kappa_curve(make_preset("three-level-fig", 0.7), [-1.0])[0]
    assert first[0] == pytest.approx(-1.0)
    assert first[1] == pytest.approx(point.kappa[0], rel=1e-11)
    assert first[-1] == pytest.approx(1.02)


def test_kappa_curves_candidates(tmp_path):
    rc = main(["kappa-curves", "--preset", "three-level-fig",
               "--lambda", "0.001", "--e-min", "0.005", "--e-max", "0.05",
               "--e-steps", "30", "--kind", "D", "--out", str(tmp_path)])
    assert rc == 0
    _, _, irows = read_csv(tmp_path / "kappa_curves_intersections.csv")
    cands = [r for r in irows if r[2] == "candidate"]
    assert len(cands) == 2
    for r in cands:
        assert float(r[3]) > 1e-3  # defect far from an embedded eigenvalue


def test_kappa_curves_builds_each_energy_once(tmp_path, monkeypatch):
    # the rows, the bound-state search and the positive crossing search
    # share one eigencurve family: every energy at which it builds S(E) or
    # D(E) is distinct, the grid's included
    import friedrichs.spectral as spectral

    energies = []
    build = spectral._shift_stack
    monkeypatch.setattr(spectral, "_shift_stack", lambda model, e: (
        energies.extend(e.tolist()) or build(model, e)))
    rc = main(["kappa-curves", "--preset", "three-level-fig", "--lambda", "3",
               "--e-min=-0.5", "--e-max=0.3", "--e-steps", "41", "--out", str(tmp_path)])
    assert rc == 0
    _, _, irows = read_csv(tmp_path / "kappa_curves_intersections.csv")
    assert sorted(r[2] for r in irows) == ["bound"] * 3 + ["candidate"]
    assert len(energies) == len(set(energies))
    assert set(np.linspace(-0.5, 0.3, 41).tolist()) < set(energies)


def test_thresholds_true_branch(tmp_path, capsys):
    rc = main(["thresholds", "--preset", "hydrogen-4level",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "verdict: true" in capsys.readouterr().out
    text = (tmp_path / "thresholds_report.txt").read_text()
    assert text.startswith("schema: friedrichs-thresholds-v1")
    assert "verdict: true" in text
    assert "binding: lambda_bar_3" in text


def test_thresholds_false_branch(tmp_path):
    rc = main(["thresholds", "--preset", "hydrogen-4level",
               "--lambda", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "thresholds_report.txt").read_text()
    assert "verdict: false" in text


def test_thresholds_vanishing_form_factors(tmp_path):
    # sup ||D|| = 0 leaves no threshold to divide by: the certificate does
    # not apply, and the report says why
    config = {
        "levels": [-0.01, 0.01, 0.02],
        "lambda": 0.7,
        "form_factors": [{"family": "rational", "n_index": n, "prefactor": 0.0}
                         for n in (1, 2, 3)],
    }
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    rc = main(["thresholds", "--model", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "thresholds_report.txt").read_text()
    assert "verdict: inapplicable" in text
    assert "note: sup ||D|| = 0" in text


def test_thresholds_unbounded_slope_is_inapplicable(tmp_path):
    # p_exponent < 1/2 makes d|v|^2/domega unbounded at 0, so beta = inf and
    # the local quadratic has no finite solution: the level's threshold must
    # not silently drop out of the bound (it printed lambda_bar=nan with
    # verdict true).  The whole certificate runs, its D(E) scan included
    # (about 600 D(E) of a tabulated-rational pair), within a second of CPU
    # time (about 0.5 s on a 2-core VM).
    config = {
        "levels": [0.1, 0.3],
        "lambda": 0.01,
        "form_factors": [
            {"family": "tabulated", "grid": [0.1, 0.5, 1.0, 2.0, 4.0],
             "values_re": [0.3, 0.5, 0.4, 0.2, 0.1], "tail_exponent": -1.5,
             "p_exponent": 0.3},
            {"family": "rational", "n_index": 2}],
    }
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    t0 = time.process_time()
    rc = main(["thresholds", "--model", str(cfg), "--out", str(tmp_path)])
    assert time.process_time() - t0 < 1.0
    assert rc == 0
    text = (tmp_path / "thresholds_report.txt").read_text()
    assert "nan" not in text
    assert "verdict: inapplicable" in text
    assert "note: level 1: unbounded d|v|^2/domega (beta = inf)" in text


@pytest.mark.parametrize("preset", ["three-level-fig", "hydrogen-4level"])
@pytest.mark.parametrize("command", ["analyze", "sweep-lambda", "kappa-curves",
                                     "thresholds"])
def test_builtin_presets_need_no_quadpack(tmp_path, monkeypatch, preset, command):
    # every command runs with scipy unimportable: no S, T, D or norm, and no
    # search, calls into scipy
    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    assert main([command, "--preset", preset, "--out", str(tmp_path)]) == 0


def test_builtin_presets_load_no_scipy(tmp_path):
    # a fresh process loads numpy only, for the built-in presets and for the
    # tabulated golden model alike: the searches are numpy ports and every
    # pair integral is numpy
    src = str(Path(friedrichs.__file__).resolve().parents[1])
    tabulated = str(Path(__file__).resolve().parent / "golden" / "tabulated.json")
    runs = [["analyze", "--preset", "three-level-fig", "--lambda", "10"],
            ["thresholds", "--preset", "hydrogen-4level"],
            ["analyze", "--model", tabulated],
            ["kappa-curves", "--model", tabulated, "--kind", "D",
             "--e-min=1e-3", "--e-max=0.4", "--e-steps", "12"]]
    code = ("import sys\n"
            "from friedrichs.cli import main\n"
            f"for argv in {runs!r}:\n"
            f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_skips_numpy_polynomial():
    # the Gauss-Legendre rules load numpy.polynomial on first use, not at
    # import: every CLI command imports the oracle
    src = str(Path(friedrichs.__file__).resolve().parents[1])
    code = "import sys, friedrichs.cli\nprint('numpy.polynomial' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("site,value", [((1, "a"), 3.4e8), ((0, "cutoff"), 5.5e9)],
                         ids=["a", "cutoff"])
def test_analyze_deep_bound_state(tmp_path, site, value):
    # the first root lies below -8192, where adjacent doubles are farther
    # apart than the root search's absolute 1e-12
    config = make_preset("three-level-fig").descriptor()
    config["form_factors"][site[0]][site[1]] = value
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    assert main(["analyze", "--model", str(cfg), "--out", str(tmp_path)]) == 0
    report = (tmp_path / "analyze_report.txt").read_text()
    energy = float(report.split("state branch=1 energy=")[1].split()[0])
    assert energy < -1e7


def test_oracle_check(tmp_path):
    rc = main(["oracle-check", "--preset", "three-level-fig",
               "--lambda", "0.7", "--grid", "300,600",
               "--out", str(tmp_path)])
    assert rc == 0
    header, meta, rows = read_csv(tmp_path / "oracle_check.csv")
    assert header[0] == "m"
    assert [int(r[0]) for r in rows] == [300, 600]
    assert all(int(r[1]) == 2 for r in rows)
    assert any("solver-count" in m for m in meta)


def test_model_file_roundtrip(tmp_path):
    config = {
        "levels": [-0.01, 0.01, 0.02],
        "lambda": 0.7,
        "form_factors": [
            {"family": "rational", "n_index": 1, "a": 0.0, "cutoff": 1.0},
            {"family": "rational", "n_index": 2, "a": 2.0, "cutoff": 1.0},
            {"family": "rational", "n_index": 3, "a": 1.0, "cutoff": 1.0},
        ],
    }
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["analyze", "--model", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "count: 2" in (out / "analyze_report.txt").read_text()


def test_overflowing_k_names_one_energy(tmp_path, capsys):
    # lambda^2 S(E) overflows at every energy of the grid: exit 3 with one
    # line naming the first energy, not the whole stack
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "levels": [-0.01, 0.01], "lambda": 1e150,
        "form_factors": [{"family": "rational", "n_index": 1, "a": 1e10},
                         {"family": "rational", "n_index": 1}]}))
    rc = main(["kappa-curves", "--model", str(cfg), "--e-min=-1", "--e-max=-0.01",
               "--e-steps", "50", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: K(E) has a non-finite entry at E = -1.0\n"


def _write_model(tmp_path, levels, factors):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"levels": levels, "lambda": 0.5, "form_factors": factors}))
    return str(cfg)


def _write_widths_model(tmp_path, lo, hi, levels=(-0.1, 0.2)):
    return _write_model(tmp_path, list(levels), [
        {"family": "rational", "n_index": 1, "cutoff": lo},
        {"family": "rational", "n_index": 2, "cutoff": hi}])


_COMMANDS = ["analyze", "sweep-lambda", "kappa-curves", "thresholds", "oracle-check"]
# levels of the models whose built-in widths are all equal and near the
# largest the kernels reach
_WIDE_LEVELS = (-0.44e150, 0.88e150)


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("lo, hi", [(1.0, 5e150), (1.0, 1e200), (1e-160, 1e150),
                                    (1.0, 4.49e150)],
                         ids=["5e150", "1e200", "1e310", "4.49e150"])
def test_far_apart_widths_exit_2(tmp_path, capsys, command, lo, hi):
    # past the kernels' reach the commands wrote NaN, exited 3, or died on
    # an SVD that did not converge or an arange too large to allocate; at
    # 4.49e150 the ray's complex division of 1 / (1 + (w/c)^2) overflowed
    # with a RuntimeWarning
    rc = main([command, "--model", _write_widths_model(tmp_path, lo, hi),
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: form-factor widths {lo:.6g} (narrowest built-in) "
                          f"and {hi:.6g} are too far apart") and err.count("\n") == 1


def test_oracle_tail_beyond_the_widths_reach_exits_2(tmp_path, capsys):
    # 4e150 apart the kernels hold, but the oracle's tail at m = 4000 reaches
    # about 4.5e3 times the widest width: its rows were NaN
    rc = main(["oracle-check", "--model", _write_widths_model(tmp_path, 1.0, 4e150),
               "--grid", "500,4000", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "too far apart: the oracle's tail at m = 4000" in err and err.count("\n") == 1
    assert not (tmp_path / "oracle_check.csv").exists()


@pytest.mark.parametrize("args, want", [
    (["--preset", "three-level-fig", "--lambda", "1e100", "--kind", "D", "--e-min=1e-3",
      "--e-max=1"], [["2", "6.509453439933e-01", "candidate"],
                     ["3", "1.702347995364e-01", "candidate"]]),
    (["--preset", "hydrogen-4level", "--lambda", "1e120", "--e-min=-1", "--e-max=1"],
     [["1", "-4.833501673420e+119", "bound"], ["2", "-1.532433382171e+118", "bound"],
      ["3", "-1.931981291755e+116", "bound"]])], ids=["three-level", "hydrogen"])
def test_kappa_curves_crossings_at_a_huge_coupling(tmp_path, args, want):
    # the gaps kappa_n(E) - E reach 1e200 and more; the crossing scan
    # multiplied neighbouring gaps, whose product overflowed with a
    # RuntimeWarning (an error under pytest).  The hydrogen roots are
    # lambda sqrt(g_k), g_k the eigenvalues of the norm Gram matrix; the
    # third one's last printed digits lie at its conditioning bound
    # (`test_solve_model_at_a_huge_coupling`)
    rc = main(["kappa-curves", *args, "--e-steps", "5", "--out", str(tmp_path)])
    assert rc == 0
    _, _, rows = read_csv(tmp_path / "kappa_curves_intersections.csv")
    assert [r[:3] for r in rows] == want


def _write_scaled_models(tmp_path, s):
    """three-level-fig with its levels and widths times s, and the golden
    tabulated model with its grid and levels times s and its values times
    sqrt(s): K_s(sE) = s K(E), so each is its original at energies times s.
    Returns the two paths."""
    three = make_preset("three-level-fig").descriptor()
    three["levels"] = [s * w for w in three["levels"]]
    for f in three["form_factors"]:
        f["cutoff"] *= s
    tab = json.loads((Path(__file__).parent / "golden" / "tabulated.json").read_text())
    tab["levels"] = [s * w for w in tab["levels"]]
    for f in tab["form_factors"]:
        f["grid"] = [s * x for x in f["grid"]]
        for key in ("values_re", "values_im"):
            f[key] = [math.sqrt(s) * v for v in f[key]]
    paths = []
    for name, config in (("three", three), ("tab", tab)):
        path = tmp_path / f"{name}-{s:g}.json"
        path.write_text(json.dumps(config))
        paths.append(str(path))
    return paths


def _report_numbers(path):
    """Every number of a text report, by line, after its metadata."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if not ln.startswith(("#", "schema"))]
    return [[float(x) for x in re.findall(r"[-+]?\d\.\d+e[-+]\d+", ln)] for ln in lines]


@pytest.mark.parametrize("model", [0, 1], ids=["three-level", "tabulated"])
def test_tiny_widths_match_scale_one(tmp_path, model):
    # widths of 1e-150 keep every term the kernels sum a normal double: all
    # five commands run clean, and the states are the s = 1 states scaled
    # (continuum norms are scale-free); at 1e-160 analyze printed E_1 0.26 %
    # and 0.81 % off, and continuum_norm_sq=nan, with exit 0
    s = 1e-150
    tiny, unit = (_write_scaled_models(tmp_path, x)[model] for x in (s, 1.0))
    for command in _COMMANDS:
        assert main([command, "--model", tiny, "--out", str(tmp_path / command)]) == 0
    assert main(["analyze", "--model", unit, "--out", str(tmp_path / "unit")]) == 0
    got = _report_numbers(tmp_path / "analyze" / "analyze_report.txt")
    want = _report_numbers(tmp_path / "unit" / "analyze_report.txt")
    assert len(got) == len(want) > 0
    for line, ref in zip(got, want):
        # energies scale by s, amplitudes and norms do not
        assert len(line) == len(ref)
        for x, y in zip(line, ref):
            assert x / s == pytest.approx(y, rel=1e-9, abs=0.0) or x == pytest.approx(
                y, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("s", [1e-155, 1e-160, 1e-170])
def test_widths_below_the_kernels_floor_exit_2(tmp_path, capsys, command, s):
    # below a width of 4.8e-153 the terms that the kernels sum, which scale
    # as its square, fall below the smallest normal double: analyze printed
    # continuum_norm_sq=nan, at 1e-170 counted one state of two, and
    # thresholds printed nan, each with exit 0
    for path in _write_scaled_models(tmp_path, s):
        assert main([command, "--model", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "(narrowest) is too small: the level-shift kernels" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_nan_norms_exit_3(tmp_path, capsys, monkeypatch):
    # a NaN coefficient on the Gram table and on the ray makes S(E) and
    # D(E) not finite.  The squared norms that set the bound states' lower
    # bracket end are then NaN, and that NaN energy must not reach
    # gram_matrix, which rejects it with a ValueError; the certificate's
    # scan must not hand such a matrix to eigvalsh, whose SVD did not
    # converge.  No RuntimeWarning
    import friedrichs.quad as quad

    ray_rows = quad._ray_rows

    def nan_rows(factors, step, turn):
        t = ray_rows(factors, step, turn)
        c = t.c.copy()
        c[0, -1] = np.nan
        return t._replace(c=c, c_abs=np.abs(c))

    monkeypatch.setattr(quad, "_ray_rows", nan_rows)
    cfg = _write_widths_model(tmp_path, 1.0, 1.0)
    for command in _COMMANDS:
        rc = main([command, "--model", cfg, "--out", str(tmp_path)])
        assert rc == 3, command
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1, command


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("coupling", ["1", "1e150"])
def test_subnormal_coefficients_run_silently(tmp_path, capsys, command, coupling):
    # three-level-fig with every prefactor 1e-155: the ray's coefficients
    # are subnormal, and the lattice scan scaled each row by a complex
    # division that overflowed, so thresholds warned and exited 3 where
    # analyze solved the model
    config = make_preset("three-level-fig").descriptor()
    for f in config["form_factors"]:
        f["prefactor"] = 1e-155
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(config))
    rc = main([command, "--model", str(path), "--lambda", coupling, "--out", str(tmp_path)])
    assert rc == 0 and capsys.readouterr().err == ""
    if command == "thresholds":
        assert "verdict: true" in (tmp_path / "thresholds_report.txt").read_text()


@pytest.mark.parametrize("command, lo, hi", [
    pytest.param(c, lo, hi, id=f"{c}-equal-{hi}" if lo == hi else f"{c}-{hi}")
    for c, lo, hi in [(c, 1.0, 2e150) for c in _COMMANDS]
    + [(c, 1.0, 4e150) for c in _COMMANDS if c != "oracle-check"]
    + [(c, 4e150, 4e150) for c in _COMMANDS]])
def test_widths_inside_the_reach_run_silently(tmp_path, capsys, command, lo, hi):
    # just inside the bound the ray's coefficients reach about 1e300, and
    # every command still runs without a RuntimeWarning (at widths 1 and
    # 4e150 the oracle's tail is out of reach; at equal widths 4e150 it is
    # not, and it squares nothing)
    levels = _WIDE_LEVELS if lo == hi else (-0.1, 0.2)
    rc = main([command, "--model", _write_widths_model(tmp_path, lo, hi, levels),
               "--out", str(tmp_path)])
    assert rc == 0 and capsys.readouterr().err == ""


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("width", [4.4e150, 1e152])
def test_equal_widths_beyond_the_kernels_reach_exit_2(tmp_path, capsys, command, width):
    # e^8 times the widest width passes _REACH, so T(E, E')'s kernel on the
    # ray overflowed with a RuntimeWarning (4.4e150), or h w^2 did and every
    # command exited 3 (1e152), although the widths are not far apart
    rc = main([command, "--model", _write_widths_model(tmp_path, width, width, _WIDE_LEVELS),
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: form-factor width {width:.6g} (widest) is too large: "
                          "the level-shift kernels") and err.count("\n") == 1


_GRID = np.geomspace(1.0, 1e10, 6).tolist()
_OVERFLOWING_PAIRS = {
    # amplitude^2 is 1.6e308, yet the ray's coefficients overflow
    "prefactor": [{"family": "rational", "n_index": n, "cutoff": 1e3, "prefactor": 4e152}
                  for n in (1, 2)],
    # |v|^2 is 1e300, and times the panels' weights it overflows
    "tabulated": [{"family": "tabulated", "grid": _GRID, "values_re": [1e150] * 6,
                   "tail_exponent": -1.5},
                  {"family": "rational", "n_index": 2}],
}


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("case", sorted(_OVERFLOWING_PAIRS))
def test_overflowing_pair_densities_exit_2(tmp_path, capsys, command, case):
    # both passed validation, then every command printed numpy's overflow
    # warnings and exited 3
    rc = main([command, "--model", _write_model(tmp_path, [-0.1, 0.2], _OVERFLOWING_PAIRS[case]),
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: pair density conj(v_1) v_1 overflows on the level-shift kernels' nodes\n"


def test_far_tabulated_end_gives_a_verdict(tmp_path, capsys):
    # g^e of the grid's end 1e150, 1e-450, underflowed in d|v|^2/domega,
    # whose NaN made the certificate's sup fail with exit 3
    grid = np.geomspace(1.0, 1e150, 6)
    cfg = _write_model(tmp_path, [-0.1, 0.2], [
        {"family": "tabulated", "grid": grid.tolist(), "values_re": (a * grid ** -0.75).tolist(),
         "tail_exponent": -1.5} for a in (1.0, 0.5)])
    rc = main(["thresholds", "--model", cfg, "--out", str(tmp_path)])
    assert rc == 0 and capsys.readouterr().err == ""
    assert "verdict: " in (tmp_path / "thresholds_report.txt").read_text()


def test_infinite_tabulated_nodes_exit_2_with_one_line(tmp_path):
    # from the third node on 0.5e308 (i + 1) is inf: np.diff of the grid
    # warned "invalid value encountered in subtract" before the finiteness
    # check named the grid; run as a program, where numpy's warnings reach
    # stderr
    config = json.loads(_GOLDEN_TABULATED.read_text())
    config["form_factors"][0]["grid"] = [0.5e308 * (i + 1) for i in range(16)]
    cfg = tmp_path / "model.json"
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    src = str(Path(friedrichs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "friedrichs", "analyze", "--model", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: bad form-factor description: grid must be finite\n"


def test_unknown_preset_exit_code(tmp_path, capsys):
    rc = main(["analyze", "--preset", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_model_file_exit_code(tmp_path, capsys):
    rc = main(["analyze", "--model", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


_SMALL_RUNS = {"analyze": [], "sweep-lambda": ["--lambda-steps", "2"],
               "kappa-curves": ["--e-steps", "4"], "thresholds": [],
               "oracle-check": ["--grid", "20"]}


@pytest.mark.parametrize("command", _SMALL_RUNS)
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    # --out names an existing regular file: one error line, exit 2, and
    # nothing written, neither into that file nor beside it
    out = tmp_path / "taken"
    out.write_text("keep\n")
    rc = main([command, "--preset", "three-level-fig", *_SMALL_RUNS[command],
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert err.count("\n") == 1
    assert out.read_text() == "keep\n" and list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("command, last", [
    ("analyze", "solve_model"), ("sweep-lambda", "eigh"),
    ("kappa-curves", "_positive_candidates"), ("thresholds", "certificate"),
    ("oracle-check", "compare_negative_spectrum")])
def test_failing_command_writes_nothing(tmp_path, capsys, monkeypatch, command, last):
    # --out is created and written only once the command has returned:
    # kappa-curves used to write kappa_curves.csv before its crossing search
    import friedrichs.cli as cli

    def fail(*args, **kwargs):
        raise friedrichs.NumericalError("late failure")
    monkeypatch.setattr(cli, last, fail)
    extra = (["--e-min=-1", "--e-max=1", "--e-steps", "5"] if command == "kappa-curves"
             else _SMALL_RUNS[command])
    out = tmp_path / "out"
    rc = main([command, "--preset", "three-level-fig", *extra, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr() == ("", "numerical failure: late failure\n")
    assert not out.exists()


def test_bad_flags_exit_code(tmp_path):
    # the quadrature tolerances are fixed: the former --rel-tol/--abs-tol
    # flags are rejected, not silently ignored
    for extra in (["--model", "also.json"], ["--rel-tol", "1e-8"],
                  ["--abs-tol", "1e-14"]):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--preset", "three-level-fig", *extra,
                  "--out", str(tmp_path)])
        assert exc.value.code == 2, extra



_BIG = 10 ** 400  # a JSON integer beyond double range
# one level below the continuum, so any valid model has a bound state
_ONE_LEVEL = {"levels": [-0.1], "lambda": 1,
              "form_factors": [{"family": "rational", "n_index": 1}]}
_HUGE_PREFACTOR = {"levels": [-0.1], "lambda": 1, "form_factors": [
    {"family": "rational", "n_index": 1, "prefactor": 1e300}]}
_TABULATED = {"levels": [-0.1], "lambda": 0.5, "form_factors": [
    {"family": "tabulated", "grid": [0.1, 0.5, 1.0, 2.0],
     "values_re": [0.3, 0.5, 0.4, 0.2], "tail_exponent": -1.5}]}


@pytest.mark.parametrize("preset,path,value", [
    ("three-level-fig", ("levels", 0), math.nan),
    ("three-level-fig", ("form_factors", 1, "a"), math.nan),
    ("three-level-fig", ("form_factors", 1, "n_index"), 1.7),
    ("three-level-fig", ("form_factors", 1, "n_index"), 400),
    ("three-level-fig", ("lambda",), _BIG),
    ("three-level-fig", ("levels", 0), _BIG),
    ("three-level-fig", ("reference_cutoff",), _BIG),
    ("three-level-fig", ("form_factors", 1, "cutoff"), _BIG),
    ("hydrogen-4level", ("form_factors", 0, "lambda1"), _BIG),
    ("three-level-fig", ("form_factors", 1, "n_index"), _BIG),
    ("hydrogen-4level", ("form_factors", 0, "index"), 1.7),
    ("hydrogen-4level", ("form_factors", 0, "index"), "2"),
    ("hydrogen-4level", ("form_factors", 0, "index"), True),
    ("three-level-fig", ("form_factors", 1, "n_index"), True),
    (_ONE_LEVEL, ("form_factors", 0, "prefactor"), 1e200),
    (_HUGE_PREFACTOR, ("form_factors", 0, "cutoff"), 1e300),
    (_ONE_LEVEL, ("lambda",), 1e160),
    (_TABULATED, ("form_factors", 0, "p_exponent"), 0.0),
    (_TABULATED, ("form_factors", 0, "values_re", 1), 1e155),
    ("three-level-fig", ("form_factors", 2, "a"), 1.3e155),
], ids=["nan-level", "nan-a", "fractional-n-index", "huge-n-index",
        "big-int-lambda", "big-int-level", "big-int-reference-cutoff",
        "big-int-cutoff", "big-int-lambda1", "big-int-n-index",
        "fractional-index", "string-index", "bool-index", "bool-n-index",
        "amplitude-sq-overflow", "amplitude-overflow", "coupling-sq-overflow",
        "zero-p-exponent", "tabulated-square-overflow", "poly-overflow"])
def test_malformed_model_exit_code(tmp_path, capsys, preset, path, value):
    # preset: a preset name or a model description to start from
    config = (make_preset(preset).descriptor() if isinstance(preset, str)
              else copy.deepcopy(preset))
    *head, last = path
    node = config
    for key in head:
        node = node[key]
    node[last] = value
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    rc = main(["analyze", "--model", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    if last == "p_exponent":
        # S(0) is undefined without a positive threshold exponent, but a
        # D-only run that stays inside the continuum is still valid
        assert main(["kappa-curves", "--model", str(cfg), "--kind", "D",
                     "--e-min", "0.1", "--e-max", "0.3", "--e-steps", "2",
                     "--out", str(tmp_path)]) == 0


def _run_analyze(config):
    """(exit code, stderr) of analyze on a model file holding config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "model.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["analyze", "--model", str(cfg), "--out", tmp])
    return rc, err.getvalue()


@st.composite
def _malformed_tabulated(draw):
    """_TABULATED with one malformed field of its factor: a non-increasing
    or non-positive grid, a NaN sample, tail_exponent >= -1/2, or lists of
    different lengths."""
    config = copy.deepcopy(_TABULATED)
    f = config["form_factors"][0]
    f["values_im"] = [0.1, -0.2, 0.05, 0.0]
    n = len(f["grid"])
    kind = draw(st.sampled_from(["order", "sign", "nan", "tail", "length"]))
    if kind == "order":
        i = draw(st.integers(0, n - 2))
        f["grid"][i + 1] = f["grid"][i] - draw(st.floats(0.0, 1.0))
    elif kind == "sign":
        f["grid"][0] = -draw(st.floats(0.0, 1e3))
    elif kind == "nan":
        key = draw(st.sampled_from(["grid", "values_re", "values_im"]))
        f[key][draw(st.integers(0, n - 1))] = math.nan
    elif kind == "tail":
        f["tail_exponent"] = draw(st.floats(-0.5, 1e6))
    else:
        key = draw(st.sampled_from(["grid", "values_re", "values_im"]))
        f[key] = f[key][:-1] if draw(st.booleans()) else f[key] + [0.1]
    return config


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(config=_malformed_tabulated())
def test_malformed_tabulated_factor_exits_2(config):
    # every malformed tabulated factor fails with exit 2 and a message
    rc, err = _run_analyze(config)
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(site=st.sampled_from(_MUTATION_SITES), value=_BAD_VALUES)
def test_malformed_model_exits_2(site, value):
    # every mutated description that model_from_dict rejects (as
    # test_model_from_dict_contract draws them) fails through a model file
    # with exit 2 and a message, never a traceback
    i, path = site
    config = json.loads(json.dumps(_VALID_MODELS[i]))
    *head, last = path
    node = config
    for key in head:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    try:
        model_from_dict(json.loads(json.dumps(config)))
    except ConfigError:
        rc, err = _run_analyze(config)
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
    else:
        assume(False)


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--grid", "5"],
    ["kappa-curves", "--e-max", "nan"],
    ["kappa-curves", "--e-min=-1e308", "--e-max=1e308", "--e-steps", "3"],
    ["sweep-lambda", "--lambda-max", "inf"],
    ["sweep-lambda", "--lambda-max", "inf", "--lambda-steps", "1"],
    ["sweep-lambda", "--lambda-min=1", "--lambda-max=1.7976931348623157e308",
     "--lambda-steps", "2"],
], ids=["tiny-grid", "nan-e-max", "overflowing-e-span", "inf-lambda-max",
        "inf-lambda-max-one-step", "largest-double-lambda-max"])
def test_bad_number_exit_code(tmp_path, capsys, argv):
    # one line on stderr: no numpy warning before the message, and an
    # energy grid whose span overflows to inf or NaN steps is not a
    # traceback
    rc = main(argv + ["--preset", "three-level-fig", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_largest_double_grid_exits_0(tmp_path):
    # the grid's steps near the largest double overflow inside linspace,
    # whose last point is set to --e-max: every row is still finite
    rc = main(["kappa-curves", "--preset", "three-level-fig", "--e-min=0",
               "--e-max=1.7976931348623157e308", "--e-steps", "4", "--out", str(tmp_path)])
    assert rc == 0
    _, _, rows = read_csv(tmp_path / "kappa_curves.csv")
    assert [float(r[0]) for r in rows] == pytest.approx(
        [0.0, 5.992310449541e307, 1.198462089908e308, 1.797693134862e308], rel=1e-12)


# any float, inf and NaN included, and the edges of the doubles more often
_HUGE = float(np.finfo(float).max)
_ANY_FLOAT = st.floats() | st.sampled_from([-_HUGE, -1e308, 0.0, 1e308, _HUGE])


@pytest.mark.parametrize("command,floats,steps,examples", [
    ("kappa-curves", ("--e-min", "--e-max"), "--e-steps", 200),
    ("sweep-lambda", ("--lambda-min", "--lambda-max"), "--lambda-steps", 200),
    ("analyze", ("--lambda",), None, 200),
    ("thresholds", ("--lambda",), None, 100),
], ids=["kappa-curves", "sweep-lambda", "analyze", "thresholds"])
def test_numeric_flags_exit_cleanly(tmp_path, command, floats, steps, examples):
    # any float in each numeric flag of a command (and a step count up to
    # 4) exits 0, 2 or 3: never a traceback or a RuntimeWarning; the cases
    # are drawn the same on every run
    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(values=st.tuples(*[_ANY_FLOAT] * len(floats)),
           count=st.integers(-1, 4) if steps else st.none())
    def run(values, count):
        argv = [command, "--preset", "three-level-fig", "--out", str(tmp_path)]
        argv += [f"{flag}={value!r}" for flag, value in zip(floats, values)]
        argv += [f"{steps}={count}"] if steps else []
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv)
        assert rc in (0, 2, 3)
        assert (rc == 0) == (err.getvalue() == "")

    run()


def test_analyze_narrow_form_factor(tmp_path):
    # the quadrature tail reaches u = w/c ~ 1e19 on the narrow factor,
    # where (1+u^2)^q overflows a double
    config = {"levels": [-0.01, 0.02], "lambda": 0.7, "form_factors": [
        {"family": "rational", "n_index": 11, "cutoff": 1e-4},
        {"family": "rational", "n_index": 1, "cutoff": 1.0}]}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    rc = main(["analyze", "--model", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert "count: 2" in (tmp_path / "analyze_report.txt").read_text()


def test_kappa_curves_tabulated_near_threshold(tmp_path, tabulated_two_level):
    # the principal value's subtraction interval [0, 2E] must stay on the
    # half line for 0 < E < 1e-6
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(tabulated_two_level.descriptor()))
    rc = main(["kappa-curves", "--model", str(cfg), "--kind", "D",
               "--e-min", "1e-7", "--e-max", "9e-7", "--e-steps", "3",
               "--out", str(tmp_path)])
    assert rc == 0


def test_kappa_curves_one_ulp_above_a_panel_edge(tmp_path):
    # E = nextafter(1e-6 2^17): one ulp from an edge of the panel table of
    # the golden tabulated model with a rational second factor
    model = json.loads((Path(__file__).resolve().parent / "golden" / "tabulated.json").read_text())
    model["form_factors"][1] = {"family": "rational", "n_index": 1}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["kappa-curves", "--model", str(cfg), "--kind", "D",
                   "--e-min", "0.13107200000000002", "--e-max", "0.2", "--e-steps", "2",
                   "--out", str(tmp_path)])
    assert rc == 0
    _, _, rows = read_csv(tmp_path / "kappa_curves.csv")
    assert len(rows) == 2 and all(math.isfinite(float(x)) for r in rows for x in r)
