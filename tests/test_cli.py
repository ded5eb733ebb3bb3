import copy
import json
import math

import pytest

from friedrichs import __version__, kappa_curve, make_preset
from friedrichs.cli import main


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


def test_unknown_preset_exit_code(tmp_path, capsys):
    rc = main(["analyze", "--preset", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_model_file_exit_code(tmp_path, capsys):
    rc = main(["analyze", "--model", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flags_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--preset", "three-level-fig",
              "--model", "also.json", "--out", str(tmp_path)])
    assert exc.value.code == 2



_BIG = 10 ** 400  # a JSON integer beyond double range
# one level below the continuum, so any valid model has a bound state
_ONE_LEVEL = {"levels": [-0.1], "lambda": 1,
              "form_factors": [{"family": "rational", "n_index": 1}]}
_HUGE_PREFACTOR = {"levels": [-0.1], "lambda": 1, "form_factors": [
    {"family": "rational", "n_index": 1, "prefactor": 1e300}]}


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
], ids=["nan-level", "nan-a", "fractional-n-index", "huge-n-index",
        "big-int-lambda", "big-int-level", "big-int-reference-cutoff",
        "big-int-cutoff", "big-int-lambda1", "big-int-n-index",
        "fractional-index", "string-index", "bool-index", "bool-n-index",
        "amplitude-sq-overflow", "amplitude-overflow", "coupling-sq-overflow"])
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


@pytest.mark.parametrize("argv", [
    ["analyze", "--rel-tol", "0"],
    ["analyze", "--abs-tol", "nan"],
    ["oracle-check", "--grid", "5"],
    ["kappa-curves", "--e-max", "nan"],
    ["analyze", "--rel-tol", "inf"],
    ["analyze", "--abs-tol", "inf"],
], ids=["zero-rel-tol", "nan-abs-tol", "tiny-grid", "nan-e-max",
        "inf-rel-tol", "inf-abs-tol"])
def test_bad_number_exit_code(tmp_path, capsys, argv):
    rc = main(argv + ["--preset", "three-level-fig", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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
    # the principal value's difference step must stay on the half line
    # for 0 < E < 1e-6
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(tabulated_two_level.descriptor()))
    rc = main(["kappa-curves", "--model", str(cfg), "--kind", "D",
               "--e-min", "1e-7", "--e-max", "9e-7", "--e-steps", "3",
               "--out", str(tmp_path)])
    assert rc == 0
