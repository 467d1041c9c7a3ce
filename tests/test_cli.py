import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdlab import cli
from bdlab.cli import main
from bdlab.functions import AffinePiece, PiecewiseAffine, constant_piece, make_elementary
from bdlab.geometry import OrientedSquare, Polygon, PolygonalPartition, make_oriented_square
from bdlab.render import render_svg

# scenario mode -> (scenario keys, the same invocation as CLI arguments);
# small budgets, and defaults left out on purpose
SCENARIO_PAIRS = {
    "eval": (
        {"function": "u.json", "density": "isotropic:id"},
        ["energy-eval", "--function", "u.json", "--density", "isotropic:id"],
    ),
    "energy-eval": (
        {"function": "u.json", "density": "frobenius", "tol": 1e-8},
        ["energy-eval", "--function", "u.json", "--density", "frobenius", "--tol", "1e-8"],
    ),
    "density-check": (
        {"density": "frobenius", "samples": 300},
        ["density-check", "--density", "frobenius", "--samples", "300"],
    ),
    "fields-verify": ({"seed": 1}, ["fields-verify", "--seed", "1"]),
    "falsify": (
        {"density": "product:aniso1:eps=0.01", "i": [0, 0], "j": [2, 2], "nu": [0, 1],
         "budget": 60, "seed": 3},
        ["falsify", "--density", "product:aniso1:eps=0.01", "--i", "0,0", "--j", "2,2",
         "--nu", "0,1", "--budget", "60", "--seed", "3"],
    ),
    "relax": (
        {"density": "isotropic:id", "i": [-1, 0], "j": [1, 1], "nu": [0, 1],
         "budget": 60, "seed": 1},
        ["relax", "--density", "isotropic:id", "--i=-1,0", "--j", "1,1", "--nu", "0,1",
         "--budget", "60", "--seed", "1"],
    ),
    "repro-ce1": (
        {"budget": 60, "sweep_eps": [0.01, 0.1], "csv": "sweep.csv"},
        ["repro-ce1", "--budget", "60", "--sweep-eps", "0.01,0.1", "--csv", "sweep.csv"],
    ),
    "repro-ce2": ({"budget": 60}, ["repro-ce2", "--budget", "60"]),
    "ibp-check": ({"cases": 2}, ["ibp-check", "--cases", "2"]),
}


@pytest.fixture
def elementary_json(tmp_path):
    u = make_elementary((1, 0), (0, 0), (0, 1), OrientedSquare((0.0, 1.0), 1.0, (0, 0)))
    path = tmp_path / "u.json"
    path.write_text(json.dumps(u.to_json()))
    return path, u


class TestEnergyEval:
    def test_frobenius_of_elementary(self, elementary_json, tmp_path, capsys):
        path, _ = elementary_json
        out = tmp_path / "report.json"
        rc = main(
            [
                "energy-eval",
                "--function", str(path),
                "--density", "frobenius",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["value"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert "tolerance" in rep["results"]

    def test_missing_file(self):
        assert main(["energy-eval", "--function", "/nope.json", "--density", "frobenius"]) == 1

    def test_unknown_density(self, elementary_json):
        path, _ = elementary_json
        assert main(["energy-eval", "--function", str(path), "--density", "nope"]) == 1

    def test_non_skew_piece_loads_as_piecewise_affine(self, tmp_path):
        dom = make_oriented_square((0.0, 1.0), 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        u = PiecewiseAffine(
            PolygonalPartition([bottom, top], dom),
            [AffinePiece([[1.0, 0.0], [0.0, 0.0]], (0.0, 0.0)), constant_piece((0, 0))],
        )
        path = tmp_path / "affine.json"
        path.write_text(json.dumps(u.to_json()))
        out = tmp_path / "report.json"
        rc = main(["energy-eval", "--function", str(path), "--density", "isotropic:id",
                   "--out", str(out)])
        assert rc == 0
        # jump (x, 0) on the chord y = 0, x in [-1, 1]: integral of |x| is 1
        assert json.loads(out.read_text())["results"]["value"] == pytest.approx(1.0, abs=1e-12)


class TestDensityCheck:
    def test_isotropic(self, tmp_path):
        out = tmp_path / "check.json"
        rc = main(
            ["density-check", "--density", "isotropic:id", "--samples", "2000",
             "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["passes_necessary"]
        assert rep["results"]["subadditivity_violation"] <= 1e-10


class TestFieldsVerify:
    def test_catalog_passes(self, tmp_path):
        out = tmp_path / "fields.json"
        rc = main(["fields-verify", "--samples", "60", "--seed", "0", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["passed"]
        assert rep["results"]["max_residual"] < 1e-6


class TestReproModes:
    def test_ce1(self, tmp_path):
        out = tmp_path / "ce1.json"
        rc = main(["repro-ce1", "--budget", "300", "--seed", "0", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        res = rep["results"]
        assert res["breakdown"]["parallel"] == pytest.approx(
            res["parallel_expected"], abs=1e-8
        )
        assert res["verdict"]["status"] == "VIOLATION"

    def test_ce2(self, tmp_path):
        out = tmp_path / "ce2.json"
        rc = main(["repro-ce2", "--budget", "300", "--seed", "0", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        res = rep["results"]
        assert res["breakdown"]["lower_edge"] == pytest.approx(
            res["lower_edge_expected"], abs=1e-10
        )
        assert res["verdict"]["status"] == "VIOLATION"

    def test_ce1_expected_violation_missing_exit_code(self, tmp_path, monkeypatch):
        # with a draconian budget of 0-ish runs the optimizer still evaluates
        # suggestions, so force failure by feeding an elliptic-looking eps=1:
        # psi becomes the euclidean norm and no violation exists
        out = tmp_path / "ce1b.json"
        rc = main(
            ["repro-ce1", "--eps", "1.0", "--budget", "200", "--seed", "0",
             "--out", str(out)]
        )
        assert rc == 2


class TestScenario:
    def test_run_eval_scenario(self, elementary_json, tmp_path):
        path, _ = elementary_json
        out = tmp_path / "sc_report.json"
        scenario = {
            "mode": "eval",
            "function": str(path),
            "density": "isotropic:id",
            "out": str(out),
        }
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(scenario))
        assert main(["run", str(sc_path)]) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_mode(self, tmp_path):
        sc = tmp_path / "bad.json"
        sc.write_text(json.dumps({"mode": "dance"}))
        assert main(["run", str(sc)]) == 1

    @pytest.mark.parametrize("mode", sorted(SCENARIO_PAIRS))
    def test_run_matches_direct_cli(self, mode, elementary_json, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # elementary_json wrote u.json here
        keys, argv = SCENARIO_PAIRS[mode]
        Path("scenario.json").write_text(json.dumps({"mode": mode, **keys, "out": "run.json"}))
        assert main(["run", "scenario.json"]) == main(argv + ["--out", "cli.json"])
        reports = [json.loads(Path(p).read_text()) for p in ("run.json", "cli.json")]
        for rep in reports:
            rep.pop("wall_time_s")
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "scenario",
        [
            {"mode": "ibp-check", "casez": 9},
            {"mode": "ibp-check", "case": 2},  # a prefix of --cases
            {"mode": "density-check", "density": "frobenius", "budget": 5},
            # falsify without its required seed
            {"mode": "falsify", "density": "frobenius", "i": [0, 0], "j": [1, 0], "nu": [0, 1]},
            {"mode": "run", "scenario": "scenario.json"},
            ["falsify"],
        ],
    )
    def test_bad_scenario_exits_1(self, scenario, tmp_path):
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps(scenario))
        assert main(["run", str(sc)]) == 1


class TestUsage:
    def test_missing_required_option_exits_1(self, capsys):
        argv = ["falsify", "--density", "frobenius", "--i", "0,0", "--j", "1,0", "--nu", "0,1"]
        assert main(argv) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["dance"], ["density-check", "--density", "frobenius", "--samples", "x"],
            ["falsify", "--density", "frobenius", "--i", "0,0", "--j", "1,0", "--nu", "0,1",
             "--seed", "0", "--budget", "0"],
        ],
    )
    def test_usage_errors_exit_1(self, argv):
        assert main(argv) == 1

    @pytest.mark.parametrize("command, option, extra", [
        ("density-check", "--samples", {"density": "frobenius"}),
        ("fields-verify", "--samples", {}),
        ("ibp-check", "--cases", {}),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_name_the_option(self, command, option, extra, value, capsys,
                                              tmp_path):
        # unchecked, such counts reached NumPy ("zero-size array", "negative
        # dimensions") or max() of an empty sequence
        want = f"argument {option}: expected an integer of at least 1, got '{value}'"
        argv = [command, option, value] + [x for k, v in extra.items() for x in (f"--{k}", v)]
        assert main(argv) == 1
        assert want in capsys.readouterr().err
        # a scenario goes through the same parser
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps({"mode": command, option[2:]: int(value), **extra}))
        assert main(["run", str(sc)]) == 1
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "x"])
    def test_tolerance_must_be_finite_and_positive(self, value, capsys, tmp_path):
        # unchecked, such a tolerance refines every interval to its cap and
        # writes bare NaN or Infinity tokens into the report
        want = f"argument --tol: expected a finite positive number, got '{value}'"
        argv = ["energy-eval", "--function", "u.json", "--density", "frobenius", "--tol", value]
        assert main(argv) == 1
        assert want in capsys.readouterr().err
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps({"mode": "energy-eval", "function": "u.json",
                                  "density": "frobenius", "tol": value}))
        assert main(["run", str(sc)]) == 1
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["falsify", "relax"])
    @pytest.mark.parametrize("values", [("0", "1"), ("0,0,0", "1,1,1")])
    def test_values_that_are_not_planar_exit_1(self, command, values, capsys):
        # the parent died with an IndexError traceback, or NumPy's broadcast error
        argv = [command, "--density", "isotropic:id", "--i", values[0], "--j", values[1],
                "--nu", "0,1", "--seed", "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "planar" in err and "Traceback" not in err

    @pytest.mark.parametrize("nu", ["1e-300,1e-300", "1e300,1e300", "1,1"])
    def test_normals_of_any_finite_size(self, nu, tmp_path):
        # the parent refused the first as a zero vector and the second as
        # |nu| = 0.0 after an overflow in the norm
        out = tmp_path / "report.json"
        argv = ["falsify", "--density", "isotropic:id", "--i", "0,0", "--j", "2,2",
                "--nu", nu, "--budget", "40", "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["results"]["status"] == "NO-VIOLATION-WITHIN-BUDGET"

    @pytest.mark.parametrize("nu", ["nan,1", "0,0"])
    def test_normals_without_a_direction_exit_1(self, nu, capsys):
        argv = ["falsify", "--density", "isotropic:id", "--i", "0,0", "--j", "2,2",
                "--nu", nu, "--budget", "40", "--seed", "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "normalize" in err

    @pytest.mark.parametrize("argv", [["--help"], ["falsify", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage: bdlab" in capsys.readouterr().out


class TestNegativeValues:
    def test_separate_negative_vector_value(self, tmp_path):
        # "--i -1,0" reads like an option to argparse; main takes it as a value
        argv = ["falsify", "--density", "isotropic:id", "--j", "1,1", "--nu", "0,1",
                "--budget", "30", "--seed", "0"]
        reports = []
        for form in (["--i", "-1,0"], ["--i=-1,0"]):
            out = tmp_path / "report.json"
            assert main(argv + form + ["--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["inputs"]["i"] == "-1,0"
        for rep in reports:
            rep.pop("wall_time_s")
        assert reports[0] == reports[1]

    def test_leading_dot_value(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["relax", "--density", "isotropic:id", "--i", "-.5,0", "--j", "1,1",
                "--nu", "0,1", "--budget", "30", "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["inputs"]["i"] == "-.5,0"


class TestDeterminism:
    def test_reports_reproduce(self, tmp_path):
        outs = []
        for k in (1, 2):
            out = tmp_path / f"r{k}.json"
            rc = main(
                ["falsify", "--density", "product:aniso1:eps=0.01",
                 "--i", "0,0", "--j", "2,2", "--nu", "0,1",
                 "--budget", "200", "--seed", "3", "--out", str(out)]
            )
            assert rc == 0
            rep = json.loads(out.read_text())
            rep.pop("wall_time_s")
            outs.append(rep)
        assert outs[0] == outs[1]


class TestParserOnce:
    """main builds its parser once per process; calls after a usage error
    and a scenario run, which calls main again, report what fresh
    processes report."""

    def test_reports_equal_fresh_processes(self, elementary_json, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # elementary_json wrote u.json here
        keys, falsify_argv = SCENARIO_PAIRS["falsify"]
        Path("scenario.json").write_text(json.dumps({"mode": "falsify", **keys, "out": "run.json"}))
        calls = [
            ["energy-eval", "--function", "u.json", "--density", "isotropic:id", "--out", "eval.json"],
            ["density-check", "--density", "frobenius", "--samples", "x"],
            falsify_argv + ["--out", "falsify.json"],
            ["run", "scenario.json"],
        ]
        reports = ("eval.json", "falsify.json", "run.json")

        def read():
            out = [json.loads(Path(p).read_text()) for p in reports]
            for rep in out:
                rep.pop("wall_time_s")
            return out

        assert [main(argv) for argv in calls] == [0, 1, 0, 0]
        assert cli._build_parser() is cli._build_parser()
        in_process = read()
        for p in reports:
            Path(p).unlink()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        codes = [subprocess.run([sys.executable, "-m", "bdlab.cli", *argv], env=env,
                                capture_output=True).returncode for argv in calls]
        assert codes == [0, 1, 0, 0]
        assert read() == in_process


class TestRender:
    def test_svg_structure(self, elementary_json, tmp_path):
        path, u = elementary_json
        out = tmp_path / "u.svg"
        rc = main(["render", "--function", str(path), "--out", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 2  # two cells
        # one jump chord plus its normal tick
        assert svg.count("<line") == 2

    @pytest.mark.parametrize("width", [-5, 0])
    def test_rejects_width_below_one(self, width, elementary_json, tmp_path, capsys):
        # an SVG of negative or zero size is an input error, and none is written
        path, _ = elementary_json
        out = tmp_path / "u.svg"
        rc = main(["render", "--function", str(path), "--out", str(out), "--width", str(width)])
        assert rc == 1
        assert "width must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_no_jump_no_strokes(self, tmp_path):
        u = make_elementary((1, 0), (0, 0), (0, 1), OrientedSquare((0.0, 1.0), 1.0, (0, 0)))
        v = type(u)(u.partition, [u.pieces[0], u.pieces[0]])
        svg = render_svg(v)
        assert "<line" not in svg

    def test_counterexample_layout(self):
        from bdlab.ellipticity import counterexample1_competitor

        svg = render_svg(counterexample1_competitor(1.0))
        assert svg.count("<polygon") == 3
        # eight jump pieces, each with a normal tick
        assert svg.count("<line") == 16
