import json
from pathlib import Path

import numpy as np
import pytest

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
