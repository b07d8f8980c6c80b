import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlbayes import cli
from stlbayes.cli import main
from stlbayes.confidence import chebyshev_sample_size

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "seed": 4242,
    "model": {"preset": "laguerre", "a": 0.4,
              "Sigma_w": [[0.02, 0.0], [0.0, 0.02]]},
    "predicates": {
        "mu1": {"offset": 0.5, "output_gradient": [1.0]},
        "mu2": {"offset": 0.5, "output_gradient": [-1.0]},
    },
    "formula": "G[0,3] (mu1 & mu2)",
    "delta": 0.05,
    "x0": [0.0, 0.0],
    "theta_region": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
    "prior": {"kind": "uniform_box", "lower": [-2.0, -2.0],
              "upper": [2.0, 2.0]},
    "method": "both",
    "mc": {"samples": 2000},
    "pwa": {"per_axis": 6, "per_cell_samples": 100},
    "posterior_mc_samples": 1024,
    "contour_grid": 15,
    "data": {"theta_true": [0.3, 0.3], "n_exp": 6,
             "input": {"kind": "uniform", "low": -2.0, "high": 2.0}},
}


# The model of BASE_CONFIG (the laguerre preset at a = 0.4, Sigma_w 0.02 I)
# written out as matrices.
MATRIX_MODEL = {
    "A": [[0.4, 0.0], [0.84, 0.4]],
    "B": [[0.9165151], [-0.36660605]],
    "G": [[1.0, 0.0], [0.0, 1.0]],
    "C0": [[0.0, 0.0]],
    "C_basis": [[[1.0, 0.0]], [[0.0, 1.0]]],
    "Sigma_w": [[0.02, 0.0], [0.0, 0.02]],
    "Sigma_e": [[0.5]],
    "input_box": [[-0.2], [0.2]],
}


TABLE1 = {"theta_true_list": [[0.3, 0.3]], "repetitions": 2, "n_exp": 5,
          "input": {"kind": "uniform", "low": -2.0, "high": 2.0}}


def mutated(cfg: dict, path: str, value) -> dict:
    """A copy of `cfg` with the field at the dotted `path` set to `value`."""
    cfg = copy.deepcopy(cfg)
    *sections, key = path.split(".")
    node = cfg
    for name in sections:
        node = node[name]
    node[key] = value
    return cfg


def write_config(tmp_path: Path, cfg: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(args) -> int:
    return main([str(a) for a in args])


class TestVerify:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        for name in ("report.json", "dataset.csv", "feasible_cells.csv",
                     "posterior_contour.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["results"]["mc"]["value"] <= 1.0
        assert report["results"]["pwa"]["interval"][0] <= \
            report["results"]["pwa"]["interval"][1]
        assert report["results"]["decomposition"]["groups"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify", "--config", cfg, "--out", out1]) == 0
        assert run(["verify", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_report_embeds_reproducible_config(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1 = tmp_path / "a"
        assert run(["verify", "--config", cfg, "--out", out1]) == 0
        embedded = json.loads((out1 / "report.json").read_text())["config"]
        cfg2 = write_config(tmp_path, embedded, name="embedded.json")
        out2 = tmp_path / "b"
        assert run(["verify", "--config", cfg2, "--out", out2]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify", "--config", cfg, "--out", out1]) == 0
        assert run(["verify", "--config", cfg, "--out", out2,
                    "--seed", 999]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["results"]["mc"]["raw_value"] != \
            r2["results"]["mc"]["raw_value"]

    def test_malformed_formula_diagnostic(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["formula"] = "G[0,3 mu1"
        path = write_config(tmp_path, cfg)
        assert run(["verify", "--config", path, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "formula" in err and "offset 6" in err

    def test_missing_field(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        del cfg["delta"]
        path = write_config(tmp_path, cfg)
        assert run(["verify", "--config", path, "--out", tmp_path / "o"]) == 2
        assert "delta" in capsys.readouterr().err

    def test_unknown_predicate_in_formula(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["formula"] = "G[0,3] nosuch"
        path = write_config(tmp_path, cfg)
        assert run(["verify", "--config", path, "--out", tmp_path / "o"]) == 2
        assert "nosuch" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"]["Sigma_w"] = [[0.0, 0.0], [0.0, 0.0]]
        cfg["model"]["Sigma_e"] = [[0.0]]
        path = write_config(tmp_path, cfg)
        assert run(["verify", "--config", path, "--out", tmp_path / "o"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_method_override(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "mc_only"
        assert run(["verify", "--config", cfg, "--out", out,
                    "--method", "mc"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "mc" in report["results"] and "pwa" not in report["results"]

    @pytest.mark.parametrize("outputs", [
        # One output y = theta' x.
        dict(C0=[[0.0, 0.0]], C_basis=[[[1.0, 0.0]], [[0.0, 1.0]]],
             Sigma_e=[[0.5]], gradients=([1.0], [-1.0])),
        # A second, parameter-free output 0.5 (x1 + x2) whose noise is
        # correlated with the first; the predicates read both outputs.
        dict(C0=[[0.0, 0.0], [0.5, 0.5]],
             C_basis=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
             Sigma_e=[[0.5, 0.2], [0.2, 0.4]],
             gradients=([1.0, 0.5], [-1.0, -0.5])),
    ], ids=["p1", "p2"])
    def test_custom_matrix_model(self, tmp_path, outputs):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"] = dict(MATRIX_MODEL, C0=outputs["C0"],
                            C_basis=outputs["C_basis"],
                            Sigma_e=outputs["Sigma_e"])
        for name, gradient in zip(("mu1", "mu2"), outputs["gradients"]):
            cfg["predicates"][name]["output_gradient"] = gradient
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run(["verify", "--config", path, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["mc"]["value"] > 0.0
        assert np.isfinite(report["results"]["normalizer"]["log_z"])

    def test_chebyshev_sample_sizing(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["method"] = "mc"
        cfg["mc"] = {"epsilon": 0.02, "floor": 0.9, "pilot_samples": 1000}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run(["verify", "--config", path, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        est = report["results"]["mc"]
        assert est["samples"] >= 1
        # Reported bound uses the requested epsilon.
        assert est["chebyshev_epsilon"] == 0.02

    def test_restriction_in_pipeline(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["restrict_region"] = True
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run(["verify", "--config", path, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        region = report["results"]["region"]
        assert not region["empty"]
        assert region["upper"][0] < 2.0

    def test_contour_rows_and_normalizer_fields(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        with (out / "posterior_contour.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta_1", "theta_2", "density"]
        grid = BASE_CONFIG["contour_grid"]
        axis = np.linspace(-2.0, 2.0, grid)
        values = np.array(rows[1:], dtype=float)
        # One row per grid point, theta_1 outer and theta_2 inner.
        assert np.array_equal(values[:, 0], np.repeat(axis, grid))
        assert np.array_equal(values[:, 1], np.tile(axis, grid))
        assert np.all(np.isfinite(values[:, 2])) and np.all(values[:, 2] >= 0)
        norm = json.loads((out / "report.json").read_text())["results"][
            "normalizer"]
        assert norm["z_rel_error"] == pytest.approx(
            norm["std_error"] / norm["z"], rel=1e-12)


class TestTable1:
    def test_single_repetition_warns(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["method"] = "mc"
        cfg["mc"] = {"samples": 1500}
        cfg["table1"] = {
            "theta_true_list": [[0.3, 0.3], [1.5, 1.5]],
            "repetitions": 1,
            "n_exp": 5,
            "input": {"kind": "uniform", "low": -2.0, "high": 2.0},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run(["table1", "--config", path, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        rows = report["results"]["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["mc"]["variance"] == 0.0
            assert "warning" in row["mc"]
        table = (out / "table1.csv").read_text().splitlines()
        assert table[0] == "theta_true,mc_mean,mc_variance"
        assert len(table) == 3

    def test_mean_and_variance_over_repetitions(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["method"] = "mc"
        cfg["mc"] = {"samples": 1500}
        cfg["table1"] = {
            "theta_true_list": [[0.3, 0.3]],
            "repetitions": 3,
            "n_exp": 5,
            "input": {"kind": "uniform", "low": -2.0, "high": 2.0},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run(["table1", "--config", path, "--out", out]) == 0
        row = json.loads((out / "report.json").read_text())["results"]["rows"][0]
        values = np.asarray(row["mc"]["values"])
        assert row["mc"]["mean"] == pytest.approx(values.mean())
        assert row["mc"]["variance"] == pytest.approx(values.var(ddof=1))


class TestSimulate:
    def test_row_count_and_determinism(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["data"]["n_exp"] = 50
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", path, "--out", out1]) == 0
        assert run(["simulate", "--config", path, "--out", out2]) == 0
        rows = (out1 / "dataset.csv").read_text().strip().splitlines()
        assert len(rows) == 51
        assert (out1 / "dataset.csv").read_bytes() == \
            (out2 / "dataset.csv").read_bytes()
        assert (out1 / "dataset.json").exists()

    def test_zero_measurements_rejected(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["data"]["n_exp"] = 0
        path = write_config(tmp_path, cfg)
        assert run(["simulate", "--config", path, "--out", tmp_path / "o"]) == 2
        assert "n_exp" in capsys.readouterr().err


class TestTable1Pipeline:
    def test_restrict_region_matches_explicit_region(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["restrict_region"] = True
        cfg["table1"] = TABLE1
        path = write_config(tmp_path, cfg)
        assert run(["verify", "--config", path, "--out", tmp_path / "v"]) == 0
        region = json.loads((tmp_path / "v" / "report.json").read_text())[
            "results"]["region"]
        assert region["upper"][0] < 2.0
        assert run(["table1", "--config", path, "--out", tmp_path / "a"]) == 0
        cfg["restrict_region"] = False
        cfg["theta_region"] = {"lower": region["lower"],
                               "upper": region["upper"]}
        path = write_config(tmp_path, cfg, name="explicit.json")
        assert run(["table1", "--config", path, "--out", tmp_path / "b"]) == 0
        rows_a, rows_b = (
            json.loads((tmp_path / d / "report.json").read_text())[
                "results"]["rows"] for d in ("a", "b"))
        assert rows_a == rows_b
        assert (tmp_path / "a" / "table1.csv").read_bytes() == \
            (tmp_path / "b" / "table1.csv").read_bytes()

    def test_mc_sizing_uses_the_pilot(self, tmp_path, monkeypatch):
        calls = []
        real = cli.mc_confidence

        def spy(post, sat, region, n, rng, **kwargs):
            est = real(post, sat, region, n, rng, **kwargs)
            calls.append((n, rng.path, region.volume, est))
            return est

        monkeypatch.setattr(cli, "mc_confidence", spy)
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["method"] = "mc"
        cfg["mc"] = {"epsilon": 0.02, "floor": 0.9, "pilot_samples": 500}
        cfg["table1"] = TABLE1
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run(["table1", "--config", path, "--out", out]) == 0
        pilots = [c for c in calls if c[1][-1] == "pilot"]
        finals = [c for c in calls if c[1][-1] != "pilot"]
        assert len(pilots) == len(finals) == TABLE1["repetitions"]
        for (pilot_n, _, volume, pilot), (n, _, _, _) in zip(pilots, finals):
            assert pilot_n == 500
            assert n == chebyshev_sample_size(
                0.02, 0.9, pilot.variance_estimate * 500 / volume ** 2, volume)
            assert n != 10000
        row = json.loads((out / "report.json").read_text())["results"]["rows"][0]
        assert row["mc"]["values"] == [est.value for *_, est in finals]


def _mc_by_method(cfg: dict, tmp_path: Path, monkeypatch) -> tuple:
    """`results.mc` of `cmd_verify` under methods mc and both, with the
    `cells` each `mc_confidence` call received."""
    real, seen = cli.mc_confidence, {}

    def spy(*args, **kwargs):
        seen[method].append(kwargs.get("cells"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "mc_confidence", spy)
    results = {}
    for method in ("mc", "both"):
        seen[method] = []
        out = tmp_path / method
        out.mkdir()
        results[method] = cli.cmd_verify(cfg, out, method)["results"]["mc"]
    return results, seen


class TestMcFromCellLabels:
    """Under method both, MC reads satisfaction from the certified cells;
    its estimate must be the one the leaves give under method mc."""

    @pytest.mark.parametrize("seed", [7311, 20240])
    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_same_estimate_as_the_leaf_route(self, config, seed, tmp_path,
                                             monkeypatch):
        cfg = dict(json.loads(config.read_text()), seed=seed)
        results, seen = _mc_by_method(cfg, tmp_path, monkeypatch)
        assert results["mc"] == results["both"]
        assert seen["mc"] == [None]
        assert len(seen["both"]) == 1 and seen["both"][0] is not None

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_pilot_picks_the_same_sample_size(self, config, tmp_path,
                                              monkeypatch):
        cfg = json.loads(config.read_text())
        cfg["mc"] = {"epsilon": 0.05, "floor": 0.5, "pilot_samples": 4000}
        results, seen = _mc_by_method(cfg, tmp_path, monkeypatch)
        assert results["mc"] == results["both"]
        assert results["mc"]["samples"] != 10000
        assert seen["mc"] == [None, None]
        assert all(cells is not None for cells in seen["both"])
        assert len(seen["both"]) == 2


class TestReport:
    def test_report_is_compact_sorted_json(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "o"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        text = (out / "report.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_bundled_config_builds_a_problem(config):
    """Every bundled config passes the loader, for verify and for table1."""
    cfg = json.loads(config.read_text())
    problem = cli._problem(cfg, None)
    assert problem.spec.leaves() and problem.region.volume > 0
    assert (problem.cells is None) == (problem.method == "mc")
    assert (problem.data is None) == ("data" not in cfg)
    assert (problem.table1 is None) == ("table1" not in cfg)


def test_import_and_build_load_no_scipy():
    """The package's run-time path needs numpy and the standard library only.

    Checked in a fresh interpreter, because this test process has scipy
    loaded already for the test-only references.
    """
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from stlbayes import cli\n"
        "for path in sorted(Path(sys.argv[1]).glob('*.json')):\n"
        "    cli._problem(json.loads(path.read_text()), None)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n")
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_weight_vector_moves_the_leaf_thresholds():
    cfg = dict(BASE_CONFIG, formula="mu1 & mu2",
               weights={"weights": {"": [0.9, 0.1]}})
    leaves = cli._problem(cfg, "mc").spec.leaves()
    delta = BASE_CONFIG["delta"]
    assert [leaf.threshold for leaf in leaves] == pytest.approx(
        [1 - 0.9 * delta, 1 - 0.1 * delta])


def test_restriction_without_hits_keeps_the_region():
    cfg = json.loads((CONFIG_DIR / "case_study.json").read_text())
    cfg["restrict_region"] = True
    problem = cli._problem(cfg, "mc")
    assert problem.region_empty
    assert problem.region.lower.tolist() == cfg["theta_region"]["lower"]
    assert problem.region.upper.tolist() == cfg["theta_region"]["upper"]


def _csv_module_bytes(rows) -> bytes:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode()


def test_csv_files_match_the_csv_module(tmp_path):
    """The writers give the bytes of csv.writer for the same repr'd fields,
    a negative zero and floats in exponent form included."""
    cells = cli.Cells([[-0.0, 0.1], [1e-05, -2.5]], [[0.0, 0.2], [3.0, 1e20]],
                      ["feasible", "unknown"])
    cli._write_cells(tmp_path / "feasible_cells.csv", cells)
    header = ["theta_lo_1", "theta_lo_2", "theta_hi_1", "theta_hi_2", "label"]
    bounds = np.hstack([cells.lower, cells.upper])
    assert (tmp_path / "feasible_cells.csv").read_bytes() == _csv_module_bytes(
        [header] + [[repr(float(v)) for v in row] + [label]
                    for row, label in zip(bounds, cells.label)])
    assert b"-0.0,0.1,0.0" in (tmp_path / "feasible_cells.csv").read_bytes()

    density = np.array([1e-05, -0.0, 2.5e-300, 123456789.0, 0.1, 1.0, 7e22,
                        3.0, 5e-324])
    post = types.SimpleNamespace(density=lambda points: density)
    region = cli.Box([-0.5, 0.0], [0.5, 1.0])
    cli._write_contour(tmp_path / "posterior_contour.csv", post, region, 3)
    axis_1, axis_2 = np.linspace(-0.5, 0.5, 3), np.linspace(0.0, 1.0, 3)
    table = np.column_stack([np.repeat(axis_1, 3), np.tile(axis_2, 3),
                             density])
    contour = (tmp_path / "posterior_contour.csv").read_bytes()
    assert contour == _csv_module_bytes(
        [["theta_1", "theta_2", "density"]]
        + [[repr(float(v)) for v in row] for row in table])
    assert b"-0.5,0.5,-0.0\r\n-0.5,1.0,2.5e-300\r\n" in contour

    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["method"] = "mc"
    cfg["mc"] = {"samples": 1500}
    cfg["table1"] = {**TABLE1, "theta_true_list": [[-0.0, 0.3], [1e-05, 1.5]],
                     "repetitions": 1}
    rows = cli.cmd_table1(cfg, tmp_path)["results"]["rows"]
    assert (tmp_path / "table1.csv").read_bytes() == _csv_module_bytes(
        [["theta_true", "mc_mean", "mc_variance"]]
        + [[" ".join(map(repr, row["theta_true"])), repr(row["mc"]["mean"]),
            repr(row["mc"]["variance"])] for row in rows])
    assert (tmp_path / "table1.csv").read_bytes().count(b"-0.0 0.3,") == 1


# Each case: command, mutated field, value, the path the error must name.
# The first block is a probe of the loader that once exited 3 or raised.
CONFIG_ERRORS = [
    ("verify", "delta", "x", "delta"),
    ("verify", "seed", "x", "seed"),
    ("verify", "mc.samples", "abc", "mc.samples"),
    ("verify", "input_box", [[0.2], [-0.2]], "input_box"),
    ("verify", "pwa.per_axis", 0, "pwa.per_axis"),
    ("verify", "pwa.per_cell_samples", 0, "pwa.per_cell_samples"),
    ("verify", "posterior_mc_samples", 0, "posterior_mc_samples"),
    ("verify", "contour_grid", "a", "contour_grid"),
    ("verify", "data.n_exp", "a", "data.n_exp"),
    ("verify", "predicates", [1], "predicates"),
    ("verify", "mc", 5, "mc"),
    ("verify", "delta", 2, "delta"),
    ("verify", "x0", [0.0], "x0"),
    ("verify", "gamma_form", "nope", "gamma_form"),
    ("verify", "theta_region", {"lower": [3.0, 3.0], "upper": [4.0, 4.0]},
     "theta_region"),
    ("verify", "restrict_grid", 0, "restrict_grid"),
    ("table1", "table1.theta_true_list", 3, "table1.theta_true_list"),
    ("table1", "table1.repetitions", "x", "table1.repetitions"),
    ("table1", "table1.n_exp", 0, "table1.n_exp"),
    ("simulate", "x0", [0.0], "x0"),
    # Further fields the loader checks at their own paths.
    ("verify", "mc.pilot_samples", 0, "mc.pilot_samples"),
    ("verify", "mc.epsilon", 0, "mc.epsilon"),
    ("verify", "restrict_region", "yes", "restrict_region"),
    ("verify", "literal_shares", 1, "literal_shares"),
    ("verify", "model.Sigma_w", [[0.02]], "model"),
    ("verify", "predicates", {"a.b": {"offset": 1.0, "output_gradient": [1.0]}},
     "predicates"),
    ("table1", "table1.theta_true_list", [[0.3, 0.3], [1.0]],
     "table1.theta_true_list[1]"),
    ("verify", "model.input_lower", [-1.0], "model.input_lower"),
    # Explicit weight vectors: not summing to one, not fitting the node,
    # negative.
    ("verify", "weights", {"weights": {"": [0.7, 0.7]}}, "weights.weights"),
    ("verify", "weights", {"weights": {"": [0.5, 0.5]}}, "weights.weights"),
    ("verify", "weights", {"weights": {"": [-1, 2]}}, "weights.weights"),
    # Fields that are no longer read, even when well formed: model.input_box
    # is the one input box, and weights.weights alone picks the vectors.
    ("verify", "input_box", [[-0.5], [0.5]], "input_box"),
    ("verify", "model", dict(MATRIX_MODEL, input_lower=[-1.0]),
     "model.input_lower"),
    ("verify", "model", dict(MATRIX_MODEL, input_upper=[1.0]),
     "model.input_upper"),
    ("verify", "weights", {"mode": "explicit"}, "weights.mode"),
    # The noise margin is sigma * Phi^-1(delta) and conjunct i may fail with
    # w_i times the budget; neither has a setting.
    ("verify", "gamma_form", "stddev", "gamma_form"),
    ("verify", "gamma_form", "variance_literal", "gamma_form"),
    ("verify", "literal_shares", False, "literal_shares"),
    # The restriction classifies the cells of pwa.per_axis; it has no grid.
    ("verify", ("restrict_region", "restrict_grid"), (True, 17),
     "restrict_grid"),
    # A floor that the pilot sizing would not read.
    ("verify", "mc", {"floor": 0.9}, "mc.floor"),
    ("verify", "mc", {"samples": 100, "floor": 0.9}, "mc.floor"),
    # Pilot samples without a floor, whose sizing alone reads them; the
    # value is still checked where it is read.
    ("verify", "mc", {"samples": 100, "pilot_samples": 5}, "mc.pilot_samples"),
    ("verify", "mc", {"pilot_samples": 5}, "mc.pilot_samples"),
    ("verify", "mc", {"epsilon": 0.02, "floor": 0.9, "pilot_samples": 0},
     "mc.pilot_samples"),
    # A two-input box for the one-input Laguerre preset: a cross-field check
    # inside the model's constructor.
    ("verify", "model.input_box", [[-1, -1], [1, 1]], "model"),
    # Boxes with a lower bound above the upper one, or no volume.
    ("verify", "theta_region", {"lower": [1.0, -2.0], "upper": [0.0, 2.0]},
     "theta_region"),
    ("verify", "model.input_box", [[0.2], [-0.2]], "model.input_box"),
    ("verify", "prior", {"lower": [2.0, -2.0], "upper": [-2.0, 2.0]},
     "prior"),
    ("verify", "prior", {"lower": [-2.0, 2.0], "upper": [2.0, 2.0]}, "prior"),
    # Input samplers: a uniform range with low above high, a negative std.
    ("verify", "data.input", {"kind": "uniform", "low": 1.0, "high": -1.0},
     "data.input"),
    ("verify", "data.input", {"kind": "gaussian", "std": -1.0}, "data.input"),
    ("table1", "table1.input", {"kind": "uniform", "low": 2.0, "high": 1.0},
     "table1.input"),
    ("table1", "table1.input", {"kind": "gaussian", "std": -0.5},
     "table1.input"),
    ("simulate", "data.input", {"kind": "uniform", "low": 1.0, "high": -1.0},
     "data.input"),
    ("simulate", "data.input", {"kind": "gaussian", "std": -1.0},
     "data.input"),
    # A removed field beside a one-leaf formula whose delta, 0.6, is in
    # range for the margin.
    ("verify", ("formula", "delta", "gamma_form"), ("mu1", 0.6,
                                                    "variance_literal"),
     "gamma_form"),
]


@pytest.mark.parametrize("command,field,value,reported", CONFIG_ERRORS,
                         ids=[f"{c[0]}-{c[1]}={c[2]!r}" for c in CONFIG_ERRORS])
def test_malformed_field_exits_2_at_its_path(tmp_path, capsys, command, field,
                                             value, reported):
    cfg = dict(BASE_CONFIG, table1=TABLE1)
    pairs = zip(field, value) if isinstance(field, tuple) else [(field, value)]
    for name, item in pairs:
        cfg = mutated(cfg, name, item)
    path = write_config(tmp_path, cfg)
    assert run([command, "--config", path, "--out", tmp_path / "o"]) == 2
    assert f"config error at {reported}:" in capsys.readouterr().err


def test_missing_table1_section_before_numeric_work(tmp_path, capsys,
                                                    monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numeric work before the config check")

    monkeypatch.setattr(cli, "restrict_region", forbidden)
    monkeypatch.setattr(cli, "classify_cells", forbidden)
    cfg = dict(BASE_CONFIG, restrict_region=True)
    path = write_config(tmp_path, cfg)
    assert run(["table1", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "config error at table1:" in capsys.readouterr().err


def _small(cfg: dict) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg.update(mc=dict(cfg["mc"], samples=300), posterior_mc_samples=128,
               pwa={"per_axis": 3, "per_cell_samples": 20}, contour_grid=5)
    cfg["data"]["n_exp"] = 5
    if "table1" in cfg:
        cfg["table1"].update(theta_true_list=cfg["table1"]["theta_true_list"][:1],
                             repetitions=2, n_exp=5)
    return cfg


BUNDLED = {p.name: _small(json.loads(p.read_text()))
           for p in sorted(CONFIG_DIR.glob("*.json"))}


def _fields(node: dict, prefix=""):
    """Dotted paths of every section and field, matrices left out."""
    for key, value in node.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            continue
        yield prefix + key
        if isinstance(value, dict):
            yield from _fields(value, prefix + key + ".")


MUTATIONS = [(name, path) for name, cfg in BUNDLED.items()
             for path in _fields(cfg)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(["x", None, -1, 0, [], {}]))
def test_one_field_mutation_is_never_a_numeric_failure(target, value):
    name, field = target
    cfg = mutated(BUNDLED[name], field, value)
    commands = ["verify"] + (["table1"] if field.startswith("table1.") else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run([command, "--config", path, "--out", Path(tmp) / "o"])
            assert code in (0, 2), err.getvalue()
            if code == 0:
                continue
            reported = re.search(r"config error at (\S+):",
                                 err.getvalue()).group(1)
            if field == "predicates" and value == {}:
                # No predicates left: the formula names an unknown one.
                assert reported == "formula" and "mu1" in err.getvalue()
            else:
                assert (reported == field or field.startswith(reported + ".")
                        or reported.startswith((field + ".", field + "["))), \
                    err.getvalue()
