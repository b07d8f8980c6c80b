import copy
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from stlbayes.cli import main

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

    def test_custom_matrix_model(self, tmp_path):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["model"] = {
            "A": [[0.4, 0.0], [0.84, 0.4]],
            "B": [[0.9165151], [-0.36660605]],
            "G": [[1.0, 0.0], [0.0, 1.0]],
            "C0": [[0.0, 0.0]],
            "C_basis": [[[1.0, 0.0]], [[0.0, 1.0]]],
            "Sigma_w": [[0.02, 0.0], [0.0, 0.02]],
            "Sigma_e": [[0.5]],
            "input_box": [[-0.2], [0.2]],
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run(["verify", "--config", path, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["mc"]["value"] > 0.0

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
        cfg["restrict_grid"] = 17
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
