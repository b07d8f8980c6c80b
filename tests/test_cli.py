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

from stlbayes import cli, feasibility, lti
from stlbayes.cli import main
from stlbayes.confidence import chebyshev_sample_size
from stlbayes.rng import RngStream

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
        # The report lists the leaves of G[0,3] (mu1 & mu2) in
        # decomposition order: eight conjuncts, each at its own path.
        decomposition = report["results"]["decomposition"]
        assert list(decomposition) == ["leaves"]
        assert [leaf["path"] for leaf in decomposition["leaves"]] == \
            [f"c{i}" for i in range(8)]
        assert [(leaf["label"], leaf["time"])
                for leaf in decomposition["leaves"][:2]] == [("mu1", 0),
                                                             ("mu2", 0)]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify", "--config", cfg, "--out", out1]) == 0
        assert run(["verify", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "flags", [[], ["--seed", 999], ["--method", "mc"], ["--method", "pwa"]],
        ids=["no-flag", "seed", "method-mc", "method-pwa"])
    @pytest.mark.parametrize("command", ["verify", "table1"])
    def test_report_embeds_reproducible_config(self, tmp_path, command,
                                               flags):
        """A report, also one written with --seed or --method, is written
        again byte for byte from the config it embeds."""
        cfg = write_config(tmp_path, dict(BASE_CONFIG, table1=TABLE1)
                           if command == "table1" else BASE_CONFIG)
        out1 = tmp_path / "a"
        assert run([command, "--config", cfg, "--out", out1, *flags]) == 0
        embedded = json.loads((out1 / "report.json").read_text())["config"]
        cfg2 = write_config(tmp_path, embedded, name="embedded.json")
        out2 = tmp_path / "b"
        assert run([command, "--config", cfg2, "--out", out2]) == 0
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

    def test_temporal_operand_names_the_operator(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["formula"] = "F[0,2] G[0,1] mu1"
        path = write_config(tmp_path, cfg)
        assert run(["verify", "--config", path, "--out", tmp_path / "o"]) == 2
        assert "F[0,2] operands" in capsys.readouterr().err

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

    def test_sections_it_does_not_read_are_not_checked(self, tmp_path):
        # A misspelt field is rejected only in the sections simulate reads
        # (CONFIG_ERRORS); a verify or table1 section is left to verify.
        cfg = dict(BASE_CONFIG, table1=TABLE1, mc={"sample": 100})
        path = write_config(tmp_path, cfg)
        assert run(["simulate", "--config", path, "--out", tmp_path / "o"]) == 0

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
        real_draws, real = cli.mc_draws, cli.mc_confidence

        def spy_draws(sat, region, n, rng, cells=None):
            calls.append((n, rng.path, region.volume))
            return real_draws(sat, region, n, rng, cells)

        def spy(post, region, draws, epsilon=None):
            est = real(post, region, draws, epsilon)
            calls[-1] += (est,)  # the estimate on the last draws
            return est

        monkeypatch.setattr(cli, "mc_draws", spy_draws)
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
    `cells` each `mc_draws` call received."""
    real, seen = cli.mc_draws, {}

    def spy(sat, region, n, rng, cells=None):
        seen[method].append(cells)
        return real(sat, region, n, rng, cells)

    monkeypatch.setattr(cli, "mc_draws", spy)
    results = {}
    for method in ("mc", "both"):
        seen[method] = []
        out = tmp_path / method
        out.mkdir()
        results[method] = cli.cmd_verify(dict(cfg, method=method),
                                         out)["results"]["mc"]
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

    def test_restricted_mc_reads_the_restriction_cells(self, tmp_path,
                                                       monkeypatch):
        """Under method mc with restrict_region, the restriction's cells
        reach `mc_draws`: the same estimate, fewer rows at the leaves, and
        still no feasible_cells.csv."""
        cfg = dict(BASE_CONFIG, restrict_region=True, method="mc")
        problem = cli._problem(cfg)
        assert problem.cells is not None
        rows = []
        real = feasibility._LeafGeometry.margins

        def spy(self, thetas):
            rows.append(len(thetas))
            return real(self, thetas)

        monkeypatch.setattr(feasibility._LeafGeometry, "margins", spy)
        root = RngStream(problem.seed)
        data = BASE_CONFIG["data"]
        dataset = cli.collect_data(problem.model, data["theta_true"],
                                   problem.data.sampler, data["n_exp"],
                                   problem.spec.x0, root.child("data"))
        estimates, leaf_rows = [], []
        for cells in (problem.cells, None):
            rows.clear()
            problem.cells = cells
            estimates.append(cli._estimate(problem, [dataset], root)[0][1])
            leaf_rows.append(sum(rows))
        assert estimates[0] == estimates[1]
        assert 0 < leaf_rows[0] < leaf_rows[1]
        out = tmp_path / "o"
        out.mkdir()
        cli.cmd_verify(cfg, out)
        assert not (out / "feasible_cells.csv").exists()


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
    problem = cli._problem(cfg)
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
        "    cli._problem(json.loads(path.read_text()))\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n")
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_cli_import_loads_no_test_oracle_and_no_dataclasses():
    """Importing the front end compiles no test-side reference, builds no
    dataclass and loads neither `numpy.random` nor `csv`: a fresh process
    that writes no bytecode, as the benchmark's set-up probe runs, with the
    tests directory importable."""
    names = ["dataclasses", "stlbayes.simplex", "oracles", "numpy.random",
             "csv"]
    script = ("import json, sys\n"
              "import stlbayes.cli\n"
              f"print(json.dumps([m for m in {names!r} if m in sys.modules]))\n")
    tests = Path(__file__).resolve().parent
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("name", ["safety_demo.json", "case_study.json"])
def test_pipeline_streams_are_pairwise_distinct(name, tmp_path, monkeypatch):
    """The streams of one `verify` and one `table1` on a bundled config
    start with distinct draws, path by path: no two paths name the same
    stream, as a trailing 0 label on a short path would (see `rng`)."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    # Fewer draws and estimates; the paths do not depend on their sizes.
    cfg["mc"]["samples"] = 500
    cfg["pwa"]["per_cell_samples"] = 20
    cfg["posterior_mc_samples"] = 256
    data = cfg["data"]
    cfg["table1"] = {"theta_true_list": [data["theta_true"], [1.0, 0.5]],
                     "repetitions": 2, "n_exp": data["n_exp"],
                     "input": data["input"]}
    paths, generator = set(), RngStream.generator

    def recording(stream):
        paths.add(stream)
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", recording)
    cli.cmd_verify(cfg, tmp_path)
    cli.cmd_table1(cfg, tmp_path)
    monkeypatch.undo()
    assert RngStream(cfg["seed"], ("pwa", "cell")) in paths
    # The last repetition draws once for both parameters, on the streams
    # of its first parameter's estimate, and a record for each.
    assert RngStream(cfg["seed"], ("table1", 0, 1, "pwa", "cell")) in paths
    assert RngStream(cfg["seed"], ("table1", 1, 1, "data", "inputs")) in paths
    assert RngStream(cfg["seed"], ("table1", 1, 1, "pwa", "cell")) not in paths
    first = {generator(s).bit_generator.random_raw() for s in paths}
    assert len(first) == len(paths)


def test_outputs_tool_writes_a_workload(tmp_path):
    """`tools/outputs.py` writes every file of both commands of a workload
    at a seed, from this checkout's package."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "outputs.py"), "--workload",
         "prior-grid64", "7311", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert str(root / "src" / "stlbayes") in done.stderr
    out = tmp_path / "prior-grid64" / "7311"
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                  if p.is_file()) == [
        "table1/report.json", "table1/table1.csv", "verify/feasible_cells.csv",
        "verify/posterior_contour.csv", "verify/report.json"]
    assert [p.name for p in tmp_path.iterdir()] == ["prior-grid64"]
    assert json.loads((out / "verify" / "report.json").read_text())


def test_pairs_tool_counts_wins_in_each_metrics_direction():
    """`tools/pairs.py` summarizes each declared metric over the pairs in
    which both sides report it and counts the change's wins in the
    metric's direction; a failed run leaves its pair out."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "tools"))
    try:
        import pairs
    finally:
        sys.path.remove(str(root / "tools"))

    def run(**values):
        return {"correct": True, "metrics": {
            name: {"value": v, "unit": "-"} for name, v in values.items()}}

    runs = [{"parent": run(verify_s=2.0, rate=10.0),
             "change": run(verify_s=1.0, rate=12.0)},
            {"parent": run(verify_s=2.0, rate=10.0),
             "change": run(verify_s=3.0, rate=10.0)},
            {"parent": {"returncode": 1, "correct": False},
             "change": run(verify_s=0.5, rate=20.0)}]
    out = pairs._compare(runs, {"verify_s": ("lower", "s"),
                                "rate": ("higher", "1/s"),
                                "setup_s": ("lower", "s")})
    assert sorted(out) == ["rate", "verify_s"]
    assert (out["verify_s"]["pairs"], out["verify_s"]["change_wins"],
            out["verify_s"]["ties"]) == (2, 1, 0)
    assert (out["rate"]["change_wins"], out["rate"]["ties"]) == (1, 1)
    assert out["verify_s"]["parent"] == {"median": 2.0, "q1": 2.0,
                                         "q3": 2.0, "runs": [2.0, 2.0]}
    assert out["verify_s"]["relative_change_of_median"] == 0.0
    assert out["rate"]["change"]["median"] == 11.0


def test_weight_vector_moves_the_leaf_thresholds():
    cfg = dict(BASE_CONFIG, formula="mu1 & mu2", method="mc",
               weights={"weights": {"": [0.9, 0.1]}})
    leaves = cli._problem(cfg).spec.leaves()
    delta = BASE_CONFIG["delta"]
    assert [leaf.threshold for leaf in leaves] == pytest.approx(
        [1 - 0.9 * delta, 1 - 0.1 * delta])


def test_restriction_without_hits_keeps_the_region():
    cfg = json.loads((CONFIG_DIR / "case_study.json").read_text())
    cfg["restrict_region"] = True
    cfg["method"] = "mc"
    problem = cli._problem(cfg)
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
    cells = cli.Cells([[-0.0, 1e-05, 3.0], [-2.5, 0.1, 0.2, 1e20]],
                      ["feasible", "unknown", "infeasible"] * 2)
    cli._write_cells(tmp_path / "feasible_cells.csv", cells)
    header = ["theta_lo_1", "theta_lo_2", "theta_hi_1", "theta_hi_2", "label"]
    bounds = np.hstack([cells.lower, cells.upper])
    written = (tmp_path / "feasible_cells.csv").read_bytes()
    assert written == _csv_module_bytes(
        [header] + [[repr(float(v)) for v in row] + [label]
                    for row, label in zip(bounds, cells.label)])
    assert b"\r\n-0.0,-2.5,1e-05,0.1,feasible\r\n" in written
    assert b",3.0,1e+20,infeasible\r\n" in written

    density = np.array([1e-05, -0.0, 2.5e-300, 123456789.0, 0.1, 1.0, 7e22,
                        3.0, 5e-324])
    post = types.SimpleNamespace(density=lambda points: density)
    region = cli.Box([-0.5, 0.0], [0.5, 1.0])
    cli._write_contour(tmp_path / "posterior_contour.csv", post,
                       cli._contour_points(region, 3))
    axis_1, axis_2 = np.linspace(-0.5, 0.5, 3), np.linspace(0.0, 1.0, 3)
    table = np.column_stack([np.repeat(axis_1, 3), np.tile(axis_2, 3),
                             density])
    contour = (tmp_path / "posterior_contour.csv").read_bytes()
    assert contour == _csv_module_bytes(
        [["theta_1", "theta_2", "density"]]
        + [[repr(float(v)) for v in row] for row in table])
    assert b"-0.5,0.5,-0.0\r\n-0.5,1.0,2.5e-300\r\n" in contour

    # A 64-per-axis partition with -0.0 and 0.0 among its edges, and a
    # contour whose densities repeat: each value keeps its own text.
    grid = cli.pwa_partition(cli.Box([-1.0, -1.0], [-0.0, 1.0]), 64)
    cells = cli.Cells(grid.edges,
                      np.resize(["feasible", "infeasible", "unknown"],
                                len(grid)))
    bounds = np.hstack([cells.lower, cells.upper])
    assert np.signbit(bounds[bounds == 0.0]).any()
    assert not np.signbit(bounds[bounds == 0.0]).all()
    cli._write_cells(tmp_path / "feasible_cells.csv", cells)
    assert (tmp_path / "feasible_cells.csv").read_bytes() == _csv_module_bytes(
        [header] + [[repr(float(v)) for v in row] + [label]
                    for row, label in zip(bounds, cells.label)])
    density = np.resize([0.0, 1e-05, -0.0, 0.1, 0.1, 2.5e-300, 1e-05], 25)
    density[-3:] = [7e22, 3.0, 5e-324]
    post = types.SimpleNamespace(density=lambda points: density)
    cli._write_contour(tmp_path / "posterior_contour.csv", post,
                       cli._contour_points(region, 5))
    axis_1, axis_2 = np.linspace(-0.5, 0.5, 5), np.linspace(0.0, 1.0, 5)
    table = np.column_stack([np.repeat(axis_1, 5), np.tile(axis_2, 5),
                             density])
    assert (tmp_path / "posterior_contour.csv").read_bytes() == \
        _csv_module_bytes([["theta_1", "theta_2", "density"]]
                          + [[repr(float(v)) for v in row] for row in table])

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


@pytest.mark.parametrize("lower, upper, per_axis", [
    ([-1.0], [2.5], 7), ([-1.0, -1.0], [-0.0, 1.0], 64),
    ([-1.0, 0.0, 0.5], [1.0, 1e-05, 3.0], 5),
], ids=["d=1", "d=2", "d=3"])
def test_cells_from_edges_match_the_bounds(tmp_path, monkeypatch, lower,
                                           upper, per_axis):
    """A partition is written from one repr per edge by index arithmetic,
    byte-equal to csv.writer on the reprs of its bound arrays."""
    grid = cli.pwa_partition(cli.Box(lower, upper), per_axis)
    labels = np.resize(["feasible", "infeasible", "unknown"], len(grid))
    cells = cli.Cells(grid.edges, labels)
    reprs, calls = cli._reprs, []
    monkeypatch.setattr(cli, "_reprs",
                        lambda values: calls.append(1) or reprs(values))
    cli._write_cells(tmp_path / "cells.csv", cells)
    assert calls == []
    d = len(lower)
    header = ([f"theta_lo_{i + 1}" for i in range(d)]
              + [f"theta_hi_{i + 1}" for i in range(d)] + ["label"])
    bounds = np.hstack([cells.lower, cells.upper])
    assert (tmp_path / "cells.csv").read_bytes() == _csv_module_bytes(
        [header] + [[repr(float(v)) for v in row] + [label]
                    for row, label in zip(bounds, cells.label)])


def test_empty_outputs_are_one_header_line(tmp_path):
    lti._write_csv(tmp_path / "rows.csv", ["a", "b"], [[], []])
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n"


@pytest.mark.parametrize("extra", [-1, 0, 1, lti._CSV_BLOCK_LINES])
def test_csv_blocks_keep_every_line(tmp_path, extra):
    # Line counts just below, at and past a block boundary, and two blocks.
    n = lti._CSV_BLOCK_LINES + extra
    columns = [[repr(0.5 * i) for i in range(n)], [str(i) for i in range(n)]]
    lti._write_csv(tmp_path / "rows.csv", ["x", "i"], columns)
    assert (tmp_path / "rows.csv").read_bytes() == _csv_module_bytes(
        [["x", "i"], *zip(*columns)])


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
    # Boxes with a lower bound above the upper one, or no volume.  A region
    # of zero width on an axis has no positive-volume overlap with the prior,
    # so it exits here, before `pwa_partition` would reject it.
    ("verify", "theta_region", {"lower": [1.0, -2.0], "upper": [0.0, 2.0]},
     "theta_region"),
    ("verify", "theta_region", {"lower": [0.0, -2.0], "upper": [0.0, 2.0]},
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
    # Fields that simulate does not read in the sections it reads: a
    # misspelt key, a matrix beside a preset, a std for a uniform input.
    ("simulate", "data.input", {"kind": "uniform", "hihg": 5.0},
     "data.input.hihg"),
    ("simulate", "data.theta", [0.3, 0.3], "data.theta"),
    ("simulate", "model.B", [[1.0], [0.0]], "model.B"),
    ("simulate", "data.input", {"kind": "uniform", "std": 2.0},
     "data.input.std"),
    # A removed field beside a one-leaf formula whose delta, 0.6, is in
    # range for the margin.
    ("verify", ("formula", "delta", "gamma_form"), ("mu1", 0.6,
                                                    "variance_literal"),
     "gamma_form"),
    # Fields that the fields beside them leave unread: a misspelt key, a
    # matrix beside a preset, a std for a uniform input, a second gradient.
    ("verify", "mc", {"sample": 100}, "mc.sample"),
    ("verify", "model.B", [[1.0], [0.0]], "model.B"),
    ("verify", "data.input", {"kind": "uniform", "std": 2.0},
     "data.input.std"),
    ("verify", "predicates.mu1", {"offset": 0.5, "output_gradient": [1.0],
                                  "state_gradient": [1.0, 0.0]},
     "predicates.mu1.state_gradient"),
    # A predicate named by a word of the grammar, which would shadow it.
    ("verify", "predicates.T", {"offset": 0.5, "output_gradient": [1.0]},
     "predicates"),
    # A weight vector at a path that names no decomposition node.
    ("verify", "weights", {"weights": {"c7/zz": [1.0]}}, "weights.weights"),
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


class TestSharedLikelihoodPass:
    """Each estimate scores its MC, PWA and contour rows in the normalizer's
    likelihood pass."""

    def test_filter_calls_per_estimate(self, tmp_path, filter_calls):
        cfg = json.loads((CONFIG_DIR / "case_study.json").read_text())
        cfg["table1"]["theta_true_list"] = cfg["table1"]["theta_true_list"][:1]
        cfg["table1"]["repetitions"] = 1
        cli.cmd_table1(copy.deepcopy(cfg), tmp_path)
        assert len(filter_calls) == 1
        filter_calls.clear()
        cli.cmd_verify(cfg, tmp_path)
        # 4096 normalizer samples, 500 unknown-cell points and a 61 x 61
        # contour: two near-equal chunks.
        assert filter_calls == [4159, 4158]

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_merged_densities_match_separate_calls(self, config, monkeypatch):
        problem = cli._problem(json.loads(config.read_text()))
        root = RngStream(problem.seed)
        data = problem.data
        dataset = cli.collect_data(problem.model, data.theta_true,
                                   data.sampler, data.n_exp, problem.spec.x0,
                                   root.child("data"))
        real, seen = cli.posterior, []

        def spy(*args, **kwargs):
            seen.append((args, kwargs, real(*args, **kwargs)))
            return seen[-1][2]

        monkeypatch.setattr(cli, "posterior", spy)
        contour = cli._contour_points(problem.region, problem.contour_grid)
        [(_, estimates)] = cli._estimate(problem, [dataset], root, contour)
        [(args, kwargs, merged)] = seen
        # MC's rows, the rule's first round, the unknown cells' points and
        # the contour; under case_study no MC draw satisfies the property
        # and no cell is feasible.
        rows = kwargs["prefetch"]
        assert len(rows) == 4 and rows[-1] is contour
        assert [len(r) > 0 for r in rows] == (
            [True] * 4 if config.name == "safety_demo.json"
            else [False, False, True, True])
        plain = real(*args)
        assert merged.log_z == plain.log_z
        for r in rows:
            assert np.array_equal(merged.density(r), plain.density(r))
        # The estimators on the posterior without the pass, on draws made
        # again, give the same estimates.
        assert estimates["mc"] == cli.mc_confidence(
            plain, problem.region, cli.mc_draws(
                problem.spec, problem.region, problem.mc_samples,
                root.child("mc"), problem.cells), problem.epsilon)
        assert estimates["pwa"] == cli.pwa_confidence(
            plain, problem.cells, cli.pwa_draws(
                problem.prior, problem.cells, problem.per_cell_samples,
                root.child("pwa")), problem.epsilon)


    def test_pilot_draws_ride_in_the_pass(self, tmp_path, monkeypatch,
                                          filter_calls):
        """Under pilot sizing the pilot's satisfying draws are scored in the
        normalizer's pass; only the run the pilot sizes is scored after."""
        drawn, real_draws = {}, cli.mc_draws
        prefetched, real_post = [], cli.posterior

        def spy_draws(sat, region, n, rng, cells=None):
            drawn[rng.path[-1]] = real_draws(sat, region, n, rng, cells)
            return drawn[rng.path[-1]]

        def spy_post(*args, **kwargs):
            prefetched.extend(kwargs["prefetch"])
            return real_post(*args, **kwargs)

        monkeypatch.setattr(cli, "mc_draws", spy_draws)
        monkeypatch.setattr(cli, "posterior", spy_post)
        cfg = json.loads((CONFIG_DIR / "safety_demo.json").read_text())
        cfg["mc"] = {"epsilon": 0.05, "floor": 0.9, "pilot_samples": 2000}
        cli.cmd_verify(cfg, tmp_path)
        assert prefetched[0] is drawn["pilot"][1]
        # Every row lies inside the prior box.
        assert sum(filter_calls[:-1]) == cfg["posterior_mc_samples"] + sum(
            map(len, prefetched))
        assert filter_calls[-1] == len(drawn["mc"][1])


def _shared_table() -> dict:
    """safety_demo at smaller sizes, with 2 parameters x 2 repetitions."""
    cfg = json.loads((CONFIG_DIR / "safety_demo.json").read_text())
    cfg.update(mc={"samples": 3000}, posterior_mc_samples=2048,
               pwa={"per_axis": 8, "per_cell_samples": 50})
    cfg["table1"] = {"theta_true_list": [[0.3, 0.3], [1.0, 0.5]],
                     "repetitions": 2, "n_exp": 8,
                     "input": cfg["data"]["input"]}
    return cfg


class TestSharedRepetitions:
    """table1 scores each repetition's records in one pass, against draws
    that the repetition's parameters share."""

    def test_values_are_per_record_estimates(self, tmp_path):
        """Each value is the estimate of its record alone, on the draws of
        its repetition's first parameter."""
        cfg = _shared_table()
        rows = cli.cmd_table1(copy.deepcopy(cfg), tmp_path)["results"]["rows"]
        problem = cli._problem(cfg)
        root, table1 = RngStream(cfg["seed"]), problem.table1
        assert all(0.0 < v < 1.0 for row in rows for v in row["mc"]["values"])
        for ti, theta in enumerate(table1.thetas):
            for rep in range(table1.reps):
                data = cli.collect_data(
                    problem.model, theta, table1.sampler, table1.n_exp,
                    problem.spec.x0, root.child("table1", ti, rep, "data"))
                [(_, estimates)] = cli._estimate(
                    problem, [data], root.child("table1", 0, rep))
                for name in ("mc", "pwa"):
                    assert rows[ti][name]["values"][rep] == \
                        estimates[name].value

    def test_parameters_share_draws_and_repetitions_do_not(self, tmp_path,
                                                           monkeypatch):
        seen, real = [], cli.posterior

        def spy(data, model, prior, n, rng, **kwargs):
            seen.append((data, rng, kwargs["prefetch"]))
            return real(data, model, prior, n, rng, **kwargs)

        monkeypatch.setattr(cli, "posterior", spy)
        cfg = _shared_table()
        cli.cmd_table1(cfg, tmp_path)
        # Repetition by repetition, parameter by parameter.
        assert [rng.path for _, rng, _ in seen] == [
            ("table1", 0, rep, "posterior") for rep in (0, 0, 1, 1)]
        for first, second in (seen[:2], seen[2:]):
            assert not np.array_equal(first[0].outputs, second[0].outputs)
            assert all(a is b for a, b in zip(first[2], second[2]))
        # The satisfying MC draws and the unknown cells' points; the rule's
        # first nodes are fixed by the cells.
        rows0, rows1 = seen[0][2], seen[2][2]
        for k in (0, 2):
            assert len(rows0[k]) and len(rows1[k])
            assert not np.array_equal(rows0[k][:100], rows1[k][:100])
        assert np.array_equal(rows0[1], rows1[1])

def test_contour_skip_is_reported_beyond_two_parameters(tmp_path):
    """The order-3 Laguerre chain: no contour, and the report says why; a
    two-parameter report has no such entry."""
    order, a = 3, 0.4
    A = np.diag(np.full(order, a))
    for i in range(order):
        for j in range(i + 1, order):
            A[j, i] = (1.0 - a * a) * (-a) ** (j - i - 1)
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["model"] = {
        "A": A.tolist(),
        "B": (np.sqrt(1.0 - a * a) * (-a) ** np.arange(order)[:, None])
        .tolist(),
        "G": np.eye(order).tolist(), "C0": [[0.0] * order],
        "C_basis": [np.eye(order)[[i]].tolist() for i in range(order)],
        "Sigma_w": (0.02 * np.eye(order)).tolist(), "Sigma_e": [[0.5]],
        "input_box": [[-0.2], [0.2]]}
    cfg["x0"] = [0.0] * order
    for section in ("theta_region", "prior"):
        cfg[section] = {**cfg[section], "lower": [-1.0] * order,
                        "upper": [1.0] * order}
    cfg["data"]["theta_true"] = [0.3, 0.3, 0.3]
    cfg["pwa"]["per_axis"] = 3
    out = tmp_path / "d3"
    assert run(["verify", "--config", write_config(tmp_path, cfg),
                "--out", out]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["contour"]["written"] is False
    assert "3" in results["contour"]["reason"]
    assert not (out / "posterior_contour.csv").exists()
    assert (out / "feasible_cells.csv").exists()

    out = tmp_path / "d2"
    assert run(["verify", "--config", write_config(tmp_path, BASE_CONFIG),
                "--out", out]) == 0
    assert "contour" not in json.loads(
        (out / "report.json").read_text())["results"]
    assert (out / "posterior_contour.csv").exists()
