"""The benchmark's layer spans and set-up probe still find the program's
entry points.

`bench/spans.py` wraps each `LAYERS` entry by name and reports a missing
one only on stderr, so a renamed or removed entry point would make its
per-layer metrics read 0.  `bench/setup_probe.py` calls the CLI's model,
spec and prior builders on each workload's verify config, and
`bench/worker.py` reads the posterior's prior box, its unnormalized log
density and every confidence estimate.  These tests load those files
without changing them.
"""

import copy
import importlib
import json
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stlbayes import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_bench(name: str):
    """bench/NAME.py as a module, compiled from its text (no .pyc)."""
    path = ROOT / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


spans = _load_bench("spans")
workloads = _load_bench("workloads")
workloads.CONFIG_DIR = ROOT / "configs"  # the benchmark runs from ROOT


@pytest.mark.parametrize("layer", spans.LAYERS, ids=lambda layer: layer[0])
def test_layer_resolves_to_a_stlbayes_attribute(layer):
    name, module_name, attr, _ = layer
    assert module_name.split(".")[0] == "stlbayes"
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(method)), f"{name}: {module_name}.{attr}"


def _small_round():
    """(verify config, table1 config): a short round on safety_demo."""
    cfg = json.loads((ROOT / "configs" / "safety_demo.json").read_text())
    cfg.update(mc={"samples": 500}, posterior_mc_samples=256, contour_grid=5,
               pwa={"per_axis": 4, "per_cell_samples": 20})
    table1 = copy.deepcopy(cfg)
    table1["table1"] = {"theta_true_list": [cfg["data"]["theta_true"]],
                        "repetitions": 2, "n_exp": 4,
                        "input": cfg["data"]["input"]}
    return cfg, table1


def test_every_layer_records_a_span_with_its_counts(tmp_path):
    cfg, table1 = _small_round()
    recorder = spans.Recorder()
    restore = spans.instrument(recorder)
    try:
        cli.cmd_verify(cfg, tmp_path)
        cli.cmd_table1(table1, tmp_path)
    finally:
        restore()
    recorded = {s["name"] for s in recorder.spans}
    assert recorded == {layer[0] for layer in spans.LAYERS}
    assert not [s["name"] for s in recorder.spans
                if "count_failed" in s["counts"]]
    sat = [s for s in recorder.spans if s["name"] == "feasibility.sat"]
    assert all(s["counts"]["thetas"] > 0 for s in sat)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_probe_builders_accept_each_workload(workload):
    cfg, _ = workloads.configs(workload, 7311)
    model = cli._build_model(cfg)
    spec = cli._build_spec(cfg, model)
    prior = cli._build_prior(cfg, model.d)
    assert spec.leaves() and prior.volume > 0


def test_worker_capture_reads_every_posterior_and_estimate(tmp_path,
                                                           monkeypatch):
    # worker.py puts bench/ on sys.path and imports spans and workloads by
    # name; both are undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "spans", spans)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    worker = _load_bench("worker")
    cfg, table1 = _small_round()
    capture, calls = worker.Capture(7311), Counter()

    def on_return(name, args, kwargs, result):
        calls[name] += 1
        capture.on_return(name, args, kwargs, result)

    restore = spans.instrument(on_return=on_return)
    try:
        for command, fn, config in (("verify", cli.cmd_verify, cfg),
                                    ("table1", cli.cmd_table1, table1)):
            capture.command = command
            (tmp_path / command).mkdir()
            fn(config, tmp_path / command)
    finally:
        restore()
    assert calls["bayes.normalizer"] == 3
    assert len(capture.posteriors) == calls["bayes.normalizer"]
    lower, upper = cfg["prior"]["lower"], cfg["prior"]["upper"]
    for post in capture.posteriors:
        draws = np.array(post["draws"])
        assert draws.shape == (worker.DRAWS, 2)
        assert ((lower <= draws) & (draws <= upper)).all()
        assert np.isfinite(post["log_unnormalized"]).all()
    assert len(capture.estimates) == (calls["confidence.mc"]
                                      + calls["confidence.pwa"]) > 0
