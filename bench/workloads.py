"""The benchmark's workloads: bundled configs plus the benchmark's overrides.

A workload repeats rounds of program calls: one `cmd_verify` call on its
verify config, then one `cmd_table1` call on its table1 config.  The
benchmark's seed replaces the config seed; the program sees only the
resulting configs.  This module imports neither numpy nor `stlbayes`, so
that the set-up probe can time those imports.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

CONFIG_DIR = Path("configs")

# safety-n8: the mixed workload.  8 records and 16 x 16 cells: many small
#   likelihood batches, the 256-cell classification and the writers all
#   take a real share.
# case-n50: 50 records and the until property.  The dense likelihood
#   dominates verify and every table1 estimate; table1 runs the config's
#   first two Table-1 parameters once each, to keep rounds short enough
#   for several in a run.
# prior-grid64: no data section and 64 x 64 cells.  Verify makes no
#   likelihood evaluation; classification and the per-cell loop dominate.
# Every workload runs a short table1 as well, so that table1_estimates_per_s
# is measured on each; the safety ones take its parameter, record length and
# input from the safety data section.
WORKLOADS = ("safety-n8", "case-n50", "prior-grid64")


def _load(name: str, seed: int) -> dict:
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["seed"] = int(seed)
    return cfg


def configs(name: str, seed: int) -> tuple:
    """(verify config, table1 config) of a workload at a seed."""
    if name == "case-n50":
        verify = _load("case_study.json", seed)
        table1 = copy.deepcopy(verify)
        table1["table1"]["theta_true_list"] = \
            table1["table1"]["theta_true_list"][:2]
        table1["table1"]["repetitions"] = 1
        return verify, table1
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    verify = _load("safety_demo.json", seed)
    data = verify["data"]
    table1 = copy.deepcopy(verify)
    table1["table1"] = {"theta_true_list": [data["theta_true"]],
                        "repetitions": 2, "n_exp": data["n_exp"],
                        "input": data["input"]}
    if name == "prior-grid64":
        del verify["data"]
        verify["pwa"]["per_axis"] = 64
        table1["pwa"]["per_axis"] = 64
        table1["table1"]["repetitions"] = 1
    return verify, table1


def table1_estimates(table1_cfg: dict) -> int:
    """Confidence estimates one cmd_table1 call makes."""
    section = table1_cfg["table1"]
    return len(section["theta_true_list"]) * int(section["repetitions"])
