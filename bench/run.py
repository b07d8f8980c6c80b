"""The repository's benchmark: `verify` and `table1` on three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload safety-n8 --seed 1 --seconds 30 --trace 0

With `--trace 0` it times set-up in fresh processes, then runs the workload's
rounds untraced in a worker process and reports the end-to-end metrics.
With `--trace 1` the worker alternates untraced and traced rounds, the
per-layer metrics are reported instead, and the spans go to
bench/out/WORKLOAD/trace.json.  Either way the program's outputs are checked
against the references in `reference.py`, a summary goes to stderr, and the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150
SELF_SUM_TOLERANCE_S = 1e-3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for var in BLAS_ENV:
        env[var] = str(threads)
    return env


def _run(cmd, env, timeout) -> str:
    proc = subprocess.run(cmd, env=env, timeout=timeout, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stlbayes" / "__init__.py").is_file():
        raise SystemExit("no src/stlbayes in the current directory; run from "
                         "the root of a checkout")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    verify_cfg, table1_cfg = workloads.configs(args.workload, args.seed)
    out = BENCH_DIR / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    threads = min(2, len(os.sched_getaffinity(0)))
    env = _env(root, threads)

    setup = []
    if not args.trace:
        probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
                 args.workload, str(args.seed)]
        setup = [json.loads(_run(probe, env, PROBE_TIMEOUT_S))
                 for _ in range(SETUP_PROBES)]
    _run([sys.executable, str(BENCH_DIR / "worker.py"), args.workload,
          str(args.seed), repr(args.seconds), str(args.trace), str(out)],
         env, WORKER_TIMEOUT_S)
    worker = json.loads((out / "worker.json").read_text())

    found, summary = checks.check_run(verify_cfg, worker)
    failed = worker["failed"]
    bad_scopes = {tuple(c["scope"]) for c in found.failed}
    for scope in bad_scopes:
        if scope[0] in ("verify", "table1"):
            failed += worker["ok_calls"][scope[0]]
    correct = failed == 0 and ("workload",) not in bad_scopes

    untraced = worker["untraced"]
    if not untraced["verify"] or not untraced["table1"]:
        sys.stderr.write("".join(worker["errors"]))
        raise SystemExit("no verify or table1 call completed")
    estimates = workloads.table1_estimates(table1_cfg)
    values = {}
    if args.trace:
        values, rounds = spans.layer_metrics(worker["spans"])
        if any(s["counts"].get("count_failed") for s in worker["spans"]):
            print("trace: some counts could not be read from the program's "
                  "results; they read 0", file=sys.stderr)
        values["bayes.normalizer_peak_mb"] = \
            worker["capture"]["normalizer_peak_mb"]
        traced_v = statistics.median(worker["traced"]["verify"])
        untraced_v = statistics.median(untraced["verify"])
        overhead = traced_v / untraced_v - 1.0
        # Each command's self times must add up to its time as the worker
        # measured it; a span lost, mis-nested or counted twice shows here.
        calls = [c for r in rounds for c in r["commands"]]
        gap = max((abs(c["elapsed_s"] - c["self_sum_s"]) if c["elapsed_s"]
                   is not None else math.inf) for c in calls)
        (out / "trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "traced_verify_s": traced_v, "untraced_verify_s": untraced_v,
            "overhead": overhead, "rounds": rounds,
            "per_layer": values, "spans": worker["spans"]}))
        print(f"trace: verify_s traced {traced_v:.4f} s, untraced "
              f"{untraced_v:.4f} s, overhead {100 * overhead:+.1f}%; self "
              f"times sum to each command's measured time within {gap:.1e} s "
              f"(tolerance {SELF_SUM_TOLERANCE_S:g} s)", file=sys.stderr)
        if gap > SELF_SUM_TOLERANCE_S:
            correct = False
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "verify_s": statistics.median(untraced["verify"]),
            "table1_estimates_per_s": statistics.median(
                estimates / t for t in untraced["table1"]),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced['verify'])} timed verify calls, "
          f"{len(untraced['table1'])} timed table1 calls of {estimates} "
          f"estimates; BLAS threads {worker['blas_threads']}; stlbayes from "
          f"{worker['stlbayes']}", file=sys.stderr)
    wall = worker["wall"]["untraced"]
    print(f"  wall time: verify {statistics.median(wall['verify']):.4f} s, "
          f"table1 {statistics.median(wall['table1']):.4f} s"
          + (f", set-up {statistics.median(p['wall_s'] for p in setup):.4f} s"
             if setup else "")
          + f"; calibration kernel {statistics.median(worker['kernel_s']):.4f}"
          f" s (reference {calibrate.KERNEL_REFERENCE_S:g} s)",
          file=sys.stderr)
    for item in found.items:
        print(f"  [{'ok  ' if item['ok'] else 'FAIL'}] "
              f"{'/'.join(map(str, item['scope']))}: {item['name']}: "
              f"{item['detail']}", file=sys.stderr)
    print(f"  references: {json.dumps(summary)}", file=sys.stderr)
    sys.stderr.write("".join(worker["errors"]))
    for name in wanted:
        print(f"  {name} = {values[name]:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": worker["attempted"], "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
