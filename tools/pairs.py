"""Run the benchmark in alternating pairs: a parent checkout against this one.

Usage, from anywhere:

    python3 tools/pairs.py --parent DIR [--workload NAME]... [--pairs N]
        [--seed FIRST] [--trace 0|1] OUTFILE

(defaults: every workload, 10 pairs, seed 1, trace 0).

For each workload in `bench/workloads.py` (or each one named with
`--workload`, which may repeat), pair k runs

    python3 bench/run.py --workload W --seed FIRST+k --seconds S --trace T

with S the `run_seconds` of this checkout's BENCHMARK.json on both sides,
once in the parent checkout DIR and once in this checkout, one run at a
time, this checkout first in even pairs and the parent first in odd ones.
Each run starts from the root of its own checkout, with
PYTHONDONTWRITEBYTECODE=1 so that neither side gains bytecode between
runs.  The last line of a run's stdout is the benchmark's JSON result.

For every metric the runs report, OUTFILE gets each side's median and
quartiles (linear interpolation, as numpy's default percentiles), every
run's value, the number of pairs in which this checkout was better (in
the direction `better` that this checkout's BENCHMARK.json gives) and the
number of ties; and for each run its `correct`, `attempted` and `failed`.
OUTFILE is rewritten after every pair.  The tool only reads `bench/`: the
files there, and what `bench/run.py` writes under `bench/out/`, are the
benchmark's own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"returncode": done.returncode, "correct": False}
    return json.loads(lines[-1])


def _summary(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _compare(pairs: list, declared: dict) -> dict:
    """Per metric of BENCHMARK.json: both sides' summaries, wins and ties
    over the pairs in which both runs report it."""
    out = {}
    for name, (better, unit) in declared.items():
        both = [tuple(p[side]["metrics"][name]["value"]
                      for side in ("parent", "change")) for p in pairs
                if all(name in p[side].get("metrics", {})
                       for side in ("parent", "change"))]
        if not both:
            continue
        sign = -1.0 if better == "lower" else 1.0
        entry = {"better": better, "unit": unit, "pairs": len(both),
                 "parent": _summary([a for a, _ in both]),
                 "change": _summary([b for _, b in both]),
                 "change_wins": sum(sign * (b - a) > 0 for a, b in both),
                 "ties": sum(a == b for a, b in both)}
        base = entry["parent"]["median"]
        if base:
            entry["relative_change_of_median"] = (
                entry["change"]["median"] - base) / base
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent checkout")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="run only this workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="the first pair's seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("outfile", type=Path, metavar="OUTFILE")
    args = parser.parse_args(argv)

    parent = args.parent.resolve()
    if not (parent / "bench" / "run.py").is_file():
        raise SystemExit(f"no bench/run.py under {parent}")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["better"], m["unit"])
                for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    seconds = benchmark["run_seconds"]

    record = {"parent": str(parent), "change": str(ROOT),
              "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads or workloads.WORKLOADS:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("change", "parent") if k % 2 == 0 else ("parent",
                                                             "change")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                checkout = ROOT if side == "change" else parent
                pair[side] = _run(checkout, workload, seed, seconds,
                                  args.trace)
                print(f"{workload} seed {seed} {side}: correct "
                      f"{pair[side].get('correct')}", file=sys.stderr)
            pairs.append(pair)
            record["workloads"][workload] = {
                "runs": [{"seed": p["seed"], "first": p["first"],
                          **{side: {key: p[side].get(key) for key in
                                    ("correct", "attempted", "failed",
                                     "returncode") if key in p[side]}
                             for side in ("parent", "change")}}
                         for p in pairs],
                "metrics": _compare(pairs, declared)}
            args.outfile.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
