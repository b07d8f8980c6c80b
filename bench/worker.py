"""One benchmark run's program calls, in a process of their own.

Run by `run.py`, never by hand: `worker.py WORKLOAD SEED SECONDS TRACE OUT`.
The process imports `stlbayes` from `src/` of the current directory and runs
rounds of the workload (one `cmd_verify` call, then one `cmd_table1` call):

1. one warm-up round, instrumented to capture what the output checks need:
   datasets, normalizers, the posterior's `log_unnormalized` at 64 prior
   draws and every confidence estimate;
2. timed rounds for SECONDS: untraced, or with TRACE=1 alternately
   untraced and traced.  After each timed call the worker runs the
   calibration kernel (`calibrate.py`) and keeps the call's time in
   reference seconds, next to its wall time.

Every report must be byte-identical to the warm-up round's.  The result,
with the spans of a traced run, goes to OUT/worker.json.  Its peak resident
memory is read after the warm-up round, before the kernel's arrays exist,
so it covers only the program's calls; the references run elsewhere.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

DRAWS = 64


def _dir_state(path: Path) -> tuple:
    report = path / "report.json"
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    size = sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return digest, size


class Capture:
    """Keeps what the output checks need from one instrumented round."""

    def __init__(self, seed: int):
        self.seed = seed
        self.command = None
        self.datasets, self.posteriors, self.estimates = [], [], []
        self._dataset_index: dict = {}    # id() of a live DataSet
        self._posterior_index: dict = {}  # id() of a live PosteriorDensity
        self.peak_bytes = 0

    def on_return(self, name, args, kwargs, result):
        if name == "lti.collect":
            self._dataset_index[id(result)] = len(self.datasets)
            self.datasets.append({"x0": result.x0.tolist(),
                                  "inputs": result.inputs.tolist(),
                                  "outputs": result.outputs.tolist()})
        elif name == "bayes.normalizer":
            data = args[0] if args else kwargs["data"]
            gen = np.random.default_rng([self.seed, len(self.posteriors)])
            draws = gen.uniform(result.prior.lower, result.prior.upper,
                                (DRAWS, result.prior.lower.shape[0]))
            self._posterior_index[id(result)] = len(self.posteriors)
            self.posteriors.append({
                "command": self.command,
                "dataset": (None if data is None
                            else self._dataset_index[id(data)]),
                "log_z": float(result.log_z), "z": float(result.z),
                "z_std_error": float(result.z_std_error),
                "draws": draws.tolist(),
                "log_unnormalized": result.log_unnormalized(draws).tolist()})
        elif name in ("confidence.mc", "confidence.pwa"):
            post = args[0] if args else kwargs["post"]
            entry = result.to_json_dict()
            cells = entry.pop("per_cell", None) or []
            unknown = [c for c in cells if c["label"] == "unknown"]
            entry["unknown_mass"] = float(sum(c["mass"] for c in unknown))
            entry["unknown_std_error"] = float(np.sqrt(sum(
                c["std_error"] ** 2 for c in unknown)))
            self.estimates.append({"command": self.command,
                                   "posterior": self._posterior_index[id(post)],
                                   "estimate": entry})

    @contextlib.contextmanager
    def allocation_peak(self):
        """Keep the largest tracemalloc peak of the calls it wraps."""
        tracemalloc.start()
        try:
            yield
        finally:
            self.peak_bytes = max(self.peak_bytes,
                                  tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


def main(argv) -> int:
    name, seed, seconds, traced, out = (argv[0], int(argv[1]), float(argv[2]),
                                        argv[3] == "1", Path(argv[4]))
    import stlbayes
    from stlbayes.cli import cmd_table1, cmd_verify

    src = (Path.cwd() / "src").resolve()
    if src not in Path(stlbayes.__file__).resolve().parents:
        raise SystemExit(f"stlbayes imported from {stlbayes.__file__}, "
                         f"not from {src}")
    verify_cfg, table1_cfg = workloads.configs(name, seed)
    estimates = workloads.table1_estimates(table1_cfg)
    dirs = {"verify": out / "verify", "table1": out / "table1"}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    calls = (("verify", cmd_verify, verify_cfg, 1),
             ("table1", cmd_table1, table1_cfg, estimates))

    result = {"workload": name, "seed": seed, "attempted": 0, "failed": 0,
              "errors": [], "digests": {}, "reports": {},
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
              "stlbayes": str(Path(stlbayes.__file__).resolve().parent),
              "untraced": {"verify": [], "table1": []},
              "traced": {"verify": [], "table1": []},
              "wall": {"untraced": {"verify": [], "table1": []},
                       "traced": {"verify": [], "table1": []}},
              "kernel_s": [],
              "ok_calls": {"verify": 0, "table1": 0}}
    recorder = spans.Recorder()
    capture = Capture(seed)

    def run_round(phase, record=False):
        """One verify and one table1 call."""
        for command, fn, cfg, ops in calls:
            cfg = copy.deepcopy(cfg)
            capture.command = command
            result["attempted"] += ops
            span = recorder.open(f"cli.{command}") if record else None
            try:
                start = time.perf_counter()
                fn(cfg, dirs[command])
                elapsed = time.perf_counter() - start
            except Exception:  # a failed call is counted, not fatal
                result["failed"] += ops
                result["errors"].append(traceback.format_exc(limit=4))
                continue
            finally:
                if span is not None:
                    recorder.close(span)
            digest, nbytes = _dir_state(dirs[command])
            if span is not None:
                span["counts"].update(output_bytes=nbytes, elapsed_s=elapsed)
            if digest != result["digests"].setdefault(command, digest):
                result["failed"] += ops
                result["errors"].append(f"{command}: report.json differs "
                                        "from the first call's")
                continue
            result["ok_calls"][command] += 1
            if phase is not None:
                kernel_s = calibrate.kernel()
                result[phase][command].append(
                    calibrate.reference_seconds(elapsed, kernel_s))
                result["wall"][phase][command].append(elapsed)
                result["kernel_s"].append(kernel_s)

    # tracemalloc slows the calls it watches, so only a traced run, whose
    # warm-up round is not timed, measures the normalizer's allocations.
    around = {"bayes.normalizer": capture.allocation_peak} if traced else None
    restore = spans.instrument(on_return=capture.on_return, around=around)
    run_round(None)
    restore()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import calibrate  # its arrays would count in the peak read above
    for command in dirs:
        path = dirs[command] / "report.json"
        result["reports"][command] = (json.loads(path.read_text())
                                      if path.exists() else None)

    # A traced run alternates untraced and traced rounds, so that both see
    # the same drift of the machine's speed and their gap is the overhead.
    phases = ("untraced", "traced") if traced else ("untraced",)
    deadline = time.perf_counter() + seconds
    while True:
        begin = time.perf_counter()
        for phase in phases:
            restore = spans.instrument(recorder) if phase == "traced" else None
            run_round(phase, record=restore is not None)
            if restore is not None:
                restore()
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            break

    result["capture"] = {"datasets": capture.datasets,
                         "posteriors": capture.posteriors,
                         "estimates": capture.estimates,
                         "normalizer_peak_mb": capture.peak_bytes / 2 ** 20}
    result["spans"] = recorder.spans
    (out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
