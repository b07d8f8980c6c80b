"""Set-up time of one workload, measured in a fresh process.

Run by `run.py` as `setup_probe.py WORKLOAD SEED`.  Times importing
`stlbayes` (and with it numpy and scipy), then building the model, the
`VerificationSpec` and the prior from the workload's verify config with the
builders that `stlbayes.cli.cmd_verify` itself calls, then runs the
calibration kernel (`calibrate.py`).  Prints one JSON object with the
set-up's wall time, the kernel's median time and `setup_s`, the set-up time
in reference seconds.
"""

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports neither numpy nor stlbayes)


def main(argv) -> int:
    cfg, _ = workloads.configs(argv[0], int(argv[1]))
    start = time.perf_counter()
    from stlbayes import cli

    model = cli._build_model(cfg)
    spec = cli._build_spec(cfg, model)
    prior = cli._build_prior(cfg, model.d)
    elapsed = time.perf_counter() - start
    if not spec.leaves() or prior.volume <= 0:
        raise SystemExit("set-up built an empty problem")
    import calibrate

    calibrate.kernel()  # warm-up: the first call starts the BLAS threads
    kernel_s = statistics.median(calibrate.kernel() for _ in range(3))
    setup_s = calibrate.reference_seconds(elapsed, kernel_s)
    print(json.dumps({"setup_s": setup_s, "wall_s": elapsed,
                      "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
