"""Write every `verify` and `table1` output of the benchmark's workloads.

Usage, from anywhere:

    python3 tools/outputs.py [--src DIR] [--workload NAME] SEED... OUTDIR

For each workload in `bench/workloads.py` (or each one named with
`--workload`, which may repeat) and each seed, it runs `cmd_verify` on the
workload's verify config into OUTDIR/WORKLOAD/SEED/verify and `cmd_table1`
on its table1 config into OUTDIR/WORKLOAD/SEED/table1.  The configs are
read from this checkout's `configs/`, and `bench/workloads.py` is only
imported; the package is imported from `--src` (default: this checkout's
`src/`).  Two checkouts give byte-identical outputs when

    python3 tools/outputs.py --src OTHER/src 7311 20240 a
    python3 tools/outputs.py 7311 20240 b
    diff -r a b

prints nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the stlbayes package")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="run only this workload (repeatable)")
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("outdir", type=Path, metavar="OUTDIR")
    args = parser.parse_args(argv)

    # One BLAS thread unless the caller sets one, the same for both sides.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import workloads
    import stlbayes
    from stlbayes.cli import cmd_table1, cmd_verify

    print(f"stlbayes from {Path(stlbayes.__file__).parent}", file=sys.stderr)

    workloads.CONFIG_DIR = ROOT / "configs"
    for name in args.workloads or workloads.WORKLOADS:
        for seed in args.seeds:
            verify_cfg, table1_cfg = workloads.configs(name, seed)
            for command, fn, cfg in (("verify", cmd_verify, verify_cfg),
                                     ("table1", cmd_table1, table1_cfg)):
                out = args.outdir / name / str(seed) / command
                out.mkdir(parents=True, exist_ok=True)
                fn(cfg, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
