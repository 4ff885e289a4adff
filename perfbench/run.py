"""Benchmark entry point.

    python3 perfbench/run.py --workload quad_gap --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy.  BLAS threads are capped at
the number of CPUs this process may use, before numpy is imported.  The last
line of standard output is the result as one JSON object; the line before it
records the environment, the reference-kernel scale and the unscaled timings.
A traced run also writes its spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    blas_threads = cap_blas_threads()
    if not (SRC / "bilevelopt" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench  # after the BLAS cap: bench imports numpy

    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), blas_threads)
    for line in out["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"env": out["env"], "scale": out["scale"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
