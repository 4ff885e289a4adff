"""Repeat the benchmark over seeds and check each metric's spread and drift.

    python3 perfbench/prove.py [--record]

Run from the root of a checkout.  Every workload of ``BENCHMARK.json`` runs
for its ``run_seconds`` on seeds 1-10 (the first set) and again on seeds
11-20 (the second set), one process at a time, so runs do not compete.  The
spread of a metric is (q3 - q1) / median over a set's values, with the
quartiles of ``statistics.quantiles(values, n=4)``; every end-to-end metric
must keep it within its bound, and the second set's median may not be worse
than the first's by more than the bound.  Every run must pass its gate.

For the timings, the unscaled medians of every run and its reference-kernel
scales are kept too (see ``reference.py``), with their spreads, so the effect
of the scaling can be checked.

``--record`` also makes one traced run per workload and one untraced run on
a seed outside both sets, and writes all figures, the environment and the
foreign baseline to ``perfbench/record.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"

# acceptance timings of the committed test_output.txt: another machine, never compared
FOREIGN_BASELINE = {
    "label": "foreign baseline: test_output.txt from another machine (Python 3.10.12, "
             "pytest 9.1.1); never compare against it",
    "suite": {"passed": 200, "failed": 0, "seconds": 119.31},
    "acceptance_runtime_s": {"criterion_1": 3.6, "criterion_2": 4.5, "criterion_3": 0.3,
                             "criterion_6": 46.0, "criterion_7": 0.7, "criterion_9": 27.0},
}


SEEDS_PER_SET = 10
SETS = 2
OTHER_SEED = 1021       # the gate's check on a seed outside both sets
TIMINGS = ("setup_s", "wall_s", "improved_iters_per_s", "basic_iters_per_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out.update(json.loads(lines[-2]))       # env, scale
    if not out["correct"]:
        print(f"  INCORRECT {workload} seed {seed}: {proc.stderr.strip()[-500:]}", flush=True)
    return out


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def run_set(workloads: list, seeds: list, seconds: int) -> tuple[dict, dict]:
    figures, env = {}, {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            out = run_once(workload, seed, seconds, 0)
            env = out["env"]
            runs.append(out)
            print(f"  {workload} seed {seed}: correct={out['correct']} "
                  f"kernel_scale={out['scale']['kernel_scale']:.4f} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()), flush=True)
        figures[workload] = {
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: summary([r["metrics"][name]["value"] for r in runs])
                        for name in runs[0]["metrics"]},
            "kernel_scale": [r["scale"]["kernel_scale"] for r in runs],
            "setup_scale": [r["scale"]["setup_scale"] for r in runs],
            "unscaled": {name: summary([r["scale"]["raw"][name] for r in runs])
                         for name in TIMINGS},
        }
    return figures, env


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets, env, ok = [], {}, True
    for i in range(SETS):
        seeds = list(range(1 + i * SEEDS_PER_SET, 1 + (i + 1) * SEEDS_PER_SET))
        print(f"set {i + 1}: seeds {seeds[0]}-{seeds[-1]}", flush=True)
        figures, env = run_set(workloads, seeds, seconds)
        sets.append({"seeds": seeds, "workloads": figures})

    for workload in workloads:
        correct = all(s["workloads"][workload]["correct"] for s in sets)
        ok &= correct
        print(f"\n{workload}{'' if correct else ' INCORRECT'}")
        for name, m in metrics.items():
            row = [s["workloads"][workload]["metrics"][name] for s in sets]
            ok_spread = all(f["spread"] <= m["bound"] for f in row)
            drift = worse_by(row[0]["median"], row[1]["median"], m["better"])
            ok_drift = drift <= m["bound"]
            ok &= ok_spread and ok_drift
            spreads = " ".join(f"{f['spread']:.4f}" for f in row)
            if name in TIMINGS:
                spreads += " unscaled " + " ".join(
                    f"{s['workloads'][workload]['unscaled'][name]['spread']:.4f}" for s in sets)
            print(f"  {name:22s} median {row[0]['median']:.6g} {m['unit']:5s} spread {spreads} "
                  f"(bound {m['bound']}) drift {drift:+.4f} "
                  f"{'ok' if ok_spread and ok_drift else 'OUT OF BOUND'}")

    if args.record:
        first, other = sets[0]["seeds"][0], OTHER_SEED
        traced, gate = {}, {"seed": other}
        for workload in workloads:
            out = run_once(workload, first, seconds, 1)
            traced[workload] = {"seed": first, "correct": out["correct"],
                                "metrics": {k: v["value"] for k, v in out["metrics"].items()}}
            gate[workload] = run_once(workload, other, seconds, 0)["correct"]
            ok &= out["correct"] and gate[workload]
        record = {
            "about": "figures of perfbench/prove.py on the machine in 'env'; the first set "
                     "of seeds set the bounds in BENCHMARK.json. 'metrics' are as reported "
                     "(timings scaled by the reference kernels); 'unscaled' are the same timings before scaling; "
                     "'kernel_scale' is each run's scale of its cell timings and "
                     "'setup_scale' that of its setup_s",
            "env": env, "run_seconds": seconds,
            "bound_seeds": sets[0]["seeds"], "sets": sets,
            "traced": traced, "gate_other_seed": gate,
            "foreign_baseline": FOREIGN_BASELINE,
        }
        RECORD.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nwrote {RECORD.relative_to(ROOT)}")
    print("\nall within bounds" if ok else "\nSOME FIGURES OUT OF BOUND OR INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
