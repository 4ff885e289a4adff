"""Run one workload for a fixed time and report its metrics as one JSON line.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced runs
(``--trace 1``) first repeat the cell untraced for half the time, then traced
for the other half, and report the per-layer metrics together with the
tracing overhead: traced minus untraced median cell wall time, each half
scaled by the reference kernel sampled during it.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

import bilevelopt as bl
from bilevelopt import hypergrad, models, oracles, problems

from reference import SETUP_KERNEL, WORKLOAD_EXPONENT, WORKLOAD_KERNEL, Probe
from spans import SLOTS, Tracer
from workloads import MODES, WORKLOADS, Cell

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_BATCH_S = 0.05   # one set-up sample: a batch of set-ups at least this long


def _tape_note(args, tape) -> dict:
    return {"mode": tape.mode, "K": tape.K, "tape_bytes": tape.iterates.nbytes}


def _reverse_note(args, G) -> dict:
    return {"mode": args[1].mode, "K": args[1].K}


# layer entry points wrapped through the module globals their callers use
SOLVE_ENTRIES = (
    (models, "solve_inner", "bigsam.solve_inner", _tape_note),
    (models, "reverse_hypergradient", "hypergrad.reverse", _reverse_note),
)
CHECK_ENTRIES = (
    (oracles, "solve_inner", "bigsam.solve_inner", _tape_note),
    (oracles, "reverse_hypergradient", "hypergrad.reverse", _reverse_note),
    (oracles, "hypergradient_fd_oracle", "hypergrad.fd_oracle", None),
    (oracles, "validate_first_order", "oracles.validate_first_order", None),
    (oracles, "fd_vjp", "oracles.fd_vjp", None),
    (oracles, "grid_min_oracle", "oracles.grid_min", None),
    (hypergrad, "final_inner_iterates_many", "bigsam.batched",
     lambda a, out: {"rows": int(out.shape[0]), "K": a[2].K}),
    (hypergrad, "final_inner_iterate", "bigsam.serial", lambda a, out: {"K": a[2].K}),
)
SETUP_ENTRIES = (
    (problems, "gen_synthetic", "data.gen_synthetic", None),
    (problems, "corrupt_labels", "data.corrupt_labels", None),
    (problems, "split", "data.split", None),
    (problems, "make_episodes", "data.make_episodes", None),
    (problems, "make_degenerate_quadratic", "problems.build", None),
    (problems, "make_closedform_quadratic", "problems.build", None),
    (problems, "make_hypercleaning", "problems.build", None),
    (problems, "make_hyperrep", "problems.build", None),
)

SPAN_MS = {   # per-layer "<name>.ms": summed span time per cell
    "bigsam.batched": "bigsam.batched.ms",
    "bigsam.serial": "bigsam.serial.ms",
    "hypergrad.fd_oracle": "hypergrad.fd_oracle.ms",
    "models.metric": "models.metric_ms",
    "oracles.validate_first_order": "oracles.validate_first_order.ms",
    "oracles.fd_vjp": "oracles.fd_vjp.ms",
    "oracles.grid_min": "oracles.grid_min.ms",
}
SPAN_CALLS = ("bigsam.solve_inner", "bigsam.batched", "bigsam.serial",
              "hypergrad.reverse", "hypergrad.fd_oracle")
SETUP_MS = ("data.gen_synthetic", "data.corrupt_labels", "data.split", "data.make_episodes",
            "problems.build")
LOOPS = ("bigsam.solve_inner", "bigsam.batched", "bigsam.serial", "hypergrad.reverse")


def environment(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "bilevelopt": bl.__version__, "blas": blas_name, "blas_threads": blas_threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def setup_sample(workload, seeds: Iterator[int], seconds: float,
                 tracer: Optional[Tracer] = None) -> float:
    """Mean time of one set-up over a batch of set-ups that lasts at least ``seconds``.

    A single set-up of ``quad_gap`` takes tens of microseconds, short enough
    to land wholly in a fast or a slow spell of the machine, so set-ups are
    timed in batches and a run reports the median over its batches.  Each
    set-up takes the next seed of ``seeds``, so no two build the same inputs.
    """
    reps = 0
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run = reps
        workload.setup(next(seeds))
        reps += 1
        took = time.perf_counter() - started
        if took >= seconds:
            return took / reps


def run_cells(workload, inputs, seconds: float, tick: Callable,
              tracer: Optional[Tracer] = None) -> list:
    """Repeat the cell until another one would end past ``seconds``; at least one.

    ``tick`` runs untimed between the parts of each cell.
    """
    cells: list[Cell] = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.run = len(cells)
        t0 = time.perf_counter()
        cell = workload.cell(inputs, tracer, tick)
        took = time.perf_counter() - t0
        if tracer is not None:
            cell.tallies = tracer.take_tallies()
        cells.append(cell)
        if cell.failures or time.perf_counter() + took > deadline:
            return cells


def _rate(cell: Cell, mode: str) -> float:
    return cell.units[mode] / cell.seconds[mode]


def end_to_end(cells: list, setup_samples: list, scale: float,
               setup_scale: float) -> tuple[dict, dict]:
    """The metrics, and the medians they scale to the machine's nominal speed (see reference.py)."""
    timed = [c for c in cells if c.timed]
    raw = {
        "setup_s": _median(setup_samples),
        "wall_s": _median(c.wall_s for c in timed),
        "improved_iters_per_s": _median(_rate(c, "improved") for c in timed),
        "basic_iters_per_s": _median(_rate(c, "basic") for c in timed),
    }
    values = {
        "setup_s": raw["setup_s"] * setup_scale,
        "wall_s": raw["wall_s"] * scale,
        "improved_iters_per_s": raw["improved_iters_per_s"] / scale,
        "basic_iters_per_s": raw["basic_iters_per_s"] / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": sum(not c.failures for c in cells) / len(cells),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, raw


def layer_metrics(spans: list, cells: list, base: list, setup_spans: list,
                  scales: tuple = (1.0, 1.0)) -> dict:
    """Per-layer metrics of the traced cells: per-cell figures are medians over cells.

    ``scales`` are the reference-kernel scales of the untraced ``base`` cells
    and of the traced cells, which run one after the other: the tracing
    overhead compares their scaled wall times.
    """
    runs = range(len(cells))
    by_run = {r: [] for r in runs}
    for sp in spans:
        by_run[sp.run].append(sp)

    def per_cell(fn) -> float:
        return _median(fn(by_run[r], cells[r]) for r in runs)

    def named(run_spans, name):
        return [sp for sp in run_spans if sp.name == name]

    v: dict = {}
    for name in SPAN_CALLS:
        v[f"{name}.calls"] = per_cell(lambda rs, c, n=name: len(named(rs, n)))
    for layer in ("bigsam.solve_inner", "hypergrad.reverse"):
        for mode in MODES:
            ms = [sp.ns / 1e6 for sp in spans if sp.name == layer and sp.info["mode"] == mode]
            v[f"{layer}.{mode}.ms_p50"] = _quantile(ms, 0.5)
            v[f"{layer}.{mode}.ms_p90"] = _quantile(ms, 0.9)
    for layer, metric in (("bigsam.solve_inner", "bigsam.fwd_self_us_per_step"),
                          ("hypergrad.reverse", "hypergrad.rev_self_us_per_step")):
        steps = sum(sp.info["K"] for sp in spans if sp.name == layer)
        self_ns = sum(sp.self_ns for sp in spans if sp.name == layer)
        v[metric] = self_ns / 1e3 / steps if steps else 0.0
    v["bigsam.tape_mb"] = max((sp.info["tape_bytes"] for sp in spans
                               if sp.name == "bigsam.solve_inner"), default=0) / 2 ** 20
    v["bigsam.batched.rows"] = per_cell(
        lambda rs, c: sum(sp.info["rows"] for sp in named(rs, "bigsam.batched")))
    for name, metric in SPAN_MS.items():
        v[metric] = per_cell(lambda rs, c, n=name: sum(sp.ns for sp in named(rs, n)) / 1e6)
    for slot in SLOTS:
        v[f"problems.{slot}.calls"] = per_cell(lambda rs, c, s=slot: c.tallies[0].get(s, 0))
        v[f"problems.{slot}.ms"] = per_cell(lambda rs, c, s=slot: c.tallies[1].get(s, 0) / 1e6)
    loops = [sp for sp in spans if sp.name in LOOPS]
    base_ns = sum(sp.ns for sp in loops)
    v["problems.oracle_share"] = sum(sp.slot_ns for sp in loops) / base_ns if base_ns else 0.0
    v["problems.oracle_share_base_ms"] = per_cell(
        lambda rs, c: sum(sp.ns for sp in rs if sp.name in LOOPS) / 1e6)
    v["models.outer_iters"] = per_cell(lambda rs, c: sum(c.units.values()) if
                                       named(rs, "models.run_model") else 0)
    v["models.self_ms"] = per_cell(
        lambda rs, c: sum(sp.self_ns for sp in named(rs, "models.run_model")) / 1e6)
    v["oracles.reports_passed"] = per_cell(lambda rs, c: c.reports[0])
    v["oracles.reports_total"] = per_cell(lambda rs, c: c.reports[1])
    setup_runs = sorted({sp.run for sp in setup_spans})
    for name in SETUP_MS:
        v[f"{name}.ms"] = _median(sum(sp.ns for sp in setup_spans
                                      if sp.run == r and sp.name == name) / 1e6
                                  for r in setup_runs)
    base_wall = _median(c.wall_s for c in base if c.timed) * scales[0]
    traced_wall = _median(c.wall_s for c in cells if c.timed) * scales[1]
    v["trace.overhead_s"] = traced_wall - base_wall
    v["trace.overhead_frac"] = (traced_wall - base_wall) / base_wall if base_wall else 0.0
    if set(v) != set(PER_LAYER):
        raise KeyError(f"computed per-layer metrics differ from BENCHMARK.json: "
                       f"{sorted(set(v) ^ set(PER_LAYER))}")
    return {name: {"value": float(v[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        blas_threads: int) -> dict:
    workload = WORKLOADS[workload_name]
    env = environment(blas_threads)
    probe = Probe(WORKLOAD_KERNEL[workload_name])
    setup_probe = probe if probe.name == SETUP_KERNEL else Probe(SETUP_KERNEL)
    scale: dict = {}      # untraced: the reference-kernel scales and unscaled timings
    if not trace:
        # set-up is timed between the parts of the cells, under the same
        # machine conditions as the cells, and probed at the same moments
        inputs = workload.setup(seed)
        setup_samples = []
        setup_seeds = itertools.count(seed + 1)

        def tick():
            probe()
            if setup_probe is not probe:
                setup_probe()
            setup_samples.append(setup_sample(workload, setup_seeds, SETUP_BATCH_S))

        cells = run_cells(workload, inputs, seconds, tick)
        scale = {"kernel_scale": probe.scale ** WORKLOAD_EXPONENT[workload_name],
                 "setup_scale": setup_probe.scale}
        metrics, scale["raw"] = end_to_end(cells, setup_samples, scale["kernel_scale"],
                                           scale["setup_scale"])
    else:
        setup_tracer = Tracer()
        with setup_tracer.patched(SETUP_ENTRIES):
            setup_sample(workload, itertools.count(seed), SETUP_BATCH_S * 5, setup_tracer)
        inputs = workload.setup(seed)
        traced_probe = Probe(probe.name)
        base = run_cells(workload, inputs, seconds / 2, probe)
        tracer = Tracer()
        with tracer.patched(SOLVE_ENTRIES + CHECK_ENTRIES):
            cells = run_cells(workload, workload.wrap(inputs, tracer), seconds / 2,
                              traced_probe, tracer)
        exponent = WORKLOAD_EXPONENT[workload_name]
        metrics = layer_metrics(tracer.spans, cells, base, setup_tracer.spans,
                                (probe.scale ** exponent, traced_probe.scale ** exponent))
        tracer.write(OUT_DIR / f"{workload_name}-seed{seed}.spans.json",
                     {"workload": workload_name, "seed": seed, "env": env,
                      "setup_spans": [sp.to_dict() for sp in setup_tracer.spans]})
        cells = base + cells
    failed = [c for c in cells if c.failures]
    return {
        "env": env,
        "scale": scale,
        "failures": [f for c in failed for f in c.failures],
        "result": {"correct": not failed, "attempted": len(cells), "failed": len(failed),
                   "metrics": metrics},
    }
