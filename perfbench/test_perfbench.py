"""Tests of the benchmark itself.

The tracer must see every oracle call (checked against closed-form counts on
``quad_gap``), the gates must catch a miss, the module globals it wraps must
come back, and the runner must report exactly the metrics ``BENCHMARK.json`` names.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import workloads  # noqa: E402
from bilevelopt import models  # noqa: E402
from spans import SLOTS, Tracer  # noqa: E402

K = 5000


def _one_iteration_cell(tracer, counts):
    # one outer iteration is too short for the quad_gap gate, so no gate here
    inputs = workloads.setup_quad_gap(0)
    inputs = dataclasses.replace(inputs, configs=workloads._configs(0.1, 0.1, 0.5, K, T=1))
    with tracer.patched(bench.SOLVE_ENTRIES):
        return workloads.solve_cell(workloads._wrap_solve(inputs, tracer), tracer,
                                    gate=lambda finals: [], counts=counts)


def test_quad_gap_closed_forms():
    imp = workloads.quad_gap_counts(K, "improved")
    bas = workloads.quad_gap_counts(K, "basic")
    assert (imp["grad1_h"], imp["grad1_g"], imp["vjp12_h"], imp["vjp11_h"]) == (K, K, K, K - 1)
    assert (imp["vjp11_g"], imp["vjp12_g"], imp["grad2_g"]) == (K - 1, 0, 1)
    assert (bas["grad1_g"], bas["vjp11_g"]) == (1, 0)
    assert {s: bas[s] for s in ("grad1_h", "vjp12_h", "vjp11_h", "vjp12_g", "grad2_g")} == \
        {s: imp[s] for s in ("grad1_h", "vjp12_h", "vjp11_h", "vjp12_g", "grad2_g")}


def test_traced_quad_gap_sees_every_slot_call():
    original = models.solve_inner
    tracer = Tracer()
    cell = _one_iteration_cell(tracer, workloads.quad_gap_counts)
    assert models.solve_inner is original
    assert cell.failures == []
    calls, _ = tracer.take_tallies()
    want = {s: sum(workloads.quad_gap_counts(K, m)[s] for m in workloads.MODES) for s in SLOTS}
    assert {s: calls.get(s, 0) for s in SLOTS} == want
    names = [sp.name for sp in tracer.spans]
    assert names.count("bigsam.solve_inner") == names.count("hypergrad.reverse") == 2
    assert all(tracer.spans[sp.parent].name == "models.run_model"
               for sp in tracer.spans if sp.name == "bigsam.solve_inner")


def test_traced_cell_fails_on_a_wrong_count():
    tracer = Tracer()

    def off_by_one(k, mode):
        counts = workloads.quad_gap_counts(k, mode)
        counts["vjp11_h"] += 1
        return counts

    cell = _one_iteration_cell(tracer, off_by_one)
    assert len(cell.failures) == 2 and all("closed form" in f for f in cell.failures)


def test_gates_catch_misses():
    def finals(imp, bas, attr):
        return {"improved": [SimpleNamespace(**{attr: imp})],
                "basic": [SimpleNamespace(**{attr: bas})]}

    assert workloads.gate_quad_gap(finals(2e-4, 0.5004, "final_outer_value")) == []
    assert len(workloads.gate_quad_gap(finals(2e-3, 0.4, "final_outer_value"))) == 2
    assert len(workloads.gate_quad_gap(finals(float("nan"), 0.5, "final_outer_value"))) == 1
    assert workloads.gate_hyperclean(finals(0.9, 0.9, "final_metric")) == []
    assert len(workloads.gate_hyperclean(finals(0.8, 0.9, "final_metric"))) == 1
    assert workloads.gate_hyperrep(finals(0.9, 0.6, "final_metric")) == []
    assert len(workloads.gate_hyperrep(finals(0.3, 0.1, "final_metric"))) == 1
    # hyperclean compares means over its instances, as criterion 6 does
    both = {"improved": [SimpleNamespace(final_metric=v) for v in (0.94, 0.99)],
            "basic": [SimpleNamespace(final_metric=v) for v in (0.96, 0.90)]}
    assert workloads.gate_hyperclean(both) == []


def test_runner_reports_the_metrics_benchmark_json_names():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    tracer = Tracer()
    cell = _one_iteration_cell(tracer, workloads.quad_gap_counts)
    cell.tallies = tracer.take_tallies()
    metrics, raw = bench.end_to_end([cell], [1e-5], 1.0, 1.0)
    assert list(metrics) == [m["name"] for m in doc["end_to_end"]]
    assert set(raw) <= set(metrics)
    layers = bench.layer_metrics(tracer.spans, [cell], [cell], [])
    assert list(layers) == [m["name"] for m in doc["per_layer"]]
    assert layers["problems.vjp11_h.calls"]["value"] == 2 * (K - 1)
    moves = json.loads((HERE / "metrics.json").read_text())["per_layer"]
    assert set(moves) == set(layers)
    for name, entry in moves.items():
        for metric, workload in entry["moves"]:
            assert metric in metrics and workload in workloads.WORKLOADS, name


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad_gap",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
