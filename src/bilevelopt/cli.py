"""Command-line entry point: check, solve, ablation, clean.

Every output file is paired with a manifest JSON recording the resolved
configuration; replaying a manifest reproduces the outputs byte-identically
(the wall-clock column is zeroed under --no-timing, which the determinism
checks use).  Floats are written with 17 significant digits, '.' decimal, no
locale.

Exit codes: 0 success, 1 check failure, 2 usage or config error, 3 runtime
divergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import corrupt_labels, gen_synthetic, load_idx, split
from .models import SolveConfig, TraceRecord, run_ablation, run_model
from .oracles import check_suite, default_check_configs
from .problem import OracleDivergence
from .problems import ZOO_NAMES, hyperclean_f1_metric, make_hypercleaning, zoo_problem

__all__ = ["main", "replay_manifest"]

CONFIG_KEYS = ("t", "s", "eta", "K", "T", "alpha_exponent", "bigsam_frequency", "seed")
REQUIRED_KEYS = ("t", "s", "eta", "K", "T")
CLEAN_DEFAULTS = {"n": None, "d": 10, "C": 2, "margin": 3.0}


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise CliError("config file must hold a JSON object of flat scalar fields")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise CliError(f"unknown config field {unknown[0]!r}")
    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise CliError(f"missing config field {missing[0]!r}")
    return raw


def _resolve_config(args, defaults: dict) -> dict:
    """Merge per-problem defaults, the optional config file, and the seed flag."""
    cfg = dict(defaults)
    cfg.setdefault("alpha_exponent", 0.25)
    cfg.setdefault("bigsam_frequency", 1)
    cfg.setdefault("seed", 0)
    if getattr(args, "config", None):
        cfg.update(_load_config(args.config))
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def _solve_config(cfg: dict, mode: str) -> SolveConfig:
    try:
        return SolveConfig(t=float(cfg["t"]), s=float(cfg["s"]), eta=float(cfg["eta"]),
                           K=cfg["K"], T=cfg["T"],
                           alpha_exponent=float(cfg["alpha_exponent"]),
                           bigsam_frequency=cfg["bigsam_frequency"],
                           seed=int(cfg["seed"]), mode=mode)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid config: {exc}")


def _write_manifest(out_path: Path, command: str, payload: dict, outputs: list) -> Path:
    manifest = {
        "tool": "bilevelopt",
        "version": __version__,
        "command": command,
        "outputs": [str(p) for p in outputs],
    }
    manifest.update(payload)
    mpath = out_path.with_suffix(out_path.suffix + ".manifest.json")
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return mpath


def _write_trace_csv(path: Path, records, truncated: bool = False) -> None:
    with open(path, "w", newline="") as f:
        f.write("iter,outer_value,grad_norm,metric,wall_ms\n")
        for r in records:
            metric = "" if r.metric is None else _fmt(r.metric)
            f.write(f"{r.index},{_fmt(r.outer_value)},{_fmt(r.grad_norm)},{metric},{_fmt(r.wall_ms)}\n")
        if truncated:
            f.write("# truncated\n")


def _partial_records(exc: OracleDivergence) -> list:
    """The finite records that a diverged ``run_model`` call attached to the error's cause."""
    partial = getattr(exc.__cause__, "partial_trace", None)
    return partial.records if partial is not None else []


def cmd_check(args) -> int:
    names = list(ZOO_NAMES) if args.problem == "all" else [args.problem]
    for name in names:
        if name not in ZOO_NAMES:
            raise CliError(f"unknown problem {name!r}; known: {', '.join(ZOO_NAMES)}")
    reports = []
    for name in names:
        inst = zoo_problem(name, seed=args.seed or 0)
        configs = default_check_configs(name)
        if args.tol is not None:
            configs = [replace(c, tol_grad=args.tol, tol_vjp=args.tol, tol_hg=args.tol)
                       for c in configs]
        reports.extend(check_suite(inst.problem, configs))
    all_pass = all(r.passed for r in reports)
    doc = {"tool": "bilevelopt", "version": __version__, "all_pass": all_pass,
           "reports": [r.to_dict() for r in reports]}
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        _write_manifest(out, "check", {"problem": args.problem, "tol": args.tol,
                                       "config": {"seed": args.seed or 0}},
                        [out.name])
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.problem}: {r.name}  max_rel_err={r.max_rel_err:.3e}  tol={r.tolerance:g}")
    return 0 if all_pass else 1


def cmd_solve(args) -> int:
    if args.problem not in ZOO_NAMES:
        raise CliError(f"unknown problem {args.problem!r}; known: {', '.join(ZOO_NAMES)}")
    inst = zoo_problem(args.problem, seed=args.seed or 0)
    cfg = _resolve_config(args, inst.defaults)
    config = _solve_config(cfg, args.model)
    out = Path(args.out)
    payload = {"problem": args.problem, "model": args.model, "config": cfg,
               "data": inst.data_spec, "no_timing": bool(args.no_timing)}
    try:
        trace = run_model(inst.problem, inst.lam0, config, metric=inst.metric,
                          collect_timing=not args.no_timing)
    except OracleDivergence as exc:
        _write_trace_csv(out, _partial_records(exc), truncated=True)
        _write_manifest(out, "solve", payload, [out.name])
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    _write_trace_csv(out, trace.records)
    _write_manifest(out, "solve", payload, [out.name])
    return 0


def _ablation_cell(payload: dict) -> dict:
    """Worker for one (frequency) cell; rebuilds the problem in-process.

    A divergence is caught here and returned with the partial records: the
    exception's cause, which holds them, does not cross the process pool.
    """
    inst = zoo_problem(payload["problem"], seed=payload["seed"])
    error = None
    try:
        (trace,) = run_ablation(inst.problem, inst.lam0, payload["config"],
                                [payload["frequency"]], metric=inst.metric,
                                collect_timing=not payload["no_timing"])
        records = trace.records
    except OracleDivergence as exc:
        records, error = _partial_records(exc), str(exc)
    return {"frequency": payload["frequency"], "error": error,
            "records": [(r.index, r.outer_value, r.grad_norm, r.metric, r.wall_ms)
                        for r in records]}


def cmd_ablation(args) -> int:
    if args.problem not in ZOO_NAMES:
        raise CliError(f"unknown problem {args.problem!r}; known: {', '.join(ZOO_NAMES)}")
    try:
        freqs = [int(x) for x in args.freqs.split(",") if x.strip() != ""]
    except ValueError:
        raise CliError(f"cannot parse frequency list {args.freqs!r}")
    if not freqs:
        raise CliError("frequency list is empty")
    if any(f < 1 for f in freqs):
        raise CliError("frequencies must be positive integers")
    inst = zoo_problem(args.problem, seed=args.seed or 0)
    cfg = _resolve_config(args, inst.defaults)
    base = _solve_config(cfg, "improved")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = [{"problem": args.problem, "seed": int(cfg["seed"]), "frequency": f,
              "config": base, "no_timing": bool(args.no_timing)}
             for f in freqs + [0]]            # sentinel 0 = basic baseline
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_ablation_cell, cells))
    else:
        results = [_ablation_cell(c) for c in cells]

    index, errors = [], []
    for res in sorted(results, key=lambda r: r["frequency"]):
        f = res["frequency"]
        name = "basic.csv" if f == 0 else f"improved-{f}.csv"
        path = out_dir / name
        records = [TraceRecord(*row) for row in res["records"]]
        _write_trace_csv(path, records, truncated=res["error"] is not None)
        _write_manifest(path, "ablation", {"problem": args.problem, "frequency": f,
                                           "config": cfg, "data": inst.data_spec,
                                           "no_timing": bool(args.no_timing)}, [name])
        index.append({"frequency": f, "file": name})
        if res["error"] is not None:
            errors.append(f"{name}: {res['error']}")
    (out_dir / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
    for error in errors:
        print(f"divergence: {error}", file=sys.stderr)
    return 3 if errors else 0


def _clean_dataset(args, seed: int):
    if args.data == "synthetic":
        n = CLEAN_DEFAULTS["n"] or (args.ntr + args.nval)
        ds = gen_synthetic(seed, max(n, args.ntr + args.nval), CLEAN_DEFAULTS["d"],
                           CLEAN_DEFAULTS["C"], CLEAN_DEFAULTS["margin"])
        spec = {"kind": "synthetic", "d": CLEAN_DEFAULTS["d"], "C": CLEAN_DEFAULTS["C"],
                "margin": CLEAN_DEFAULTS["margin"], "n": len(ds)}
    elif args.data.startswith("idx:"):
        parts = args.data[4:].split(",")
        if len(parts) != 2:
            raise CliError("idx data spec must be idx:<images_path>,<labels_path>")
        ds = load_idx(parts[0], parts[1])
        spec = {"kind": "idx", "images": parts[0], "labels": parts[1]}
    else:
        raise CliError(f"unknown data source {args.data!r} (use synthetic or idx:<paths>)")
    train, val = split(ds, args.ntr, args.nval, seed)
    train = corrupt_labels(train, args.rho, seed)
    return train, val, spec


def cmd_clean(args) -> int:
    if not 0.0 <= args.rho <= 1.0:
        raise CliError("rho must lie in [0, 1]")
    seed = args.seed if args.seed is not None else 0
    train, val, data_spec = _clean_dataset(args, seed)
    problem = make_hypercleaning(train, val)
    metric = hyperclean_f1_metric(train.mask)
    defaults = zoo_problem("hyperclean_synthetic").defaults
    cfg = _resolve_config(args, defaults)
    cfg["seed"] = seed
    lam0 = np.zeros(problem.outer_dim)

    records, errors = {}, []
    for mode in ("improved", "basic"):
        config = _solve_config(cfg, mode)
        try:
            records[mode] = run_model(problem, lam0, config, metric=metric,
                                      collect_timing=not args.no_timing).records
        except OracleDivergence as exc:
            records[mode] = _partial_records(exc)
            errors.append(f"{mode} model: {exc}")
    out = Path(args.out)
    with open(out, "w", newline="") as f:
        f.write("iter,f1_improved,f1_basic\n")
        for ri, rb in zip(records["improved"], records["basic"]):
            f.write(f"{ri.index},{_fmt(ri.metric)},{_fmt(rb.metric)}\n")
        if errors:
            f.write("# truncated\n")
    manifest = {"args": {"data": args.data, "rho": args.rho, "ntr": args.ntr, "nval": args.nval},
                "config": cfg, "no_timing": bool(args.no_timing)}
    if errors:
        _write_manifest(out, "clean", manifest, [out.name])
        for error in errors:
            print(f"divergence: {error}", file=sys.stderr)
        return 3
    no_positives = int(train.mask.sum()) == 0
    summary = {
        "flag_rule": "sample i is flagged corrupted when its weight lambda_i < 0",
        "rho": args.rho,
        "corrupted_count": int(train.mask.sum()),
        "final_f1_improved": records["improved"][-1].metric,
        "final_f1_basic": records["basic"][-1].metric,
        "undefined_f1": no_positives,
        "note": "undefined-F1, reported 0" if no_positives else "",
        "config": cfg,
        "data": {**data_spec, "n_tr": args.ntr, "n_val": args.nval, "rho": args.rho, "seed": seed},
    }
    spath = out.with_suffix(out.suffix + ".summary.json")
    spath.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _write_manifest(out, "clean", manifest, [out.name, spath.name])
    return 0


def replay_manifest(path) -> int:
    """Re-run the command recorded in a manifest; outputs land where they did."""
    doc = json.loads(Path(path).read_text())
    out_dir = Path(path).parent
    cfg = doc.get("config", {})
    argv = [doc["command"]]
    if doc["command"] == "check":
        argv += ["--problem", doc["problem"], "--out", str(out_dir / doc["outputs"][0]),
                 "--seed", str(cfg.get("seed", 0))]
        if doc.get("tol") is not None:
            argv += ["--tol", str(doc["tol"])]
        return main(argv)
    if doc["command"] == "solve":
        argv += ["--problem", doc["problem"], "--model", doc["model"],
                 "--out", str(out_dir / doc["outputs"][0]), "--seed", str(cfg["seed"])]
    elif doc["command"] == "ablation":
        argv += ["--problem", doc["problem"],
                 "--freqs", str(doc["frequency"]) if doc["frequency"] else "1",
                 "--out-dir", str(out_dir), "--seed", str(cfg["seed"])]
    elif doc["command"] == "clean":
        a = doc["args"]
        argv += ["--data", a["data"], "--rho", str(a["rho"]), "--ntr", str(a["ntr"]),
                 "--nval", str(a["nval"]), "--out", str(out_dir / doc["outputs"][0]),
                 "--seed", str(cfg["seed"])]
    else:
        raise CliError(f"cannot replay command {doc['command']!r}")
    cfg_path = out_dir / "_replay_config.json"
    cfg_path.write_text(json.dumps({k: cfg[k] for k in CONFIG_KEYS if k in cfg}))
    argv += ["--config", str(cfg_path)]
    if doc.get("no_timing"):
        argv.append("--no-timing")
    return main(argv)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bilevelopt",
                                 description="bilevel solvers with unrolled hypergradients")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run oracle verifiers on a named problem")
    p.add_argument("--problem", default="all")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="run one model on a named problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--model", choices=("improved", "basic"), default="improved")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("ablation", help="sweep averaging frequencies plus a basic baseline")
    p.add_argument("--problem", required=True)
    p.add_argument("--freqs", required=True, help="comma-separated positive integers")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("clean", help="hyper-clean a corrupted dataset with both models")
    p.add_argument("--data", default="synthetic", help="synthetic or idx:<images>,<labels>")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--ntr", type=int, default=400)
    p.add_argument("--nval", type=int, default=400)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_clean)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleDivergence as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
