"""Command-line entry point: check, solve, ablation, clean.

Each command resolves its arguments once into a run: the plain dict that its
manifest records beside the tool and version.  That dict alone drives the
work, and ``replay_manifest`` loads a manifest and runs the same dict again,
so a replay reproduces the outputs byte-identically (the wall-clock column is
zeroed under --no-timing, which the determinism checks use).  Replaying an
ablation cell's manifest reruns and rewrites only that cell.  Floats are
written with 17 significant digits, '.' decimal, no locale.

The run's config holds the fields of ``SolveConfig`` but its mode, and
merges that class's defaults, then the problem's, then the --config file, then
--seed: the seed is the flag, else the file's, else 0.  That seed builds the
data of every command and must be a non-negative integer (5.0 is 5); a solve
or ablation manifest's ``data.seed`` is its ``config.seed``.

A usage error is raised as a ``ValueError``, and an output path that cannot
be created or written as an ``OSError``: either exits 2 with an ``error:``
line that names it.  Each command validates its whole run, and builds its
data, before it creates its output directory, so a refused run leaves
nothing behind; the directory is made before any model runs.  One runner,
``_records``, runs every model of every command; a diverged run keeps its
finite records, and its CSV ends with a ``# truncated`` line.

Exit codes: 0 success, 1 check failure, 2 usage or config error, 3 runtime
divergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from dataclasses import MISSING, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Optional

from . import __version__
from .bigsam import check_count
from .data import gen_synthetic, load_idx
from .models import SolveConfig, ablation_config, run_model
from .oracles import check_suite, default_check_configs
from .problem import OracleDivergence, check_finite_positive
from .problems import HYPERCLEAN_DATA, ZOO_DEFAULTS, ZOO_NAMES, hypercleaning_task, zoo_problem

__all__ = ["main", "replay_manifest"]

# a config file holds SolveConfig's fields but the mode, which each command sets
CONFIG_FIELDS = tuple(f for f in fields(SolveConfig) if f.name != "mode")
REQUIRED_KEYS = tuple(f.name for f in CONFIG_FIELDS if f.default is MISSING)
CONFIG_DEFAULTS = {f.name: f.default for f in CONFIG_FIELDS if f.default is not MISSING}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object of flat scalar fields")
    unknown = sorted(set(raw).difference(REQUIRED_KEYS, CONFIG_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config field {unknown[0]!r}")
    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ValueError(f"missing config field {missing[0]!r}")
    return raw


def _check_problem(name: str) -> str:
    if name not in ZOO_NAMES:
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(ZOO_NAMES)}")
    return name


def _resolve_config(args, problem: str) -> dict:
    """Merge ``SolveConfig``'s defaults, the problem's, the optional config file, ``--seed``."""
    cfg = {**CONFIG_DEFAULTS, **ZOO_DEFAULTS[_check_problem(problem)]}
    if args.config:
        cfg.update(_load_config(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _solve_config(run: dict) -> SolveConfig:
    """The validated ``SolveConfig`` of a run: its model, or its ablation frequency."""
    try:
        # every field as given: SolveConfig checks each by its kind's one rule
        config = SolveConfig(**run["config"], mode=run.get("model", "improved"))
        return ablation_config(config, run["frequency"]) if "frequency" in run else config
    except (ValueError, TypeError) as exc:
        raise ValueError(f"invalid config: {exc}")


def _write_manifest(out_dir: Path, run: dict) -> None:
    """Record a run beside its first output."""
    manifest = {**run, "tool": "bilevelopt", "version": __version__}
    mpath = out_dir / (run["outputs"][0] + ".manifest.json")
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows, truncated: bool) -> None:
    """Write ``header``, one line per row, then ``# truncated`` if the run diverged.

    Each cell is a number at 17 significant digits, which prints an iteration
    index as its integer; a None cell is empty.
    """
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join("" if x is None else _fmt(x) for x in row) + "\n")
        if truncated:
            f.write("# truncated\n")


def _records(problem, lam0, config: SolveConfig, metric, no_timing: bool):
    """Run one model: ``(records, None)``, or a diverged run's finite records and its error."""
    try:
        return run_model(problem, lam0, config, metric=metric,
                         collect_timing=not no_timing).records, None
    except OracleDivergence as exc:
        return exc.partial_trace.records, exc


def _divergence_exit(errors: list) -> int:
    """Report each divergence message (None is a clean run); 3 if there was one."""
    errors = [e for e in errors if e is not None]
    for error in errors:
        print(f"divergence: {error}", file=sys.stderr)
    return 3 if errors else 0


def _run_check(run: dict, out_dir: Path) -> int:
    names = list(ZOO_NAMES) if run["problem"] == "all" else [_check_problem(run["problem"])]
    tol, rows = run["tol"], []
    if tol is not None:
        check_finite_positive("--tol", tol)
    # a bad seed writes no file, as a bad solve config writes none
    seed = check_count("seed", run["config"]["seed"], 0)
    if run["outputs"]:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        inst = zoo_problem(name, seed=seed)
        configs = default_check_configs(name)
        if tol is not None:
            configs = [replace(c, tol_grad=tol, tol_vjp=tol, tol_hg=tol) for c in configs]
        # each report with the model of the config that produced it
        for cfg in configs:
            rows.extend((r, cfg.mode) for r in check_suite(inst.problem, [cfg]))
    all_pass = all(r.passed for r, _ in rows)
    if run["outputs"]:
        doc = {"tool": "bilevelopt", "version": __version__, "all_pass": all_pass,
               "reports": [r.to_dict() for r, _ in rows]}
        (out_dir / run["outputs"][0]).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        _write_manifest(out_dir, run)
    for r, mode in rows:
        status = "pass" if r.passed else "FAIL"
        # only the reverse-vs-FD check reads the model
        label = f"{r.name} ({mode})" if r.name == "reverse-vs-fd-hypergradient" else r.name
        print(f"[{status}] {r.problem}: {label}  max_rel_err={r.max_rel_err:.3e}  tol={r.tolerance:g}")
    return 0 if all_pass else 1


def _run_trace(run: dict, out_dir: Path) -> Optional[str]:
    """Run a solve or one ablation cell; write its trace CSV and manifest.

    Returns the divergence message, or None.  Under ``ablation --jobs`` this
    runs in a worker process, so the message, not the exception, crosses the
    pool.
    """
    config = _solve_config(run)
    inst = zoo_problem(_check_problem(run["problem"]), seed=config.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / run["outputs"][0]
    records, error = _records(inst.problem, inst.lam0, config, inst.metric, run["no_timing"])
    _write_csv(out, "iter,outer_value,grad_norm,metric,wall_ms",
               [(r.index, r.outer_value, r.grad_norm, r.metric, r.wall_ms) for r in records],
               error is not None)
    _write_manifest(out_dir, {**run, "data": inst.data_spec})
    return None if error is None else f"{out.name}: {error}"


def _clean_dataset(args: dict, seed: int):
    """The dataset that ``args["data"]`` names, and its spec for the summary."""
    if args["data"] == "synthetic":
        data = {k: HYPERCLEAN_DATA[k] for k in ("d", "C", "margin")}
        # at least one sample per class, so that ``split`` judges the sizes
        ds = gen_synthetic(seed, max(args["ntr"] + args["nval"], data["C"]), **data)
        spec = {"kind": "synthetic", **data, "n": len(ds)}
    elif args["data"].startswith("idx:"):
        parts = args["data"][4:].split(",")
        if len(parts) != 2:
            raise ValueError("idx data spec must be idx:<images_path>,<labels_path>")
        try:
            ds = load_idx(parts[0], parts[1])
        except OSError as exc:
            raise ValueError(f"cannot read idx data: {exc}")
        spec = {"kind": "idx", "images": parts[0], "labels": parts[1]}
    else:
        raise ValueError(f"unknown data source {args['data']!r} (use synthetic or idx:<paths>)")
    return ds, spec


def _run_clean(run: dict, out_dir: Path) -> list:
    """Run both models on one corrupted split; returns the divergence messages."""
    args = run["args"]
    improved = _solve_config(run)
    configs = {"improved": improved, "basic": replace(improved, mode="basic")}
    ds, data_spec = _clean_dataset(args, improved.seed)
    # corrupt_labels refuses a rho outside [0, 1] here, before any output
    problem, lam0, metric, mask = hypercleaning_task(ds, args["ntr"], args["nval"], args["rho"],
                                                     improved.seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    records, errors = {}, []
    for mode, config in configs.items():
        records[mode], error = _records(problem, lam0, config, metric, run["no_timing"])
        if error is not None:
            errors.append(f"{mode} model: {error}")
    out = out_dir / run["outputs"][0]
    _write_csv(out, "iter,f1_improved,f1_basic",
               [(ri.index, ri.metric, rb.metric)
                for ri, rb in zip(records["improved"], records["basic"])], bool(errors))
    outputs = [out.name]
    if not errors:
        no_positives = int(mask.sum()) == 0
        summary = {
            "flag_rule": "sample i is flagged corrupted when its weight lambda_i < 0",
            "rho": args["rho"],
            "corrupted_count": int(mask.sum()),
            "final_f1_improved": records["improved"][-1].metric,
            "final_f1_basic": records["basic"][-1].metric,
            "undefined_f1": no_positives,
            "note": "undefined-F1, reported 0" if no_positives else "",
            "config": run["config"],
            "data": {**data_spec, "n_tr": args["ntr"], "n_val": args["nval"],
                     "rho": args["rho"], "seed": improved.seed},
        }
        spath = out.with_suffix(out.suffix + ".summary.json")
        spath.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        outputs.append(spath.name)
    _write_manifest(out_dir, {**run, "outputs": outputs})
    return errors


def _execute(run: dict, out_dir: Path) -> int:
    """Do the work that a run names and return the command's exit code.

    Each runner validates the whole run and builds its data before it
    creates the output directory, so a refused run creates nothing.
    """
    if run["command"] == "check":
        return _run_check(run, out_dir)
    if run["command"] == "clean":
        return _divergence_exit(_run_clean(run, out_dir))
    if run["command"] in ("solve", "ablation"):
        return _divergence_exit([_run_trace(run, out_dir)])
    raise ValueError(f"cannot run command {run['command']!r}")


def cmd_check(args) -> int:
    out = Path(args.out) if args.out else None
    run = {"command": "check", "problem": args.problem, "tol": args.tol,
           "config": {"seed": 0 if args.seed is None else args.seed},
           "outputs": [out.name] if out else []}
    return _execute(run, out.parent if out else Path("."))


def cmd_solve(args) -> int:
    out = Path(args.out)
    run = {"command": "solve", "problem": args.problem, "model": args.model,
           "config": _resolve_config(args, args.problem),
           "no_timing": args.no_timing, "outputs": [out.name]}
    return _execute(run, out.parent)


def cmd_ablation(args) -> int:
    cfg = _resolve_config(args, args.problem)
    try:
        freqs = [int(x) for x in args.freqs.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse frequency list {args.freqs!r}")
    if not freqs:
        raise ValueError("frequency list is empty")
    if any(f < 1 for f in freqs):
        raise ValueError("frequencies must be positive integers")
    if len(set(freqs)) != len(freqs):
        raise ValueError(f"frequency list {args.freqs!r} repeats a frequency")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cells = [{"command": "ablation", "problem": args.problem, "frequency": f, "config": cfg,
              "no_timing": args.no_timing,
              "outputs": ["basic.csv" if f == 0 else f"improved-{f}.csv"]}
             for f in sorted(freqs + [0])]          # sentinel 0 = basic baseline
    _solve_config(cells[0])                         # a bad config writes no file
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_trace, cells, repeat(out_dir)))
    else:
        results = [_run_trace(cell, out_dir) for cell in cells]
    index = [{"frequency": c["frequency"], "file": c["outputs"][0]} for c in cells]
    (out_dir / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
    return _divergence_exit(results)


def cmd_clean(args) -> int:
    out = Path(args.out)
    run = {"command": "clean",
           "args": {"data": args.data, "rho": args.rho, "ntr": args.ntr, "nval": args.nval},
           "config": _resolve_config(args, "hyperclean_synthetic"),
           "no_timing": args.no_timing, "outputs": [out.name]}
    return _execute(run, out.parent)


def _exit_code(work) -> int:
    try:
        return work()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleDivergence as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


def replay_manifest(path) -> int:
    """Rerun the one run that a manifest records; its outputs land beside it.

    Returns the exit code that the recorded command would return.
    """
    path = Path(path)
    return _exit_code(lambda: _execute(json.loads(path.read_text()), path.parent))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bilevelopt",
                                 description="bilevel solvers with unrolled hypergradients")
    sub = ap.add_subparsers(dest="command", required=True)

    # the flags of every command that runs models
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--config", default=None)
    runs.add_argument("--seed", type=int, default=None)
    runs.add_argument("--no-timing", action="store_true")

    p = sub.add_parser("check", help="run oracle verifiers on a named problem")
    p.add_argument("--problem", default="all")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", parents=[runs], help="run one model on a named problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--model", choices=("improved", "basic"), default="improved")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("ablation", parents=[runs],
                       help="sweep averaging frequencies plus a basic baseline")
    p.add_argument("--problem", required=True)
    p.add_argument("--freqs", required=True, help="comma-separated distinct positive integers")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("clean", parents=[runs],
                       help="hyper-clean a corrupted dataset with both models")
    p.add_argument("--data", default="synthetic", help="synthetic or idx:<images>,<labels>")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--ntr", type=int, default=HYPERCLEAN_DATA["n_tr"])
    p.add_argument("--nval", type=int, default=HYPERCLEAN_DATA["n_val"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_clean)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _exit_code(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
