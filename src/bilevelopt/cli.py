"""Command-line entry point: check, solve, ablation, clean.

Each command resolves its arguments into a run: the plain dict that its
manifest records beside ``tool`` and ``version``.  ``parse_run`` checks every
run, whether a command built it from argv or ``replay_manifest`` loaded it
from a manifest, and that checked dict alone drives the work.  So a replay
returns the exit code that the recorded command would return and reproduces
its outputs byte-identically (the wall-clock column is zeroed under
--no-timing, which the determinism checks use).  Replaying an ablation
cell's manifest reruns and rewrites only that cell.  Floats are written with
17 significant digits, '.' decimal, no locale.

The run schema.  A run holds exactly these keys; a missing or unknown key
exits 2, and so does a value that its rule refuses:

    check     command, problem, tol, config {seed}, outputs
    solve     command, problem, model, config, data, no_timing, outputs
    ablation  command, problem, frequency, config, data, no_timing, outputs
    clean     command, args {data, rho, ntr, nval}, config, no_timing, outputs

``problem`` is a zoo name (or "all" for check), ``model`` improved or basic,
``no_timing`` true or false, ``tol`` null or a finite positive number.  The
config of solve, ablation and clean holds every field of ``SolveConfig`` but
its mode, each checked by that class's rule for its kind; an ablation cell's
``frequency`` is a count, 0 for the basic baseline, and replaces the
config's ``bigsam_frequency``, which must therefore be 1 (on argv too, so a
--config file that sets another is refused).  ``outputs`` lists plain file
names, no path: check names one report or none, solve one CSV, an
ablation cell the one name that its frequency gives (``basic.csv`` or
``improved-<f>.csv``), and clean its CSV, then its summary
``<csv>.summary.json`` if it wrote one.  clean's ``ntr`` and ``nval`` are
counts of at least 1, ``rho`` a number (``corrupt_labels`` refuses one
outside [0, 1]), and ``data`` the string ``synthetic`` or
``idx:<images>,<labels>``.  A solve or ablation manifest's ``data`` is the
spec of the data that the run builds, and a replay refuses one that differs;
a run from argv, which has built nothing yet, holds ``...`` there instead.  A
K whose averaging weights no memory can hold is refused with the config.

A run from argv merges ``SolveConfig``'s defaults, then the problem's, then
the --config file, which must hold the fields without a default, then
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
from dataclasses import MISSING, astuple, fields, replace
from pathlib import Path

from . import __version__
from .bigsam import check_count, schedule
from .data import gen_synthetic, load_idx
from .models import SolveConfig, ablation_config, run_model
from .oracles import check_suite, default_check_configs
from .problem import OracleDivergence, check_finite_positive, check_number
from .problems import HYPERCLEAN_DATA, ZOO_DEFAULTS, ZOO_NAMES, hypercleaning_task, zoo_problem

__all__ = ["main", "parse_run", "replay_manifest"]

# a config holds SolveConfig's fields but the mode, which each command sets
CONFIG_KEYS = tuple(f.name for f in fields(SolveConfig) if f.name != "mode")
CONFIG_DEFAULTS = {f.name: f.default for f in fields(SolveConfig)
                   if f.name != "mode" and f.default is not MISSING}
# the keys of each command's run beside command, config and outputs, as its
# manifest records them but tool and version
RUN_KEYS = {"check": ("problem", "tol"), "solve": ("problem", "model", "data", "no_timing"),
            "ablation": ("problem", "frequency", "data", "no_timing"),
            "clean": ("args", "no_timing")}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json(doc) -> str:
    """The text of every JSON file a command writes."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _keys(what: str, doc, known, defaults=()) -> dict:
    """``doc``, if it is a JSON object that holds each of ``known`` and no other key.

    A key of ``defaults`` may be left out.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object, got {doc!r}")
    for key in [*doc, *known]:
        if (key in doc) != (key in known) and key not in defaults:
            raise ValueError(f"{'missing' if key in known else 'unknown'} {what} key {key!r}")
    return doc


def _cell_outputs(frequency) -> list:
    """The one output of the ablation cell at ``frequency``, 0 being the basic baseline."""
    return ["basic.csv" if frequency == 0 else f"improved-{int(frequency)}.csv"]


def parse_run(doc) -> dict:
    """The run that ``doc`` records, every key checked by its kind (see the module docstring).

    ``doc`` is a loaded manifest or the dict that a command builds from its
    argv.  The result drops ``tool`` and ``version`` and holds clean's counts
    as ints.  A fault raises ``ValueError`` naming it.
    """
    command = doc.get("command") if isinstance(doc, dict) else None
    if command not in tuple(RUN_KEYS):
        raise ValueError(f"cannot run command {command!r}")
    run = _keys("run", {k: v for k, v in doc.items() if k not in ("tool", "version")},
                ("command", "config", "outputs") + RUN_KEYS[command])
    # the problem is checked here, the model by SolveConfig, the one place that reads it
    if command != "clean" and run["problem"] not in ZOO_NAMES + ("all",) * (command == "check"):
        raise ValueError(f"unknown problem {run['problem']!r}; known: {', '.join(ZOO_NAMES)}")
    if not isinstance(run.get("no_timing", False), bool):
        raise ValueError(f"no_timing must be true or false, got {run['no_timing']!r}")
    if command == "check":
        check_count("seed", _keys("config", run["config"], ("seed",))["seed"], 0)
        if run["tol"] is not None:
            check_finite_positive("--tol", run["tol"])
    else:
        # a K whose averaging weights no memory can hold is refused here
        config = _solve_config(run)
        try:
            schedule(config.inner_spec())
        except (MemoryError, ValueError):
            raise ValueError(f"invalid config: K = {config.K} steps do not fit in memory")
    if command == "clean":
        args = _keys("args", run["args"], ("data", "rho", "ntr", "nval"))
        data = args["data"]
        if not isinstance(data, str) or data != "synthetic" and not data.startswith("idx:"):
            raise ValueError(f"unknown data source {data!r} (use synthetic or idx:<paths>)")
        if data != "synthetic" and data.count(",") != 1:
            raise ValueError("idx data spec must be idx:<images_path>,<labels_path>")
        check_number("rho", args["rho"])
        run["args"] = {**args, **{k: check_count(k, args[k], 1) for k in ("ntr", "nval")}}
    outputs = run["outputs"] if isinstance(run["outputs"], list) else [None]
    names = _cell_outputs(run["frequency"]) if command == "ablation" else outputs[:1]
    # clean names its summary too, once it has written one
    names += [f"{n}.summary.json" for n in names if command == "clean" and len(outputs) == 2]
    if run["outputs"] != names or not (names or command == "check") or not all(
            isinstance(n, str) and n not in ("", "..") and n == Path(n).name for n in names):
        raise ValueError(f"outputs {run['outputs']!r} are not plain names of this {command} run")
    return run


def _resolve_config(args, problem: str) -> dict:
    """Merge ``SolveConfig``'s defaults, the problem's, the optional config file, ``--seed``."""
    cfg = {**CONFIG_DEFAULTS, **ZOO_DEFAULTS.get(problem, {})}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}")
        # the file must hold each field that has no default
        cfg.update(_keys("config file", raw, CONFIG_KEYS, CONFIG_DEFAULTS))
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _solve_config(run: dict) -> SolveConfig:
    """The validated ``SolveConfig`` of a run: its model, or its ablation frequency."""
    try:
        # every field as given: SolveConfig checks each by its kind's one rule
        config = SolveConfig(**_keys("config", run["config"], CONFIG_KEYS),
                             mode=run.get("model", "improved"))
        if "frequency" not in run:
            return config
        # a cell's frequency replaces the config's, which would be recorded unread
        if config.bigsam_frequency != 1:
            raise ValueError(f"bigsam_frequency must be 1 in an ablation run, whose cells set "
                             f"it from their frequency, got {config.bigsam_frequency!r}")
        return ablation_config(config, run["frequency"])
    except ValueError as exc:
        raise ValueError(f"invalid config: {exc}")


def _write_manifest(out_dir: Path, run: dict) -> None:
    """Record a run beside its first output."""
    manifest = {**run, "tool": "bilevelopt", "version": __version__}
    (out_dir / f"{run['outputs'][0]}.manifest.json").write_text(_json(manifest))


def _write_csv(path: Path, header: str, rows, truncated: bool) -> None:
    """Write ``header``, one line per row, then ``# truncated`` if the run diverged.

    Each cell is a number at 17 significant digits, which prints an iteration
    index as its integer; a None cell is empty.
    """
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        f.writelines(",".join("" if x is None else _fmt(x) for x in row) + "\n" for row in rows)
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
    """Report each divergence message; 3 if there was one."""
    for error in errors:
        print(f"divergence: {error}", file=sys.stderr)
    return 3 if errors else 0


def _run_check(run: dict, out_dir: Path) -> int:
    tol, seed, rows = run["tol"], run["config"]["seed"], []
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ZOO_NAMES if run["problem"] == "all" else [run["problem"]]:
        inst = zoo_problem(name, seed=seed)
        # each report with the model of the config that produced it
        for cfg in default_check_configs(name):
            cfg = cfg if tol is None else replace(cfg, tol_grad=tol, tol_vjp=tol, tol_hg=tol)
            rows.extend((r, cfg.mode) for r in check_suite(inst.problem, [cfg]))
    all_pass = all(r.passed for r, _ in rows)
    if run["outputs"]:
        doc = {"tool": "bilevelopt", "version": __version__, "all_pass": all_pass,
               "reports": [r.to_dict() for r, _ in rows]}
        (out_dir / run["outputs"][0]).write_text(_json(doc))
        _write_manifest(out_dir, run)
    for r, mode in rows:
        status = "pass" if r.passed else "FAIL"
        # only the reverse-vs-FD check reads the model
        label = f"{r.name} ({mode})" if r.name == "reverse-vs-fd-hypergradient" else r.name
        print(f"[{status}] {r.problem}: {label}  max_rel_err={r.max_rel_err:.3e}  tol={r.tolerance:g}")
    return 0 if all_pass else 1


def _run_trace(run: dict, out_dir: Path) -> list:
    """Run a solve or one ablation cell; write its trace CSV and manifest.

    Returns the divergence message in a list, or an empty list.  Under
    ``ablation --jobs`` this runs in a worker process, so the message, not
    the exception, crosses the pool.
    """
    config = _solve_config(run)
    inst = zoo_problem(run["problem"], seed=config.seed)
    # a manifest states the data it ran on; a run from argv holds ... there
    if run["data"] is not ... and _json(run["data"]) != _json(inst.data_spec):
        raise ValueError(f"data {run['data']!r} is not the data of this run, {inst.data_spec!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / run["outputs"][0]
    records, error = _records(inst.problem, inst.lam0, config, inst.metric, run["no_timing"])
    # a record's fields are the CSV's columns, in order
    _write_csv(out, "iter,outer_value,grad_norm,metric,wall_ms", map(astuple, records),
               error is not None)
    _write_manifest(out_dir, {**run, "data": inst.data_spec})
    return [] if error is None else [f"{out.name}: {error}"]


def _run_clean(run: dict, out_dir: Path) -> list:
    """Run both models on one corrupted split; returns the divergence messages."""
    args, improved = run["args"], _solve_config(run)
    if args["data"] == "synthetic":
        data = {k: HYPERCLEAN_DATA[k] for k in ("d", "C", "margin")}
        # at least one sample per class, so that ``split`` judges the sizes
        ds = gen_synthetic(improved.seed, max(args["ntr"] + args["nval"], data["C"]), **data)
        data_spec = {"kind": "synthetic", **data, "n": len(ds)}
    else:
        images, labels = args["data"][4:].split(",")
        try:
            ds = load_idx(images, labels)
        except OSError as exc:
            raise ValueError(f"cannot read idx data: {exc}")
        data_spec = {"kind": "idx", "images": images, "labels": labels}
    # corrupt_labels refuses a rho outside [0, 1] here, before any output
    problem, lam0, metric, mask = hypercleaning_task(ds, args["ntr"], args["nval"], args["rho"],
                                                     improved.seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    records, errors = {}, []
    for config in (improved, replace(improved, mode="basic")):
        records[config.mode], error = _records(problem, lam0, config, metric, run["no_timing"])
        if error is not None:
            errors.append(f"{config.mode} model: {error}")
    out = out_dir / run["outputs"][0]
    _write_csv(out, "iter,f1_improved,f1_basic",
               [(ri.index, ri.metric, rb.metric)
                for ri, rb in zip(records["improved"], records["basic"])], bool(errors))
    outputs = [out.name]
    if not errors:
        no_positives = int(mask.sum()) == 0
        summary = {
            "flag_rule": "sample i is flagged corrupted when its weight lambda_i < 0",
            "rho": args["rho"], "corrupted_count": int(mask.sum()),
            "final_f1_improved": records["improved"][-1].metric,
            "final_f1_basic": records["basic"][-1].metric, "undefined_f1": no_positives,
            "note": "undefined-F1, reported 0" if no_positives else "",
            "config": run["config"],
            "data": {**data_spec, "n_tr": args["ntr"], "n_val": args["nval"],
                     "rho": args["rho"], "seed": improved.seed}}
        outputs.append(f"{out.name}.summary.json")
        (out_dir / outputs[1]).write_text(_json(summary))
    _write_manifest(out_dir, {**run, "outputs": outputs})
    return errors


def _execute(doc: dict, out_dir: Path) -> int:
    """Check a run with ``parse_run``, do its work and return the command's exit code.

    Each runner builds its data before it creates the output directory, so a
    refused run creates nothing.
    """
    run = parse_run(doc)
    if run["command"] == "check":
        return _run_check(run, out_dir)
    runner = _run_clean if run["command"] == "clean" else _run_trace
    return _divergence_exit(runner(run, out_dir))


def _execute_argv(ns, **run) -> int:
    """Execute the run that a command's argv ``ns`` names, its output beside ``--out``."""
    out = Path(ns.out) if ns.out else None
    return _execute({"command": ns.command, **run, "outputs": [out.name] if out else []},
                    out.parent if out else Path("."))


def cmd_check(args) -> int:
    return _execute_argv(args, problem=args.problem, tol=args.tol,
                         config={"seed": 0 if args.seed is None else args.seed})


def cmd_solve(args) -> int:
    return _execute_argv(args, problem=args.problem, model=args.model, data=...,
                         config=_resolve_config(args, args.problem), no_timing=args.no_timing)


def cmd_ablation(args) -> int:
    cfg = _resolve_config(args, args.problem)
    try:
        freqs = [int(x) for x in args.freqs.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse frequency list {args.freqs!r}")
    if not freqs:
        raise ValueError("frequency list is empty")
    freqs = sorted(freqs + [0])                     # sentinel 0 = basic baseline
    if len(set(freqs)) != len(freqs):
        raise ValueError(f"frequency list {args.freqs!r} repeats a frequency or the baseline 0")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # every cell is checked before the directory is made
    cells = [parse_run({"command": "ablation", "problem": args.problem, "frequency": f,
                        "config": cfg, "data": ..., "no_timing": args.no_timing,
                        "outputs": _cell_outputs(f)}) for f in freqs]
    out_dir = Path(args.out_dir)            # each cell makes it before its model runs
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_trace, cells, [out_dir] * len(cells)))
    else:
        results = [_run_trace(cell, out_dir) for cell in cells]
    index = [{"frequency": c["frequency"], "file": c["outputs"][0]} for c in cells]
    (out_dir / "index.json").write_text(_json(index))
    return _divergence_exit(sum(results, []))


def cmd_clean(args) -> int:
    return _execute_argv(args, args={k: getattr(args, k) for k in ("data", "rho", "ntr", "nval")},
                         config=_resolve_config(args, "hyperclean_synthetic"),
                         no_timing=args.no_timing)


def _exit_code(work) -> int:
    try:
        return work()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleDivergence as exc:
        return _divergence_exit([exc])


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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _exit_code(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
