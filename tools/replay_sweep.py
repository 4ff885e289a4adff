"""Replay mutated copies of the golden manifests and tally how each replay ends.

    python3 tools/replay_sweep.py

The sweep takes four manifests from ``tests/golden/``: ``check.json``,
``solve-closedform_quadratic.csv``, ``clean.csv`` and the ``ablation`` cell
``improved-3.csv``.  Every key and nested key but ``tool`` and ``version``
takes each of eleven mutations in turn: ``true``, ``false``, ``"x"``,
``null``, -1, 0, 2.5, 10^400, ``[]``, ``{}``, and deleting the key.  Each
mutated copy is written alone into a fresh temporary directory and replayed
in process with ``bilevelopt.cli.replay_manifest``.

A replay keeps the contract when it either returns 2, prints one ``error:``
line and writes no file, or runs (exit 0, or a valid run's own 1 or 3) and
writes only the files that its checked run names: its outputs, its manifest
and, for ``clean``, its summary.  A raised exception breaks the contract.
``T`` = 10^400 is a valid run that never ends, so the sweep leaves those
cases out and counts them as skipped.  The script prints one count per
outcome, then each case that broke the contract, and exits 1 if there was
one.  ``tests/test_cli.py`` draws its fuzz property from the same cases.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MANIFESTS = ("check.json", "solve-closedform_quadratic.csv", "clean.csv",
             "ablation/improved-3.csv")
DELETE = "<delete the key>"
MUTATIONS = (True, False, "x", None, -1, 0, 2.5, 10 ** 400, [], {}, DELETE)


def load(name: str) -> dict:
    """The golden manifest of output ``name``."""
    return json.loads((GOLDEN / f"{name}.manifest.json").read_text())


def key_paths(doc: dict, prefix: tuple = ()) -> list:
    """Every key path of ``doc`` down through nested objects, but ``tool`` and ``version``."""
    paths = []
    for key, value in doc.items():
        if prefix or key not in ("tool", "version"):
            paths.append(prefix + (key,))
            if isinstance(value, dict):
                paths.extend(key_paths(value, prefix + (key,)))
    return paths


def endless(path: tuple, mutation) -> bool:
    """Whether the mutation makes a valid run that never ends: a huge ``T``."""
    return path[-1] == "T" and mutation == 10 ** 400


def cases() -> list:
    """Every (manifest, key path, mutation) of the sweep, the endless ones included."""
    return [(name, path, mutation) for name in MANIFESTS for path in key_paths(load(name))
            for mutation in MUTATIONS]


def mutated(name: str, path: tuple, mutation) -> dict:
    """The golden manifest of ``name`` with the key at ``path`` set to ``mutation``, or deleted."""
    doc = load(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if mutation == DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(mutation)
    return doc


def replay(doc: dict, name: str):
    """Replay ``doc`` alone in a fresh directory as the manifest of output ``name``.

    Returns the exit code, or the exception that the replay raised; the
    lines it printed to stderr; and the names of the files it wrote or
    changed.
    """
    from bilevelopt.cli import replay_manifest

    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / f"{Path(name).name}.manifest.json"
        manifest.write_text(json.dumps(doc))
        before = manifest.read_bytes()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = replay_manifest(manifest)
        except Exception as exc:          # the outcome the contract forbids
            code = exc
        written = {p.name for p in Path(tmp).iterdir()
                   if p != manifest or p.read_bytes() != before}
    return code, err.getvalue().splitlines(), written


def broken(doc: dict, code, err: list, written: set):
    """How a replay's outcome breaks the contract, or None if it keeps it."""
    from bilevelopt.cli import parse_run

    if isinstance(code, Exception):
        return f"raised {type(code).__name__}: {code}"
    if code == 2:
        if len(err) != 1 or not err[0].startswith("error: "):
            return f"exit 2 printed {err!r}"
        return f"exit 2 wrote {sorted(written)}" if written else None
    if code not in (0, 1, 3):
        return f"exit {code}"
    run = parse_run(doc)
    named = {*run["outputs"], *(f"{o}.manifest.json" for o in run["outputs"][:1])}
    if run["command"] == "clean":
        named.add(f"{run['outputs'][0]}.summary.json")
    return f"exit {code} wrote {sorted(written - named)}" if written - named else None


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tally, faults = collections.Counter(), []
    for name, path, mutation in cases():
        if endless(path, mutation):
            tally["skipped (T = 10^400)"] += 1
            continue
        doc = mutated(name, path, mutation)
        code, err, written = replay(doc, name)
        raised = isinstance(code, Exception)
        tally[f"raised {type(code).__name__}" if raised else f"exit {code}"] += 1
        fault = broken(doc, code, err, written)
        if fault:
            faults.append(f"{name} {'.'.join(path)} = {mutation!r}: {fault}")
    counts = ", ".join(f"{outcome} {n}" for outcome, n in sorted(tally.items()))
    print(f"{sum(tally.values())} cases: {counts}")
    print("\n".join(faults) or "every replay kept the contract")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
