"""Print a digest of every number the solver produces on the zoo, for bit-for-bit comparison.

    python3 tools/bitdump.py [--src DIR] > digests.txt

For each zoo problem (seed 0), each mode and averaging frequencies 1 and 3,
on the problem itself and on a ``dataclasses.replace`` copy of it (which
drops every declaration set after construction, so it runs the generic loop
over the oracle slots), the script prints one line per result: the SHA-256
of the bytes of the recorded iterates, of the reverse-mode hypergradient and
of the central-difference hypergradient.  The zoo quadratics also get a
copy with all four VJP slots set to None, whose reverse pass runs on the
finite-difference fallback (every zoo problem supplies analytic VJPs).  The
learning problems also get a "serial" copy without stacked oracles
(``grad1_h_many``, ``grad1_g_many``, ``h_batch``, ``g_batch``), whose
finite-difference referee reaches the row oracles row by row through
``bilevelopt.problem.batched``; it digests its central-difference
hypergradient.  Each zoo problem's ``check_suite``
report (seed 0, ``default_check_configs``), and that of each serial copy,
gets one line per verifier row: the SHA-256 of the row's JSON, whose floats
round-trip, so every referee value (first-order, VJP and hypergradient
differences, grid minimum) is compared bit for bit.

It then runs the command line in a temporary directory, with small budgets,
``--seed 1`` and ``--no-timing``: ``solve`` on every zoo problem,
``ablation --freqs 1,3``, ``clean`` and ``check --problem
closedform_quadratic``, and prints each command's exit code and the SHA-256
of every CSV, summary, index and report it wrote.  Manifests are left out:
their fields may change while the numbers stay.

``--src`` selects the library sources to import (default: ``src/`` next to
this directory), so two checkouts compare with one command:

    diff <(python3 tools/bitdump.py --src ../parent/src) <(python3 tools/bitdump.py)

The script calls the solver API without a ``mode`` argument, the model
given as an exponent through ``bilevelopt.bigsam.model_exponent``, so
``--src`` and ``--rel`` work only against sources of that API.  To compare
with older sources, run that checkout's own copy of the script on them and
``diff`` the two outputs: the labels are the same byte for byte.

``--rel OTHER`` prints, instead of digests, the same lines with the largest
relative deviation of each result from the one the sources in OTHER give:
max |x - y| / max |y|, with y from OTHER, and 0 where the bits agree.  A CLI
output compares the numbers in its text, an exit code compares exactly
(``inf`` where they differ).  The sources in OTHER run in a child process:

    python3 tools/bitdump.py --rel ../parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(array) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def serial(problem):
    """A copy without stacked oracles: the referee applies the row oracles row by row."""
    return dataclasses.replace(problem, grad1_h_many=None, grad1_g_many=None,
                               h_batch=None, g_batch=None)


def lines():
    """(label, array) for every number the solver produces on the zoo."""
    import numpy as np
    import bilevelopt as bl
    from bilevelopt.bigsam import model_exponent

    for name in bl.ZOO_NAMES:
        inst = bl.zoo_problem(name, seed=0)
        d = inst.defaults
        # hyper-cleaning starts at lam = 0, where every sample weighs the
        # same: move off it so that each lam coordinate matters
        lam = inst.lam0 + np.random.default_rng(0).normal(0.0, 0.3, inst.lam0.shape)
        copies = {"problem": inst.problem, "replace": dataclasses.replace(inst.problem)}
        if inst.problem.affine is not None:
            copies["fd-fallback"] = dataclasses.replace(
                inst.problem, vjp11_h=None, vjp12_h=None, vjp11_g=None, vjp12_g=None)
        else:
            copies["serial"] = serial(inst.problem)
        for copy, problem in copies.items():
            for mode in ("improved", "basic"):
                for freq in (1, 3):
                    spec = bl.InnerSolveSpec(K=d["K"], t=d["t"], s=d["s"],
                                             alpha_exponent=model_exponent(mode),
                                             bigsam_frequency=freq)
                    label = f"{name} {copy} {mode} freq={freq}"
                    if copy != "serial":
                        tape = bl.solve_inner(problem, lam, spec)
                        yield f"{label} iterates", tape.iterates
                        yield f"{label} hypergradient", bl.reverse_hypergradient(problem, tape)
                    yield (f"{label} fd_hypergradient",
                           bl.hypergradient_fd_oracle(problem, lam, spec))


def check_lines():
    """(label, bytes) per row of each zoo problem's ``check_suite`` report."""
    import bilevelopt as bl

    for name in bl.ZOO_NAMES:
        problem = bl.zoo_problem(name, seed=0).problem
        copies = {name: problem}
        if problem.affine is None:
            copies[f"{name} serial"] = serial(problem)
        for label, p in copies.items():
            for i, report in enumerate(bl.check_suite(p, bl.default_check_configs(name))):
                yield (f"check {label} {i} {report.name}",
                       json.dumps(report.to_dict(), sort_keys=True).encode())


def cli_lines():
    """(label, exit code) per command and (label, bytes) per output it wrote."""
    import bilevelopt as bl
    from bilevelopt.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = {}
        for name in bl.ZOO_NAMES:
            configs[name] = str(tmp / f"{name}.json")
            Path(configs[name]).write_text(json.dumps(dict(bl.zoo_problem(name).defaults,
                                                           K=20, T=3)))
        runs = {f"solve-{name}": ["solve", "--problem", name, "--config", configs[name],
                                  "--out", str(tmp / f"solve-{name}" / "run.csv")]
                for name in bl.ZOO_NAMES}
        runs["ablation"] = ["ablation", "--problem", "hyperclean_synthetic", "--freqs", "1,3",
                            "--config", configs["hyperclean_synthetic"],
                            "--out-dir", str(tmp / "ablation")]
        runs["clean"] = ["clean", "--ntr", "60", "--nval", "60",
                         "--config", configs["hyperclean_synthetic"],
                         "--out", str(tmp / "clean" / "clean.csv")]
        for argv in runs.values():
            argv += ["--seed", "1", "--no-timing"]
        runs["check"] = ["check", "--problem", "closedform_quadratic",
                         "--out", str(tmp / "check" / "report.json")]
        for label, argv in runs.items():
            (tmp / label).mkdir()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            yield f"cli {label} exit", code
            for path in sorted((tmp / label).iterdir()):
                if not path.name.endswith(".manifest.json"):
                    yield f"cli {label}/{path.name}", path.read_bytes()


def results():
    yield from lines()
    yield from check_lines()
    yield from cli_lines()


def digest_line(label: str, value) -> str:
    if isinstance(value, int):
        return f"{label}={value}"
    if isinstance(value, bytes):
        return f"{label} {hashlib.sha256(value).hexdigest()}"
    return f"{label} {digest(value)}"


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def relative_deviation(value, other) -> float:
    """max |value - other| / max |other|; 0 where the bits agree, inf where the shapes differ."""
    import numpy as np
    if isinstance(value, int):
        return 0.0 if value == other else float("inf")
    if isinstance(value, bytes):
        value, other = ([float(tok) for tok in NUMBER.findall(text)] for text in (value, other))
    x, y = (np.asarray(v, dtype=np.float64) for v in (value, other))
    if x.shape != y.shape:
        return float("inf")
    if np.array_equal(x.view(np.uint64), y.view(np.uint64)):
        return 0.0
    scale = float(np.max(np.abs(y)))
    return float(np.max(np.abs(x - y)) / scale) if scale > 0 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the bilevelopt package to import")
    parser.add_argument("--rel", default=None, metavar="OTHER",
                        help="print each result's relative deviation from OTHER's sources")
    parser.add_argument("--save", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rel is not None:
        with tempfile.TemporaryDirectory() as tmp:
            saved = Path(tmp) / "other.pickle"
            subprocess.run([sys.executable, __file__, "--src", args.rel, "--save", str(saved)],
                           check=True)
            others = dict(pickle.loads(saved.read_bytes()))
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.save is not None:
        Path(args.save).write_bytes(pickle.dumps(list(results())))
        return 0
    for label, value in results():
        if args.rel is None:
            print(digest_line(label, value), flush=True)
        elif label in others:
            print(f"{label} rel={relative_deviation(value, others[label]):.3g}", flush=True)
        else:
            print(f"{label} missing from {args.rel}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
