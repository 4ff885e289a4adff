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
learning problems also get a "serial" copy that evaluates every stack row
by row: it has no stacked gradients (``grad1_h_many``, ``grad1_g_many``),
so its finite-difference referee reaches the row gradients row by row
through ``bilevelopt.problem.batched``, and its ``h_value``/``g_value`` are
``bilevelopt.rowwise`` over one-row calls of the problem's own; it digests
its central-difference hypergradient.  The degenerate quadratic also gets,
at the settings of the benchmark's ``quad_gap`` workload (K = 5000,
t = s = 0.1, lam = 0.25, each mode, frequency 1), the digests of the
iterates and the hypergradient of its composed path, the one path there
that runs several scan blocks, and of a second solve on the same spec
object, which reads the final state the first one kept.  A composed tape
forms its iterates on their first read, by the full streamed scan in the
blocks its final state was composed in (the scan derives their length from
n + 1 + m and K); its hypergradient reads omega_K off the final state.  Each
zoo problem's ``check_suite`` report (seed 0, ``default_check_configs``),
and that of each serial copy, gets one line per verifier row: the SHA-256
of the row's JSON, whose floats round-trip, so every referee value (first-order, VJP and hypergradient
differences, grid minimum) is compared bit for bit.  Two small learning
instances, ``hyperclean_small`` (24 training and 24 validation samples,
d = 5, C = 3) and ``hyperrep_small`` (3 tasks, way 5, 1 shot, 5
validation samples per class, d = 10, r = 2), get the same lines as the
zoo problems, at the run settings and check bundles of the zoo problem
they shrink.  The command line's outputs are not digested here:
``tests/golden/`` holds them byte for byte, and ``tests/test_golden.py``
replays them.

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
max |x - y| / max |y|, with y from OTHER, and 0 where the bits agree.  A
``check_suite`` row compares the numbers in its JSON text.  The sources in
OTHER run in a child process:

    python3 tools/bitdump.py --rel ../parent/src

``--check`` runs the script and diffs its lines against the committed
digests in ``tools/bitdump.txt``; it prints the differing lines and exits 1
if there are any.  ``tests/test_bitdump.py`` runs the same comparison on a
fast subset: the two quadratics and the two small learning instances
(every copy, and their ``check_suite`` rows).  A change that moves bits
on purpose regenerates the file, with OpenBLAS on one thread, and the
golden set of ``tests/test_golden.py`` with it:

    OPENBLAS_NUM_THREADS=1 python3 tools/bitdump.py > tools/bitdump.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import hashlib
import json
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tools" / "bitdump.txt"


def hyperclean_small():
    """Hyper-cleaning on 24 + 24 samples, d = 5, C = 3, half the training labels flipped."""
    import bilevelopt as bl
    train, val = bl.split(bl.gen_synthetic(0, 80, 5, 3, 3.0), 24, 24, 0)
    return bl.make_hypercleaning(bl.corrupt_labels(train, 0.5, 0), val)


def hyperrep_small():
    """Hyper-representation on 3 tasks, way 5, 1 shot, 5 validation samples per class, r = 2."""
    import bilevelopt as bl
    return bl.make_hyperrep(bl.make_episodes(bl.gen_synthetic(0, 200, 10, 10, 3.0),
                                             5, 1, 5, 3, 0), 2)


# each small instance, and the zoo problem whose run settings and check
# bundles it takes
SMALL = {"hyperclean_small": (hyperclean_small, "hyperclean_synthetic"),
         "hyperrep_small": (hyperrep_small, "hyperrep_synthetic")}
# the problems of the fast subset
FAST = ("closedform_quadratic", "degenerate_quadratic", *SMALL)


def digest(array) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def serial(problem):
    """A copy that evaluates every stack row by row, each row on a stack of one row."""
    from bilevelopt import rowwise

    def one_row(value):
        return rowwise(lambda w, lam: value(w[None], lam)[0])

    return dataclasses.replace(problem, grad1_h_many=None, grad1_g_many=None,
                               h_value=one_row(problem.h_value), g_value=one_row(problem.g_value))


def instance(name):
    """(problem, lam0, run settings, check configs) of a zoo problem or a small instance."""
    import numpy as np
    import bilevelopt as bl
    from bilevelopt.problems import ZOO_DEFAULTS

    if name in SMALL:
        build, zoo = SMALL[name]
        problem = build()
        return (problem, np.zeros(problem.outer_dim), ZOO_DEFAULTS[zoo],
                bl.default_check_configs(zoo))
    inst = bl.zoo_problem(name, seed=0)
    return inst.problem, inst.lam0, inst.defaults, bl.default_check_configs(name)


def lines(names):
    """(label, array) for every number the solver produces on the problems ``names``."""
    import numpy as np
    import bilevelopt as bl
    from bilevelopt.bigsam import model_exponent

    for name in names:
        problem, lam0, d, _ = instance(name)
        # hyper-cleaning starts at lam = 0, where every sample weighs the
        # same: move off it so that each lam coordinate matters
        lam = lam0 + np.random.default_rng(0).normal(0.0, 0.3, lam0.shape)
        copies = {"problem": problem, "replace": dataclasses.replace(problem)}
        if problem.affine is not None:
            copies["fd-fallback"] = dataclasses.replace(
                problem, vjp11_h=None, vjp12_h=None, vjp11_g=None, vjp12_g=None)
        else:
            copies["serial"] = serial(problem)
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
        if name == "degenerate_quadratic":
            yield from quad_gap_lines()


def quad_gap_lines():
    """(label, array) for the degenerate quadratic's composed solve, each mode.

    These are the settings of the benchmark's ``quad_gap`` workload, whose
    K = 5000 steps take several scan blocks.  A second solve on the same
    spec object forms omega_K from the final state the first one kept, and
    its iterates, on their read, by the streamed scan; its "reused" lines
    must print the first solve's digests.
    """
    import numpy as np
    import bilevelopt as bl
    from bilevelopt.bigsam import model_exponent

    problem = bl.zoo_problem("degenerate_quadratic").problem
    for mode in ("improved", "basic"):
        spec = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1, alpha_exponent=model_exponent(mode))
        for solve in ("", " reused"):
            tape = bl.solve_inner(problem, np.array([0.25]), spec)
            label = f"degenerate_quadratic quad_gap {mode}{solve}"
            yield f"{label} iterates", tape.iterates
            yield f"{label} hypergradient", bl.reverse_hypergradient(problem, tape)


def check_lines(names):
    """(label, bytes) per row of the ``check_suite`` report of each problem in ``names``."""
    import bilevelopt as bl

    for name in names:
        problem, _, _, configs = instance(name)
        copies = {name: problem}
        if problem.affine is None:
            copies[f"{name} serial"] = serial(problem)
        for label, p in copies.items():
            for i, report in enumerate(bl.check_suite(p, configs)):
                yield (f"check {label} {i} {report.name}",
                       json.dumps(report.to_dict(), sort_keys=True).encode())


def results(names=None):
    """Every result on the problems ``names`` (default: all)."""
    if names is None:
        from bilevelopt import ZOO_NAMES
        names = (*ZOO_NAMES, *SMALL)
    yield from lines(names)
    yield from check_lines(names)


def digest_line(label: str, value) -> str:
    if isinstance(value, bytes):
        return f"{label} {hashlib.sha256(value).hexdigest()}"
    return f"{label} {digest(value)}"


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def relative_deviation(value, other) -> float:
    """max |value - other| / max |other|; 0 where the bits agree, inf where the shapes differ."""
    import numpy as np
    if isinstance(value, bytes):
        value, other = ([float(tok) for tok in NUMBER.findall(text)] for text in (value, other))
    x, y = (np.asarray(v, dtype=np.float64) for v in (value, other))
    if x.shape != y.shape:
        return float("inf")
    if np.array_equal(x.view(np.uint64), y.view(np.uint64)):
        return 0.0
    scale = float(np.max(np.abs(y)))
    return float(np.max(np.abs(x - y)) / scale) if scale > 0 else float("inf")


def selected(line: str, names) -> bool:
    """Whether the digest line ``line`` is one that ``results(names)`` prints."""
    words = line.split()
    return words[0] in names or (words[0] == "check" and words[1] in names)


def diff(names=None) -> list:
    """The unified diff of the committed digests of ``names`` (default: all) against a run."""
    want = [line for line in DIGESTS.read_text().splitlines()
            if names is None or selected(line, names)]
    got = [digest_line(label, value) for label, value in results(names)]
    return list(difflib.unified_diff(want, got, str(DIGESTS), "this run", lineterm=""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the bilevelopt package to import")
    parser.add_argument("--rel", default=None, metavar="OTHER",
                        help="print each result's relative deviation from OTHER's sources")
    parser.add_argument("--check", action="store_true",
                        help="diff a run against tools/bitdump.txt; exit 1 on a difference")
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
    if args.check:
        differences = diff()
        print("\n".join(differences) or f"every line matches {DIGESTS}")
        return 1 if differences else 0
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
