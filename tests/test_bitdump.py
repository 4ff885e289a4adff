"""The committed digests of ``tools/bitdump.txt`` hold on a fast subset.

Bit identity is a property of every refactor: the quadratics (their
composed path, their ``replace`` copies on the generic loop, their
FD-fallback copies, their ``check_suite`` rows, and the degenerate
quadratic's composed solve at the benchmark's ``quad_gap`` settings, which
runs several scan blocks), the two small learning instances (their hooks,
their ``replace`` copies on the slots, their serial copies and their
``check_suite`` rows) must print the committed digest lines.  ``python3
tools/bitdump.py --check`` compares all of them, the zoo's learning
problems too.  The command line's outputs are held byte for byte by
``tests/test_golden.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT / "tools")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bitdump  # noqa: E402


def test_fast_subset_prints_the_committed_digests():
    differences = bitdump.diff(bitdump.FAST)
    assert not differences, "\n".join(differences)


def test_a_reused_quad_gap_solve_prints_the_first_solves_digests():
    digests = dict(line.rsplit(" ", 1) for line in bitdump.DIGESTS.read_text().splitlines())
    reused = [label for label in digests if " reused " in label]
    assert len(reused) == 4
    for label in reused:
        assert digests[label] == digests[label.replace(" reused", "")], label
