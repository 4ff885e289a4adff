"""``tools/codelines.py`` counts the lines that hold code, and only those."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

import codelines  # noqa: E402

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts its line

# a comment alone does not


def area(r):
    """A function docstring."""
    text = """a string that is not a docstring
    counts every line it spans"""
    return (math.pi
            * r ** 2)
'''


def test_counts_code_lines_only():
    # import, def, the two lines of the string, and the two of the return
    assert codelines.code_lines(SNIPPET) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert codelines.main(["--src", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["6", "pkg/a.py"], ["1", "pkg/b.py"],
                                               ["7", "total"]]
