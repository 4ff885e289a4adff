"""The names the benchmark and the package's users reach the library by must resolve.

``perfbench/bench.py`` patches library functions through module globals, and
``perfbench/spans.py`` copies problems through ``dataclasses.replace`` with
its ``SLOTS`` as keyword arguments.  A renamed function or field would only
crash a traced run; these tests catch it in the suite.  The benchmark's
modules are imported, never changed.  Every name that ``bilevelopt`` and
each of its modules export in ``__all__`` must be defined there too, or a
``from ... import *`` fails.  And one rule raises the library's
divergences: ``OracleDivergence`` is constructed only in ``problem.finite``
and in ``models.run_model``, which reports its record and wraps the error.
One rule refuses a setting that is no number: only ``problem.check_number``
raises a ``ValueError`` saying "must be a number".  And one rule refuses a
malformed tape: a ``ValueError`` whose message names a tape is raised only
in ``bigsam.Tape.__post_init__`` and, where a tape's dimensions are not its
problem's, in ``hypergrad.reverse_hypergradient``.
"""

import ast
import dataclasses
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT / "perfbench")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import spans  # noqa: E402
import bilevelopt  # noqa: E402
from bilevelopt import BilevelProblem  # noqa: E402

ENTRIES = bench.SOLVE_ENTRIES + bench.CHECK_ENTRIES + bench.SETUP_ENTRIES


@pytest.mark.parametrize("module, attr", [(e[0], e[1]) for e in ENTRIES],
                         ids=[f"{e[0].__name__}.{e[1]}" for e in ENTRIES])
def test_every_patched_entry_resolves(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_every_traced_slot_is_an_init_field():
    init_fields = {f.name for f in dataclasses.fields(BilevelProblem) if f.init}
    assert set(spans.SLOTS) <= init_fields, set(spans.SLOTS) - init_fields


MODULES = ["bilevelopt"] + [f"bilevelopt.{m.name}" for m in pkgutil.iter_modules(bilevelopt.__path__)
                            if m.name != "__main__"]   # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def callers(node, wanted, function=None, owner=""):
    """The names of the functions, innermost, around each call under node that ``wanted`` picks.

    A method is named with its class, as ``Class.method``; None stands for
    module level.
    """
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found |= callers(child, wanted, function, f"{owner}{child.name}.")
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= callers(child, wanted, owner + child.name)
            continue
        if isinstance(child, ast.Call) and wanted(child):
            found.add(function)
        found |= callers(child, wanted, function)
    return found


def called(call) -> str:
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def divergence_constructors(node):
    """The names of the functions, innermost, around each ``OracleDivergence(...)`` under node."""
    return callers(node, lambda call: called(call) == "OracleDivergence")


def number_refusals(node):
    """The names of the functions around each ``ValueError`` that says "must be a number"."""
    def refusal(call):
        return called(call) == "ValueError" and any(
            isinstance(c, ast.Constant) and "must be a number" in str(c.value)
            for c in ast.walk(call))

    return callers(node, refusal)


def tape_refusals(node):
    """The names of the functions around each ``ValueError`` whose message names a tape."""
    def refusal(call):
        return called(call) == "ValueError" and any(
            isinstance(c, ast.Constant) and "tape" in str(c.value).lower()
            for c in ast.walk(call))

    return callers(node, refusal)


def found_in_src(rule):
    """The (module, function) pairs of the package around every call that ``rule`` finds."""
    return {(path.stem, function) for path in (ROOT / "src" / "bilevelopt").glob("*.py")
            for function in rule(ast.parse(path.read_text()))}


def test_divergences_are_raised_through_finite_and_run_model():
    found = found_in_src(divergence_constructors)
    assert found == {("problem", "finite"), ("models", "run_model")}


def test_one_rule_refuses_a_non_number():
    assert found_in_src(number_refusals) == {("problem", "check_number")}


def test_one_rule_refuses_a_malformed_tape():
    # a hand-built tape is checked where it is built; the reverse pass
    # refuses only a tape whose dimensions are not its problem's
    assert found_in_src(tape_refusals) == {("bigsam", "Tape.__post_init__"),
                                           ("hypergrad", "reverse_hypergradient")}
