"""In-memory spans recorded around calls into the library, from outside it.

A span has a name, a start and an end (``time.perf_counter_ns``), the index of
its parent span and a run id (one id per benchmark cell).  Oracle slot calls
(``grad1_h``, ``vjp11_h``, ...) are too many to keep one span each: a
``quad_gap`` cell makes about 10^6 of them.  Each slot call therefore adds its
duration to the span that is open when it happens, and its count and duration
to per-run tallies.  A span's self time is its duration minus the time of its
child spans and of the slot calls made directly under it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Optional

SLOTS = ("grad1_h", "grad1_g", "grad2_g", "vjp11_h", "vjp12_h", "vjp11_g", "vjp12_g",
         "g_value", "h_value", "grad1_h_many", "grad1_g_many")


class Span:
    __slots__ = ("name", "index", "parent", "run", "start", "end", "child_ns", "slot_ns", "info")

    def __init__(self, name: str, index: int, parent: int, run: int):
        self.name = name
        self.index = index
        self.parent = parent
        self.run = run
        self.start = self.end = 0
        self.child_ns = 0
        self.slot_ns = 0
        self.info: dict = {}

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "child_ns": self.child_ns,
                "slot_ns": self.slot_ns, **self.info}


class Tracer:
    """Records spans and slot tallies; ``run`` tags everything recorded next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._slots: dict[str, list] = {}       # slot -> [calls, ns] since the last take
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].index if self._stack else -1
        sp = Span(name, len(self.spans), parent, self.run)
        self._stack.append(sp)
        self.spans.append(sp)
        sp.start = time.perf_counter_ns()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_ns += sp.ns

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``note(args, result)`` may attach a dict to it."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if note is not None:
                    sp.info = note(args, out)
            return out

        return traced

    def wrap_slot(self, name: str, fn: Optional[Callable]) -> Optional[Callable]:
        if fn is None:
            return None
        tally, stack = self._slots.setdefault(name, [0, 0]), self._stack
        clock = time.perf_counter_ns

        def timed(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            tally[0] += 1
            tally[1] += dt
            if stack:
                top = stack[-1]
                top.child_ns += dt
                top.slot_ns += dt
            return out

        return timed

    def slot_calls(self) -> dict:
        return {name: tally[0] for name, tally in self._slots.items()}

    def wrap_problem(self, problem):
        """Copy of a ``BilevelProblem`` whose oracle slots are counted and timed."""
        return dataclasses.replace(
            problem, vjp_flavor=dict(problem.vjp_flavor),
            **{slot: self.wrap_slot(slot, getattr(problem, slot)) for slot in SLOTS})

    @contextmanager
    def patched(self, entries: Iterable[tuple]):
        """Replace module globals by traced wrappers; restore them on exit.

        Each entry is (module, attribute, span name, note or None).
        """
        saved = []
        try:
            for module, attr, name, note in entries:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def take_tallies(self) -> tuple[dict, dict]:
        """Slot calls and slot ns since the last take, then reset both."""
        calls = {name: tally[0] for name, tally in self._slots.items()}
        ns = {name: tally[1] for name, tally in self._slots.items()}
        for tally in self._slots.values():
            tally[:] = [0, 0]
        return calls, ns

    def write(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, spans=[sp.to_dict() for sp in self.spans])
        path.write_text(json.dumps(doc) + "\n")
