"""In-memory span tracer that wraps functions from outside the program.

A span is (id, parent id, name, start, end). Each thread keeps its own
stack of open spans, so a span opened in a pool thread nests under the
span that was current when the task was submitted (pass it as
``parent``). Spans stay in memory until the caller writes them out.

Wrapping replaces module attributes: ``patch_function`` rebinds every
name in the given package's loaded modules that refers to the original
function, which also covers names taken in by ``from ... import``.
``restore`` puts every original back.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "id parent name start end")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Id of the innermost open span on this thread, 0 if none."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name, fn, args=(), kwargs=None, parent=None):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        pid = parent if parent is not None else (stack[-1] if stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, pid, name, start, end))

    def add(self, key: str, value: float = 1.0):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value

    def maximum(self, key: str, value: float):
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name, fn, observe=None):
        """Traced stand-in for ``fn``; ``observe(args, kwargs, result)`` runs after each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` to ``value`` until ``restore``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, package: str, module: str, attr: str, name: str, observe=None):
        """Wrap ``package.module.attr`` and every other binding of it in ``package``."""
        original = getattr(sys.modules[f"{package}.{module}"], attr)
        traced = self.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str):
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children may overlap (pool threads), so the covered part is the
    length of the union of the children's intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Span name -> {"calls", "total_s", "self_s"}.

    ``total_s`` counts only outermost spans of a name, so recursion is
    not counted twice.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            row["total_s"] += s.end - s.start
    return out


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("id,parent,name,start,end\n")
        for s in spans:
            fh.write(f"{s.id},{s.parent},{s.name},{s.start!r},{s.end!r}\n")
