"""In-memory spans around calls into the library.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span and ``op`` the id of the benchmark op that caused it.  The
spans stay in memory while the benchmark runs and are written out as JSON
lines once it ends, so writing costs nothing inside the timed region.
They are kept in flat arrays rather than one object per span, so a long
run does not hand the garbage collector a growing heap to walk.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter

NONE = -1            # parent / op of a span that has none


class NoTrace:
    """Stand-in used by the untraced run: calls straight through."""

    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: list[int] = []
        self.op = None
        self.origin = perf_counter()

    def __len__(self):
        return len(self.names)

    def _open(self, name) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NONE)
        self.ops.append(NONE if self.op is None else self.op)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid):
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def duration(self, sid) -> float:
        return self.ends[sid] - self.starts[sid]

    def spans(self, start: int = 0):
        """(name, seconds, parent, op) of the spans from index ``start`` on."""
        for sid in range(start, len(self.names)):
            yield self.names[sid], self.ends[sid] - self.starts[sid], self.parents[sid], self.ops[sid]

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                parent, op = self.parents[sid], self.ops[sid]
                fh.write(json.dumps({
                    "name": name,
                    "start": self.starts[sid] - self.origin,
                    "end": self.ends[sid] - self.origin,
                    "parent": None if parent == NONE else parent,
                    "op": None if op == NONE else op,
                }) + "\n")
