"""Span tracing from outside the program: wrap module-level names, keep spans
in memory, derive per-layer self times and counters.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the benchmark operation the span
belongs to.  Self time is a span's duration minus the durations of its
direct children.  The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
from time import perf_counter

OP = "op"  # name of the root span the benchmark opens around each operation


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.counters: dict = {}
        self.op_id = -1
        self._stack = [-1]
        self.patches = Patches()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside a root span for benchmark operation op_id."""
        self.op_id = op_id
        return self.wrap(fn, OP)(*args)

    def wrap(self, fn, name: str, on_result=None):
        """A wrapper around fn that records a span named ``name`` per call and
        passes (tracer, args, kwargs, result) to ``on_result`` on return."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf_counter())
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (container, key, span_name, on_result) that exists."""
        for container, key, name, on_result in targets:
            self.patches.replace(
                container, key, lambda fn, n=name, h=on_result: self.wrap(fn, n, h)
            )

    def summary(self) -> dict:
        return summarize(self.names, self.starts, self.ends, self.parents)


class Patches:
    """Replaces names the program looks up and puts the originals back.

    A container is a module (attribute lookup) or a dict (item lookup);
    names a container lacks are skipped, so the benchmark survives a
    refactor that removes one.
    """

    def __init__(self):
        self._saved: list = []  # (container, key, original), in install order

    def replace(self, container, key, make) -> None:
        if isinstance(container, dict):
            if key not in container:
                return
            original = container[key]
        elif hasattr(container, key):
            original = getattr(container, key)
        else:
            return
        self._saved.append((container, key, original))
        _set(container, key, make(original))

    def restore(self) -> None:
        """Put every replaced name back, newest first."""
        while self._saved:
            container, key, original = self._saved.pop()
            _set(container, key, original)


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def self_times(starts, ends, parents) -> list:
    """Per-span duration minus the summed durations of its direct children."""
    durations = [e - s for s, e in zip(starts, ends)]
    out = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= durations[i]
    return out


def summarize(names, starts, ends, parents) -> dict:
    """Aggregate spans by name: {name: {"calls", "total_s", "self_s"}}."""
    selfs = self_times(starts, ends, parents)
    out: dict = {}
    for i, name in enumerate(names):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += ends[i] - starts[i]
        row["self_s"] += selfs[i]
    return out
