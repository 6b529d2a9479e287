"""Spans around the program's public methods, recorded from outside.

``Tracer.wrap`` replaces a bound method on one object with a wrapper that
opens a span, so only the objects the benchmark opened are traced and
``src/`` stays untouched. Every span is folded into per-name aggregates
as it closes (calls, total time, self time, and how often it ran directly
under each parent); the raw spans of operations 1, 1 + ``keep_every``, ...
are kept in memory and written out when the run ends. A span's self time
is its duration minus the time its direct children took.

The tracer keeps one span stack and must only see calls from one thread.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self, keep_every: int = 64, per_call: tuple[str, ...] = ()):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.under: dict[tuple[str, str], int] = {}
        self.durations: dict[str, array] = {name: array("q") for name in per_call}
        self.spans: list[tuple] = []
        self.op = 0
        self._keep_every = keep_every
        self._stack: list[list] = []
        self._next_id = 0

    def begin_op(self, op: int) -> None:
        """Tag the following spans with block or request ``op``."""
        self.op = op

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, perf_counter_ns(), 0, self._next_id])

    def leave(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns, span_id = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
            pair = (parent[0], name)
            self.under[pair] = self.under.get(pair, 0) + 1
        if name in self.durations:
            self.durations[name].append(duration)
        if self._keep_every and self.op % self._keep_every == 1:
            self.spans.append((span_id, parent_id, name, start, end, self.op))

    def wrap(self, obj, attr: str, name: str) -> None:
        inner = getattr(obj, attr)
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            enter(name)
            try:
                return inner(*args, **kwargs)
            finally:
                leave()

        setattr(obj, attr, traced)

    def span(self, name: str):
        return _Span(self, name)

    def layer_self_ns(self, layer: str) -> int:
        """Self time of every span whose name starts with ``layer.``."""
        return sum(ns for name, ns in self.self_ns.items() if name.split(".", 1)[0] == layer)

    def per_call_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns.get(name, 0) / calls / 1e3 if calls else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end, op in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent_id, "name": name, "start_ns": start, "end_ns": end, "op": op})
                    + "\n"
                )


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, *exc):
        self.tracer.leave()
