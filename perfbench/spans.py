"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark's own code around each call into a
hida_lab module; nothing inside the package is instrumented.  A span is
``[name, start_ns, end_ns, parent_index, op_id, n]``.  When tracing is off
``span`` hands back one shared no-op context manager, so the untraced run
pays only a method call per boundary.
"""

from __future__ import annotations

import contextlib
import statistics
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str, n):
        self.tracer = tracer
        spans = tracer.spans
        self.index = len(spans)
        parent = tracer.open[-1] if tracer.open else None
        spans.append([name, 0, 0, parent, tracer.op_id, n])

    def __enter__(self):
        self.tracer.open.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter_ns()
        self.tracer.open.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.open: list = []
        self.op_id = None

    def span(self, name: str, n: int | None = None):
        return _Span(self, name, n) if self.enabled else _NULL

    def self_times_ms(self) -> list:
        """(name, n, op_id, self ms): duration minus the time of direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op, _n in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [(name, n, op, (end - start - child_ns[i]) / 1e6)
                for i, (name, start, end, _p, op, n) in enumerate(self.spans)]

    def median_self_ms(self) -> dict:
        """{(name, n): median self ms} over every span of that name and size."""
        groups: dict = {}
        for name, n, _op, ms in self.self_times_ms():
            groups.setdefault((name, n), []).append(ms)
        return {key: statistics.median(vals) for key, vals in groups.items()}
