"""In-memory spans and counters recorded by the benchmark around layer calls.

A span has a name, start, end, parent span and job id. Self time is the
span's duration minus the time covered by its direct children; spans of one
thread nest, so children never overlap. With tracing off `span` returns a
shared no-op context and nothing is recorded.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.job])
        tr.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Span recorder; one per process, owned by the worker."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job: int | str = "setup"

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NOOP

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def write_json(self, path) -> None:
        records = [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                   for n, s, e, p, j in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": records}, fh)
