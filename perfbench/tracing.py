"""In-memory spans and counters recorded around the benchmark's own calls.

A span is (id, name, start_ns, end_ns, parent, cycle).  Spans nest through a
stack, or name their parent explicitly: a *replay* span re-runs one of the
calls a library function makes internally, right after the real call, and
names the real call's span as its parent.  A span's self time is its duration
minus the durations of its children, nested or replayed.

Timing always happens, so untraced and traced cycles measure their
operations the same way; only recording is switched by ``enabled``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Span:
    __slots__ = ("tracer", "name", "parent", "id", "start", "end")

    def __init__(self, tracer, name, parent):
        self.tracer = tracer
        self.name = name
        self.parent = parent

    def __enter__(self):
        tr = self.tracer
        self.id = tr.next_id
        tr.next_id += 1
        if tr.enabled:
            if self.parent is None and tr.stack:
                self.parent = tr.stack[-1]
            tr.stack.append(self.id)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter_ns()
        tr = self.tracer
        if tr.enabled:
            tr.stack.pop()
            tr.spans.append((self.id, self.name, self.start, self.end, self.parent, tr.cycle))
        return False

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    def __init__(self):
        self.enabled = False
        self.cycle = 0
        self.next_id = 0
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []  # (name, value, cycle)

    def span(self, name: str, parent: int | None = None) -> Span:
        return Span(self, name, parent)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((name, value, self.cycle))

    def per_cycle(self) -> dict:
        """{cycle: {"total": {name: s}, "self": {name: s}, "calls": {name: [s]}, "counts": {name: v}}}."""
        child_time = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"total": defaultdict(float), "self": defaultdict(float),
                                   "calls": defaultdict(list), "counts": defaultdict(float)})
        for sid, name, start, end, _, cycle in self.spans:
            dur = (end - start) / 1e9
            rec = out[cycle]
            rec["total"][name] += dur
            rec["self"][name] += dur - child_time[sid] / 1e9
            rec["calls"][name].append(dur)
        for name, value, cycle in self.counts:
            out[cycle]["counts"][name] += value
        return out

    def write(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "cycle")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
            for name, value, cycle in self.counts:
                fh.write(json.dumps({"count": name, "value": value, "cycle": cycle}) + "\n")
