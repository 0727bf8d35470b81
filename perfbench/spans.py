"""In-memory span recording around the benchmark's calls into gausspair.

Every span is named ``module.function`` after the public function the
benchmark called, carries an optional tag (a conversion target, a cutoff),
and records its parent span; the root span of an operation identifies it.
Nothing inside gausspair is instrumented: a layer is timed only through the
calls the benchmark itself makes.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, tag=None):
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self):
        self.name: list[str] = []
        self.tag: list[str | None] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, tag=None):
        i = len(self.name)
        self.name.append(name)
        self.tag.append(tag)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args)
        finally:
            self.end[i] = perf_counter_ns()
            self._stack.pop()

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        """Durations in ns of every span with this name (and tag, if given)."""
        return [
            self.end[i] - self.start[i]
            for i, n in enumerate(self.name)
            if n == name and (tag is None or self.tag[i] == tag)
        ]

    def self_times(self, roots: tuple[str, ...]) -> tuple[dict[str, float], float]:
        """Self time per layer (the module part of a span name) in ns, over the
        subtrees of root spans with the given names, and the roots' total."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        root = [-1] * len(dur)
        for i, p in enumerate(self.parent):
            if p < 0:
                root[i] = i
            else:
                child[p] += dur[i]
                root[i] = root[p]
        per_layer: dict[str, float] = {}
        total = 0.0
        for i, r in enumerate(root):
            if self.name[r] not in roots:
                continue
            layer = self.name[i].split(".", 1)[0]
            per_layer[layer] = per_layer.get(layer, 0.0) + dur[i] - child[i]
            if i == r:
                total += dur[i]
        return per_layer, total

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, n in enumerate(self.name):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": n,
                            "tag": self.tag[i],
                            "parent": self.parent[i],
                            "start_ns": self.start[i],
                            "dur_ns": self.end[i] - self.start[i],
                        }
                    )
                    + "\n"
                )
