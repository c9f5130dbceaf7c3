"""Spans around calls into lobfib, recorded from the benchmark's own code.

A span is ``(name, start, end, parent, sample)``: ``start`` and ``end`` are
``time.perf_counter()`` readings, ``parent`` is the index of the enclosing
span (-1 for a root) and ``sample`` is the id of the sample it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Untraced runs: calls go straight through."""

    sample = -1

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []
        self.sample = -1

    def call(self, name, fn, *args):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(("", 0.0, 0.0, parent, self.sample))
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.sample)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: a span's duration minus the time
        its child spans cover (children of one span never overlap, because
        the benchmark is single-threaded)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - covered[i]
        return dict(totals)

    def write(self, path, context: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"context": context, "fields": ["name", "start", "end", "parent", "sample"],
                       "spans": self.spans}, out)
            out.write("\n")
