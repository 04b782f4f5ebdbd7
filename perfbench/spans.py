"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, key)``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``key`` the pair or command id of
the work it belongs to.  Spans are kept in a list and written out once,
when the run ends, so recording costs two clock reads and one append.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list[tuple[int, str | None]] = []  # (span index, key)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a leaf span under the innermost open span."""
        parent, key = self._open[-1] if self._open else (-1, None)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self.spans.append((name, t0, t1, parent, key))
        return out

    @contextmanager
    def span(self, name: str, key: str | None = None):
        """Open a span that leaf calls and nested spans attach to."""
        parent, outer_key = self._open[-1] if self._open else (-1, None)
        key = outer_key if key is None else key
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append((idx, key))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, t0, t1, parent, key)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [t1 - t0 - covered[i] for i, (_, t0, t1, _, _) in enumerate(self.spans)]

    def self_time_table(self) -> list[tuple[str, int, float]]:
        """(name, span count, total self seconds), largest self time first."""
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            count[name] += 1
            total[name] += own
        return sorted(
            ((n, count[n], total[n]) for n in count), key=lambda row: -row[2]
        )

    def children_by_parent(self, parent_name: str) -> list[dict[str, float]]:
        """For every span called ``parent_name``: child name -> summed seconds."""
        per: dict[int, dict[str, float]] = {
            i: defaultdict(float)
            for i, s in enumerate(self.spans)
            if s[0] == parent_name
        }
        for name, t0, t1, parent, _ in self.spans:
            if parent in per:
                per[parent][name] += t1 - t0
        return list(per.values())

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def write(self, path, header: dict) -> None:
        """Write every span, times in microseconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        rows = [
            [name, round((t0 - origin) * 1e6, 1), round((t1 - origin) * 1e6, 1),
             parent, key]
            for name, t0, t1, parent, key in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start_us", "end_us",
                                            "parent", "key"], "spans": rows}, fh)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
