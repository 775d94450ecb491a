"""In-memory spans recorded around the benchmark's own calls into rainbowlab.

A span is (name, start, end, parent, unit).  Spans live in a list until the
run ends; `write` dumps them once.  Nothing inside ``src/`` is instrumented:
every span wraps a call the benchmark itself makes.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None


class Tracer:
    """Records spans and counters; spans nest through an explicit stack.

    Only the benchmark's main thread opens spans, so one stack suffices.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[tuple[int | None, float]]] = {}
        self._stack: list[int] = []
        self.unit: int | None = None
        self._per_unit: dict | None = None  # built on first query, after the run

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.unit)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append((self.unit, value))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover.

        Children of one span run one after another on the same thread, so
        their intervals do not overlap and can simply be summed.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def per_unit_self_ms(self, name: str) -> dict:
        """Self time of the spans called `name`, in ms, summed per unit."""
        if self._per_unit is None:
            self._per_unit = {}
            for s, t in zip(self.spans, self.self_times()):
                by_unit = self._per_unit.setdefault(s.name, {})
                by_unit[s.unit] = by_unit.get(s.unit, 0.0) + t * 1000.0
        return self._per_unit.get(name, {})

    def median_self_ms(self, name: str) -> float:
        """Median over units of the per-unit self time; 0 when never entered."""
        per_unit = self.per_unit_self_ms(name)
        return statistics.median(per_unit.values()) if per_unit else 0.0

    def median_count(self, name: str) -> float:
        values = [v for _, v in self.counts.get(name, [])]
        return statistics.median(values) if values else 0

    def total_count(self, name: str) -> float:
        return sum(v for _, v in self.counts.get(name, []))

    def write(self, path) -> None:
        selfs = self.self_times()
        data = {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.unit, t]
                for s, t in zip(self.spans, selfs)
            ],
            "span_fields": ["name", "start", "end", "parent", "unit", "self"],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))


class NullTracer:
    """Stand-in used for the timed, untraced runs: every call is a no-op."""

    unit = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass
