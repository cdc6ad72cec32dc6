"""Spans and counts recorded by the benchmark around its calls into the engine.

A span is a named duration on the perf_counter clock; a count is a named
running total.  A disabled tracer records nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans.setdefault(name, []).append(perf_counter() - t0)

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span with this name."""
        return self.spans.get(name, [])
