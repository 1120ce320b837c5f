"""In-memory span tracer for the benchmark's traced run.

A span records its name, start, end, parent span and run id, plus any counts
recorded at the same boundary. Spans stay in memory until ``dump`` writes
them out as JSON. While ``track_alloc`` is set, spans opened with ``peak_alloc`` also record
the peak of the allocations made inside them, with ``tracemalloc`` running
for that span only; it slows allocation-heavy code, so timing runs leave it
off.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.track_alloc = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, peak_alloc: bool = False):
        """Time the block as a child of the innermost open span.

        With ``peak_alloc`` and ``track_alloc`` the span records
        ``peak_alloc_mb``, the peak of the memory allocated inside it. It
        starts and stops ``tracemalloc``, so such spans must not nest.
        """
        peak_alloc = peak_alloc and self.track_alloc
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        if peak_alloc:
            tracemalloc.start()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if peak_alloc:
                sp.counts["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus the part its children cover."""
        sp = self.spans[index]
        intervals = sorted((max(c.start, sp.start), min(c.end, sp.end))
                           for c in self.children(index))
        covered, reach = 0.0, sp.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return sp.duration - covered

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([dict(asdict(s), id=i) for i, s in enumerate(self.spans)],
                      fh, indent=1)
