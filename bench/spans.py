"""Benchmark-side spans: the from-outside trace of calls into each layer.

Spans are recorded by the benchmark's own files around public calls of
``repro`` — nothing in ``src/`` is switched on.  They live in memory and
are written when the run ends, as Chrome-trace JSON plus a self-time
table (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: The top-level span of one operation; every other span hangs below one.
OP = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for the (single) load-generator thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def begin(
        self, name: str, op: Optional[int] = None, parent: Optional[int] = None
    ) -> int:
        """Open a span; returns its id (for ``parent=`` and :meth:`end`)."""
        self.spans.append(Span(name, time.perf_counter(), parent, op))
        return len(self.spans) - 1

    def end(self, span_id: int) -> None:
        self.spans[span_id].end = time.perf_counter()

    @contextmanager
    def span(
        self, name: str, op: Optional[int] = None, parent: Optional[int] = None
    ) -> Iterator[int]:
        """Span over a ``with`` body; nests under the innermost open
        ``with`` span unless ``parent`` names one (overlapping operations
        need that)."""
        if parent is None and self._open:
            parent = self._open[-1]
        span_id = self.begin(name, op, parent)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            self.end(span_id)


class NullRecorder:
    """The untraced run: same interface, records nothing."""

    enabled = False
    spans: List[Span] = []

    def begin(self, name, op=None, parent=None) -> int:
        return -1

    def end(self, span_id) -> None:
        pass

    @contextmanager
    def span(self, name, op=None, parent=None):
        yield -1



def self_times(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """name -> (count, total seconds, self seconds)."""
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    table: Dict[str, Tuple[int, float, float]] = {}
    for index, span in enumerate(spans):
        count, total, own = table.get(span.name, (0, 0.0, 0.0))
        table[span.name] = (
            count + 1,
            total + span.seconds,
            own + max(0.0, span.seconds - child_seconds[index]),
        )
    return table


def coverage(spans: List[Span], windows: List[Tuple[float, float]]) -> float:
    """Share of the timed windows that top-level spans cover."""
    tops = sorted(
        (s.start, s.end) for s in spans if s.parent is None and s.name == OP
    )
    covered = 0.0
    for lo, hi in windows:
        edge = lo
        for start, end in tops:
            if end <= edge or start >= hi:
                continue
            covered += min(end, hi) - max(start, edge)
            edge = max(edge, min(end, hi))
    wall = sum(hi - lo for lo, hi in windows)
    return covered / wall if wall else 0.0


def format_self_times(spans: List[Span], wall_seconds: float) -> str:
    """The self-time table: where the timed wall went, by span name."""
    rows = sorted(
        self_times(spans).items(), key=lambda item: item[1][2], reverse=True
    )
    lines = [
        f"{'span':<34}{'count':>8}{'total ms':>12}{'self ms':>12}{'self %':>9}"
    ]
    for name, (count, total, own) in rows:
        share = 100.0 * own / wall_seconds if wall_seconds else 0.0
        lines.append(
            f"{name:<34}{count:>8}{total * 1e3:>12.2f}{own * 1e3:>12.2f}"
            f"{share:>9.1f}"
        )
    return "\n".join(lines)


def write_chrome_trace(spans: List[Span], path: str) -> None:
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": os.getpid(),
            "tid": 0,
            "args": {"id": index, "parent": span.parent, "op": span.op},
        }
        for index, span in enumerate(spans)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
