"""In-memory span recording, self-time arithmetic and Chrome trace export.

A :class:`Recorder` keeps one flat list of spans (name, layer, start,
end, parent index) for a single-threaded run.  Spans nest through an
explicit stack, so a span's parent is whatever span was open when it
began.  Nothing is written until the run ends (:func:`chrome_trace`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float = float("nan")
    #: Index of the enclosing span in the recorder's list, -1 at the top.
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans of one thread in call order."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, layer, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        # A span closes only after every span opened inside it.
        while self._open and self._open[-1] != index:
            self.spans[self._open.pop()].end = self.clock()
        if self._open:
            self._open.pop()
        self.spans[index].end = self.clock()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and their union is
    subtracted, so overlapping or overrunning children never drive a
    self time negative.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for kid in sorted(kids, key=lambda k: spans[k].start):
            start = max(spans[kid].start, cursor)
            end = min(spans[kid].end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(max(0.0, span.duration - covered))
    return result


def layer_self_totals(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer; the totals add up to the time the
    top-level spans cover."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def inclusive_by_name(spans: list[Span]) -> dict[str, float]:
    """Wall time inside each span name, counting a span only when no
    ancestor has the same name (recursive or re-entrant calls count
    once)."""
    totals: dict[str, float] = {}
    for span in spans:
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def chrome_trace(spans: list[Span], *, origin: float | None = None,
                 metadata: dict | None = None) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds).

    Loads in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``;
    the layer becomes the event category.
    """
    if origin is None:
        origin = min((span.start for span in spans), default=0.0)
    events = [{"name": span.name, "cat": span.layer, "ph": "X",
               "ts": round((span.start - origin) * 1e6, 3),
               "dur": round(span.duration * 1e6, 3),
               "pid": 1, "tid": 1,
               "args": {"parent": span.parent}}
              for span in spans]
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        trace["otherData"] = metadata
    return trace
