"""In-memory spans around the program's public calls, and layer summaries.

The benchmark records spans from its own files: :func:`install` wraps the
public entry points of each layer on the objects one run uses, and each
call becomes a span ``(name, start, end, parent, request id)``.  Nothing
is written while the run measures; the spans are summarised at the end.

Spans nest through a per-thread stack.  The transcription engine fans
work out to a thread pool, whose threads start with an empty stack, so a
span opened there adopts the innermost open ``engine`` span as its parent
(one caller drives each traced run, so that span is unambiguous).

A layer's *busy* time is the sum of its span durations.  Its *self* time
is wall time: the union, over its spans, of each span's interval minus
the union of that span's children.  Self time is wall time rather than
summed time so that the layers' self times add up to the detect span
even when pool threads run members in parallel.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``request_id`` tags new root spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request_id: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: list[tuple[int, str | None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, fanout: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent, request_id = stack[-1]
        elif self._fanout:
            parent, request_id = self._fanout[-1]
        else:
            parent, request_id = None, self.request_id
        span_id = next(self._ids)
        frame = (span_id, request_id)
        stack.append(frame)
        if fanout:
            self._fanout.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            if fanout:
                self._fanout.remove(frame)
            self.spans.append(Span(span_id, name, start, end, parent,
                                   request_id))

    def wrap(self, name: str, fn, fanout: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, fanout)
        return traced


def install(tracer: Tracer, pipeline=None, service=None):
    """Wrap the layer entry points of one pipeline and/or service.

    Instance attributes shadow the bound methods, so only these objects
    are traced.  ``TranscriptionCache.key_for`` is a static method the
    engine calls through the class, so it is wrapped on the class.
    Returns a function that removes every wrapper.
    """
    from repro.pipeline.cache import TranscriptionCache

    undo = []

    def patch(obj, attr, name, fanout=False):
        original = getattr(obj, attr)
        setattr(obj, attr, tracer.wrap(name, original, fanout))
        undo.append(lambda: delattr(obj, attr))

    if pipeline is not None:
        detector = pipeline.detector
        engine = pipeline.engine
        patch(pipeline, "detect_batch", "detect")
        patch(engine, "transcribe_batch", "engine", fanout=True)
        if engine.feature_engine is not None:
            patch(engine.feature_engine, "prewarm", "dsp.prewarm")
            patch(engine.feature_engine, "features", "dsp.features")
        for asr in engine.asr_suite:
            patch(asr, "transcribe_with_features", f"asr.{asr.short_name}")
        patch(detector.scoring, "score_suites_report", "similarity")
        patch(detector, "predict_features", "classify")
        original_key_for = TranscriptionCache.__dict__["key_for"]
        TranscriptionCache.key_for = staticmethod(
            tracer.wrap("tcache.key", original_key_for.__func__))
        undo.append(lambda: setattr(TranscriptionCache, "key_for",
                                    original_key_for))
    if service is not None:
        patch(service, "submit", "service.admit")

    def uninstall():
        while undo:
            undo.pop()()
    return uninstall


# ------------------------------------------------------------------ summary
def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _subtract(interval, holes) -> list[tuple[float, float]]:
    """``interval`` minus a sorted, disjoint list of ``holes``."""
    start, end = interval
    out = []
    for hole_start, hole_end in holes:
        if hole_end <= start or hole_start >= end:
            continue
        if hole_start > start:
            out.append((start, hole_start))
        start = max(start, hole_end)
    if start < end:
        out.append((start, end))
    return out


def _length(intervals) -> float:
    return sum(end - start for start, end in intervals)


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``busy`` (summed span time), ``self`` (wall), ``calls``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    self_parts: dict[str, list[tuple[float, float]]] = {}
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.layer,
                               {"busy": 0.0, "self": 0.0, "calls": 0})
        entry["busy"] += span.duration
        entry["calls"] += 1
        holes = _union(children.get(span.span_id, ()))
        self_parts.setdefault(span.layer, []).extend(
            _subtract((span.start, span.end), holes))
    for layer, parts in self_parts.items():
        out[layer]["self"] = _length(_union(parts))
    return out


def busy_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed span time per span name (e.g. per ASR member)."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out


def span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds over a plain call (measured here)."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("x", noop)
    start = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / n)
