"""Hierarchical span tracing with near-zero overhead when disabled.

The tracer is a process-global object holding a flat list of finished
:class:`SpanRecord`\\ s plus one *stack* of open spans per thread.  Code is
instrumented with :func:`trace_span`::

    with trace_span("extract.substrate", cell="vco_testchip"):
        ...

When tracing is disabled (the default), ``trace_span`` returns a shared
no-op context manager without allocating anything — the cost is one
attribute check per call, so hot paths (every ``Factorization.solve``) can
stay instrumented unconditionally.

Spans cross process boundaries by value: the parent process captures a
picklable :class:`TraceContext` (trace id + parent span id) into each
``SweepTask``; the worker wraps execution in :func:`collect_spans`, which
records spans parented under the context and hands them back as a tuple
that travels home inside the ``TaskOutcome``.  The parent then calls
:func:`~Tracer.adopt` so worker corners re-parent under the campaign root
span.  Span ids embed the producing pid, so ids never collide when spans
from several workers merge into one timeline.

Wall-clock alignment uses ``time.time()`` for span start (comparable
across processes) and ``time.perf_counter()`` for duration (monotonic).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "tracer",
    "trace_span",
    "collect_spans",
    "current_context",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.  Frozen and picklable (travels in TaskOutcome)."""

    span_id: str
    parent_id: str | None
    name: str
    start: float          # epoch seconds (time.time) — cross-process comparable
    duration: float       # seconds (perf_counter delta) — monotonic
    pid: int
    thread: str
    attrs: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(span_id=data["span_id"], parent_id=data.get("parent_id"),
                   name=data["name"], start=float(data["start"]),
                   duration=float(data["duration"]), pid=int(data["pid"]),
                   thread=str(data.get("thread", "main")),
                   attrs=tuple(sorted(dict(data.get("attrs", {})).items())))


@dataclass(frozen=True)
class TraceContext:
    """Picklable handle that re-parents spans recorded in another process.

    ``fingerprint()`` of campaign objects must not depend on whether tracing
    happened to be enabled, and the context is per-run anyway, so the field
    is excluded from content-addressed hashing wherever it is embedded.
    """

    trace_id: str
    parent_id: str | None = None


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        """Discard attributes: nothing is recorded while tracing is off."""


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "_t0_perf", "_t0_wall")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else tracer._base_parent()
        self.span_id = tracer._new_id()
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._t0_perf
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:          # tolerate mismatched exits
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer._record(SpanRecord(
            span_id=self.span_id, parent_id=self.parent_id, name=self.name,
            start=self._t0_wall, duration=duration, pid=os.getpid(),
            thread=threading.current_thread().name,
            attrs=tuple(sorted(self.attrs.items()))))
        return False

    def set(self, **attrs) -> None:
        """Attach attributes to an open span."""
        self.attrs.update(attrs)


class Tracer:
    """Process-global span collector.  Disabled by default."""

    def __init__(self):
        self.enabled = False
        self.trace_id: str | None = None
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._local = threading.local()
        self._counter = itertools.count(1)

    # -- lifecycle -------------------------------------------------------

    def enable(self, trace_id: str | None = None) -> None:
        if trace_id is None:
            trace_id = f"trace-{os.getpid():x}-{int(time.time() * 1e3):x}"
        self.trace_id = trace_id
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()

    def spans(self) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    def mark(self) -> int:
        """Bookmark in the span list, for :meth:`spans_since`."""
        with self._lock:
            return len(self._spans)

    def spans_since(self, mark: int) -> tuple[SpanRecord, ...]:
        """Spans recorded (or adopted) after a :meth:`mark` bookmark."""
        with self._lock:
            return tuple(self._spans[mark:])

    # -- span plumbing ---------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _base_parent(self) -> str | None:
        return getattr(self._local, "base_parent", None)

    def _set_base_parent(self, parent_id: str | None):
        previous = getattr(self._local, "base_parent", None)
        self._local.base_parent = parent_id
        return previous

    def _new_id(self) -> str:
        return f"{os.getpid():x}-{next(self._counter):x}"

    def _record(self, span: SpanRecord) -> None:
        with self._lock:
            self._spans.append(span)

    # -- cross-process support -------------------------------------------

    def current_context(self) -> TraceContext | None:
        """Context parenting remote spans under the innermost open span."""
        if not self.enabled or self.trace_id is None:
            return None
        stack = self._stack()
        parent = stack[-1].span_id if stack else self._base_parent()
        return TraceContext(trace_id=self.trace_id, parent_id=parent)

    def adopt(self, spans) -> None:
        """Merge spans recorded elsewhere (worker process or collect block)."""
        if not spans:
            return
        with self._lock:
            self._spans.extend(spans)


tracer = Tracer()


def trace_span(name: str, **attrs):
    """Open a span named ``name``; a shared no-op when tracing is disabled."""
    if not tracer.enabled:
        return _NULL_SPAN
    return _LiveSpan(tracer, name, attrs)


def current_context() -> TraceContext | None:
    return tracer.current_context()


@contextmanager
def collect_spans(context: TraceContext | None):
    """Record spans under ``context`` and yield the list that receives them.

    In a worker process (tracer disabled) this temporarily enables tracing
    for the duration of the block; in-process (a one-worker scheduler) it
    carves the block's spans out of the live tracer so the caller can hand
    them through the same ``TaskOutcome.spans`` channel without double
    counting — the parent re-adopts them when the outcome is merged.
    """
    sink: list[SpanRecord] = []
    if context is None:
        yield sink
        return
    was_enabled = tracer.enabled
    if not was_enabled:
        tracer.enable(context.trace_id)
        tracer.reset()
    with tracer._lock:
        mark = len(tracer._spans)
    previous_base = tracer._set_base_parent(context.parent_id)
    try:
        yield sink
    finally:
        tracer._set_base_parent(previous_base)
        with tracer._lock:
            sink.extend(tracer._spans[mark:])
            del tracer._spans[mark:]
        if not was_enabled:
            tracer.disable()


def span_aggregates(spans) -> dict[str, dict[str, float]]:
    """Group spans by name: {name: {count, total_seconds, max_seconds}}."""
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name,
                               {"count": 0, "total_seconds": 0.0,
                                "max_seconds": 0.0})
        row["count"] += 1
        row["total_seconds"] += span.duration
        row["max_seconds"] = max(row["max_seconds"], span.duration)
    for row in table.values():
        row["total_seconds"] = float(row["total_seconds"])
        row["max_seconds"] = float(row["max_seconds"])
    return table
