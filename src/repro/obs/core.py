"""Telemetry core: nestable spans, counters, and structured events.

The subsystem is **off by default** and compiles to a no-op when no
:class:`Recorder` is installed: :func:`span` returns a shared
singleton context manager and :func:`add` falls through on a single
``None`` check, so instrumented hot paths (the pairwise kernel's block
loop, the abduction chunk loop) pay one attribute load per call and
allocate nothing that survives the call.  The engine installs a fresh
recorder per executed cell (each worker process records independently;
fragments are merged in the parent — see
:class:`repro.obs.trace.TraceCollector`).

Usage::

    from repro import obs

    with obs.recording() as rec:
        with obs.span("fit", model="lr"):
            ...
        obs.add("pairwise.blocks")
    fragment = rec.snapshot()          # plain dicts, picklable

Span records carry wall-clock timestamps (the recorder anchors a
``perf_counter`` offset to ``time.time()`` once, so spans from
different processes merge onto one timeline), durations, nesting depth
and parent ids, and arbitrary JSON-safe attributes.

:func:`warning` is the structured-warning channel: it always emits
through :mod:`logging` (logger ``repro.obs``) so problems surface even
without an active recorder, and additionally records an event into the
trace when one is recording.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager

__all__ = ["Recorder", "add", "enabled", "recorder", "recording",
           "span", "warning"]

_log = logging.getLogger("repro.obs")

#: The process-wide active recorder (``None`` = telemetry disabled).
_active: "Recorder | None" = None


def enabled() -> bool:
    """Whether a recorder is currently installed in this process."""
    return _active is not None


def recorder() -> "Recorder | None":
    """The active recorder, or ``None`` when telemetry is disabled."""
    return _active


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Span:
    """A live span bound to one recorder.  Use via :func:`span`."""

    __slots__ = ("_rec", "name", "attrs", "id", "parent", "depth",
                 "_start", "_wall")

    def __init__(self, rec: "Recorder", name: str, attrs: dict):
        self._rec = rec
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes after entry (e.g. values known only once
        the work inside ran)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        rec = self._rec
        stack = rec._stack
        self.parent = stack[-1].id if stack else None
        self.depth = len(stack)
        self.id = rec._take_id()
        stack.append(self)
        self._wall = rec.now()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        rec = self._rec
        stack = rec._stack
        # Normal unwinding pops exactly this span; mispaired exits
        # (a span closed out of order) unwind defensively rather than
        # corrupting depths for the rest of the recording.
        while stack:
            closed = stack.pop()
            if closed is self:
                break
        record = {"name": self.name, "ts": self._wall, "dur": duration,
                  "depth": self.depth, "id": self.id,
                  "parent": self.parent, "attrs": self.attrs}
        if exc_type is not None:
            record["error"] = exc_type.__name__
        rec.spans.append(record)
        return False


def span(name: str, **attrs):
    """A context manager timing one named region.

    No-op (a shared, allocation-free singleton) when telemetry is
    disabled; otherwise records wall start, duration, nesting depth,
    parent span, and ``attrs`` into the active recorder on exit —
    including when the body raises (the span then carries an ``error``
    field with the exception type).
    """
    rec = _active
    if rec is None:
        return _NOOP
    return _Span(rec, name, attrs)


# ----------------------------------------------------------------------
# Counters and events
# ----------------------------------------------------------------------
def add(name: str, value: float = 1) -> None:
    """Increment a named counter on the active recorder (no-op when
    telemetry is disabled)."""
    rec = _active
    if rec is None:
        return
    counters = rec.counters
    counters[name] = counters.get(name, 0) + value


def warning(name: str, **attrs) -> None:
    """Emit a structured warning.

    Always logs through ``logging.getLogger("repro.obs")`` — corrupt
    cache shards and friends must surface even in untraced runs — and
    records a trace event when a recorder is active.
    """
    detail = " ".join(f"{key}={value}" for key, value in attrs.items())
    _log.warning("%s%s", name, f": {detail}" if detail else "")
    rec = _active
    if rec is not None:
        rec.events.append({"type": "warning", "name": name,
                           "ts": rec.now(), "attrs": attrs})


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
class Recorder:
    """Collects one process's spans, counters, and events.

    Spans are appended in completion order; :meth:`snapshot` returns
    everything as plain dicts so worker processes can ship their
    recording back through a ``ProcessPoolExecutor`` result pickle.
    """

    def __init__(self):
        self.epoch_wall = time.time()
        self.epoch_perf = time.perf_counter()
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.events: list[dict] = []
        self._stack: list[_Span] = []
        self._next_id = 0

    def _take_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def now(self) -> float:
        """Wall-clock seconds, monotonic within this recorder."""
        return self.epoch_wall + (time.perf_counter() - self.epoch_perf)

    def snapshot(self) -> dict:
        """The recording as picklable plain data (a *trace fragment*)."""
        return {"spans": list(self.spans),
                "counters": dict(self.counters),
                "events": list(self.events)}


@contextmanager
def recording():
    """Install a fresh :class:`Recorder` for the duration of the block.

    Nests: the previous recorder (if any) is restored on exit, so a
    serial sweep can record per-cell fragments inside a parent
    sweep-scope recording exactly like isolated worker processes do.
    """
    global _active
    rec = Recorder()
    previous = _active
    _active = rec
    try:
        yield rec
    finally:
        _active = previous
