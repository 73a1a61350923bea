"""Trace collection and export: merge worker fragments, write files.

The sweep engine records one :class:`~repro.obs.core.Recorder`
fragment per executed cell (inside the worker process) plus one
sweep-scope fragment in the parent (cache probes, scheduling).  A
:class:`TraceCollector` merges them and writes two artifacts into a
trace directory:

``events.jsonl``
    One JSON object per line: a ``header`` line first (schema version,
    :func:`~repro.obs.doctor.environment_info` block, sweep metadata),
    then per cell a ``cell`` line (label, grid-axis attributes,
    cached/failed flags, recorded elapsed) followed by its ``span``,
    ``counter``, and ``event`` lines.  This is the machine-readable
    record ``repro trace`` summarizes.

``trace.json``
    The same spans in Chrome trace-event format (``"X"`` complete
    events, one synthetic thread per cell named by its label) — load
    it in ``chrome://tracing`` or https://ui.perfetto.dev to see the
    sweep's timeline.

Span timestamps are wall-clock anchored (see :class:`Recorder`), so
fragments recorded in different worker processes land on one shared
timeline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["SCHEMA", "TraceCollector"]

#: Version of the events.jsonl schema (bump on breaking layout change).
SCHEMA = 1


class TraceCollector:
    """Accumulates per-cell trace fragments and writes the exports.

    Parameters
    ----------
    env:
        Environment header block; defaults to
        :func:`~repro.obs.doctor.environment_info`.
    meta:
        Free-form sweep metadata stamped into the header (grid
        description, worker count, ...).
    """

    def __init__(self, env: dict | None = None, meta: dict | None = None):
        if env is None:
            from .doctor import environment_info
            env = environment_info()
        self.env = env
        self.meta = dict(meta or {})
        self.created = time.time()
        self.cells: list[dict] = []
        self.scopes: list[dict] = []

    # ------------------------------------------------------------------
    def add_cell(self, label: str, *, fragment: dict | None = None,
                 attrs: dict | None = None, elapsed: float = 0.0,
                 cached: bool = False, failed: bool = False) -> None:
        """Attach one grid cell's recording (``fragment=None`` for
        cache hits, which execute nothing)."""
        self.cells.append({
            "id": len(self.cells),
            "label": label,
            "attrs": dict(attrs or {}),
            "elapsed": float(elapsed),
            "cached": bool(cached),
            "failed": bool(failed),
            "fragment": fragment,
        })

    def add_scope(self, name: str, fragment: dict) -> None:
        """Attach a non-cell recording (e.g. the parent sweep scope:
        cache probes, scheduling, cache write-backs)."""
        self.scopes.append({"name": name, "fragment": fragment})

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """All counters, merged across every cell and scope."""
        merged: dict[str, float] = {}
        for fragment in self._fragments():
            for name, value in fragment["counters"].items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def _fragments(self):
        for scope in self.scopes:
            if scope["fragment"] is not None:
                yield scope["fragment"]
        for cell in self.cells:
            if cell["fragment"] is not None:
                yield cell["fragment"]

    # ------------------------------------------------------------------
    def header(self) -> dict:
        return {"type": "header", "schema": SCHEMA,
                "created": self.created, "env": self.env,
                "meta": self.meta}

    def events(self):
        """Yield every ``events.jsonl`` line as a dict, header first."""
        yield self.header()
        for scope in self.scopes:
            yield from self._fragment_events(scope["fragment"],
                                             scope=scope["name"])
        for cell in self.cells:
            yield {"type": "cell", "cell_id": cell["id"],
                   "label": cell["label"], "attrs": cell["attrs"],
                   "elapsed": cell["elapsed"], "cached": cell["cached"],
                   "failed": cell["failed"]}
            yield from self._fragment_events(cell["fragment"],
                                             cell_id=cell["id"])

    @staticmethod
    def _fragment_events(fragment: dict | None, **where):
        if fragment is None:
            return
        for span in fragment["spans"]:
            yield {"type": "span", **where, **span}
        for name, value in sorted(fragment["counters"].items()):
            yield {"type": "counter", **where, "name": name,
                   "value": value}
        for event in fragment["events"]:
            yield {**event, **where}

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The recording in Chrome trace-event (JSON object) format."""
        trace_events: list[dict] = []
        starts = [span["ts"] for fragment in self._fragments()
                  for span in fragment["spans"]]
        base = min(starts) if starts else self.created

        def emit(fragment: dict, tid: int, name: str, cat: str) -> None:
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": name}})
            for span in fragment["spans"]:
                args = dict(span["attrs"])
                if "error" in span:
                    args["error"] = span["error"]
                trace_events.append({
                    "ph": "X", "name": span["name"], "cat": cat,
                    "pid": 1, "tid": tid,
                    "ts": round((span["ts"] - base) * 1e6, 1),
                    "dur": round(span["dur"] * 1e6, 1),
                    "args": args})

        trace_events.append({"ph": "M", "name": "process_name",
                             "pid": 1, "tid": 0,
                             "args": {"name": "repro sweep"}})
        tid = 0
        for scope in self.scopes:
            if scope["fragment"] is not None:
                emit(scope["fragment"], tid, scope["name"], "scope")
            tid += 1
        for cell in self.cells:
            if cell["fragment"] is not None:
                emit(cell["fragment"], tid, cell["label"], "cell")
                tid += 1
        return {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": {"schema": SCHEMA, "env": self.env,
                              "meta": self.meta}}

    # ------------------------------------------------------------------
    def write(self, directory: str | Path) -> Path:
        """Write ``events.jsonl`` + ``trace.json`` into ``directory``
        (created if needed); returns the directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "events.jsonl", "w") as handle:
            for event in self.events():
                handle.write(json.dumps(event) + "\n")
        with open(directory / "trace.json", "w") as handle:
            json.dump(self.chrome_trace(), handle)
        return directory
