"""Deterministic chaos harness for the sweep engine.

A :class:`FaultPlan` is a list of :class:`Fault` rules, each keyed by
*which cell* (a substring of the job label, or a fingerprint prefix)
and *which attempt* — so a plan is a pure function
``(cell, attempt) -> fault`` with no randomness and no hidden state:
replaying a faulted sweep injects exactly the same faults at exactly
the same points.

Faults model the failure classes a real hours-long sweep hits:

``transient``
    Raise :class:`ChaosTransientError` inside the cell (a retryable
    infrastructure-shaped failure: flaky I/O, resource pressure).
``error``
    Raise :class:`ChaosDeterministicError` (a ``ValueError``): the
    fail-fast path — retrying must *not* happen.
``hang``
    Sleep ``seconds`` inside the cell before doing the work, driving
    it past any per-cell deadline so the parent kills its worker.
``kill``
    ``os._exit`` the worker process mid-cell — the SIGKILL/OOM shape
    that breaks a shared ``ProcessPoolExecutor``.
``corrupt``
    Parent-side: after the cell's result is written to the cache,
    corrupt the shard file on disk (exercises the ``cache.corrupt``
    detection and ``repro cache verify``).

Delivery: the sweep hands its loaded plan to every cell execution as
an argument, and :func:`maybe_fault` (called at the top of every
guarded cell execution) consults it — so faults reach inline cells,
pool workers and rebuilt pools by one route.  The environment plays
no part: a sweep without a plan injects nothing.

The invariant the chaos test suite proves: because every retry
re-derives the cell from the job's own seed, a faulted sweep's final
results are **byte-identical** to the fault-free run, with every cell
accounted for.

Plans load from JSON/YAML files (``{"faults": [{"fault": "kill",
"match": "seed=0", "attempt": 0}, ...]}``) or from a compact inline
spec — semicolon-separated ``FAULT[(SECONDS)][:MATCH][@ATTEMPT]``
rules::

    repro sweep ... --retry 3 --timeout 5 \\
        --chaos 'transient:seed=0@0;kill:Hardt@0;hang(30):german@1'
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .resilience import TransientError
from .spec import check_count, check_seconds

__all__ = ["ChaosDeterministicError", "ChaosTransientError", "Fault",
           "FaultPlan", "corrupt_entry", "maybe_fault"]

#: Recognised fault kinds (see module docstring).
FAULT_KINDS = ("transient", "error", "hang", "kill", "corrupt")

#: Exit status a ``kill`` fault terminates its worker with (any
#: non-zero status breaks the pool; a distinctive one aids debugging).
KILL_STATUS = 77


class ChaosTransientError(TransientError):
    """Injected retryable failure (classified transient)."""


class ChaosDeterministicError(ValueError):
    """Injected fail-fast failure (classified deterministic)."""


@dataclass(frozen=True)
class Fault:
    """One injection rule: fire ``fault`` when a cell whose label
    contains ``match`` (or whose fingerprint starts with it; empty
    matches every cell) executes its ``attempt``-th attempt."""

    fault: str
    match: str = ""
    attempt: int = 0
    seconds: float = 30.0  # hang duration

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ValueError(f"unknown fault {self.fault!r}; choose "
                             f"from {list(FAULT_KINDS)}")
        if not isinstance(self.match, str):
            raise ValueError(
                f"fault match must be a string, got {self.match!r}")
        check_count("fault attempt", self.attempt, least=0)
        check_seconds("fault seconds", self.seconds, positive=True)

    def applies(self, label: str, fingerprint: str, attempt: int) -> bool:
        if attempt != self.attempt:
            return False
        return (self.match == "" or self.match in label
                or fingerprint.startswith(self.match))

    def describe(self) -> str:
        """Render back to the inline-spec syntax (parse-roundtrips)."""
        timing = (f"({self.seconds:g})" if self.fault == "hang" else "")
        target = f":{self.match}" if self.match else ""
        return f"{self.fault}{timing}{target}@{self.attempt}"


_INLINE = re.compile(
    r"^(?P<fault>[a-z]+)"
    r"(?:\((?P<seconds>[0-9.]+)\))?"
    r"(?::(?P<match>[^@]*))?"
    r"(?:@(?P<attempt>\d+))?$")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`Fault` rules (first match wins)."""

    faults: tuple = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact inline spec (see module docstring)."""
        faults = []
        for item in text.split(";"):
            item = item.strip()
            if not item:
                continue
            parsed = _INLINE.match(item)
            if parsed is None:
                raise ValueError(
                    f"bad fault spec {item!r}; expected "
                    "FAULT[(SECONDS)][:MATCH][@ATTEMPT], e.g. "
                    "'kill:seed=0@0' or 'hang(30):german'")
            fields = {"fault": parsed["fault"],
                      "match": parsed["match"] or "",
                      "attempt": int(parsed["attempt"] or 0)}
            if parsed["seconds"] is not None:
                fields["seconds"] = float(parsed["seconds"])
            faults.append(Fault(**fields))
        if not faults:
            raise ValueError(f"fault plan {text!r} declares no faults")
        return cls(faults=tuple(faults))

    @classmethod
    def from_config(cls, config) -> "FaultPlan":
        """Build from a ``{"faults": [...]}`` mapping or a bare list of
        fault mappings / inline rule strings."""
        if isinstance(config, dict):
            config = config.get("faults", ())
        faults = []
        for entry in config:
            if isinstance(entry, str):
                faults.extend(cls.parse(entry).faults)
            elif isinstance(entry, dict):
                unknown = sorted(set(entry)
                                 - {"fault", "match", "attempt", "seconds"})
                if unknown:
                    raise ValueError(
                        f"unknown fault field(s) {unknown}; expected "
                        "fault/match/attempt/seconds")
                faults.append(Fault(**entry))
            else:
                raise ValueError(f"bad fault entry {entry!r}")
        if not faults:
            raise ValueError("fault plan declares no faults")
        return cls(faults=tuple(faults))

    @classmethod
    def load(cls, source) -> "FaultPlan":
        """The CLI entry point: a plan file path (JSON/YAML), an inline
        spec string, or an already-built mapping/list."""
        if isinstance(source, FaultPlan):
            return source
        if isinstance(source, (dict, list, tuple)):
            return cls.from_config(source)
        path = Path(source)
        if path.suffix.lower() in (".json", ".yaml", ".yml") \
                or path.exists():
            from ..api import load_config
            return cls.from_config(load_config(path))
        return cls.parse(str(source))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, label: str, fingerprint: str, attempt: int,
             kinds=None) -> Fault | None:
        """First fault applying to this (cell, attempt), optionally
        restricted to a subset of kinds."""
        for fault in self.faults:
            if kinds is not None and fault.fault not in kinds:
                continue
            if fault.applies(label, fingerprint, attempt):
                return fault
        return None

    @property
    def needs_pool(self) -> bool:
        """Whether any fault must run in a worker process (``kill``
        would take the parent down; ``hang`` needs a killable host)."""
        return any(f.fault in ("kill", "hang") for f in self.faults)

    def describe(self) -> str:
        return "; ".join(f.describe() for f in self.faults)


def maybe_fault(plan: FaultPlan | None, label: str, fingerprint: str,
                attempt: int) -> None:
    """Worker-side injection point, called before a cell executes.

    No-op without a plan or a matching in-cell fault.  ``corrupt``
    faults are parent-side (see :func:`corrupt_entry`) and ignored
    here.
    """
    if plan is None:
        return
    fault = plan.find(label, fingerprint, attempt,
                      kinds=("transient", "error", "hang", "kill"))
    if fault is None:
        return
    from .. import obs
    obs.warning("chaos.fault", fault=fault.fault, cell=label,
                attempt=attempt)
    if fault.fault == "transient":
        raise ChaosTransientError(
            f"chaos: injected transient failure (attempt {attempt})")
    if fault.fault == "error":
        raise ChaosDeterministicError(
            f"chaos: injected deterministic failure (attempt {attempt})")
    if fault.fault == "hang":
        import time
        time.sleep(fault.seconds)
        return  # then proceed normally — the deadline decides its fate
    if fault.fault == "kill":
        os._exit(KILL_STATUS)  # simulate SIGKILL/OOM: no cleanup, no pickle


def corrupt_entry(path: str | Path) -> None:
    """Parent-side ``corrupt`` fault: damage a cache shard on disk the
    way an interrupted write or bad sector would — the entry stays
    present but no longer parses."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(1, len(data) // 2)] + b"\x00CHAOS")
