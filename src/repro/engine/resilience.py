"""Resilience policy for sweep execution: retries, deadlines, breakers.

An hours-long grid sweep hits failures that have nothing to do with
the cell being computed — an OOM-killed worker, a hung BLAS call, a
flaky disk — and failures that are entirely the cell's fault — a bad
parameterization raising ``ValueError`` on every attempt.  The
:class:`RetryPolicy` separates the two:

* **Transient** failures (a crashed worker process, a cell past its
  deadline, an ``OSError``/``MemoryError``-shaped exception, or
  anything raising :class:`TransientError`) are retried with
  deterministic exponential backoff, up to ``max_attempts``.
* **Deterministic** failures (everything else: ``ValueError``,
  ``KeyError``, assertion errors, …) fail fast on the first attempt —
  retrying them would burn wall-clock to reach the same traceback.

The classification is *worker-side* (:func:`classify_exception` sees
the live exception object), so the policy itself never crosses the
process boundary; the parent only consumes the resulting kind string.

Determinism matters here: retries re-derive everything from the job's
own seed (see :func:`~repro.engine.executor.execute_job`), so a cell
that succeeds on attempt 3 is byte-identical to one that succeeded on
attempt 1, and the backoff schedule is a pure function of the attempt
number — no jitter, no clock dependence — so a chaos-harness run
replays identically.

Every attempt a cell consumed is recorded as an :class:`Attempt` on
its :class:`~repro.engine.executor.JobOutcome` (``outcome.attempts``),
so reporting and telemetry can surface *how* a result was obtained,
not just that it was.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import check_count, check_seconds

__all__ = ["Attempt", "RetryPolicy", "TransientError",
           "classify_exception"]


class TransientError(RuntimeError):
    """Marker for failures worth retrying (infrastructure, not input).

    Raise (or subclass) this from inside a cell to tell the retry
    machinery the failure is expected to go away on a re-run.  The
    chaos harness's injected faults derive from it.
    """


#: Exception families treated as transient without an explicit
#: :class:`TransientError`: resource pressure and I/O flakiness.
#: ``OSError`` covers disk/pipe/connection errors (``ConnectionError``
#: and friends subclass it); ``MemoryError`` is the in-process shape
#: of the pressure that kills workers outright; ``TimeoutError`` and
#: ``EOFError`` are the usual IPC casualties.
_TRANSIENT_TYPES = (TransientError, OSError, MemoryError, TimeoutError,
                    EOFError)

#: Attempt kinds (``Attempt.kind``): how one execution of a cell ended.
ATTEMPT_KINDS = ("ok", "error", "timeout", "crash")


def classify_exception(exc: BaseException) -> str:
    """``"transient"`` or ``"deterministic"`` for an in-cell exception.

    Runs in the worker, where the live exception object is available;
    the parent only ever sees the resulting string (tracebacks don't
    preserve class identity across the pool pickle).
    """
    return ("transient" if isinstance(exc, _TRANSIENT_TYPES)
            else "deterministic")


@dataclass(frozen=True)
class Attempt:
    """One execution attempt of one grid cell.

    ``kind`` is ``"ok"`` (succeeded), ``"error"`` (raised inside the
    cell), ``"timeout"`` (exceeded the per-cell deadline and had its
    worker killed), or ``"crash"`` (its worker died — pool breakage).
    ``seconds`` is real elapsed wall time measured by the parent from
    submission, so crashed and timed-out attempts report how long they
    actually held a worker.  ``error`` carries the first line of the
    failure for attempt histories (the full traceback of the *final*
    failure lives on the outcome itself).
    """

    kind: str
    seconds: float = 0.0
    error: str | None = None
    transient: bool | None = None  # classification of "error" attempts

    def describe(self) -> str:
        detail = f": {self.error}" if self.error else ""
        return f"{self.kind} after {self.seconds:.2f}s{detail}"


#: Exponential growth of the retry backoff schedule.
BACKOFF_FACTOR = 2

#: Pool crashes a single cell may be involved in before it is
#: quarantined (marked failed, never re-queued).  Crash retries are
#: governed by this bound — not ``max_attempts`` — because a pool
#: rebuild must re-queue in-flight victims even when retries are
#: disabled.  After a crash, previously-crashed cells are re-run one at
#: a time (at most one suspect in flight), so a repeat offender is
#: identified and quarantined instead of taking innocent neighbours
#: down with it.
QUARANTINE = 2


@dataclass(frozen=True)
class RetryPolicy:
    """How a sweep responds to failing, hanging, and crashing cells.

    The default policy is the engine's historical behaviour — one
    attempt, no deadline, never give up on the sweep — so existing
    callers pay nothing; every knob is opt-in.  Every value is checked
    at construction.

    Parameters
    ----------
    max_attempts:
        Executions a cell may consume on transient failures and
        timeouts (deterministic failures always fail fast).  ``1``
        disables retries.
    backoff:
        Base seconds slept before retry *k* (1-indexed):
        ``backoff * BACKOFF_FACTOR ** (k - 1)``.  Deterministic — no
        jitter — so fault-plan replays are reproducible.
    timeout:
        Per-cell deadline in seconds, enforced by the parent: a cell
        running past it has its worker pool killed and is re-queued
        (consuming an attempt).  ``None`` disables deadlines.
        Enforcement needs worker processes, so a sweep with a timeout
        always runs through the pool path.
    max_failures:
        Circuit breaker: once more than this many cells have
        terminally failed, the sweep stops scheduling work and marks
        everything unfinished as aborted — graceful degradation
        instead of burning hours on a broken grid.  ``None`` never
        trips; ``0`` aborts on the first failure.
    """

    max_attempts: int = 1
    backoff: float = 0.0
    timeout: float | None = None
    max_failures: int | None = None

    def __post_init__(self) -> None:
        check_count("max_attempts", self.max_attempts)
        check_seconds("backoff", self.backoff)
        if self.timeout is not None:
            check_seconds("timeout", self.timeout, positive=True)
        if self.max_failures is not None:
            check_count("max_failures", self.max_failures, least=0)

    # ------------------------------------------------------------------
    def backoff_seconds(self, retry: int) -> float:
        """Sleep before the ``retry``-th re-execution (1-indexed).

        A pure function of the retry number — replaying a fault plan
        reproduces the schedule exactly.
        """
        if retry < 1 or self.backoff == 0.0:
            return 0.0
        return self.backoff * BACKOFF_FACTOR ** (retry - 1)

    def should_retry_error(self, transient: bool, attempts_used: int
                           ) -> bool:
        """Retry an in-cell failure?  Deterministic failures never
        retry; transient ones retry while attempts remain."""
        return transient and attempts_used < self.max_attempts

    def should_retry_timeout(self, attempts_used: int) -> bool:
        """Timeouts are transient by definition (the work was killed
        mid-flight, not rejected)."""
        return attempts_used < self.max_attempts

    def should_retry_crash(self, crashes: int) -> bool:
        """Pool-crash victims re-queue until the quarantine bound —
        independent of ``max_attempts``, because rebuilding the pool
        must not strand innocent in-flight cells even with retries
        disabled."""
        return crashes < QUARANTINE

    def tripped(self, failures: int) -> bool:
        """Has the circuit breaker opened?"""
        return self.max_failures is not None and failures > self.max_failures
