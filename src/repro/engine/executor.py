"""Process-pool execution of scenario grids.

:func:`run_sweep` drives a job list end to end: cache lookups first,
then fresh cells through a ``ProcessPoolExecutor`` (or inline when
``max_workers=1``).  The properties the experiments rely on:

* **Determinism** — :func:`execute_job` derives *all* randomness from
  the job's own seed, so a 2-worker sweep produces byte-identical
  results to a serial run of the same grid, a cache hit is
  indistinguishable from a recomputation, and a *retried* cell is
  indistinguishable from one that succeeded first try.  Nor does the
  BLAS thread count move a result: every fit runs at one BLAS thread
  (:meth:`~repro.pipeline.experiment.FairPipeline.fit`), whatever the
  pool width, the host's core count or ``OPENBLAS_NUM_THREADS``.
* **CPU budget** — processes across cells, BLAS threads inside a
  cell: each pool worker (and the inline path, as one worker) lowers
  its OpenBLAS pools to ``usable CPUs // workers`` threads, at least
  1, unless ``OPENBLAS_NUM_THREADS`` / ``GOTO_NUM_THREADS`` /
  ``OMP_NUM_THREADS`` is set (see :mod:`repro.blas`).
* **Failure isolation** — one diverging cell records a traceback in
  its :class:`JobOutcome`; the remaining cells still run.
* **Resilience** — with a :class:`~repro.engine.resilience.RetryPolicy`,
  transient failures retry with deterministic backoff (deterministic
  failures fail fast), cells past their per-cell deadline have their
  worker pool killed and are re-queued, a broken pool (SIGKILLed /
  OOM-killed worker) is rebuilt with its in-flight cells re-queued —
  a cell repeatedly present at pool crashes is quarantined — and a
  ``max_failures`` circuit breaker aborts a hopeless grid instead of
  burning hours on it.  Every execution a cell consumed is recorded
  as an :class:`~repro.engine.resilience.Attempt` on its outcome.
* **Interruptibility** — ``Ctrl-C`` mid-sweep cancels outstanding
  work and returns the partial :class:`SweepReport`
  (``report.interrupted`` set); completed cells are already in the
  cache, so the next invocation resumes from them.
* **Progress** — an optional callback receives a
  :class:`SweepProgress` snapshot (done/cached/failed counts, elapsed,
  ETA) after every finished cell.
* **Telemetry** — with a :class:`~repro.obs.TraceCollector` passed as
  ``trace``, every executed cell records a span tree (phases:
  ``dataset`` / ``error`` / ``impute`` / ``fit`` / ``metrics`` /
  ``audit``) plus counters inside its worker process; the fragment
  travels back with the result pickle, lands on the cell's
  :class:`JobOutcome`, and the collector merges all of them with the
  parent's sweep-scope recording — which now also carries the
  resilience counters (``sweep.retries`` / ``sweep.timeouts`` /
  ``sweep.pool_restarts`` / ``sweep.quarantined`` /
  ``cache.write_failed``).  Without ``trace`` the instrumentation is
  a no-op.

Fault injection for all of the above is deterministic and built in:
pass a :class:`~repro.engine.chaos.FaultPlan` as ``chaos`` (handed to
every cell execution as an argument, so a sweep without one injects
nothing) to raise errors, hang cells, kill workers, or corrupt cache
shards at exact ``(cell, attempt)`` points — see
:mod:`repro.engine.chaos`.
"""

from __future__ import annotations

import contextlib
import contextvars
import numbers
import time
import traceback
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .. import blas, obs
from ..pipeline.experiment import EvaluationResult
from .cache import ResultCache
from .chaos import FaultPlan, maybe_fault
from .resilience import Attempt, RetryPolicy, classify_exception
from .spec import Job

__all__ = ["JobOutcome", "SweepProgress", "SweepReport", "cell_attrs",
           "execute_job", "prepare_cell", "run_sweep"]


# ----------------------------------------------------------------------
# Single-cell execution (top level: must be picklable for the pool)
# ----------------------------------------------------------------------
def _impute_train(train, imputer_key: str, imputer_params: dict):
    """Repair NaNs in the training features with a registry imputer.

    Column-wise imputers (mean/median/mode/constant) fill each feature
    column independently; matrix imputers (knn/iterative, marked with
    ``matrix=True`` registry metadata) see the whole feature matrix so
    they can borrow across columns.  A train split without NaNs passes
    through untouched — the imputer axis is then a no-op cell.
    """
    import numpy as np

    from ..registry import IMPUTERS

    if not np.isnan(train.X).any():
        return train
    imputer = IMPUTERS.build(imputer_key, **imputer_params)
    table = train.table
    if IMPUTERS.get(imputer_key).metadata.get("matrix", False):
        fixed = imputer(train.X)
        for column, feature in enumerate(train.feature_names):
            table = table.assign(**{feature: fixed[:, column]})
    else:
        for feature in train.feature_names:
            values = table[feature].astype(float)
            if np.isnan(values).any():
                table = table.assign(**{feature: imputer(values)})
    return train.with_table(table)


def prepare_cell(job: Job, span_prefix: str = ""):
    """A cell's data path: load → (truncate) → split → (corrupt) →
    (impute).  Returns ``(train, test)``; deterministic in ``job``
    alone.

    ``job.imputer`` repairs NaNs the error recipe left in the training
    features.  Each step records an ``<span_prefix>dataset`` /
    ``error`` / ``impute`` span, so the packer's refit
    (``span_prefix="pack."``) stays apart from the cell's phases.
    """
    from ..datasets import train_test_split
    from ..registry import DATASETS, ERRORS

    # dataset_params may override the protocol's n/seed only on a
    # hand-built Job; grid- and spec-built jobs reject that upstream.
    with obs.span(f"{span_prefix}dataset", dataset=job.dataset,
                  rows=job.rows):
        dataset = DATASETS.build(job.dataset, **{
            "n": job.rows, "seed": job.seed, **job.dataset_params})
        if job.n_features is not None:
            available = len(dataset.feature_names)
            if (not isinstance(job.n_features, numbers.Integral)
                    or not 1 <= job.n_features <= available):
                raise ValueError(
                    f"n_features must be an integer from 1 to "
                    f"{available} ({job.dataset} has {available} "
                    f"features), got {job.n_features!r}")
            dataset = dataset.select_features(
                dataset.feature_names[:job.n_features])
        split = train_test_split(dataset, test_fraction=job.test_fraction,
                                 seed=job.seed)
    train = split.train
    if job.error is not None:
        with obs.span(f"{span_prefix}error", error=job.error):
            injector = ERRORS.build(job.error, **job.error_params)
            train = injector(train, seed=job.seed)
    if job.imputer is not None:
        with obs.span(f"{span_prefix}impute", imputer=job.imputer):
            train = _impute_train(train, job.imputer, job.imputer_params)
    return train, split.test


def execute_job(job: Job) -> EvaluationResult:
    """Run one grid cell: :func:`prepare_cell` → fit → evaluate →
    (audit).  Deterministic in ``job`` alone.

    Every component is built through :mod:`repro.registry` from the
    job's key + parameter overrides.  When ``job.audit`` is
    ``"counterfactual"``, the cell additionally runs the batched
    rung-3 audit on its serving components (the ones ``repro pack``
    ships) and merges its summary values into the result's ``raw``
    mapping under ``cf_*`` / ``ctf_*`` keys.
    """
    import dataclasses

    from ..pipeline.experiment import run_experiment
    from ..registry import MODELS

    train, test = prepare_cell(job)
    result = run_experiment(job.approach, train, test,
                            model=MODELS.build(job.model,
                                               **job.model_params),
                            seed=job.seed,
                            causal_samples=job.causal_samples,
                            approach_params=job.approach_params)
    if job.audit == "counterfactual":
        from ..artifacts.pack import _cell_components
        from ..pipeline.counterfactual_eval import _audit

        with obs.span("audit", audit=job.audit):
            components, binned = _cell_components(job, train, test,
                                                  "audit.")
            audit = _audit(components, binned,
                           job.audit_params.get("n_samples", 20000),
                           job.audit_params.get("max_rows", 60))
        kept = _kept_components.get()
        if kept is not None:
            kept[job.fingerprint] = components
        result = dataclasses.replace(result, raw={
            **result.raw,
            "cf_mean_gap": audit.fairness.mean_gap,
            "cf_max_gap": audit.fairness.max_gap,
            "cf_unfair_fraction": audit.fairness.unfair_fraction,
            "ctf_de": audit.effects.de,
            "ctf_ie": audit.effects.ie,
            "ctf_se": audit.effects.se,
            "ctf_tv": audit.effects.tv,
            "cf_fpr_gap": audit.error_rates.fpr_gap,
            "cf_fnr_gap": audit.error_rates.fnr_gap,
        })
    return result


#: The grid axes :func:`cell_attrs` stamps (``repro trace --by``
#: groups by one of them).
CELL_AXES = ("dataset", "approach", "model", "rows", "seed", "error",
             "imputer", "audit")


def cell_attrs(job: Job) -> dict:
    """Grid-axis attributes stamped on a cell's root span and its
    trace record (``None`` axes omitted, so presence of a key tells
    the trace checker which conditional phases to expect)."""
    attrs = {"label": job.label(), "fingerprint": job.fingerprint}
    for axis in CELL_AXES:
        value = (job.approach_label if axis == "approach"
                 else getattr(job, axis))
        if value is not None:
            attrs[axis] = value
    return attrs


#: A packing worker's slot for the serving components an audited cell
#: fitted (``execute_job`` fills it), so they are packed, not refit.
_kept_components = contextvars.ContextVar("kept_components", default=None)


def _pack_artifact(job: Job, pack_dir: str, components) -> None:
    """Worker-side artifact packing for a just-computed cell
    (``components=None``: refit them).

    Packing is best-effort: a failure (disk full, an unserializable
    component) degrades to a structured warning — the cell's metrics
    result is unaffected and the sweep goes on.
    """
    try:
        ResultCache(pack_dir).put_artifact(job, components)
    except Exception as exc:
        obs.add("artifact.pack_failed")
        obs.warning("artifact.pack_failed", cell=job.label(),
                    reason=f"{type(exc).__name__}: {exc}")


def _guarded_execute(job: Job, attempt: int, plan: FaultPlan | None,
                     collect: bool, pack_dir: str | None,
                     ) -> tuple[EvaluationResult | None, str | None,
                                bool | None, float, dict | None]:
    """Pool worker: never raises, so one bad cell can't kill the sweep.

    Returns ``(result, error, transient, seconds, fragment)``;
    ``transient`` is the worker-side classification of a failure
    (:func:`~repro.engine.resilience.classify_exception` sees the live
    exception object, which the traceback text can't preserve across
    the pool pickle) and ``None`` on success.  ``attempt`` keys the
    deterministic chaos harness: the sweep's fault ``plan`` may raise,
    hang, or kill this execution at exactly this ``(cell, attempt)``
    point.

    With ``collect=True`` the cell executes under a fresh recorder
    whose snapshot (spans, counters, events — plain picklable dicts)
    rides back as the last tuple element; a failing cell still ships
    the spans it closed before dying.

    With ``pack_dir`` set, a successful cell also packs its
    serving-artifact bundle (an audited cell's own components) into
    the cache's artifact slot, here in the worker so packing
    parallelizes with the sweep.  Pack time is excluded from the
    cell's reported seconds, and pack spans stay out of the cell's
    trace fragment (the trace checker budgets the cell phase set).
    """
    start = time.perf_counter()
    error, transient, result = None, None, None
    kept = {} if pack_dir is not None else None
    token = _kept_components.set(kept)
    with (obs.recording() if collect
          else contextlib.nullcontext()) as rec:
        try:
            with (obs.span("cell", **cell_attrs(job)) if collect
                  else contextlib.nullcontext()):
                maybe_fault(plan, job.label(), job.fingerprint, attempt)
                result = execute_job(job)
        except Exception as exc:
            error = traceback.format_exc()
            transient = classify_exception(exc) == "transient"
        finally:
            _kept_components.reset(token)
    seconds = time.perf_counter() - start
    if result is not None and pack_dir is not None:
        _pack_artifact(job, pack_dir, kept.get(job.fingerprint))
    return (result, error, transient, seconds,
            rec.snapshot() if collect else None)


def _error_summary(error: str | None) -> str | None:
    """Last traceback line (``ExcType: message``) for attempt records."""
    if not error:
        return error
    lines = error.strip().splitlines()
    return lines[-1] if lines else error


# ----------------------------------------------------------------------
# Outcomes and progress
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobOutcome:
    """What happened to one cell of the grid."""

    job: Job
    result: EvaluationResult | None = None
    error: str | None = None  # traceback text when the cell failed
    cached: bool = False
    seconds: float = 0.0
    #: Trace fragment recorded in the executing worker (spans,
    #: counters, events), when the sweep ran with trace collection.
    trace: dict | None = None
    #: Execution history under the retry policy, oldest first; empty
    #: for cache hits, a single ``ok``/``error`` entry for ordinary
    #: cells, longer when the cell was retried, timed out, or crashed
    #: its worker (see :class:`~repro.engine.resilience.Attempt`).
    attempts: tuple = ()

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def retried(self) -> bool:
        """Whether the cell consumed more than one execution."""
        return len(self.attempts) > 1


@dataclass(frozen=True)
class SweepProgress:
    """Snapshot handed to the progress callback after each cell."""

    done: int
    total: int
    cached: int
    failed: int
    elapsed: float
    outcome: JobOutcome

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def eta_seconds(self) -> float:
        """Linear time-to-finish estimate from throughput so far.

        Cache hits are excluded from the throughput denominator — the
        remaining cells are all real computations, so counting
        near-instant hits (which run first) would wildly underestimate
        a partially-warm sweep.
        """
        executed = self.done - self.cached
        if executed == 0 or self.remaining == 0:
            return 0.0
        return self.elapsed / executed * self.remaining

    def line(self) -> str:
        """Default one-line rendering for CLI/log progress."""
        status = ("cached" if self.outcome.cached
                  else "FAILED" if not self.outcome.ok
                  else f"{self.outcome.seconds:.1f}s")
        if self.outcome.retried:
            status += f" [{len(self.outcome.attempts)} attempts]"
        eta = (f" eta {self.eta_seconds:.0f}s" if self.remaining else "")
        return (f"[{self.done}/{self.total}] "
                f"{self.outcome.job.label()} — {status}{eta}")


@dataclass
class SweepReport:
    """All outcomes of a finished sweep, in grid (job-list) order."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    elapsed: float = 0.0
    #: ``True`` when the sweep was cut short by ``KeyboardInterrupt``:
    #: the outcomes list holds only the cells that finished (their
    #: results are already cached), the rest were cancelled.
    interrupted: bool = False

    @property
    def results(self) -> list[EvaluationResult]:
        """Results of the successful cells, in grid order."""
        return [o.result for o in self.outcomes if o.ok]

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def cached_count(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def computed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    @property
    def retried_count(self) -> int:
        """Cells that consumed more than one execution attempt."""
        return sum(1 for o in self.outcomes if o.retried)

    def summary(self) -> str:
        parts = [f"{len(self.outcomes)} cells",
                 f"{self.computed_count} computed",
                 f"{self.cached_count} cached"]
        if self.retried_count:
            parts.append(f"{self.retried_count} retried")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        line = f"{', '.join(parts)} in {self.elapsed:.1f}s"
        if self.interrupted:
            line += " — INTERRUPTED (partial report; completed cells "\
                    "are cached)"
        return line


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
ProgressCallback = Callable[[SweepProgress], None]

#: Scheduler wake-up bound while deadlines or backoffs are pending (s).
_MAX_TICK = 0.25


def run_sweep(jobs: Sequence[Job], *, cache: ResultCache | None = None,
              max_workers: int = 1, resume: bool = True,
              progress: ProgressCallback | None = None,
              trace=None, policy: RetryPolicy | None = None,
              chaos=None, pack: bool = False) -> SweepReport:
    """Execute a job list, reusing and filling the cache.

    Parameters
    ----------
    jobs:
        Cells to run (typically ``grid.expand()``).
    cache:
        Optional content-addressed cache.  With ``resume=True``
        (default) cells whose fingerprint is already stored are
        skipped; freshly computed cells are always written back.  A
        failing write-back (disk full, permissions) degrades to a
        structured ``cache.write_failed`` warning — the computed
        result stays on the outcome.
    max_workers:
        ``1`` runs inline in this process; ``>1`` fans out over a
        ``ProcessPoolExecutor`` with at most that many workers.  (A
        per-cell ``policy.timeout`` or a process-level chaos fault
        forces the pool path regardless, since enforcement needs a
        killable worker.)
    resume:
        Set ``False`` to recompute every cell even on a warm cache
        (entries are refreshed with the new results).
    progress:
        Called with a :class:`SweepProgress` after every finished cell
        (cache hits included), in completion order.
    trace:
        Optional :class:`~repro.obs.TraceCollector`.  When given,
        every executed cell records its span tree + counters in its
        worker, the parent records a ``sweep`` scope (cache probes,
        write-backs, retry/timeout/pool-restart counters), and the
        collector ends up holding the merged trace — call
        ``trace.write(dir)`` for the JSONL + Chrome exports.
        Fragments are also attached to each :class:`JobOutcome`
        (``outcome.trace``); a retried cell carries its *final*
        attempt's fragment.
    policy:
        Optional :class:`~repro.engine.resilience.RetryPolicy`
        (retries with deterministic backoff, per-cell deadlines,
        pool-crash quarantine, circuit breaker).  ``None`` keeps the
        historical single-attempt behaviour.
    chaos:
        Optional :class:`~repro.engine.chaos.FaultPlan` (or anything
        ``FaultPlan.load`` accepts): deterministic fault injection for
        resilience testing and soak runs.  Handed to every cell
        execution, inline or in a worker, as an argument.
    pack:
        With ``True`` (requires ``cache``), every freshly computed
        cell also packs its fitted serving components into the cache's
        artifact slot (``<fp>.artifacts`` bundle) so ``repro pack``
        can later build a bundle without refitting.  Cache hits are
        not re-packed.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if pack and cache is None:
        raise ValueError("pack=True needs a cache to store artifacts in")
    state = _SweepState(
        jobs, cache, progress, RetryPolicy() if policy is None else policy,
        plan=None if chaos is None else FaultPlan.load(chaos),
        collect=trace is not None, pack_dir=cache.uri if pack else None)
    # Only a traced sweep records its scope, so an untraced one adds
    # no span to a caller's recorder.
    with (obs.recording() if state.collect
          else contextlib.nullcontext()) as rec:
        with (obs.span("sweep", cells=len(jobs)) if state.collect
              else contextlib.nullcontext()) as sweep_span:
            report = _run_sweep(state, max_workers, resume, sweep_span)
    if trace is None:
        return report
    trace.add_scope("sweep", rec.snapshot())
    for outcome in report.outcomes:
        trace.add_cell(outcome.job.label(), fragment=outcome.trace,
                       attrs=cell_attrs(outcome.job),
                       elapsed=outcome.seconds, cached=outcome.cached,
                       failed=not outcome.ok)
    return report


@dataclass
class _Cell:
    """Scheduler bookkeeping for one not-yet-finished grid cell."""

    index: int
    job: Job
    ready_at: float = 0.0  # perf_counter time the cell may (re)start
    crashes: int = 0  # pool breakages this cell was in flight for


class _SweepState:
    """Mutable driver state shared by the inline and pool paths, and
    the sweep's settings every cell execution gets: its fault
    ``plan``, whether to ``collect`` a trace fragment, and the
    ``pack_dir`` artifacts go to."""

    def __init__(self, jobs, cache, progress, policy, plan, collect,
                 pack_dir):
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.policy = policy
        self.plan = plan
        self.collect = collect
        self.pack_dir = pack_dir
        self.start = time.perf_counter()
        self.slots: list[JobOutcome | None] = [None] * len(jobs)
        self.done = self.cached = self.failed_cells = 0
        self.failures = 0  # terminal failures (circuit-breaker input)
        self.tripped = False
        self.interrupted = False
        self.attempts: dict[int, list[Attempt]] = {}

    # ------------------------------------------------------------------
    def history(self, index: int) -> list[Attempt]:
        return self.attempts.setdefault(index, [])

    def attempts_used(self, index: int) -> int:
        """Executions counting against ``max_attempts`` (pool crashes
        are governed by the quarantine bound instead)."""
        return sum(1 for a in self.history(index) if a.kind != "crash")

    def execution(self, cell: _Cell) -> tuple:
        """:func:`_guarded_execute`'s arguments for the cell's next
        attempt (picklable, so a pool ships them to its worker)."""
        return (cell.job, len(self.history(cell.index)), self.plan,
                self.collect, self.pack_dir)

    # ------------------------------------------------------------------
    def record(self, index: int, outcome: JobOutcome) -> None:
        self.slots[index] = outcome
        self.done += 1
        self.cached += outcome.cached
        self.failed_cells += not outcome.ok
        if self.progress is not None:
            self.progress(SweepProgress(
                done=self.done, total=len(self.jobs),
                cached=self.cached, failed=self.failed_cells,
                elapsed=time.perf_counter() - self.start,
                outcome=outcome))

    def finish_ok(self, cell: _Cell, result, seconds: float,
                  fragment: dict | None) -> None:
        history = self.history(cell.index)
        attempt = len(history)
        history.append(Attempt(kind="ok", seconds=seconds))
        if self.cache is not None:
            self._cache_put(cell.job, result, attempt)
        self.record(cell.index, JobOutcome(
            job=cell.job, result=result, seconds=seconds, trace=fragment,
            attempts=tuple(history)))

    def fail(self, index: int, job: Job, error: str, seconds: float = 0.0,
             fragment: dict | None = None) -> None:
        """Terminal failure: record the outcome and feed the breaker."""
        self.record(index, JobOutcome(
            job=job, error=error, seconds=seconds, trace=fragment,
            attempts=tuple(self.history(index))))
        self.failures += 1
        if self.policy.tripped(self.failures) and not self.tripped:
            self.tripped = True
            obs.warning("sweep.circuit_open", failures=self.failures,
                        max_failures=self.policy.max_failures)

    def abort(self, cell: _Cell) -> None:
        """Mark a cell the circuit breaker prevented from finishing."""
        self.record(cell.index, JobOutcome(
            job=cell.job, attempts=tuple(self.history(cell.index)),
            error=f"sweep aborted: circuit breaker opened after "
                  f"{self.failures} failed cells "
                  f"(max_failures={self.policy.max_failures})"))

    # ------------------------------------------------------------------
    def _cache_put(self, job: Job, result, attempt: int) -> None:
        """Write-back that degrades instead of killing the sweep: a
        full disk or permission error on one shard must not discard a
        computed result, let alone the rest of the grid."""
        try:
            self.cache.put(job, result)
        except Exception as exc:
            obs.add("cache.write_failed")
            obs.warning("cache.write_failed", cell=job.label(),
                        reason=f"{type(exc).__name__}: {exc}")
            return
        if self.plan is not None:
            fault = self.plan.find(job.label(), job.fingerprint,
                                   attempt, kinds=("corrupt",))
            if fault is not None:
                obs.warning("chaos.fault", fault="corrupt",
                            cell=job.label(), attempt=attempt)
                self.cache.chaos_corrupt(job)

    # ------------------------------------------------------------------
    def on_error(self, cell: _Cell, error: str, transient: bool,
                 seconds: float, fragment: dict | None) -> bool:
        """Handle an in-cell failure; returns ``True`` to re-queue."""
        self.history(cell.index).append(Attempt(
            kind="error", seconds=seconds,
            error=_error_summary(error), transient=transient))
        used = self.attempts_used(cell.index)
        if self.policy.should_retry_error(transient, used):
            obs.add("sweep.retries")
            obs.warning("sweep.retry", cell=cell.job.label(),
                        attempt=used, error=_error_summary(error))
            cell.ready_at = (time.perf_counter()
                             + self.policy.backoff_seconds(used))
            return True
        self.fail(cell.index, cell.job, error, seconds, fragment)
        return False

    def on_timeout(self, cell: _Cell, seconds: float) -> bool:
        """Handle a deadline kill; returns ``True`` to re-queue."""
        self.history(cell.index).append(Attempt(
            kind="timeout", seconds=seconds,
            error=f"exceeded {self.policy.timeout:g}s deadline"))
        obs.add("sweep.timeouts")
        obs.warning("sweep.timeout", cell=cell.job.label(),
                    seconds=round(seconds, 2),
                    deadline=self.policy.timeout)
        used = self.attempts_used(cell.index)
        if self.policy.should_retry_timeout(used):
            cell.ready_at = (time.perf_counter()
                             + self.policy.backoff_seconds(used))
            return True
        self.fail(cell.index, cell.job,
                  f"cell timed out: exceeded the "
                  f"{self.policy.timeout:g}s deadline on all "
                  f"{used} attempt(s)", seconds)
        return False

    def on_crash(self, cell: _Cell, seconds: float, reason: str) -> bool:
        """Handle a pool-breakage victim; returns ``True`` to
        re-queue."""
        cell.crashes += 1
        self.history(cell.index).append(Attempt(
            kind="crash", seconds=seconds, error=reason))
        if self.policy.should_retry_crash(cell.crashes):
            cell.ready_at = (time.perf_counter()
                             + self.policy.backoff_seconds(cell.crashes))
            return True
        obs.add("sweep.quarantined")
        obs.warning("sweep.quarantine", cell=cell.job.label(),
                    crashes=cell.crashes)
        self.fail(cell.index, cell.job,
                  f"quarantined: the worker pool crashed "
                  f"{cell.crashes} times while this cell was in "
                  f"flight (last: {reason})", seconds)
        return False

    # ------------------------------------------------------------------
    def report(self) -> SweepReport:
        return SweepReport(
            outcomes=[o for o in self.slots if o is not None],
            elapsed=time.perf_counter() - self.start,
            interrupted=self.interrupted)


def _run_sweep(state: _SweepState, max_workers: int, resume: bool,
               span) -> SweepReport:
    cache, policy, plan = state.cache, state.policy, state.plan
    pending: list[_Cell] = []
    for index, job in enumerate(state.jobs):
        hit = cache.get(job) if (cache is not None and resume) else None
        if hit is not None:
            state.record(index,
                         JobOutcome(job=job, result=hit, cached=True))
        else:
            pending.append(_Cell(index, job))

    # Deadlines and process-level chaos faults need a killable worker,
    # so they force the pool path even for serial/single-cell runs.
    needs_pool = (policy.timeout is not None
                  or (plan is not None and plan.needs_pool))
    if not pending:  # every cell was a cache hit
        if span is not None:
            span.set(workers=0)
        return state.report()
    inline = (max_workers == 1 or len(pending) <= 1) and not needs_pool
    workers = 1 if inline else min(max_workers, len(pending))
    budget = (None if blas.explicit()
              else blas.budget(blas.usable_cpus(), workers))
    if span is not None:
        span.set(workers=workers,
                 blas_threads="env" if budget is None else budget)
    if inline:
        with (contextlib.nullcontext() if budget is None
              else blas.limited(budget)):
            _run_inline(state, pending)
    else:
        _run_pool(state, pending, workers, budget)
    return state.report()


def _run_inline(state: _SweepState, pending: list[_Cell]) -> None:
    """Serial path: execute cells in-process, with retries/backoff."""
    for position, cell in enumerate(pending):
        if state.tripped:
            for remaining in pending[position:]:
                state.abort(remaining)
            return
        while True:
            try:
                result, error, transient, seconds, fragment = \
                    _guarded_execute(*state.execution(cell))
            except KeyboardInterrupt:
                state.interrupted = True
                return
            if error is None:
                state.finish_ok(cell, result, seconds, fragment)
                break
            if not state.on_error(cell, error, bool(transient), seconds,
                                  fragment):
                break
            delay = cell.ready_at - time.perf_counter()
            if delay > 0:
                try:
                    time.sleep(delay)
                except KeyboardInterrupt:
                    state.interrupted = True
                    return


def _run_pool(state: _SweepState, pending: list[_Cell], workers: int,
              budget: int | None) -> None:
    """Pool path: slot-limited scheduling with deadline enforcement,
    broken-pool recovery, and crash-suspect serialization.

    At most ``workers`` cells are submitted at a time (so a future's
    submit timestamp *is* its start timestamp — deadlines and crash
    attribution stay accurate), and at most one previously-crashed
    cell runs at a time, so a repeat offender is identified and
    quarantined instead of repeatedly taking innocent neighbours
    down with it.  Every worker, including those of a rebuilt pool,
    starts by capping its BLAS threads at ``budget`` (``None`` leaves
    them as inherited).
    """
    policy = state.policy
    queue: list[_Cell] = list(pending)
    running: dict[object, tuple[_Cell, float]] = {}

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=None if budget is None else blas.cap,
            initargs=(budget,))

    pool = new_pool()

    def restart_pool(reason: str, expired: set[int]) -> None:
        """Kill and rebuild the pool; triage every in-flight cell."""
        nonlocal pool
        obs.add("sweep.pool_restarts")
        obs.warning("sweep.pool_restart", reason=reason,
                    in_flight=len(running))
        _stop_pool(pool, force=True)
        now = time.perf_counter()
        victims = list(running.values())
        running.clear()
        for cell, submitted in victims:
            elapsed = now - submitted
            if cell.index in expired:
                if state.on_timeout(cell, elapsed):
                    queue.append(cell)
            elif reason == "deadline":
                # Innocent bystander of a deadline kill: the guilty
                # cell is known precisely, so re-queue without
                # consuming an attempt or a crash credit.
                cell.ready_at = 0.0
                queue.append(cell)
            else:
                if state.on_crash(cell, elapsed, reason):
                    queue.append(cell)
        pool = new_pool()

    def submit_eligible() -> bool:
        """Fill free slots; returns ``False`` when the pool broke."""
        now = time.perf_counter()
        suspect_in_flight = any(c.crashes for c, _ in running.values())
        position = 0
        while position < len(queue) and len(running) < workers:
            cell = queue[position]
            if cell.ready_at > now or (cell.crashes
                                       and suspect_in_flight):
                position += 1
                continue
            queue.pop(position)
            try:
                future = pool.submit(_guarded_execute,
                                     *state.execution(cell))
            except BrokenProcessPool:
                queue.insert(0, cell)
                return False
            running[future] = (cell, time.perf_counter())
            suspect_in_flight = suspect_in_flight or bool(cell.crashes)
        return True

    def wait_tick() -> float | None:
        """Longest safe sleep inside ``wait`` before the scheduler
        must look at deadlines or backoff wake-ups again."""
        now = time.perf_counter()
        ticks = []
        if policy.timeout is not None:
            ticks.extend(submitted + policy.timeout - now
                         for _, submitted in running.values())
        ticks.extend(cell.ready_at - now for cell in queue
                     if cell.ready_at > now)
        if not ticks:
            return None
        return min(max(0.01, min(ticks) + 0.01), _MAX_TICK)

    try:
        while queue or running:
            if state.tripped:
                for cell, _ in running.values():
                    state.abort(cell)
                for cell in queue:
                    state.abort(cell)
                running.clear()
                queue.clear()
                break
            if not submit_eligible():
                restart_pool("worker pool broke at submit", set())
                continue
            if not running:
                # Everything eligible is backing off; sleep until the
                # earliest wake-up.
                now = time.perf_counter()
                wake = min(cell.ready_at for cell in queue)
                time.sleep(min(max(0.0, wake - now), _MAX_TICK))
                continue
            done, _ = wait(set(running), timeout=wait_tick(),
                           return_when=FIRST_COMPLETED)
            broken: BaseException | None = None
            for future in done:
                cell, submitted = running.pop(future)
                exc = future.exception()
                if exc is not None:
                    # A dead worker poisons every in-flight future
                    # with BrokenProcessPool; fold this future's cell
                    # back into `running` so the restart triages the
                    # whole in-flight set uniformly.
                    broken = exc
                    running[future] = (cell, submitted)
                    continue
                result, error, transient, seconds, fragment = \
                    future.result()
                if error is None:
                    state.finish_ok(cell, result, seconds, fragment)
                elif state.on_error(cell, error, bool(transient),
                                    seconds, fragment):
                    queue.append(cell)
            if broken is not None:
                restart_pool(f"worker crashed: {broken!r}", set())
                continue
            if policy.timeout is not None and running:
                now = time.perf_counter()
                expired = {cell.index
                           for cell, submitted in running.values()
                           if now - submitted > policy.timeout}
                if expired:
                    restart_pool("deadline", expired)
    except KeyboardInterrupt:
        state.interrupted = True
        for future in running:
            future.cancel()
        _stop_pool(pool, force=True)
    else:
        _stop_pool(pool, force=False)


def _stop_pool(pool: ProcessPoolExecutor, force: bool) -> None:
    """Shut a pool down; ``force`` kills worker processes first (the
    deadline-enforcement path — a hung worker would never drain)."""
    if force:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # already reaped
                pass
    try:
        pool.shutdown(wait=not force, cancel_futures=True)
    except Exception:
        pass
