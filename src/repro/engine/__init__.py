"""Parallel sweep engine: declarative scenario grids, process-pool
execution, and content-addressed result caching.

The paper's figures are grids — (dataset × approach × model × error ×
seed) — and this subsystem is the one way to run them:

* :mod:`~repro.engine.spec` — :class:`ScenarioGrid` declares the grid
  and expands it to fingerprinted :class:`Job` cells.
* :mod:`~repro.engine.cache` — :class:`ResultCache` skips any cell
  whose fingerprint already has a stored result.
* :mod:`~repro.engine.backend` — pluggable result-store backends
  behind the cache (``file:DIR`` sharded JSON, ``sqlite:PATH`` one
  row per cell in a single database) with compaction and cross-host
  merge.
* :mod:`~repro.engine.executor` — :func:`run_sweep` executes cells
  over a process pool with failure isolation and progress/ETA.
* :mod:`~repro.engine.resilience` — :class:`RetryPolicy` adds retries
  with deterministic backoff, per-cell deadlines, pool-crash recovery
  with quarantine, and a circuit breaker.
* :mod:`~repro.engine.chaos` — :class:`FaultPlan` injects
  deterministic faults (errors, hangs, worker kills, shard
  corruption) at exact ``(cell, attempt)`` points for resilience
  testing.
* :mod:`~repro.engine.report` — pivots a finished grid into the
  per-figure tables, filters outcomes by any axis, and exports flat
  records; together with :meth:`ResultCache.outcomes` it turns a
  result store into a query surface (``repro report``).
"""

from .backend import (FileBackend, SqlBackend, StoreBackend,
                      parse_store)
from .cache import (CacheProblem, CompactStats, MergeStats,
                    ResultCache)
from .chaos import Fault, FaultPlan
from .executor import (JobOutcome, SweepProgress, SweepReport, cell_attrs,
                       execute_job, run_sweep)
from .resilience import (Attempt, RetryPolicy, TransientError,
                         classify_exception)
from .report import (aggregate_over_seeds, cell_key, export_csv,
                     export_json, filter_outcomes, format_pivot_table,
                     grid_slices, grid_table, group_outcomes,
                     mean_result, outcome_records, overhead_series,
                     pivot)
from .spec import (AUDITS, BASELINE_ALIASES, SPEC_VERSION, Job,
                   ScenarioGrid, job_from_params)

__all__ = [
    "AUDITS", "BASELINE_ALIASES", "Job", "ScenarioGrid", "SPEC_VERSION",
    "job_from_params",
    "CacheProblem", "CompactStats", "MergeStats", "ResultCache",
    "FileBackend", "SqlBackend", "StoreBackend", "parse_store",
    "JobOutcome", "SweepProgress", "SweepReport", "cell_attrs",
    "execute_job", "run_sweep",
    "Attempt", "RetryPolicy", "TransientError", "classify_exception",
    "Fault", "FaultPlan",
    "aggregate_over_seeds", "cell_key", "grid_table", "group_outcomes",
    "mean_result", "overhead_series", "pivot",
    "filter_outcomes", "outcome_records", "export_json", "export_csv",
    "format_pivot_table", "grid_slices",
]
