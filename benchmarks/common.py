"""Shared benchmark configuration and helpers.

Every paper table/figure has one bench module.  Benches run at reduced
scale by default so ``pytest benchmarks/ --benchmark-only`` finishes on
a laptop; set ``REPRO_FULL=1`` for paper-scale sweeps.  Each bench
prints the rows/series the corresponding figure reports and also writes
them under ``benchmarks/out/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib
import time

FULL = os.environ.get("REPRO_FULL", "") == "1"

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Worker processes for engine-driven sweeps (1 = serial timing runs).
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

#: Content-addressed cache shared by all engine-driven benches; a
#: re-run of a bench refits nothing that already finished.  Set
#: ``REPRO_NO_CACHE=1`` for cold-cache timing.
CACHE_DIR = OUT_DIR / "cache"

#: Per-dataset sample sizes (reduced / paper-scale).
SIZES = {
    "adult": 31000 if FULL else 4000,
    "compas": 7200 if FULL else 4000,
    "german": 1000,
}

#: Monte-Carlo samples for the interventional causal metrics.
CAUSAL_SAMPLES = 20000 if FULL else 4000

#: Smaller sizes for the 5-fold cross-validation sweep (it multiplies
#: every run by the number of folds).
CV_SIZES = {
    "adult": 31000 if FULL else 2500,
    "compas": 7200 if FULL else 2500,
    "german": 1000 if FULL else 800,
}


def machine_block() -> dict:
    """The machine a ``BENCH_*.json`` record ran on: interpreter, numpy,
    platform, CPU count and usable CPUs, and each loaded OpenBLAS with
    its live thread count."""
    import platform

    import numpy as np

    from repro import blas

    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "usable_cpus": blas.usable_cpus(),
            "blas_runtime": blas.runtime()}


def emit(name: str, text: str) -> str:
    """Print a bench's table and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def load_sized(dataset_name: str, seed: int = 0):
    from repro.registry import DATASETS

    return DATASETS.build(dataset_name, n=SIZES[dataset_name], seed=seed)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_grid(grid):
    """Sweep a scenario grid through the engine with the shared bench
    cache; raises if any cell failed so benches can't silently report
    partial figures."""
    return run_jobs(grid.expand())


def run_jobs(jobs):
    """:func:`run_grid` for a hand-built job list."""
    from repro.engine import ResultCache, run_sweep

    cache = (None if os.environ.get("REPRO_NO_CACHE", "") == "1"
             else ResultCache(CACHE_DIR))
    report = run_sweep(jobs, cache=cache, max_workers=JOBS)
    if report.failures:
        details = "\n".join(f"{o.job.label()}:\n{o.error}"
                            for o in report.failures)
        raise RuntimeError(f"{len(report.failures)} grid cells failed:\n"
                           f"{details}")
    return report


# ----------------------------------------------------------------------
# BENCH_* records: timing and the baseline gate
# ----------------------------------------------------------------------
def timed(fn):
    """``(seconds, result)`` of one ``fn()`` call."""
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def comparable(run: dict, baseline: dict, keys, note: str) -> bool:
    """Whether a run and its baseline record agree on every setting in
    ``keys``.  When they differ, ``note`` is printed: the gate skips
    loudly instead of passing vacuously."""
    if all(baseline.get(key) == run.get(key) for key in keys):
        return True
    print(note)
    return False


def floors(run: dict, baseline: dict, pairs, slack: float,
           label: str = "{0}: {1}", digits: int = 0,
           unit: str = "") -> list[str]:
    """One problem line for every ``results[section][name]`` pair that
    fell below the baseline's value × ``slack``."""
    problems = []
    for section, name in pairs:
        current = run["results"][section][name]
        reference = baseline["results"][section][name]
        if current < reference * slack:
            problems.append(
                f"{label.format(section, name)} {current:.{digits}f}"
                f"{unit} is below {slack:.0%} of the baseline's "
                f"{reference:.{digits}f}{unit}")
    return problems


def exit_on_regression(problems: list[str], baseline, slack: float) -> None:
    """End an ``--assert-no-regression`` run: exit non-zero with every
    problem line, or print that the run held against ``baseline``."""
    if problems:
        raise SystemExit(f"PERF REGRESSION vs {baseline}:\n  "
                         + "\n  ".join(problems))
    print(f"no regression vs {baseline} (slack {slack:.0%})")
