"""Perf benchmark: the report path over the result-store backends.

Fills a file cache and a SQLite cache with the same synthetic sweep
(deterministic results derived from each cell's fingerprint — no
model fitting, so the numbers isolate store and report costs), then
measures the store and report surface both ways:

* **fill** — one ``put`` per cell into a fresh store.
* **load-outcomes** — materializing every cell as a ``JobOutcome``
  (what ``repro report`` tables consume).  The file store stats and
  parses one JSON shard per cell; the SQLite store scans one table.
* **pivot** — ``approach × rows`` pivot of one metric over the loaded
  outcomes.
* **where-filter** — a one-axis ``--where`` selection; the SQLite
  store decodes only the rows it matches.

Results go to ``BENCH_report.json`` — the repo's perf-trajectory
record for this path — with the ``store.rows`` counter from an
instrumented fill embedded for the CI counter gate.

Run:  PYTHONPATH=src python benchmarks/bench_report.py
      (--cells 120 --out BENCH_report.ci.json for the CI smoke
      variant)

``--assert-no-regression BASELINE.json`` holds the SQLite fill rate and
both load rates to ``--regression-slack`` of the committed baseline's,
gated on a matching cell count so a configuration drift is skipped
loudly rather than compared meaninglessly.  A violation exits
non-zero so CI fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib

from common import (comparable, exit_on_regression, floors, machine_block,
                    timed)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_report.json"


def synth_result(job):
    from repro.pipeline import EvaluationResult

    seed = int(job.fingerprint[:12], 16)

    def v(shift: int) -> float:
        return ((seed >> shift) % 997) / 997.0

    return EvaluationResult(
        approach=job.approach_label, dataset=job.dataset, stage="bench",
        accuracy=v(0), precision=v(3), recall=v(5), f1=v(7),
        di_star=v(9), tprb=v(11), tnrb=v(13), id=v(15), te=v(17),
        nde=v(19), nie=v(21), raw={"di": v(2)},
        fit_seconds=0.05 + v(6))


def grid_jobs(cells: int):
    """A grid of at least ``cells`` cells (seeds × approaches × rows),
    truncated to exactly ``cells``."""
    from repro.engine import ScenarioGrid

    approaches = [None, "Hardt-eo", "Feld-dp", "Celis-pp"]
    rows = [300, 600, 1200]
    seeds = list(range(max(1, -(-cells // (len(approaches)
                                           * len(rows))))))
    grid = ScenarioGrid(datasets=["german"], approaches=approaches,
                        seeds=seeds, rows=rows, causal_samples=200)
    return grid.expand()[:cells]


def fill(cache, jobs) -> float:
    """Seconds to put every job's result.  The store is then written
    back untimed, or its dirty pages are flushed inside a later timed
    step (the other backend's fill, or a load)."""
    from repro import obs

    with obs.recording() as rec:
        elapsed, _ = timed(lambda: [cache.put(job, synth_result(job))
                                    for job in jobs])
    assert rec.counters.get("store.rows") == len(jobs)
    os.sync()
    return elapsed


def bench_cache(cache, jobs, repeats: int) -> dict:
    """Load/pivot/filter wall times for one backend (best of
    ``repeats``, so a cold page cache or a GC pause does not write the
    record)."""
    def best(fn):
        return min(timed(fn)[0] for _ in range(repeats))

    load_s = best(lambda: cache.outcomes())
    pivot_s = best(lambda: cache.pivot(index="approach", columns="rows",
                                       value="accuracy"))
    where_s = best(lambda: cache.outcomes(where={"seed": 0}))
    n = len(jobs)
    return {
        "load_outcomes_s": round(load_s, 4),
        "load_cells_per_s": round(n / load_s, 1),
        "pivot_s": round(pivot_s, 4),
        "pivot_cells_per_s": round(n / pivot_s, 1),
        "where_filter_s": round(where_s, 4),
    }


def check_regression(payload: dict, baseline_path: pathlib.Path,
                     slack: float) -> list[str]:
    """Rate floors vs a baseline record, gated on the cell count."""
    baseline = json.loads(baseline_path.read_text())
    if not comparable(payload, baseline, ("cells",),
                      "note: report rate checks skipped — run/baseline "
                      f"cell counts differ (run {payload.get('cells')} "
                      f"vs baseline {baseline.get('cells')})"):
        return []
    return floors(payload, baseline, (("sqlite", "fill_cells_per_s"),
                                      ("sqlite", "load_cells_per_s"),
                                      ("file", "load_cells_per_s")),
                  slack)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=600,
                        help="synthetic sweep cells per backend")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--assert-no-regression", type=pathlib.Path,
                        default=None, metavar="BASELINE",
                        help="fail if report rates fall below "
                             "--regression-slack of this record's")
    parser.add_argument("--regression-slack", type=float, default=0.4,
                        help="fraction of the baseline rate that must "
                             "be retained (default 0.4)")
    args = parser.parse_args(argv)

    import tempfile

    from repro.engine import ResultCache

    jobs = grid_jobs(args.cells)
    print(f"filling both stores with {len(jobs)} synthetic cells ...",
          flush=True)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        stores = {
            "file": ResultCache(pathlib.Path(tmp) / "cache"),
            "sqlite": ResultCache(
                f"sqlite:{pathlib.Path(tmp) / 'cells.db'}"),
        }
        fill_s = {name: fill(cache, jobs)
                  for name, cache in stores.items()}
        parity = None
        for name, cache in stores.items():
            stats = bench_cache(cache, jobs, args.repeats)
            stats["fill_s"] = round(fill_s[name], 4)
            stats["fill_cells_per_s"] = round(len(jobs) / fill_s[name], 1)
            results[name] = stats
            print(f"  {name:>6}: fill {stats['fill_cells_per_s']:.0f} "
                  f"cells/s  load {stats['load_cells_per_s']:.0f} cells/s  "
                  f"pivot {stats['pivot_cells_per_s']:.0f} cells/s",
                  flush=True)
            table = cache.pivot(index="approach", columns="rows",
                                value="accuracy")
            if parity is None:
                parity = table
            assert table == parity, "backends disagree on the pivot"

    payload = {
        "bench": "report_backends",
        "schema": 1,
        "cells": len(jobs),
        "repeats": args.repeats,
        "machine": machine_block(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.assert_no_regression is not None:
        problems = check_regression(payload, args.assert_no_regression,
                                    args.regression_slack)
        exit_on_regression(problems, args.assert_no_regression,
                           args.regression_slack)


if __name__ == "__main__":
    main()
