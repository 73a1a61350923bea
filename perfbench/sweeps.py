"""``sweep_fig7`` and ``audit_kernel``: grid cells through ``run_sweep``
into a cold ``file:`` store, then the tables ``repro sweep`` prints."""

from __future__ import annotations

import contextlib
import json
import time

from measure import (digest, instrument_layers, last_line, layer_metrics,
                     layer_seconds, median, result_payload, total_s)

from repro import engine, obs
from repro.api import SweepSpec
from repro.engine import Job, ResultCache, run_sweep
from repro.registry import APPROACHES

#: Per-cell phase spans recorded by the engine; together with the
#: executor's idle worker-seconds they partition a sweep's time.
PHASES = ("dataset", "error", "impute", "fit", "metrics", "audit")


class SweepWorkload:
    """Passes of one grid, each into a fresh cold store.

    A pass is ``run_sweep`` plus rendering its tables; passes
    repeat while another one fits in the run's seconds, and at least
    two run, because one pass can lose 10-15% to a few seconds of
    contention from outside the run.
    """

    workers = 1
    min_passes = 2

    def __init__(self, seed: int, work):
        self.seed = seed
        self.work = work
        self.passes = 0

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def setup(self) -> None:
        self.grid = self.jobs()

    def close(self) -> None:
        pass

    def _render(self, outcomes) -> str:
        """The tables ``repro sweep`` prints: one per dataset (looked
        up on the module, so a traced pass times them)."""
        return "\n\n".join(
            engine.grid_table(outcomes, dataset=dataset, title=dataset)
            for dataset in dict.fromkeys(job.dataset for job in self.grid))

    def _pass(self, trace=None):
        """One cold sweep and its tables; with a ``trace`` collector the
        rendering is recorded too."""
        self.passes += 1
        cache = ResultCache(self.work / f"store-{self.passes}")
        start = time.perf_counter()
        report = run_sweep(self.grid, cache=cache,
                           max_workers=self.workers, trace=trace)
        sweep_s = time.perf_counter() - start
        with (obs.recording() if trace is not None
              else contextlib.nullcontext()) as rendering:
            self._render(report.outcomes)
        wall = time.perf_counter() - start
        problems = [f"{o.job.label()}: {last_line(o.error)}"
                    for o in report.failures]
        missing = len(self.grid) - report.computed_count
        if missing and not problems:
            problems.append(f"{missing} cells not computed")
        return {"cache": cache, "report": report, "sweep_s": sweep_s,
                "wall": wall, "failed": missing, "problems": problems,
                "render_spans": [] if rendering is None else rendering.spans,
                "digest": digest([[o.job.label(), result_payload(o.result)]
                                  for o in report.outcomes if o.ok])}

    def _warm_check(self, cache) -> list[str]:
        """A re-run over the filled store must compute nothing."""
        warm = run_sweep(self.grid, cache=cache, max_workers=self.workers)
        if warm.computed_count or warm.cached_count != len(self.grid):
            return [f"warm re-run computed {warm.computed_count} and "
                    f"reused {warm.cached_count} of {len(self.grid)} "
                    "cells"]
        return []

    def run(self, seconds: float) -> dict:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self._pass())
            walls = [p["wall"] for p in passes]
            if (len(passes) >= self.min_passes and time.perf_counter()
                    - start + median(walls) > seconds):
                break
        # Two checks beside the cells: the warm re-run, and equal
        # results from every pass.
        checks = self._warm_check(passes[-1]["cache"])
        digests = {p["digest"] for p in passes}
        if len(digests) > 1:
            checks.append(f"results differ between passes: {digests}")
        cells = len(self.grid)
        rates = [p["report"].computed_count / p["wall"] for p in passes]
        return {
            "detail": [["cells_per_s", median(rates), "1/s", len(rates),
                        "throughput_per_s"],
                       ["sweep_ms", median(walls) * 1e3, "ms", len(walls),
                        "op_p50_ms"]],
            "attempted": cells * len(passes) + 2,
            "failed": sum(p["failed"] for p in passes) + len(checks),
            "problems": [m for p in passes for m in p["problems"]]
            + checks,
            "digest": passes[0]["digest"],
            "plan": {"wall": median(walls), "digest": passes[0]["digest"]},
        }

    def trace(self, plan: dict) -> dict:
        instrument_layers()
        collector = obs.TraceCollector(env={})
        done = self._pass(trace=collector)
        cells = [c for c in collector.cells if c["fragment"] is not None]
        spans = [s for c in cells for s in c["fragment"]["spans"]]
        phase_s = sum(s["dur"] for s in spans
                      if s["depth"] == 1 and s["name"] in PHASES)
        spans += [s for scope in collector.scopes
                  for s in scope["fragment"]["spans"]]
        cell_s = sum(c["elapsed"] for c in cells)
        worker_s = self.workers * done["sweep_s"]
        render_s = done["wall"] - done["sweep_s"]
        rendered = done["render_spans"]
        layers = layer_metrics(spans, collector.counters())
        # The stored results carry the wall-clock fit_seconds, whose
        # digits vary from run to run; without them the count is exact.
        layers["cache.bytes_written"] -= sum(
            len(json.dumps(o.result.fit_seconds))
            for o in done["report"].outcomes if o.ok and not o.cached)
        layers.update({
            "executor.busy_share": cell_s / worker_s,
            "report.render_ms": total_s(rendered, "bench.report.render")
            * 1e3,
            # Worker-seconds outside every cell are the executor's
            # (pool start, scheduling, idle tail, parent-side store
            # I/O), so cell time outside the phase spans and render
            # time outside the tables are what is unattributed.
            "unattributed_share": (cell_s - phase_s + render_s
                                   - layer_seconds(rendered))
            / (worker_s + render_s),
            "obs.trace_overhead_pct": (done["wall"] / plan["wall"] - 1)
            * 100,
        })
        checks = ([] if done["digest"] == plan["digest"]
                  else ["traced results differ from the timed run's"])
        return {"layers": layers, "attempted": len(self.grid) + 1,
                "failed": done["failed"] + len(checks),
                "problems": done["problems"] + checks}


class Fig7Sweep(SweepWorkload):
    """The Fig. 7 grid at the machine's parallelism (2 workers).

    The grid is the figure's protocol exactly as
    ``benchmarks/bench_fig07_correctness_fairness.py`` builds it at its
    default scale, including its single seed 0, so the workload seed
    does not change it: a different grid seed changes how long the
    iterative fits run (15.3-20.1 cell-seconds over grid seeds 0-16),
    which would swamp every bound.
    """

    workers = 2
    rows = {"adult": 4000, "compas": 4000, "german": 1000}
    causal_samples = 4000

    def jobs(self) -> list[Job]:
        jobs = []
        for dataset, rows in self.rows.items():
            spec = SweepSpec(
                datasets=[dataset],
                approaches=[None, *APPROACHES.keys(group="main")],
                rows=[rows], causal_samples=self.causal_samples,
                seeds=[0])
            jobs.extend(spec.to_grid().expand())
        return jobs


class AuditKernel(SweepWorkload):
    """Three compas cells at 20,000 rows whose time is k-NN prediction,
    k-NN imputation and batched abduction; serial, so the pool's
    slowest cell cannot hide a kernel gain."""

    def jobs(self) -> list[Job]:
        base = {"dataset": "compas", "rows": 20000, "seed": self.seed}
        return [
            Job(model="knn", **base),
            Job(approach="Hardt-eo", error="missing", imputer="knn",
                **base),
            Job(approach="Hardt-eo", audit="counterfactual",
                audit_params={"max_rows": None, "n_particles": 100},
                **base),
        ]
