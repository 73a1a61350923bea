"""Engine integration: traced sweeps, serial/parallel parity, cache
corruption surfacing."""

import logging

import pytest

from repro import blas, obs
from repro.engine import Job, ResultCache, run_sweep
from repro.engine.spec import ScenarioGrid


def small_jobs():
    return ScenarioGrid(datasets=["compas"], rows=[300],
                        errors=[None, "missing"], imputers=[None, "mean"],
                        seeds=[0], causal_samples=300).expand()


def traced_run(jobs, tmp_path, name, max_workers=1):
    collector = obs.TraceCollector(env={"repro": "t"})
    cache = ResultCache(tmp_path / name)
    report = run_sweep(jobs, cache=cache, max_workers=max_workers,
                       trace=collector)
    return report, collector


class TestTracedSweep:
    def test_fragments_attached_and_check_passes(self, tmp_path):
        jobs = small_jobs()
        report, collector = traced_run(jobs, tmp_path, "serial")
        executed = [o for o in report.outcomes if not o.cached]
        assert executed and all(o.trace is not None for o in executed)
        trace = obs.load_trace(collector.write(tmp_path / "trace"))
        assert obs.check_trace(trace) == []
        computed = [c for c in trace["cells"]
                    if not c["cached"] and not c["failed"]]
        for cell in computed:
            names = {s["name"] for s in cell["spans"]}
            assert {"cell", "dataset", "fit", "metrics"} <= names
            if cell["attrs"].get("imputer"):
                assert "impute" in names
            if cell["attrs"].get("error"):
                assert "error" in names

    def test_cell_attrs_carry_grid_axes(self, tmp_path):
        report, collector = traced_run(small_jobs(), tmp_path, "attrs")
        by_label = {c["label"]: c for c in collector.cells}
        for outcome in report.outcomes:
            attrs = by_label[outcome.job.label()]["attrs"]
            assert attrs["dataset"] == outcome.job.dataset
            assert attrs["fingerprint"] == outcome.job.fingerprint

    def test_cached_cells_have_no_fragments(self, tmp_path):
        jobs = [Job(dataset="compas", approach=None, rows=300,
                    causal_samples=300)]
        run_sweep(jobs, cache=ResultCache(tmp_path / "c"))
        report, collector = traced_run(jobs, tmp_path, "c")
        assert report.cached_count == 1
        (cell,) = collector.cells
        assert cell["cached"] and cell["fragment"] is None
        # parent-side cache probe still counted in the sweep scope
        assert collector.counters().get("cache.hits") == 1

    def test_untraced_sweep_records_nothing(self, tmp_path):
        jobs = [Job(dataset="compas", approach=None, rows=300,
                    causal_samples=300)]
        report = run_sweep(jobs, cache=ResultCache(tmp_path / "u"))
        assert report.outcomes[0].trace is None
        assert not obs.enabled()

    def test_failed_cell_ships_partial_fragment(self, tmp_path):
        # missing-error cells without an imputer fail on NaNs; the
        # spans closed before the failure must still arrive
        jobs = [job for job in small_jobs()
                if job.error is not None and job.imputer is None]
        report, collector = traced_run(jobs, tmp_path, "fail")
        (outcome,) = report.outcomes
        assert not outcome.ok and outcome.trace is not None
        names = [s["name"] for s in outcome.trace["spans"]]
        assert "dataset" in names and "cell" in names
        (cell,) = collector.cells
        assert cell["failed"]


class TestSerialParallelParity:
    def test_same_trace_structure_and_counters(self, tmp_path):
        jobs = small_jobs()
        _, serial = traced_run(jobs, tmp_path, "s", max_workers=1)
        _, parallel = traced_run(jobs, tmp_path, "p", max_workers=2)

        def shape(collector):
            cells = {}
            for cell in collector.cells:
                fragment = cell["fragment"]
                cells[cell["label"]] = {
                    "spans": sorted(s["name"]
                                    for s in fragment["spans"]),
                    "counters": fragment["counters"],
                    "failed": cell["failed"],
                } if fragment is not None else None
            return cells

        assert shape(serial) == shape(parallel)
        # byte counts differ by a few digits (the stored fit wall time
        # is not deterministic); everything else must match exactly
        s_counters, p_counters = serial.counters(), parallel.counters()
        assert s_counters.pop("cache.bytes_written") > 0
        assert p_counters.pop("cache.bytes_written") > 0
        assert s_counters == p_counters


class TestSweepSpanThreadMap:
    """The ``sweep`` span records processes × BLAS threads."""

    @staticmethod
    def sweep_attrs(collector) -> dict:
        (scope,) = collector.scopes
        (span,) = [s for s in scope["fragment"]["spans"]
                   if s["name"] == "sweep"]
        return span["attrs"]

    def test_pool_and_inline_budgets(self, tmp_path, monkeypatch):
        for var in blas.ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        cpus = blas.usable_cpus()
        _, pooled = traced_run(small_jobs(), tmp_path, "p", max_workers=2)
        attrs = self.sweep_attrs(pooled)
        assert attrs["workers"] == 2
        assert attrs["blas_threads"] == blas.budget(cpus, 2)
        _, serial = traced_run(small_jobs(), tmp_path, "s")
        attrs = self.sweep_attrs(serial)
        assert attrs["workers"] == 1
        assert attrs["blas_threads"] == blas.budget(cpus, 1)
        # The pool is as wide as the pending cells, not max_workers.
        _, narrow = traced_run(small_jobs()[:2], tmp_path, "n",
                               max_workers=4)
        attrs = self.sweep_attrs(narrow)
        assert attrs["workers"] == 2
        assert attrs["blas_threads"] == blas.budget(cpus, 2)
        _, cached = traced_run(small_jobs()[:2], tmp_path, "n",
                               max_workers=4)
        assert self.sweep_attrs(cached)["workers"] == 0

    def test_explicit_env_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        _, collector = traced_run(small_jobs()[:1], tmp_path, "env")
        assert self.sweep_attrs(collector)["blas_threads"] == "env"


class TestCacheCorruption:
    def test_corrupt_shard_warns_and_counts(self, tmp_path, caplog):
        job = Job(dataset="compas", approach=None, rows=300,
                  causal_samples=300)
        cache = ResultCache(tmp_path / "cache")
        run_sweep([job], cache=cache)
        shard = (tmp_path / "cache" / job.fingerprint[:2]
                 / f"{job.fingerprint}.json")
        assert shard.exists()
        shard.write_text("{definitely not json")

        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            with obs.recording() as rec:
                assert cache.get(job) is None  # miss, not a crash
        assert rec.counters.get("cache.corrupt") == 1
        assert rec.counters.get("cache.misses") == 1
        (event,) = rec.events
        assert event["name"] == "cache.corrupt"
        assert event["attrs"]["path"] == str(shard)
        assert "reason" in event["attrs"]
        assert str(shard) in caplog.text

    def test_corrupt_shard_warns_without_recorder(self, tmp_path, caplog):
        job = Job(dataset="compas", approach=None, rows=300,
                  causal_samples=300)
        cache = ResultCache(tmp_path / "cache")
        run_sweep([job], cache=cache)
        shard = (tmp_path / "cache" / job.fingerprint[:2]
                 / f"{job.fingerprint}.json")
        shard.write_text("[]")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            assert cache.get(job) is None
        assert "cache.corrupt" in caplog.text

    def test_entries_skips_and_warns_on_corruption(self, tmp_path):
        job = Job(dataset="compas", approach=None, rows=300,
                  causal_samples=300)
        cache = ResultCache(tmp_path / "cache")
        run_sweep([job], cache=cache)
        shard = (tmp_path / "cache" / job.fingerprint[:2]
                 / f"{job.fingerprint}.json")
        shard.write_text("{broken")
        with obs.recording() as rec:
            assert list(cache.entries()) == []
        assert rec.counters.get("cache.corrupt") == 1

    def test_plain_miss_is_not_corruption(self, tmp_path):
        job = Job(dataset="compas", approach=None, rows=300,
                  causal_samples=300)
        with obs.recording() as rec:
            assert ResultCache(tmp_path / "empty").get(job) is None
        assert rec.counters == {"cache.misses": 1}
        assert rec.events == []

    def test_hits_and_bytes_counted(self, tmp_path):
        job = Job(dataset="compas", approach=None, rows=300,
                  causal_samples=300)
        cache = ResultCache(tmp_path / "cache")
        with obs.recording() as rec:
            run_sweep([job], cache=cache)
            assert cache.get(job) is not None
        assert rec.counters.get("cache.hits") == 1
        assert rec.counters.get("cache.bytes_written", 0) > 0


class TestKernelCounters:
    def test_pairwise_and_abduction_counters_flow(self, tmp_path):
        jobs = ScenarioGrid(datasets=["compas"], rows=[300], seeds=[0],
                            causal_samples=200, audit="counterfactual",
                            audit_params={"n_particles": 5,
                                          "max_rows": 20,
                                          "n_samples": 200}).expand()
        _, collector = traced_run(jobs, tmp_path, "audit")
        counters = collector.counters()
        assert counters.get("abduction.chunks", 0) >= 1
        assert counters.get("abduction.rows", 0) == 20
        assert counters.get("audit.rows", 0) >= 20

    def test_imputer_counter_flows(self, tmp_path):
        jobs = ScenarioGrid(datasets=["compas"], rows=[300], seeds=[0],
                            errors=["missing"], imputers=["mean"],
                            causal_samples=200).expand()
        _, collector = traced_run(jobs, tmp_path, "imp")
        assert collector.counters().get("impute.cells", 0) > 0
