"""BLAS thread control: the runtime setters, the per-worker budget, and
results that do not depend on the BLAS thread count."""

import json
import re

import pytest

import repro.engine.executor as executor_module
from repro import blas, obs
from repro.datasets import train_test_split
from repro.engine import Job, ScenarioGrid, run_sweep
from repro.fairness.postprocessing import Hardt
from repro.fairness.preprocessing import KamCal
from repro.models.logistic import LogisticRegression
from repro.pipeline import ComposedPipeline, FairPipeline, result_to_dict
from repro.registry import DATASETS

GRID = ScenarioGrid(datasets=["german"], approaches=[None, "Hardt-eo"],
                    seeds=[0], rows=[300], causal_samples=200)


@pytest.fixture
def two_threads(monkeypatch):
    """Every OpenBLAS at 2 threads for the test (restored after), with
    no BLAS thread variable set."""
    for var in blas.ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    before = blas.threads()
    if before is None:
        pytest.skip("no settable OpenBLAS found")
    blas.set_threads(2)
    try:
        if blas.threads() < 2:
            pytest.skip("OpenBLAS reads back fewer than 2 threads")
        yield 2
    finally:
        blas.set_threads(before)


def without_timing(result) -> str:
    """A result as JSON without its wall-clock field (NaN metrics
    compare equal this way)."""
    record = result_to_dict(result)
    record.pop("fit_seconds")
    return json.dumps(record, sort_keys=True)


def worker_threads(report) -> list[int]:
    """The BLAS counts the stub in :func:`report_threads` raised with."""
    return [int(re.search(r"blas=(\d+)", o.error).group(1))
            for o in report.outcomes]


def report_threads(job):
    raise RuntimeError(f"blas={blas.threads()}")


class TestBudget:
    @pytest.mark.parametrize("cpus, workers, expected", [
        (2, 2, 1), (2, 4, 1), (2, 1, 2), (8, 2, 4), (16, 2, 8),
        (1, 1, 1), (1, 3, 1)])
    def test_arithmetic(self, cpus, workers, expected):
        assert blas.budget(cpus, workers) == expected

    def test_never_zero(self):
        assert min(blas.budget(c, w) for c in range(1, 9)
                   for w in range(1, 9)) == 1


class TestRuntimeControl:
    def test_limited_caps_and_restores(self, two_threads):
        with blas.limited(1):
            assert blas.threads() == 1
            with blas.limited(4):  # a cap never raises a count
                assert blas.threads() == 1
            assert blas.threads() == 1
        assert blas.threads() == 2

    def test_cap_never_raises(self, two_threads):
        blas.cap(8)
        assert blas.threads() == 2
        blas.cap(1)
        assert blas.threads() == 1

    def test_fit_runs_at_one_thread_and_restores(self, two_threads):
        seen = []

        class Recording(LogisticRegression):
            def fit(self, X, y, *args, **kwargs):
                seen.append(blas.threads())
                return super().fit(X, y, *args, **kwargs)

        split = train_test_split(DATASETS.build("german", n=300, seed=0),
                                 seed=0)
        FairPipeline(None, model=Recording()).fit(split.train)
        assert seen == [1]
        assert blas.threads() == 2

    def test_composed_fit_runs_at_one_thread_and_restores(self,
                                                          two_threads):
        seen = []

        class Recording(LogisticRegression):
            def fit(self, X, y, *args, **kwargs):
                seen.append(blas.threads())
                return super().fit(X, y, *args, **kwargs)

        split = train_test_split(DATASETS.build("german", n=300, seed=0),
                                 seed=0)
        ComposedPipeline(pre=KamCal(seed=0), post=Hardt(),
                         model=Recording(), seed=0).fit(split.train)
        assert seen == [1, 1]  # the held-out fit, then the refit
        assert blas.threads() == 2


class TestResultsIgnoreBlasThreads:
    THOMAS = Job(dataset="adult", approach="Thomas-dp", rows=4000, seed=0,
                 causal_samples=200)

    def test_in_process_flip(self, two_threads):
        results = []
        for n in (1, 2):
            blas.set_threads(n)
            assert blas.threads() == n
            results.append(without_timing(
                executor_module.execute_job(self.THOMAS)))
        assert results[0] == results[1]

    def test_serial_equals_two_workers(self, two_threads):
        jobs = ScenarioGrid(datasets=["adult"],
                            approaches=["Thomas-dp", "Thomas-eo"],
                            rows=[4000], seeds=[0],
                            causal_samples=200).expand()
        serial = run_sweep(jobs, max_workers=1)
        pooled = run_sweep(jobs, max_workers=2)
        assert not serial.failures and not pooled.failures
        assert ([without_timing(r) for r in serial.results]
                == [without_timing(r) for r in pooled.results])


class TestWorkerBudget:
    def expected(self, parent: int) -> int:
        return min(parent, blas.budget(blas.usable_cpus(), 2))

    def test_workers_run_at_the_budget(self, two_threads, monkeypatch):
        monkeypatch.setattr(executor_module, "execute_job", report_threads)
        report = run_sweep(GRID.expand(), max_workers=2)
        assert worker_threads(report) == [self.expected(2)] * 2
        assert blas.threads() == 2  # the parent keeps its own count

    def test_rebuilt_pool_runs_at_the_budget(self, two_threads,
                                             monkeypatch):
        monkeypatch.setattr(executor_module, "execute_job", report_threads)
        with obs.recording() as rec:
            report = run_sweep(GRID.expand(), max_workers=2,
                               chaos="kill:Hardt@0")
        assert rec.snapshot()["counters"]["sweep.pool_restarts"] >= 1
        assert report.outcomes[1].attempts[0].kind == "crash"
        assert worker_threads(report) == [self.expected(2)] * 2

    def test_explicit_env_keeps_the_parent_count(self, two_threads,
                                                 monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setattr(executor_module, "execute_job", report_threads)
        report = run_sweep(GRID.expand(), max_workers=2)
        assert worker_threads(report) == [2, 2]
