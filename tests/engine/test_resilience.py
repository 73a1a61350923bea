"""Retry policy, attempt histories, breaker, and graceful degradation.

Process-level resilience (deadlines, pool crashes, quarantine) lives
in ``test_chaos.py`` — everything here runs inline, driving the retry
machinery through monkeypatched ``execute_job`` failures.
"""

import json

import pytest

import repro.engine.executor as executor_module
from repro.engine import (Attempt, ResultCache, RetryPolicy,
                          ScenarioGrid, TransientError,
                          classify_exception, run_sweep)
from repro.pipeline import result_to_dict

GRID = ScenarioGrid(datasets=["german"], approaches=[None, "Hardt-eo"],
                    seeds=[0, 1], rows=[300], causal_samples=200)


def metric_dicts(results):
    """Serialised results with the wall-clock timing field dropped."""
    dicts = [result_to_dict(r) for r in results]
    for d in dicts:
        d.pop("fit_seconds")
    return [json.dumps(d, sort_keys=True) for d in dicts]


class TestClassification:
    @pytest.mark.parametrize("exc", [
        TransientError("flaky"), OSError("disk"), MemoryError(),
        TimeoutError(), EOFError(), ConnectionResetError("peer")])
    def test_transient_shapes(self, exc):
        assert classify_exception(exc) == "transient"

    @pytest.mark.parametrize("exc", [
        ValueError("bad spec"), KeyError("missing"), RuntimeError("x"),
        AssertionError(), ZeroDivisionError()])
    def test_deterministic_shapes(self, exc):
        assert classify_exception(exc) == "deterministic"


class TestRetryPolicy:
    def test_defaults_are_the_historical_behaviour(self):
        policy = RetryPolicy()
        assert not policy.should_retry_error(True, 1)
        assert not policy.should_retry_timeout(1)
        assert policy.should_retry_crash(1)  # pool rebuild re-queues
        assert not policy.tripped(10 ** 6)

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.5)
        assert policy.backoff_seconds(0) == 0.0
        assert policy.backoff_seconds(1) == 0.5
        assert policy.backoff_seconds(2) == 1.0
        assert policy.backoff_seconds(3) == 2.0
        assert RetryPolicy(max_attempts=4).backoff_seconds(3) == 0.0

    def test_transient_retries_deterministic_fails_fast(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry_error(True, 1)
        assert policy.should_retry_error(True, 2)
        assert not policy.should_retry_error(True, 3)
        assert not policy.should_retry_error(False, 1)

    def test_breaker_thresholds(self):
        assert RetryPolicy(max_failures=0).tripped(1)
        assert not RetryPolicy(max_failures=2).tripped(2)
        assert RetryPolicy(max_failures=2).tripped(3)

    @pytest.mark.parametrize("fields", [
        {"max_attempts": 0}, {"backoff": -1.0}, {"timeout": 0},
        {"timeout": -5}, {"max_failures": -1},
        {"timeout": float("nan")}, {"backoff": float("inf")},
        {"timeout": float("inf")}, {"backoff": float("nan")},
        {"max_attempts": 2.5}, {"max_attempts": True},
        {"max_failures": 1.5}, {"timeout": "5"}])
    def test_validation(self, fields):
        # A run_sweep(policy=...) caller gets the spec's checks, and
        # its messages, at construction.
        ((name, value),) = fields.items()
        with pytest.raises(ValueError, match=f"^{name} must be "):
            RetryPolicy(**fields)

    def test_attempt_describe(self):
        attempt = Attempt(kind="error", seconds=1.25,
                          error="OSError: disk", transient=True)
        assert attempt.describe() == "error after 1.25s: OSError: disk"


def flaky_execute(real, failures_per_label, exc_factory):
    """An ``execute_job`` that fails the first N calls per cell."""
    calls: dict[str, int] = {}

    def execute(job):
        label = job.label()
        calls[label] = calls.get(label, 0) + 1
        if calls[label] <= failures_per_label.get(label, 0):
            raise exc_factory(f"injected failure #{calls[label]}")
        return real(job)

    return execute


class TestRetries:
    def test_transient_failures_retry_to_identical_results(
            self, monkeypatch):
        clean = run_sweep(GRID.expand())
        victim = GRID.expand()[1].label()
        monkeypatch.setattr(
            executor_module, "execute_job",
            flaky_execute(executor_module.execute_job, {victim: 2},
                          TransientError))
        report = run_sweep(GRID.expand(),
                           policy=RetryPolicy(max_attempts=3))
        assert not report.failures
        assert metric_dicts(report.results) == metric_dicts(
            clean.results)
        retried = report.outcomes[1]
        assert [a.kind for a in retried.attempts] == \
            ["error", "error", "ok"]
        assert all(a.transient for a in retried.attempts[:2])
        assert "injected failure #1" in retried.attempts[0].error
        assert retried.retried
        assert report.retried_count == 1
        assert "1 retried" in report.summary()
        untouched = report.outcomes[0]
        assert [a.kind for a in untouched.attempts] == ["ok"]

    def test_exhausted_retries_fail_with_history(self, monkeypatch):
        victim = GRID.expand()[0].label()
        monkeypatch.setattr(
            executor_module, "execute_job",
            flaky_execute(executor_module.execute_job, {victim: 99},
                          OSError))
        report = run_sweep(GRID.expand(),
                           policy=RetryPolicy(max_attempts=2))
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert [a.kind for a in failed.attempts] == ["error", "error"]
        assert "injected failure #2" in failed.error
        assert len(report.results) == 3  # the others still ran

    def test_deterministic_failure_fails_fast(self, monkeypatch):
        victim = GRID.expand()[0].label()
        monkeypatch.setattr(
            executor_module, "execute_job",
            flaky_execute(executor_module.execute_job, {victim: 99},
                          ValueError))
        report = run_sweep(GRID.expand(),
                           policy=RetryPolicy(max_attempts=5))
        failed = report.failures[0]
        assert [a.kind for a in failed.attempts] == ["error"]
        assert failed.attempts[0].transient is False

    def test_backoff_sleeps_between_retries(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(executor_module.time, "sleep",
                            sleeps.append)
        victim = GRID.expand()[0].label()
        monkeypatch.setattr(
            executor_module, "execute_job",
            flaky_execute(executor_module.execute_job, {victim: 2},
                          TransientError))
        report = run_sweep(GRID.expand(), policy=RetryPolicy(
            max_attempts=3, backoff=0.004))
        assert not report.failures
        waits = [s for s in sleeps if s > 0]
        assert len(waits) == 2
        assert 0.003 < waits[0] <= 0.004  # backoff * factor^0
        assert 0.007 < waits[1] <= 0.008  # backoff * factor^1

    def test_cache_hits_carry_no_attempts(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(GRID.expand(), cache=cache)
        warm = run_sweep(GRID.expand(), cache=cache,
                         policy=RetryPolicy(max_attempts=3))
        assert all(o.attempts == () for o in warm.outcomes)
        assert not any(o.retried for o in warm.outcomes)


class TestCircuitBreaker:
    def test_breaker_aborts_remaining_cells(self, monkeypatch):
        monkeypatch.setattr(
            executor_module, "execute_job",
            lambda job: (_ for _ in ()).throw(RuntimeError("broken")))
        report = run_sweep(GRID.expand(),
                           policy=RetryPolicy(max_failures=1))
        assert len(report.failures) == 4
        aborted = [o for o in report.outcomes
                   if "circuit breaker" in o.error]
        assert len(aborted) == 2  # trips after the 2nd real failure
        assert all("broken" in o.error for o in report.outcomes
                   if o not in aborted)
        # Aborted cells consumed no executions.
        assert all(o.attempts == () for o in aborted)

    def test_breaker_never_trips_on_success(self, tmp_path):
        report = run_sweep(GRID.expand(),
                           policy=RetryPolicy(max_failures=0))
        assert not report.failures
        assert len(report.results) == 4


class TestCacheWriteDegradation:
    def test_write_failure_keeps_the_result(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def broken_put(job, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "put", broken_put)
        report = run_sweep(GRID.expand(), cache=cache)
        assert not report.failures
        assert len(report.results) == 4  # results survive the disk
        assert len(cache) == 0

    def test_write_failure_is_counted(self, tmp_path, monkeypatch):
        from repro import obs

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(
            cache, "put",
            lambda job, result:
                (_ for _ in ()).throw(OSError("full")))
        with obs.recording() as rec:
            run_sweep(GRID.expand(), cache=cache)
        snapshot = rec.snapshot()
        assert snapshot["counters"]["cache.write_failed"] == 4
        warnings = [e for e in snapshot["events"]
                    if e["name"] == "cache.write_failed"]
        assert len(warnings) == 4
        assert "OSError" in warnings[0]["attrs"]["reason"]


class TestKeyboardInterrupt:
    def test_partial_report_with_completed_outcomes(self, tmp_path,
                                                    monkeypatch):
        real = executor_module.execute_job

        def interrupting(job):
            if job.label() == GRID.expand()[2].label():
                raise KeyboardInterrupt
            return real(job)

        monkeypatch.setattr(executor_module, "execute_job",
                            interrupting)
        cache = ResultCache(tmp_path)
        report = run_sweep(GRID.expand(), cache=cache)
        assert report.interrupted
        assert len(report.outcomes) == 2  # the cells that finished
        assert all(o.ok for o in report.outcomes)
        assert len(cache) == 2  # already persisted
        assert "INTERRUPTED" in report.summary()

        # Undisturbed re-run resumes from the cached cells.
        monkeypatch.setattr(executor_module, "execute_job", real)
        resumed = run_sweep(GRID.expand(), cache=cache)
        assert not resumed.interrupted
        assert resumed.cached_count == 2
        assert resumed.computed_count == 2
