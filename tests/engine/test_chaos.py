"""Deterministic chaos harness: fault plans and the invariant that a
faulted sweep converges to the fault-free run's exact results.

The integration tests here exercise the *process-level* resilience
machinery — worker kills breaking the pool, hangs tripping deadlines,
quarantine — so they run real worker pools on a deliberately tiny
grid (2 cells, 300 rows).
"""

import json
import re

import pytest

from repro import obs
from repro.engine import (ResultCache, RetryPolicy, ScenarioGrid,
                          run_sweep)
from repro.engine.chaos import (ChaosDeterministicError,
                                ChaosTransientError, Fault, FaultPlan,
                                maybe_fault)
from repro.pipeline import result_to_dict

GRID = ScenarioGrid(datasets=["german"], approaches=[None, "Hardt-eo"],
                    seeds=[0], rows=[300], causal_samples=200)

#: A fault field with a bad value (as JSON text) and the error naming it.
BAD_FAULT_FIELDS = [
    ('"seconds": 1e400',
     "fault seconds must be a number of seconds > 0, got inf"),
    ('"seconds": NaN',
     "fault seconds must be a number of seconds > 0, got nan"),
    ('"attempt": 1.5', "fault attempt must be an integer >= 0, got 1.5"),
    ('"attempt": true',
     "fault attempt must be an integer >= 0, got True"),
    ('"match": 5', "fault match must be a string, got 5"),
]


def bad_plan_text(field: str) -> str:
    return '{"faults": [{"fault": "hang", %s}]}' % field


def metric_dicts(results):
    """Serialised results with the wall-clock timing field dropped."""
    dicts = [result_to_dict(r) for r in results]
    for d in dicts:
        d.pop("fit_seconds")
    return [json.dumps(d, sort_keys=True) for d in dicts]


@pytest.fixture(scope="module")
def clean_report():
    return run_sweep(GRID.expand())


# ----------------------------------------------------------------------
# Plan construction and matching
# ----------------------------------------------------------------------
class TestFaultPlanParsing:
    def test_inline_spec_roundtrip(self):
        plan = FaultPlan.parse(
            "transient:seed=0@0;kill:Hardt@1;hang(12.5):german;error")
        assert [f.fault for f in plan.faults] == \
            ["transient", "kill", "hang", "error"]
        assert plan.faults[0] == Fault("transient", match="seed=0")
        assert plan.faults[1].attempt == 1
        assert plan.faults[2].seconds == 12.5
        assert plan.faults[3].match == "" and plan.faults[3].attempt == 0
        assert FaultPlan.parse(plan.describe()) == plan

    def test_from_config_mapping_and_strings(self):
        plan = FaultPlan.from_config({"faults": [
            {"fault": "kill", "match": "seed=0", "attempt": 0},
            "hang(3):Hardt@1"]})
        assert plan.faults[0].fault == "kill"
        assert plan.faults[1] == Fault("hang", match="Hardt",
                                       attempt=1, seconds=3.0)

    def test_load_accepts_plan_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"faults": [{"fault": "transient", "match": "x"}]}))
        plan = FaultPlan.load(path)
        assert plan.faults == (Fault("transient", match="x"),)
        assert FaultPlan.load(plan) is plan
        assert FaultPlan.load("transient:x") == plan

    @pytest.mark.parametrize("bad", [
        "explode:x@0", "kill:x@-1", "hang(0):x", "", ";;",
        "kill:x@nope"])
    def test_invalid_inline_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("field, message", BAD_FAULT_FIELDS)
    def test_bad_field_values_rejected(self, field, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FaultPlan.from_config(json.loads(bad_plan_text(field)))

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultPlan.from_config([{"fault": "kill", "when": "later"}])

    def test_matching_by_label_fingerprint_and_attempt(self):
        plan = FaultPlan.parse("kill:abc@1")
        assert plan.find("cell abc xyz", "ffff", 1).fault == "kill"
        assert plan.find("other", "abcdef0123", 1).fault == "kill"
        assert plan.find("cell abc xyz", "ffff", 0) is None
        assert plan.find("nothing", "ffff", 1) is None
        assert plan.find("cell abc", "ffff", 1,
                         kinds=("corrupt",)) is None

    def test_needs_pool(self):
        assert FaultPlan.parse("kill:x").needs_pool
        assert FaultPlan.parse("hang(2):x").needs_pool
        assert not FaultPlan.parse("transient:x;corrupt:y").needs_pool


class TestDelivery:
    def test_maybe_fault_raises_classified_errors(self):
        plan = FaultPlan.parse("transient:aaa;error:bbb")
        with pytest.raises(ChaosTransientError):
            maybe_fault(plan, "cell aaa", "ffff", 0)
        with pytest.raises(ChaosDeterministicError):
            maybe_fault(plan, "cell bbb", "ffff", 0)
        maybe_fault(plan, "cell ccc", "ffff", 0)  # no match: no-op
        maybe_fault(plan, "cell aaa", "ffff", 1)  # wrong attempt

    def test_environment_injects_nothing(self, monkeypatch, clean_report):
        # A plan reaches cells only as run_sweep's `chaos` argument:
        # an exported REPRO_CHAOS that fails every cell is ignored.
        monkeypatch.setenv("REPRO_CHAOS", json.dumps(
            [{"fault": "error", "match": "", "attempt": 0,
              "seconds": 30.0}]))
        report = run_sweep(GRID.expand())
        assert not report.failures
        assert metric_dicts(report.results) == metric_dicts(
            clean_report.results)


# ----------------------------------------------------------------------
# The chaos invariant: faulted sweep == clean sweep, byte for byte
# ----------------------------------------------------------------------
class TestInjectedFaults:
    def test_transient_fault_retries_to_identical_results(
            self, clean_report):
        report = run_sweep(GRID.expand(),
                           policy=RetryPolicy(max_attempts=2),
                           chaos="transient:Hardt@0")
        assert not report.failures
        assert metric_dicts(report.results) == metric_dicts(
            clean_report.results)
        retried = report.outcomes[1]
        assert [a.kind for a in retried.attempts] == ["error", "ok"]
        assert "chaos: injected transient" in retried.attempts[0].error

    def test_deterministic_fault_fails_fast_despite_retries(self):
        report = run_sweep(GRID.expand(),
                           policy=RetryPolicy(max_attempts=5),
                           chaos="error:Hardt@0")
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert [a.kind for a in failed.attempts] == ["error"]
        assert "ChaosDeterministicError" in failed.error

    def test_killed_worker_recovers_to_identical_results(
            self, clean_report):
        with obs.recording() as rec:
            report = run_sweep(GRID.expand(), max_workers=2,
                               chaos="kill:Hardt@0")
        assert not report.failures
        assert metric_dicts(report.results) == metric_dicts(
            clean_report.results)
        victim = report.outcomes[1]
        assert victim.attempts[0].kind == "crash"
        assert victim.attempts[0].seconds > 0  # real elapsed time
        assert victim.attempts[-1].kind == "ok"
        counters = rec.snapshot()["counters"]
        assert counters["sweep.pool_restarts"] >= 1

    def test_hang_past_deadline_is_killed_and_retried(
            self, clean_report):
        with obs.recording() as rec:
            report = run_sweep(
                GRID.expand(), max_workers=2,
                policy=RetryPolicy(max_attempts=2, timeout=3.0),
                chaos="hang(60):Hardt@0")
        assert not report.failures
        assert metric_dicts(report.results) == metric_dicts(
            clean_report.results)
        hung = report.outcomes[1]
        assert hung.attempts[0].kind == "timeout"
        assert hung.attempts[0].seconds >= 3.0
        assert hung.attempts[-1].kind == "ok"
        counters = rec.snapshot()["counters"]
        assert counters["sweep.timeouts"] == 1
        assert counters["sweep.pool_restarts"] >= 1
        # The innocent bystander was re-queued without penalty.
        innocent = report.outcomes[0]
        assert [a.kind for a in innocent.attempts] == ["ok"]

    def test_repeat_killer_is_quarantined(self):
        with obs.recording() as rec:
            report = run_sweep(
                GRID.expand(), max_workers=2,
                chaos="kill:Hardt@0;kill:Hardt@1")
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert "Hardt" in failed.job.label()
        assert "quarantined" in failed.error
        assert [a.kind for a in failed.attempts] == ["crash", "crash"]
        assert rec.snapshot()["counters"]["sweep.quarantined"] == 1
        # The innocent cell still produced its result.
        assert len(report.results) == 1
        assert report.outcomes[0].ok

    def test_corrupt_fault_forces_exact_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_sweep(GRID.expand(), cache=cache,
                          chaos="corrupt:Hardt@0")
        assert not first.failures and len(cache.fingerprints()) == 2

        problems = cache.verify()
        victim = GRID.expand()[1]
        assert [p.fingerprint for p in problems] == [victim.fingerprint]
        assert problems[0].kind == "unreadable"

        second = run_sweep(GRID.expand(), cache=cache)
        recomputed = [o.job for o in second.outcomes if not o.cached]
        assert recomputed == [victim]
        assert not second.failures

    def test_faulted_sweep_fills_a_reusable_cache(self, tmp_path,
                                                  clean_report):
        # End-to-end: transient + kill in one plan, every cell
        # accounted for, and the cache it leaves behind serves a
        # clean warm run.
        cache = ResultCache(tmp_path)
        report = run_sweep(
            GRID.expand(), cache=cache, max_workers=2,
            policy=RetryPolicy(max_attempts=3),
            chaos="transient:seed=0@0;kill:Hardt@1")
        assert not report.failures
        assert len(report.outcomes) == len(GRID.expand())
        assert metric_dicts(report.results) == metric_dicts(
            clean_report.results)
        warm = run_sweep(GRID.expand(), cache=cache)
        assert warm.cached_count == 2
        assert metric_dicts(warm.results) == metric_dicts(
            clean_report.results)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCli:
    def test_bad_chaos_plan_is_rejected(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--chaos", "explode:x", "--store",
                     "none"])
        assert code == 2
        assert "invalid chaos plan" in capsys.readouterr().err

    @pytest.mark.parametrize("field, message", BAD_FAULT_FIELDS)
    def test_bad_plan_file_values_rejected(self, tmp_path, capsys, field,
                                           message):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(bad_plan_text(field))
        assert main(["sweep", "--chaos", str(path), "--store",
                     "none"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_missing_plan_file_rejected(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "missing.json"
        assert main(["sweep", "--chaos", str(path), "--store",
                     "none"]) == 2
        err = capsys.readouterr().err
        assert f"chaos plan file {str(path)!r} not found" in err
        assert "Traceback" not in err

    def test_cache_verify_reports_and_repairs(self, tmp_path, capsys):
        from repro.cli import main
        from repro.engine.chaos import corrupt_entry

        cache = ResultCache(tmp_path)
        run_sweep(GRID.expand(), cache=cache)
        assert main(["cache", "verify", "--store",
                     str(tmp_path)]) == 0
        assert "healthy" in capsys.readouterr().out

        victim = GRID.expand()[0]
        corrupt_entry(tmp_path / victim.fingerprint[:2]
                      / f"{victim.fingerprint}.json")
        assert main(["cache", "verify", "--store",
                     str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "unreadable" in captured.err
        assert "1 defective" in captured.out

        assert main(["cache", "verify", "--store", str(tmp_path),
                     "--repair"]) == 0
        assert "repaired" in capsys.readouterr().out
        assert len(cache) == 1

    def test_cache_verify_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "verify", "--store",
                     str(tmp_path / "nope")]) == 2
        assert "no sweep cache" in capsys.readouterr().err
