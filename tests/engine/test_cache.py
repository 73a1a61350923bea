"""Content-addressed result cache behaviour."""

import json

import pytest

from repro.engine import Job, ResultCache
from repro.pipeline import EvaluationResult, result_to_dict


def make_result(approach="LR", accuracy=0.7) -> EvaluationResult:
    return EvaluationResult(
        approach=approach, dataset="german", stage="baseline",
        accuracy=accuracy, precision=0.6, recall=0.8, f1=0.69,
        di_star=0.9, tprb=0.95, tnrb=0.92, id=0.88, te=0.91, nde=0.93,
        nie=0.97, raw={"di": 0.9}, fit_seconds=0.5)


JOB = Job(dataset="german", approach=None, rows=400, causal_samples=300)


class TestRoundtrip:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(JOB) is None
        assert JOB not in cache
        cache.put(JOB, make_result())
        assert JOB in cache
        assert result_to_dict(cache.get(JOB)) == result_to_dict(
            make_result())

    def test_sharded_layout(self, tmp_path):
        path = ResultCache(tmp_path).put(JOB, make_result())
        fp = JOB.fingerprint
        assert path == tmp_path / fp[:2] / f"{fp}.json"
        assert path.exists()

    def test_distinct_jobs_distinct_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        other = Job(dataset="german", approach="Hardt-eo", rows=400,
                    causal_samples=300)
        cache.put(JOB, make_result("LR"))
        cache.put(other, make_result("Hardt", accuracy=0.65))
        assert cache.get(JOB).approach == "LR"
        assert cache.get(other).approach == "Hardt"
        assert len(cache) == 2

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, make_result(accuracy=0.1))
        cache.put(JOB, make_result(accuracy=0.2))
        assert cache.get(JOB).accuracy == 0.2
        assert len(cache) == 1


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(JOB, make_result())
        path.write_text("{not json")
        assert cache.get(JOB) is None

    def test_foreign_entry_is_a_miss(self, tmp_path):
        # An entry whose recorded fingerprint disagrees with its file
        # name (hand-copied file) must not be served.
        cache = ResultCache(tmp_path)
        other = Job(dataset="german", approach="Hardt-eo", rows=400,
                    causal_samples=300)
        source = cache.put(other, make_result("Hardt"))
        target = tmp_path / JOB.fingerprint[:2] / f"{JOB.fingerprint}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text())
        assert cache.get(JOB) is None

    def test_evict(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, make_result())
        cache.evict(JOB)
        assert cache.get(JOB) is None
        assert len(cache) == 0
        cache.evict(JOB)  # idempotent

    def test_fingerprints_listing(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.fingerprints() == []
        cache.put(JOB, make_result())
        assert cache.fingerprints() == [JOB.fingerprint]


class TestVerify:
    OTHER = Job(dataset="german", approach="Hardt-eo", rows=400,
                causal_samples=300)

    def test_healthy_cache_reports_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, make_result())
        cache.put(self.OTHER, make_result("Hardt"))
        assert cache.verify() == []
        assert len(cache) == 2  # verify never touches healthy entries

    def test_unreadable_entry_flagged_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(JOB, make_result())
        cache.put(self.OTHER, make_result("Hardt"))
        path.write_text("{not json")

        problems = cache.verify()
        assert [p.kind for p in problems] == ["unreadable"]
        assert problems[0].fingerprint == JOB.fingerprint
        assert problems[0].path == path
        assert path.exists()  # report-only without repair

        cache.verify(repair=True)
        assert not path.exists()
        assert len(cache) == 1  # the healthy entry survives
        assert cache.verify() == []

    def test_mismatched_entry_flagged(self, tmp_path):
        # A hand-copied shard: file name says JOB, content says OTHER.
        cache = ResultCache(tmp_path)
        source = cache.put(self.OTHER, make_result("Hardt"))
        target = tmp_path / JOB.fingerprint[:2] \
            / f"{JOB.fingerprint}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text())
        problems = {p.fingerprint: p.kind for p in cache.verify()}
        assert problems == {JOB.fingerprint: "mismatch"}

    def test_stale_spec_version_flagged(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(JOB, make_result())
        entry = json.loads(path.read_text())
        entry["params"]["spec_version"] = 1
        path.write_text(json.dumps(entry))
        problems = cache.verify()
        assert [p.kind for p in problems] == ["stale"]
        cache.verify(repair=True)
        assert not path.exists()

    def test_empty_entry_flagged(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(JOB, make_result())
        entry = json.loads(path.read_text())
        entry["results"] = []
        path.write_text(json.dumps(entry))
        assert cache.get(JOB) is None
        assert [p.kind for p in cache.verify()] == ["unreadable"]

    @pytest.mark.parametrize("results, detail", [
        (lambda stored: stored * 2, "exactly one result"),
        (lambda stored: [5], "not a mapping"),
    ], ids=["two-results", "non-object-result"])
    def test_malformed_results_flagged(self, results, detail, tmp_path):
        # An entry holds the one result object its cell has; anything
        # else is unreadable and a repair deletes it.  A non-object
        # result used to escape get() and verify() as a TypeError.
        cache = ResultCache(tmp_path)
        path = cache.put(JOB, make_result())
        entry = json.loads(path.read_text())
        entry["results"] = results(entry["results"])
        path.write_text(json.dumps(entry))
        assert cache.get(JOB) is None
        problems = cache.verify(repair=True)
        assert [p.kind for p in problems] == ["unreadable"]
        assert detail in problems[0].detail
        assert not path.exists()

    def test_orphaned_artifact_flagged_and_repaired(self, tmp_path):
        # A bundle whose metrics entry is gone (e.g. an earlier repair
        # deleted the shard): nothing can ever address it.
        cache = ResultCache(tmp_path)
        cache.put(JOB, make_result())
        orphan = cache.artifact_path(self.OTHER)
        orphan.mkdir(parents=True)
        (orphan / "manifest.json").write_text("{}")

        problems = cache.verify()
        assert [p.kind for p in problems] == ["orphaned"]
        assert problems[0].fingerprint == self.OTHER.fingerprint
        assert problems[0].path == orphan
        assert orphan.exists()  # report-only without repair

        cache.verify(repair=True)
        assert not orphan.exists()
        assert len(cache) == 1  # the healthy entry survives
        assert cache.verify() == []

    def test_repair_removes_defective_entrys_artifact(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(JOB, make_result())
        bundle = cache.artifact_path(JOB)
        bundle.mkdir(parents=True)
        (bundle / "manifest.json").write_text("{}")
        path.write_text("{not json")
        cache.verify(repair=True)
        assert not path.exists()
        assert not bundle.exists()  # no orphan left behind

    def test_sweep_recomputes_exactly_repaired_cells(self, tmp_path):
        from repro.engine import ScenarioGrid, run_sweep
        from repro.engine.chaos import corrupt_entry

        grid = ScenarioGrid(datasets=["german"],
                            approaches=[None, "Hardt-eo"], seeds=[0],
                            rows=[300], causal_samples=200)
        cache = ResultCache(tmp_path)
        run_sweep(grid.expand(), cache=cache)
        assert len(cache) == 2

        victim = grid.expand()[1]
        corrupt_entry(tmp_path / victim.fingerprint[:2]
                      / f"{victim.fingerprint}.json")
        problems = cache.verify(repair=True)
        assert [p.fingerprint for p in problems] == [victim.fingerprint]

        warm = run_sweep(grid.expand(), cache=cache)
        recomputed = [o.job for o in warm.outcomes if not o.cached]
        assert recomputed == [victim]
        assert warm.cached_count == 1 and not warm.failures
