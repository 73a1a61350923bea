"""Cross-host merge and compaction semantics of the result cache."""

import json

import pytest

from repro.cli import main
from repro.engine import Job, ResultCache, ScenarioGrid, run_sweep
from repro.pipeline import EvaluationResult

GRID = ScenarioGrid(datasets=["german"],
                    approaches=[None, "Hardt-eo", "Feld-dp"],
                    seeds=[0, 1], rows=[300, 600], causal_samples=200)


def synth_result(job: Job) -> EvaluationResult:
    seed = int(job.fingerprint[:12], 16)

    def v(shift: int) -> float:
        return ((seed >> shift) % 997) / 997.0

    return EvaluationResult(
        approach=job.approach_label, dataset=job.dataset, stage="test",
        accuracy=v(0), precision=v(3), recall=v(5), f1=v(7),
        di_star=v(9), tprb=v(11), tnrb=v(13), id=v(15), te=v(17),
        nde=v(19), nie=v(21), raw={"di": v(2)},
        fit_seconds=0.05 + v(6))


def fill(cache: ResultCache, jobs) -> None:
    for job in jobs:
        cache.put(job, synth_result(job))


@pytest.fixture(params=["file", "sqlite"])
def dst(request, tmp_path):
    if request.param == "file":
        return ResultCache(tmp_path / "dst")
    return ResultCache(f"sqlite:{tmp_path / 'dst.db'}")


class TestDisjointHalves:
    def test_merged_halves_report_the_full_grid(self, dst, tmp_path):
        # The cross-host sharding recipe: run half the grid per
        # machine, merge both caches, report once.
        jobs = GRID.expand()
        half_a = ResultCache(tmp_path / "half-a")
        half_b = ResultCache(f"sqlite:{tmp_path / 'half-b.db'}")
        fill(half_a, jobs[::2])
        fill(half_b, jobs[1::2])

        stats_a = dst.merge_from(half_a)
        stats_b = dst.merge_from(half_b)
        assert stats_a.merged == len(jobs[::2])
        assert stats_b.merged == len(jobs[1::2])
        assert stats_a.replaced == stats_b.replaced == 0
        assert len(dst) == len(jobs)
        assert {o.job for o in dst.outcomes()} == set(jobs)

    def test_merged_cache_resweeps_with_zero_executions(self, dst,
                                                        tmp_path,
                                                        monkeypatch):
        import repro.engine.executor as executor_module

        jobs = GRID.expand()
        half_a = ResultCache(tmp_path / "half-a")
        half_b = ResultCache(tmp_path / "half-b")
        fill(half_a, jobs[::2])
        fill(half_b, jobs[1::2])
        dst.merge_from(half_a)
        dst.merge_from(half_b)

        def boom(job):
            raise AssertionError("merged cache must satisfy the "
                                 "whole grid")

        monkeypatch.setattr(executor_module, "execute_job", boom)
        report = run_sweep(jobs, cache=dst)
        assert report.cached_count == len(jobs)
        assert not report.failures
        assert all(o.cached for o in report.outcomes)

    def test_merge_is_idempotent(self, dst, tmp_path):
        jobs = GRID.expand()
        src = ResultCache(tmp_path / "src")
        fill(src, jobs)
        dst.merge_from(src)
        before = {fp: dst.backend.load(fp) for fp in dst.fingerprints()}
        again = dst.merge_from(src)
        assert again.merged == 0
        assert again.replaced == 0
        assert again.skipped == len(jobs)
        assert {fp: dst.backend.load(fp)
                for fp in dst.fingerprints()} == before


class TestSpecVersionConflicts:
    JOB = Job(dataset="german", approach=None, rows=400,
              causal_samples=300)

    def put_with_version(self, cache, version, accuracy):
        result = synth_result(self.JOB)
        import dataclasses
        result = dataclasses.replace(result, accuracy=accuracy)
        params = {"fingerprint": self.JOB.fingerprint,
                  **self.JOB.params()}
        params["spec_version"] = version
        cache.backend.save(self.JOB.fingerprint, result, params)

    def test_newer_source_replaces_local(self, dst, tmp_path):
        src = ResultCache(tmp_path / "src")
        self.put_with_version(dst, 3, accuracy=0.3)
        self.put_with_version(src, 4, accuracy=0.4)
        stats = dst.merge_from(src)
        assert stats.replaced == 1 and stats.merged == 0
        result, params = dst.backend.load(self.JOB.fingerprint)
        assert params["spec_version"] == 4
        assert result.accuracy == 0.4

    def test_older_source_is_skipped(self, dst, tmp_path):
        src = ResultCache(tmp_path / "src")
        self.put_with_version(dst, 4, accuracy=0.4)
        self.put_with_version(src, 3, accuracy=0.3)
        stats = dst.merge_from(src)
        assert stats.replaced == 0 and stats.skipped == 1
        result, params = dst.backend.load(self.JOB.fingerprint)
        assert params["spec_version"] == 4
        assert result.accuracy == 0.4

    def test_equal_versions_keep_local(self, dst, tmp_path):
        src = ResultCache(tmp_path / "src")
        self.put_with_version(dst, 4, accuracy=0.4)
        self.put_with_version(src, 4, accuracy=0.9)
        stats = dst.merge_from(src)
        assert stats.skipped == 1
        result, _ = dst.backend.load(self.JOB.fingerprint)
        assert result.accuracy == 0.4


class TestArtifactSlots:
    def seed_artifact(self, cache, job, torn=False):
        slot = cache.artifact_path(job)
        slot.mkdir(parents=True, exist_ok=True)
        (slot / "payload.bin").write_bytes(b"weights")
        if not torn:
            (slot / "manifest.json").write_text("{}")

    def test_intact_bundle_rides_along(self, dst, tmp_path):
        jobs = GRID.expand()[:2]
        src = ResultCache(tmp_path / "src")
        fill(src, jobs)
        self.seed_artifact(src, jobs[0])
        stats = dst.merge_from(src)
        assert stats.artifacts == 1
        assert dst.get_artifact(jobs[0]) is not None
        assert (dst.artifact_path(jobs[0]) / "payload.bin"
                ).read_bytes() == b"weights"
        assert dst.get_artifact(jobs[1]) is None

    def test_torn_bundle_is_skipped(self, dst, tmp_path):
        jobs = GRID.expand()[:1]
        src = ResultCache(tmp_path / "src")
        fill(src, jobs)
        self.seed_artifact(src, jobs[0], torn=True)
        stats = dst.merge_from(src)
        assert stats.artifacts == 0
        assert not dst.artifact_path(jobs[0]).exists()

    def test_corrupt_source_entry_is_skipped(self, dst, tmp_path):
        jobs = GRID.expand()[:2]
        src = ResultCache(tmp_path / "src")
        fill(src, jobs)
        src.chaos_corrupt(jobs[0])
        stats = dst.merge_from(src)
        assert stats.merged == 1 and stats.skipped == 1
        assert dst.get(jobs[1]) is not None


class TestCompact:
    def inject_stale_duplicate(self, cache: ResultCache) -> str:
        """A logical duplicate under an older spec version, keyed by a
        fabricated fingerprint (what a SPEC_VERSION bump leaves
        behind)."""
        fingerprint = cache.fingerprints()[0]
        result, params = cache.backend.load(fingerprint)
        stale = "f" * 64
        params = dict(params)
        params["fingerprint"] = stale
        params["spec_version"] = int(params["spec_version"]) - 1
        cache.backend.save(stale, result, params)
        return stale

    def test_folds_stale_duplicates(self, dst, tmp_path):
        jobs = GRID.expand()[:4]
        fill(dst, jobs)
        stale = self.inject_stale_duplicate(dst)
        assert len(dst) == 5
        stats = dst.compact()
        assert stats.folded == 1 and stats.kept == 4
        assert stale not in dst.fingerprints()
        assert len(dst.outcomes()) == 4

    def test_compact_on_clean_cache_is_a_no_op(self, dst):
        jobs = GRID.expand()[:3]
        fill(dst, jobs)
        stats = dst.compact()
        assert stats.folded == 0 and stats.kept == 3
        assert len(dst) == 3


class TestCli:
    def test_cache_merge_and_compact(self, tmp_path, capsys):
        jobs = GRID.expand()[:4]
        src = ResultCache(tmp_path / "src")
        fill(src, jobs)
        dst_uri = f"sqlite:{tmp_path / 'dst.db'}"
        assert main(["cache", "merge", str(tmp_path / "src"),
                     dst_uri]) == 0
        out = capsys.readouterr().out
        assert "merged 4 new cell(s)" in out
        assert main(["cache", "compact", "--store", dst_uri]) == 0
        assert "folded 0" in capsys.readouterr().out
        assert main(["cache", "verify", "--store", dst_uri]) == 0

    def test_cache_merge_missing_source_fails(self, tmp_path, capsys):
        assert main(["cache", "merge", str(tmp_path / "nope"),
                     str(tmp_path / "dst")]) == 2
        assert "no sweep cache" in capsys.readouterr().err

    def test_cache_merge_wrong_arity_fails(self, tmp_path, capsys):
        assert main(["cache", "merge", str(tmp_path / "one")]) == 2
        assert "exactly two stores" in capsys.readouterr().err

    def test_cache_verify_rejects_positional_stores(self, tmp_path,
                                                    capsys):
        assert main(["cache", "verify", str(tmp_path / "x")]) == 2
        assert "no positional" in capsys.readouterr().err

    def test_report_rejects_garbage_sqlite_file(self, tmp_path,
                                                capsys):
        path = tmp_path / "cells.db"
        path.write_bytes(b"definitely not a database" * 40)
        assert main(["report", "--store", f"sqlite:{path}"]) == 2
        assert "not a sqlite result store" in capsys.readouterr().err


class TestRoundtripAcrossBackends:
    def test_file_to_sqlite_and_back_preserves_entries(self, tmp_path):
        jobs = GRID.expand()
        original = ResultCache(tmp_path / "original")
        fill(original, jobs)
        db = ResultCache(f"sqlite:{tmp_path / 'cells.db'}")
        db.merge_from(original)
        back = ResultCache(tmp_path / "back")
        back.merge_from(db)
        for fingerprint in original.fingerprints():
            src_entry = original.backend.load(fingerprint)
            assert back.backend.load(fingerprint) == src_entry
        # The file entries written by the round trip are
        # byte-identical to the originals (same atomic JSON layout).
        for path in (tmp_path / "original").glob("??/*.json"):
            twin = tmp_path / "back" / path.parent.name / path.name
            original_payload = json.loads(path.read_text())
            assert json.loads(twin.read_text()) == original_payload
