"""Cache artifact slots: sweep-side packing and pack-from-cache reuse."""

import shutil

import pytest

from repro.api import SweepSpec
from repro.artifacts import load_bundle, pack_from_cache
from repro.engine import ResultCache


@pytest.fixture(scope="module")
def packed_cache(tmp_path_factory):
    """One tiny sweep run with pack_artifacts=True."""
    root = tmp_path_factory.mktemp("cache") / "sweep"
    spec = SweepSpec(datasets=["german"],
                     approaches=[None, "Hardt-eo"], rows=[400],
                     seeds=[0], causal_samples=300,
                     store=str(root), pack_artifacts=True)
    report = spec.run()
    assert not report.failures
    return ResultCache(root)


class TestSlotApi:
    def test_put_get_artifact(self, tmp_path, serving_job,
                              serving_components):
        cache = ResultCache(tmp_path)
        assert cache.get_artifact(serving_job) is None
        assert not cache.has_artifact(serving_job)
        path = cache.put_artifact(serving_job,
                                  components=serving_components)
        fp = serving_job.fingerprint
        assert path == tmp_path / fp[:2] / f"{fp}.artifacts"
        assert cache.get_artifact(serving_job) == path
        assert load_bundle(path).fingerprint == fp

    def test_evict_drops_artifact_too(self, tmp_path, serving_job,
                                      serving_components):
        from repro.pipeline import EvaluationResult

        cache = ResultCache(tmp_path)
        cache.put(serving_job, EvaluationResult(
            approach="Hardt", dataset="german", stage="post",
            accuracy=0.7, precision=0.6, recall=0.8, f1=0.69,
            di_star=0.9, tprb=0.95, tnrb=0.92, id=0.88, te=0.91,
            nde=0.93, nie=0.97, raw={}, fit_seconds=0.1))
        cache.put_artifact(serving_job, components=serving_components)
        cache.evict(serving_job)
        assert serving_job not in cache
        assert not cache.has_artifact(serving_job)

    def test_torn_slot_is_a_miss(self, tmp_path, serving_job):
        cache = ResultCache(tmp_path)
        slot = cache.artifact_path(serving_job)
        slot.mkdir(parents=True)  # directory but no manifest
        assert cache.get_artifact(serving_job) is None


class TestSweepPacking:
    def test_every_computed_cell_gets_a_slot(self, packed_cache):
        fingerprints = packed_cache.fingerprints()
        assert len(fingerprints) == 2
        for fp in fingerprints:
            assert packed_cache.has_artifact(fp)
            assert load_bundle(
                packed_cache.get_artifact(fp)).fingerprint == fp

    def test_pack_requires_cache(self):
        from repro.engine import run_sweep

        with pytest.raises(ValueError, match="needs a cache"):
            run_sweep([], cache=None, pack=True)

    def test_pack_failure_does_not_fail_cell(self, tmp_path,
                                             monkeypatch):
        import repro.artifacts.pack as pack_mod

        def boom(job):
            raise RuntimeError("no components for you")

        monkeypatch.setattr(pack_mod, "build_serving_components", boom)
        spec = SweepSpec(datasets=["german"], approaches=[None],
                         rows=[400], seeds=[0], causal_samples=300,
                         store=str(tmp_path / "c"),
                         pack_artifacts=True)
        report = spec.run()
        assert not report.failures
        assert len(report.outcomes) == 1
        cache = ResultCache(tmp_path / "c")
        assert not any(cache.has_artifact(fp)
                       for fp in cache.fingerprints())


class TestAuditedCellPacking:
    def test_packs_the_audited_components_without_refitting(
            self, tmp_path, monkeypatch):
        """An audited cell packs the components its audit ran on; they
        equal a fresh refit of the cell, artifact by artifact."""
        import repro.artifacts.pack as pack_mod
        from repro.artifacts import pack_bundle
        from repro.engine import Job, run_sweep

        job = Job(dataset="german", approach="Hardt-eo", rows=400,
                  causal_samples=300, audit="counterfactual",
                  audit_params={"n_particles": 10, "max_rows": 20,
                                "n_samples": 500})
        real = pack_mod.build_serving_components

        def boom(job):
            raise AssertionError("the sweep refit an audited cell")

        monkeypatch.setattr(pack_mod, "build_serving_components", boom)
        cache = ResultCache(tmp_path / "c")
        report = run_sweep([job], cache=cache, pack=True)
        assert not report.failures
        stored = load_bundle(cache.get_artifact(job))
        monkeypatch.setattr(pack_mod, "build_serving_components", real)
        refit = load_bundle(pack_bundle(job, tmp_path / "refit"))
        assert stored.fingerprint == refit.fingerprint == job.fingerprint
        assert stored.serving == refit.serving
        assert ([a["sha256"] for a in stored.manifest["artifacts"]]
                == [a["sha256"] for a in refit.manifest["artifacts"]])


class TestPackFromCache:
    def test_reuses_slot_without_refitting(self, packed_cache, tmp_path,
                                           monkeypatch):
        import repro.artifacts.pack as pack_mod

        def boom(job):  # any refit attempt is a test failure
            raise AssertionError("pack_from_cache refit a packed cell")

        monkeypatch.setattr(pack_mod, "build_serving_components", boom)
        out = pack_from_cache(packed_cache, tmp_path / "bundle",
                              where={"approach": "Hardt-eo"})
        assert load_bundle(out).artifact_names() == [
            "pipeline", "scm", "encoding", "reference"]

    def test_refits_when_no_slot(self, tmp_path):
        spec = SweepSpec(datasets=["german"], approaches=[None],
                         rows=[400], seeds=[0], causal_samples=300,
                         store=str(tmp_path / "c"))
        assert not spec.run().failures
        out = pack_from_cache(ResultCache(tmp_path / "c"),
                              tmp_path / "bundle")
        assert load_bundle(out).serving["dataset"] == "german"

    def test_ambiguous_selection_rejected(self, packed_cache, tmp_path):
        with pytest.raises(ValueError, match="matches 2 cells"):
            pack_from_cache(packed_cache, tmp_path / "bundle")

    def test_empty_selection_rejected(self, packed_cache, tmp_path):
        with pytest.raises(ValueError, match="no cached cell"):
            pack_from_cache(packed_cache, tmp_path / "bundle",
                            where={"approach": "KamCal-dp"})

    def test_fingerprint_prefix_selection(self, packed_cache, tmp_path):
        fp = packed_cache.fingerprints()[0]
        out = pack_from_cache(packed_cache, tmp_path / "bundle",
                              fingerprint=fp[:12])
        assert load_bundle(out).fingerprint == fp

    def test_existing_target_needs_overwrite(self, packed_cache,
                                             tmp_path):
        from repro.artifacts import BundleError

        out = tmp_path / "bundle"
        pack_from_cache(packed_cache, out,
                        where={"approach": "Hardt-eo"})
        with pytest.raises(BundleError, match="already exists"):
            pack_from_cache(packed_cache, out,
                            where={"approach": "Hardt-eo"})
        pack_from_cache(packed_cache, out,
                        where={"approach": "Hardt-eo"}, overwrite=True)

    def test_cell_from_an_older_spec_version(self, tmp_path, monkeypatch):
        """A cell stored before a SPEC_VERSION bump packs from its own
        stored artifact, and is never refit under the new protocol."""
        import repro.engine.spec as spec_mod
        from repro.cli import main

        current = spec_mod.SPEC_VERSION
        monkeypatch.setattr(spec_mod, "SPEC_VERSION", current - 1)
        root = tmp_path / "c"
        spec = SweepSpec(datasets=["german"],
                         approaches=[None, "Hardt-eo"], rows=[400],
                         seeds=[0], causal_samples=300,
                         store=str(root), pack_artifacts=True)
        assert not spec.run().failures
        monkeypatch.setattr(spec_mod, "SPEC_VERSION", current)
        cache = ResultCache(root)
        (stored,) = [fp for fp, _, params in cache.entries()
                     if params["approach"] == "Hardt-eo"]

        out = pack_from_cache(cache, tmp_path / "bundle",
                              where={"approach": "Hardt-eo"})
        assert load_bundle(out).fingerprint == stored
        out = pack_from_cache(cache, tmp_path / "by-prefix",
                              fingerprint=stored[:12])
        assert load_bundle(out).fingerprint == stored

        shutil.rmtree(cache.artifact_path(stored))
        with pytest.raises(ValueError, match="re-run the cell"):
            pack_from_cache(cache, tmp_path / "refit",
                            where={"approach": "Hardt-eo"})
        assert main(["pack", "--store", str(root), "--where",
                     "approach=Hardt-eo", "--out",
                     str(tmp_path / "cli")]) == 2
        assert not (tmp_path / "refit").exists()
