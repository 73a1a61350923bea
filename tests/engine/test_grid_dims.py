"""Imputer/metric sweep axes: expansion, fingerprints, execution."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import Job, ScenarioGrid, execute_job
from repro.engine.executor import _impute_train
from repro.registry import ERRORS


class TestGridExpansion:
    def test_imputer_and_metric_multiply_the_grid(self):
        grid = ScenarioGrid(datasets=["german"], approaches=[None],
                            imputers=[None, "mean", "knn"],
                            metrics=[None, "accuracy"], rows=[300])
        jobs = grid.expand()
        assert len(jobs) == 6
        assert len({j.fingerprint for j in jobs}) == 6
        assert {j.imputer for j in jobs} == {None, "mean", "knn"}
        assert {j.metric for j in jobs} == {None, "accuracy"}

    def test_parameterized_imputer_specs(self):
        grid = ScenarioGrid(datasets=["german"],
                            imputers=["knn(k=3)", "knn(k=7)"])
        jobs = grid.expand()
        assert len(jobs) == 2
        assert jobs[0].imputer_params == {"k": 3}
        assert jobs[1].imputer_params == {"k": 7}
        assert jobs[0].fingerprint != jobs[1].fingerprint

    def test_unknown_keys_rejected_at_construction(self):
        with pytest.raises(KeyError):
            ScenarioGrid(datasets=["german"], imputers=["bogus"])
        with pytest.raises(KeyError):
            ScenarioGrid(datasets=["german"], metrics=["bogus"])

    def test_unknown_parameters_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ScenarioGrid(datasets=["german"], imputers=["mean(k=3)"])

    def test_describe_mentions_new_dimensions(self):
        grid = ScenarioGrid(datasets=["german"],
                            imputers=["mean", "knn"],
                            metrics=["accuracy"])
        description = grid.describe()
        assert "2 imputers" in description
        assert "1 metrics" in description


class TestFingerprints:
    JOB = Job(dataset="german", approach=None, rows=300,
              causal_samples=200, error="missing", imputer="knn",
              imputer_params={"k": 3}, metric="accuracy")

    def test_spec_version_5_in_params(self):
        assert self.JOB.params()["spec_version"] == 6

    def test_new_axes_feed_the_hash(self):
        for change in ({"imputer": "mean", "imputer_params": {}},
                       {"imputer_params": {"k": 4}},
                       {"metric": "di_star"},
                       {"metric": None, "metric_params": {}},
                       {"block_size": 256}):
            changed = dataclasses.replace(self.JOB, **change)
            assert changed.fingerprint != self.JOB.fingerprint, change

    def test_stable_across_processes(self):
        code = (
            "from repro.engine import Job;"
            "print(Job(dataset='german', approach=None, rows=300,"
            " causal_samples=200, error='missing', imputer='knn',"
            " imputer_params={'k': 3}, metric='accuracy').fingerprint)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == self.JOB.fingerprint

    def test_equivalent_grid_spellings_share_fingerprints(self):
        as_string = ScenarioGrid(datasets=["german"],
                                 imputers=["knn(k=3)"])
        as_dict = ScenarioGrid(
            datasets=["german"],
            imputers=[{"key": "knn", "params": {"k": 3}}])
        assert ([j.fingerprint for j in as_string.expand()]
                == [j.fingerprint for j in as_dict.expand()])


class TestExecution:
    def test_missing_recipe_leaves_nans_and_imputers_differ(self,
                                                           german_small):
        injector = ERRORS.build("missing")
        corrupted = injector(german_small, seed=0)
        assert np.isnan(corrupted.X).any()
        mean_fixed = _impute_train(corrupted, "mean", {})
        knn_fixed = _impute_train(corrupted, "knn", {"k": 3})
        assert not np.isnan(mean_fixed.X).any()
        assert not np.isnan(knn_fixed.X).any()
        assert not np.allclose(mean_fixed.X, knn_fixed.X)

    def test_clean_train_passes_through_imputer(self, german_small):
        assert _impute_train(german_small, "mean", {}) is german_small

    def test_metric_axis_surfaces_metric_value(self):
        job = Job(dataset="german", approach=None, rows=300,
                  causal_samples=200, metric="accuracy")
        result = execute_job(job)
        assert result.raw["metric_value"] == pytest.approx(
            result.accuracy)

    def test_imputed_cell_runs_end_to_end(self):
        job = Job(dataset="german", approach=None, rows=300,
                  causal_samples=200, error="missing", imputer="mean")
        result = execute_job(job)
        assert 0.0 <= result.accuracy <= 1.0


class TestBlockSizeKnob:
    def test_grid_threads_block_size_into_jobs(self):
        grid = ScenarioGrid(datasets=["german"], block_size=128)
        assert all(j.block_size == 128 for j in grid.expand())

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            ScenarioGrid(datasets=["german"], block_size=0)

    def test_round_trips_through_stored_params(self):
        from repro.engine.spec import job_from_params

        job = Job(dataset="german", rows=300, causal_samples=200,
                  block_size=64)
        rebuilt = job_from_params(job.params())
        assert rebuilt.block_size == 64
        assert rebuilt.fingerprint == job.fingerprint

    def test_block_size_does_not_change_results(self):
        """The knob is performance-only: the same cell computed under
        different kernel tilings must produce identical metrics."""
        base = Job(dataset="german", approach=None, model="knn(k=7)",
                   rows=240, causal_samples=200)
        tiled = dataclasses.replace(base, block_size=13)
        a, b = execute_job(base), execute_job(tiled)
        assert a.accuracy == b.accuracy
        assert a.di_star == b.di_star

    def test_executor_context_reaches_kernel(self):
        """While a job with block_size runs, kernel consumers that
        pass no explicit value resolve to the job's."""
        from repro.metrics import pairwise

        with pairwise.default_block_size(77):
            assert pairwise.resolve_block_size(None) == 77
        assert (pairwise.resolve_block_size(None)
                == pairwise.DEFAULT_BLOCK_SIZE)


class TestFeatureCounts:
    @pytest.mark.parametrize("n_features", [0, -1, 10, 999, 2.5])
    def test_prepare_cell_rejects_counts_outside_the_dataset(self,
                                                             n_features):
        # A hand-built job skips the grid's checks: -1 used to drop the
        # last feature, 999 to run all nine under `attrs=999`.
        from repro.engine.executor import prepare_cell

        job = Job(dataset="german", rows=300, causal_samples=200,
                  n_features=n_features)
        with pytest.raises(ValueError, match=rf"from 1 to 9 \(german has "
                                             rf"9 features\), got "
                                             rf"{n_features}"):
            with prepare_cell(job):
                pass

    def test_the_scalability_sweep_stays_valid(self):
        from repro.engine.executor import prepare_cell

        grid = ScenarioGrid(datasets=["adult"], rows=[300],
                            feature_counts=[2, 4, 6, 8, 9])
        for job in grid.expand():
            with prepare_cell(job) as (train, _):
                assert len(train.feature_names) == job.n_features
