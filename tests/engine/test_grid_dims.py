"""The imputer sweep axis and feature counts: expansion,
fingerprints, execution."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import Job, ScenarioGrid, execute_job
from repro.engine.executor import _impute_train
from repro.registry import ERRORS


class TestGridExpansion:
    def test_imputer_multiplies_the_grid(self):
        grid = ScenarioGrid(datasets=["german"], approaches=[None],
                            imputers=[None, "mean", "knn"], rows=[300])
        jobs = grid.expand()
        assert len(jobs) == 3
        assert len({j.fingerprint for j in jobs}) == 3
        assert {j.imputer for j in jobs} == {None, "mean", "knn"}

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

    def test_unknown_parameters_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ScenarioGrid(datasets=["german"], imputers=["mean(k=3)"])

    def test_describe_mentions_new_dimensions(self):
        grid = ScenarioGrid(datasets=["german"],
                            imputers=["mean", "knn"])
        assert "2 imputers" in grid.describe()


class TestFingerprints:
    JOB = Job(dataset="german", approach=None, rows=300,
              causal_samples=200, error="missing", imputer="knn",
              imputer_params={"k": 3})

    def test_spec_version_5_in_params(self):
        assert self.JOB.params()["spec_version"] == 9

    def test_new_axes_feed_the_hash(self):
        for change in ({"imputer": "mean", "imputer_params": {}},
                       {"imputer_params": {"k": 4}}):
            changed = dataclasses.replace(self.JOB, **change)
            assert changed.fingerprint != self.JOB.fingerprint, change

    def test_stable_across_processes(self):
        code = (
            "from repro.engine import Job;"
            "print(Job(dataset='german', approach=None, rows=300,"
            " causal_samples=200, error='missing', imputer='knn',"
            " imputer_params={'k': 3}).fingerprint)"
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

    def test_imputed_cell_runs_end_to_end(self):
        job = Job(dataset="german", approach=None, rows=300,
                  causal_samples=200, error="missing", imputer="mean")
        result = execute_job(job)
        assert 0.0 <= result.accuracy <= 1.0


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
            prepare_cell(job)

    def test_the_scalability_sweep_stays_valid(self):
        from repro.engine.executor import prepare_cell

        grid = ScenarioGrid(datasets=["adult"], rows=[300],
                            feature_counts=[2, 4, 6, 8, 9])
        for job in grid.expand():
            train, _ = prepare_cell(job)
            assert len(train.feature_names) == job.n_features
