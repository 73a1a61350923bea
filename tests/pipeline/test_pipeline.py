"""Tests for the FairPipeline runner, evaluation, and report formatting."""

import math

import numpy as np
import pytest

from repro.fairness import Stage
from repro.models import KNearestNeighbors
from repro.pipeline import (FairPipeline, evaluate_pipeline,
                            format_delta_table, format_results_table,
                            format_runtime_table, run_experiment)
from repro.registry import APPROACHES


class TestRegistry:
    def test_counts_match_paper(self):
        assert len(APPROACHES.keys(group="main")) == 18        # Figure 5
        assert len(APPROACHES.keys(group="additional")) == 3   # App. B.4
        assert len(APPROACHES.keys(group="extension")) == 3    # ours
        assert len(APPROACHES.keys()) == 24

    def test_stage_partition(self):
        pre = APPROACHES.keys(stage=Stage.PRE)
        in_ = APPROACHES.keys(stage=Stage.IN)
        post = APPROACHES.keys(stage=Stage.POST)
        assert len(pre) == 9    # 7 main + Madras + CaldersVerwer
        assert len(in_) == 11   # 8 main + Agarwal×2 + Kamishima
        assert len(post) == 4   # 3 main + OmniFair
        assert len(pre) + len(in_) + len(post) == len(APPROACHES.keys())

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            APPROACHES.build("FairGAN")

    def test_every_factory_builds(self):
        for name in APPROACHES.keys():
            approach = APPROACHES.build(name, seed=1)
            assert approach.stage in Stage
            assert approach.notion is not None


class TestBaselinePipeline:
    def test_fit_predict(self, compas_split):
        pipe = FairPipeline().fit(compas_split.train)
        y_hat = pipe.predict(compas_split.test)
        assert y_hat.shape == (compas_split.test.n_rows,)
        assert set(np.unique(y_hat)) <= {0, 1}

    def test_predict_before_fit(self, compas_split):
        with pytest.raises(RuntimeError):
            FairPipeline().predict(compas_split.test)

    def test_proba(self, compas_split):
        pipe = FairPipeline().fit(compas_split.train)
        p = pipe.predict_proba(compas_split.test)
        assert ((p >= 0) & (p <= 1)).all()

    def test_fit_time_recorded(self, compas_split):
        pipe = FairPipeline().fit(compas_split.train)
        assert pipe.fit_seconds_ > 0

    def test_s_override_changes_baseline(self, compas_split):
        """The baseline LR consumes S, so flipping it matters."""
        pipe = FairPipeline().fit(compas_split.train)
        a = pipe.predict(compas_split.test)
        b = pipe.predict(compas_split.test,
                         s_override=1 - compas_split.test.s)
        assert (a != b).any()

    def test_custom_model(self, compas_split):
        pipe = FairPipeline(model=KNearestNeighbors(k=9))
        pipe.fit(compas_split.train)
        assert pipe.predict(compas_split.test).shape[0] == \
            compas_split.test.n_rows

    def test_predict_columns_schema_check(self, compas_split):
        pipe = FairPipeline().fit(compas_split.train)
        with pytest.raises(KeyError, match="missing"):
            pipe.predict_columns({"age": np.zeros(5)})

    def test_predict_columns_roundtrip(self, compas_split):
        pipe = FairPipeline().fit(compas_split.train)
        columns = {name: compas_split.test.table[name]
                   for name in compas_split.test.table.columns}
        y_hat = pipe.predict_columns(columns)
        np.testing.assert_array_equal(y_hat,
                                      pipe.predict(compas_split.test))


class TestEvaluation:
    @pytest.fixture(scope="class")
    def result(self, compas_split):
        pipe = FairPipeline().fit(compas_split.train)
        return evaluate_pipeline(pipe, compas_split.test,
                                 causal_samples=2000)

    def test_all_metrics_populated(self, result):
        for value in (*result.correctness_scores().values(),
                      *result.fairness_scores().values()):
            assert math.isnan(value) or 0.0 <= value <= 1.0

    def test_raw_values_kept(self, result):
        assert set(result.raw) == {"di", "tprb", "tnrb", "id", "te",
                                   "nde", "nie"}

    def test_stage_label(self, result):
        assert result.stage == "baseline"

    def test_baseline_is_unfair_on_biased_data(self, result):
        assert result.di_star < 0.9  # synthetic COMPAS carries real bias


class TestRunExperiment:
    def test_by_name(self, compas_split):
        r = run_experiment("KamCal-dp", compas_split.train,
                           compas_split.test, causal_samples=2000)
        assert r.approach == "KamCal"
        assert r.stage == "pre-processing"

    def test_baseline_none(self, compas_split):
        r = run_experiment(None, compas_split.train, compas_split.test,
                           causal_samples=2000)
        assert r.approach == "LR"

    def test_id_trivial_for_s_blind_approach(self, compas_split):
        r = run_experiment("Feld-dp", compas_split.train,
                           compas_split.test, causal_samples=2000)
        assert r.id == pytest.approx(1.0)  # 1 - ID with ID = 0

    def test_post_processing_violates_id(self, compas_split):
        r = run_experiment("KamKar-dp", compas_split.train,
                           compas_split.test, causal_samples=2000)
        assert r.id < 1.0  # the adjustment keys on S


class TestReportFormatting:
    @pytest.fixture(scope="class")
    def results(self, compas_split):
        rows = []
        for name in (None, "KamCal-dp"):
            rows.append(run_experiment(name, compas_split.train,
                                       compas_split.test,
                                       causal_samples=1000))
        return rows

    def test_results_table(self, results):
        text = format_results_table(results, title="Figure 7(b)")
        assert "Figure 7(b)" in text
        assert "KamCal" in text
        assert "DI*" in text

    def test_runtime_table(self):
        rows = [("KamCal", {1000: 0.5, 2000: 1.1}),
                ("Feld", {1000: 0.2})]
        text = format_runtime_table(rows, sweep_label="#rows")
        assert "KamCal" in text
        assert "--" in text  # missing sweep point rendered as --

    def test_delta_table(self, results):
        text = format_delta_table(results, results,
                                  columns=["accuracy", "di_star"])
        assert "+0.000" in text or "-0.000" in text
