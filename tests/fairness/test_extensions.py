"""Tests for the extension approaches (massaging, prejudice remover)
and cross-stage composition."""

import numpy as np
import pytest

from repro.datasets import train_test_split
from repro.fairness import Stage
from repro.fairness.inprocessing.kamishima import Kamishima
from repro.fairness.postprocessing import Hardt, KamKar
from repro.fairness.preprocessing import KamCal
from repro.fairness.preprocessing.calders import CaldersVerwer
from repro.metrics import disparate_impact
from repro.pipeline import (ChainedPreprocessor, ComposedPipeline,
                            FairPipeline, evaluate_pipeline,
                            run_experiment)
from repro.registry import APPROACHES


class TestCaldersVerwer:
    def test_flips_needed_balances_rates(self, compas_small):
        s, y = compas_small.s, compas_small.y
        m = CaldersVerwer.flips_needed(s, y)
        assert m > 0  # COMPAS labels are biased against the unprivileged
        y_new = y.copy()
        # Simulate m promotions / demotions (any choice balances rates).
        up = np.flatnonzero((s == 0) & (y == 0))[:m]
        down = np.flatnonzero((s == 1) & (y == 1))[:m]
        y_new[up], y_new[down] = 1, 0
        rate0 = y_new[s == 0].mean()
        rate1 = y_new[s == 1].mean()
        assert rate0 == pytest.approx(rate1, abs=0.01)

    def test_repair_equalises_training_label_rates(self, compas_small):
        repaired = CaldersVerwer(level=1.0).repair(compas_small)
        s, y = repaired.s, repaired.y
        assert y[s == 0].mean() == pytest.approx(y[s == 1].mean(), abs=0.01)

    def test_repair_flips_minimal_count(self, compas_small):
        repaired = CaldersVerwer(level=1.0).repair(compas_small)
        flips = int(np.sum(repaired.y != compas_small.y))
        assert flips == 2 * CaldersVerwer.flips_needed(
            compas_small.s, compas_small.y)

    def test_level_zero_is_identity(self, compas_small):
        repaired = CaldersVerwer(level=0.0).repair(compas_small)
        assert np.array_equal(repaired.y, compas_small.y)

    def test_partial_level_flips_fewer(self, compas_small):
        full = CaldersVerwer(level=1.0).repair(compas_small)
        half = CaldersVerwer(level=0.5).repair(compas_small)
        flips_full = int(np.sum(full.y != compas_small.y))
        flips_half = int(np.sum(half.y != compas_small.y))
        assert 0 < flips_half < flips_full

    def test_invalid_level(self):
        with pytest.raises(ValueError, match="level"):
            CaldersVerwer(level=1.5)

    def test_improves_downstream_di(self, compas_split):
        base = run_experiment(None, compas_split.train, compas_split.test,
                              causal_samples=1000)
        fair = run_experiment("CaldersVerwer-dp", compas_split.train,
                              compas_split.test, causal_samples=1000)
        assert fair.di_star > base.di_star


class TestKamishima:
    def test_eta_zero_matches_plain_lr_closely(self, compas_split):
        train, test = compas_split.train, compas_split.test
        pipe = FairPipeline(Kamishima(eta=0.0), seed=0).fit(train)
        r = evaluate_pipeline(pipe, test, causal_samples=1000)
        base = run_experiment(None, train, test, causal_samples=1000)
        assert abs(r.accuracy - base.accuracy) < 0.05

    def test_larger_eta_improves_di(self, compas_split):
        train, test = compas_split.train, compas_split.test
        results = {}
        for eta in (0.0, 15.0):
            pipe = FairPipeline(Kamishima(eta=eta), seed=0).fit(train)
            y_hat = pipe.predict(test)
            results[eta] = disparate_impact(y_hat, test.s)
        # DI < 1 on COMPAS; the regulariser should push it toward 1.
        assert results[15.0] > results[0.0]

    def test_probabilities_valid(self, compas_split):
        pipe = FairPipeline(Kamishima(eta=5.0), seed=0).fit(
            compas_split.train)
        probs = pipe.predict_proba(compas_split.test)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            Kamishima().predict(np.zeros((2, 3)), np.zeros(2))

    def test_invalid_eta(self):
        with pytest.raises(ValueError, match="eta"):
            Kamishima(eta=-1.0)


class TestRegistryExtensions:
    def test_extension_names_resolvable(self):
        for name in APPROACHES.keys(group="extension"):
            approach = APPROACHES.build(name, seed=0)
            assert approach.name == name

    def test_stages(self):
        assert APPROACHES.build("CaldersVerwer-dp").stage is Stage.PRE
        assert APPROACHES.build("Kamishima-pr").stage is Stage.IN


class TestChainedPreprocessor:
    def test_chain_applies_all_members(self, compas_small):
        chain = ChainedPreprocessor([CaldersVerwer(), KamCal(seed=0)])
        repaired = chain.repair(compas_small)
        # After massaging + reweighed resampling, label rates stay close.
        s, y = repaired.s, repaired.y
        assert abs(y[s == 0].mean() - y[s == 1].mean()) < 0.05

    def test_name_joins_members(self):
        chain = ChainedPreprocessor([CaldersVerwer(), KamCal()])
        assert chain.name == "CaldersVerwer-dp+KamCal"

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ChainedPreprocessor([])

    def test_non_preprocessor_rejected(self):
        with pytest.raises(TypeError, match="not a Preprocessor"):
            ChainedPreprocessor([Hardt()])


class TestComposedPipeline:
    def test_pre_plus_post_runs_and_scores(self, compas_split):
        pipe = ComposedPipeline(pre=KamCal(seed=0), post=KamKar(), seed=0)
        pipe.fit(compas_split.train)
        result = evaluate_pipeline(pipe, compas_split.test,
                                   causal_samples=1000)
        assert result.stage == "pre+post"
        assert 0.3 < result.accuracy <= 1.0

    def test_composition_improves_di_over_baseline(self, compas_split):
        base = run_experiment(None, compas_split.train, compas_split.test,
                              causal_samples=1000)
        pipe = ComposedPipeline(pre=KamCal(seed=0), post=KamKar(), seed=0)
        pipe.fit(compas_split.train)
        composed = evaluate_pipeline(pipe, compas_split.test,
                                     causal_samples=1000)
        assert composed.di_star > base.di_star

    def test_name_combines_stages(self):
        pipe = ComposedPipeline(pre=KamCal(), post=Hardt())
        assert "KamCal" in pipe.name and "Hardt" in pipe.name

    def test_single_stage_labels(self):
        assert ComposedPipeline(pre=KamCal()).stage_name == "pre"
        assert ComposedPipeline(post=Hardt()).stage_name == "post"

    def test_needs_some_stage(self):
        with pytest.raises(ValueError, match="at least one"):
            ComposedPipeline()

    def test_type_validation(self):
        with pytest.raises(TypeError, match="not a Preprocessor"):
            ComposedPipeline(pre=Hardt())
        with pytest.raises(TypeError, match="not a PostProcessor"):
            ComposedPipeline(post=KamCal())

    def test_unfitted_predict_raises(self, compas_small):
        pipe = ComposedPipeline(pre=KamCal())
        with pytest.raises(RuntimeError, match="not fitted"):
            pipe.predict(compas_small)
