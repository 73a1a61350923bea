"""Composition tests: each stage wires correctly through FairPipeline,
including the transform-on-test and SCM-prediction paths."""

import numpy as np
import pytest

from repro.fairness import Stage
from repro.fairness.inprocessing import ZhaLe
from repro.fairness.postprocessing import Hardt
from repro.fairness.preprocessing import Feld, Madras
from repro.pipeline import FairPipeline, evaluate_pipeline
from repro.registry import APPROACHES


class TestPreStage:
    def test_transforming_preprocessor_applies_to_test(self, compas_split):
        pipe = FairPipeline(Feld(lam=1.0)).fit(compas_split.train)
        # Predictions must go through the fitted quantile maps without
        # error, even on rows with values unseen in training.
        y_hat = pipe.predict(compas_split.test)
        assert y_hat.shape == (compas_split.test.n_rows,)

    def test_representation_preprocessor_full_path(self, compas_split):
        pipe = FairPipeline(Madras(n_components=3, epochs=5, seed=0))
        pipe.fit(compas_split.train)
        r = evaluate_pipeline(pipe, compas_split.test,
                              causal_samples=1000)
        assert 0.3 <= r.accuracy <= 1.0
        # Causal metrics flow through the representation transform.
        assert not np.isnan(r.te)

    def test_repair_does_not_leak_into_original(self, compas_split):
        before = compas_split.train.table.copy()
        FairPipeline(Feld(lam=1.0)).fit(compas_split.train)
        assert compas_split.train.table == before


class TestInStage:
    def test_inprocessor_receives_encoded_features(self, compas_split):
        pipe = FairPipeline(ZhaLe(epochs=3, seed=0))
        pipe.fit(compas_split.train)
        y_hat = pipe.predict(compas_split.test)
        assert set(np.unique(y_hat)) <= {0, 1}

    def test_model_argument_ignored_for_inprocessing(self, compas_split):
        from repro.models import GaussianNB

        pipe = FairPipeline(ZhaLe(epochs=3, seed=0), model=GaussianNB())
        pipe.fit(compas_split.train)
        # The GaussianNB stays unfitted: the in-processor is the model.
        assert pipe.model.theta_ is None


class TestPostStage:
    def test_adjustment_fitted_on_holdout(self, compas_split):
        pipe = FairPipeline(Hardt(), seed=0).fit(compas_split.train)
        assert pipe.approach.mix_ is not None

    def test_proba_bypasses_randomised_adjustment(self, compas_split):
        pipe = FairPipeline(Hardt(), seed=0).fit(compas_split.train)
        p = pipe.predict_proba(compas_split.test)
        # Scores are the base model's, hence continuous.
        assert len(np.unique(np.round(p, 6))) > 2

    def test_adjustment_deterministic_per_seed(self, compas_split):
        pipe = FairPipeline(Hardt(), seed=7).fit(compas_split.train)
        a = pipe.predict(compas_split.test)
        b = pipe.predict(compas_split.test)
        np.testing.assert_array_equal(a, b)


class TestStageDispatch:
    @pytest.mark.parametrize("name,expected", [
        ("KamCal-dp", Stage.PRE),
        ("Zafar-dp-fair", Stage.IN),
        ("Hardt-eo", Stage.POST),
    ])
    def test_pipeline_reports_stage(self, compas_split, name, expected):
        pipe = FairPipeline(APPROACHES.build(name, seed=0))
        assert pipe.stage is expected

    def test_unsupported_approach_type_rejected(self, compas_split):
        class NotAnApproach:
            stage = None

        pipe = FairPipeline.__new__(FairPipeline)
        pipe.approach = NotAnApproach()
        pipe.model = None
        pipe.seed = 0
        pipe._encoder = None
        pipe._schema = None
        pipe.fit_seconds_ = 0.0
        pipe._fitted = False
        with pytest.raises(TypeError):
            pipe.fit(compas_split.train)

    def test_baseline_stage_is_none(self):
        assert FairPipeline().stage is None
        assert FairPipeline().name == "LR"
