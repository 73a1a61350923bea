"""Tests for the rung-3 pipeline audit."""

import numpy as np
import pytest

from repro.datasets import Dataset, Table, train_test_split
from repro.pipeline import evaluate_counterfactual


@pytest.fixture(scope="module")
def compas_cf_split():
    from repro.datasets import load_compas

    return train_test_split(load_compas(2500, seed=5), seed=1)


class TestEvaluateCounterfactual:
    def test_baseline_audit_structure(self, compas_cf_split):
        audit = evaluate_counterfactual(
            None, compas_cf_split.train, compas_cf_split.test,
            n_samples=6000, n_particles=60, max_rows=25, seed=0)
        assert audit.approach == "LR"
        assert audit.dataset == "compas"
        assert 0.0 <= audit.fairness.mean_gap <= 1.0
        assert audit.fairness.n_rows == 25
        assert abs(audit.effects.residual) < 1e-9
        assert -1.0 <= audit.error_rates.fpr_gap <= 1.0

    def test_s_blind_approach_reduces_direct_effect(self, compas_cf_split):
        """Feld discards S from the model: counterfactual DE ≈ 0 and
        individuals almost never flip."""
        base = evaluate_counterfactual(
            None, compas_cf_split.train, compas_cf_split.test,
            n_samples=8000, n_particles=60, max_rows=25, seed=0)
        fair = evaluate_counterfactual(
            "Feld-dp", compas_cf_split.train, compas_cf_split.test,
            n_samples=8000, n_particles=60, max_rows=25, seed=0)
        assert abs(fair.effects.de) <= abs(base.effects.de) + 0.02
        assert fair.fairness.mean_gap <= base.fairness.mean_gap + 0.02

    def test_no_graph_rejected(self, compas_cf_split):
        train = compas_cf_split.train
        bare = Dataset(
            table=train.table,
            feature_names=train.feature_names,
            sensitive=train.sensitive,
            label=train.label,
            name="bare",
        )
        with pytest.raises(ValueError, match="no causal graph"):
            evaluate_counterfactual(None, bare, compas_cf_split.test)

    def test_deterministic_given_seed(self, compas_cf_split):
        kwargs = dict(n_samples=3000, n_particles=40, max_rows=10, seed=7)
        a = evaluate_counterfactual(None, compas_cf_split.train,
                                    compas_cf_split.test, **kwargs)
        b = evaluate_counterfactual(None, compas_cf_split.train,
                                    compas_cf_split.test, **kwargs)
        assert a.fairness.mean_gap == b.fairness.mean_gap
        assert a.effects.tv == b.effects.tv

    def test_audit_rows_binned_with_train_edges(self, compas_cf_split,
                                                monkeypatch):
        """The audit abducts the test rows binned by the components'
        train-fitted discretiser; nothing is fitted on the test split."""
        import repro.pipeline.counterfactual_eval as cf_mod
        from repro.artifacts.pack import _fit_components

        seen = {}
        real = cf_mod.counterfactual_fairness

        def spy(scm, columns, *args, **kwargs):
            seen.update(columns)
            return real(scm, columns, *args, **kwargs)

        monkeypatch.setattr(cf_mod, "counterfactual_fairness", spy)
        train, test = compas_cf_split.train, compas_cf_split.test
        evaluate_counterfactual(None, train, test, n_samples=500,
                                n_particles=5, max_rows=5, seed=0)
        components, _ = _fit_components(train, test, None, None, None, 0,
                                        4, 5, "audit.")
        numeric = list(components.numeric)
        assert numeric
        binned = components.discretizer.transform(
            test.table.to_matrix(numeric))
        for j, name in enumerate(numeric):
            np.testing.assert_array_equal(seen[name], binned[:, j])

    def test_effects_and_error_rates_share_one_draw(self, compas_cf_split,
                                                    monkeypatch):
        """After abduction the audit makes one noise draw and four
        classifier calls for the Ctf effects and the error rates."""
        import repro.pipeline.counterfactual_eval as cf_mod
        from repro.causal.counterfactual import CounterfactualSCM
        from repro.pipeline import FairPipeline

        calls = {"sample_noise": 0, "predict": 0}
        sample_noise = CounterfactualSCM.sample_noise
        predict_columns = FairPipeline.predict_columns
        fairness = cf_mod.counterfactual_fairness

        def counting_noise(self, *args, **kwargs):
            calls["sample_noise"] += 1
            return sample_noise(self, *args, **kwargs)

        def counting_predict(self, columns):
            calls["predict"] += 1
            return predict_columns(self, columns)

        def then_reset(*args, **kwargs):
            result = fairness(*args, **kwargs)
            calls.update(sample_noise=0, predict=0)  # count what follows
            return result

        monkeypatch.setattr(CounterfactualSCM, "sample_noise",
                            counting_noise)
        monkeypatch.setattr(FairPipeline, "predict_columns",
                            counting_predict)
        monkeypatch.setattr(cf_mod, "counterfactual_fairness", then_reset)
        evaluate_counterfactual("Hardt-eo", compas_cf_split.train,
                                compas_cf_split.test, n_samples=500,
                                n_particles=5, max_rows=5, seed=0)
        assert calls == {"sample_noise": 1, "predict": 4}
