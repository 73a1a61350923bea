"""Tests for the OmniFair-style declarative post-processor."""

import numpy as np
import pytest

from repro.fairness.postprocessing import OmniFair
from repro.metrics import disparate_impact
from repro.pipeline import FairPipeline, evaluate_pipeline, run_experiment

RNG = np.random.default_rng


def biased_scores(n=4000, seed=0):
    """Scores systematically lower for the unprivileged group."""
    rng = RNG(seed)
    s = (rng.random(n) < 0.5).astype(int)
    latent = rng.normal(0, 1, n) + 0.8 * s
    y = (latent + rng.normal(0, 0.5, n) > 0.4).astype(int)
    scores = 1 / (1 + np.exp(-latent))
    return y, scores, s


class TestFit:
    def test_dp_constraint_satisfied_in_sample(self):
        y, scores, s = biased_scores()
        of = OmniFair(metric="dp", epsilon=0.03).fit(y, scores, s)
        pred = of.adjust(scores, s, RNG(0))
        gap = abs(pred[s == 0].mean() - pred[s == 1].mean())
        assert of.feasible_
        assert gap <= 0.03 + 1e-9

    def test_tpr_constraint_satisfied(self):
        y, scores, s = biased_scores(seed=1)
        of = OmniFair(metric="tpr", epsilon=0.05).fit(y, scores, s)
        pred = of.adjust(scores, s, RNG(0))
        tpr0 = pred[(s == 0) & (y == 1)].mean()
        tpr1 = pred[(s == 1) & (y == 1)].mean()
        assert abs(tpr0 - tpr1) <= 0.05 + 1e-9

    def test_fpr_constraint_satisfied(self):
        y, scores, s = biased_scores(seed=2)
        of = OmniFair(metric="fpr", epsilon=0.05).fit(y, scores, s)
        pred = of.adjust(scores, s, RNG(0))
        fpr0 = pred[(s == 0) & (y == 0)].mean()
        fpr1 = pred[(s == 1) & (y == 0)].mean()
        assert abs(fpr0 - fpr1) <= 0.05 + 1e-9

    def test_accuracy_maximal_among_feasible(self):
        """A looser epsilon can only improve in-sample accuracy."""
        y, scores, s = biased_scores(seed=3)
        accs = {}
        for eps in (0.01, 0.10, 1.0):
            of = OmniFair(epsilon=eps).fit(y, scores, s)
            pred = of.adjust(scores, s, RNG(0))
            accs[eps] = float(np.mean(pred == y))
        assert accs[0.01] <= accs[0.10] <= accs[1.0]

    def test_epsilon_one_recovers_single_best_threshold(self):
        y, scores, s = biased_scores(seed=4)
        of = OmniFair(epsilon=1.0).fit(y, scores, s)
        # Unconstrained: thresholds are accuracy-optimal per group.
        pred = of.adjust(scores, s, RNG(0))
        plain = (scores >= 0.5).astype(int)
        assert np.mean(pred == y) >= np.mean(plain == y) - 1e-9

    def test_infeasible_epsilon_falls_back_to_fairest(self):
        # Degenerate scores: only two score values per group — with a
        # coarse grid some tiny epsilon may be unreachable.
        y = np.array([0, 1, 0, 1])
        scores = np.array([0.3, 0.4, 0.6, 0.9])
        s = np.array([0, 0, 1, 1])
        of = OmniFair(epsilon=0.0, n_thresholds=3).fit(y, scores, s)
        assert of.thresholds_ is not None

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match="both sensitive groups"):
            OmniFair().fit(np.array([0, 1]), np.array([0.2, 0.8]),
                           np.array([1, 1]))

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            OmniFair().fit(np.zeros(3), np.zeros(2), np.zeros(3))


class TestValidation:
    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            OmniFair(metric="calibration")

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            OmniFair(epsilon=2.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError, match="n_thresholds"):
            OmniFair(n_thresholds=1)

    def test_unfitted_adjust(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            OmniFair().adjust(np.array([0.5]), np.array([0]), RNG(0))


class TestEndToEnd:
    def test_improves_di_on_compas(self, compas_split):
        base = run_experiment(None, compas_split.train, compas_split.test,
                              causal_samples=1000)
        pipe = FairPipeline(OmniFair(metric="dp", epsilon=0.03),
                            seed=0).fit(compas_split.train)
        result = evaluate_pipeline(pipe, compas_split.test,
                                   causal_samples=1000)
        assert result.di_star > base.di_star

    def test_out_of_sample_gap_reasonable(self, compas_split):
        pipe = FairPipeline(OmniFair(metric="dp", epsilon=0.03),
                            seed=0).fit(compas_split.train)
        y_hat = pipe.predict(compas_split.test)
        di = disparate_impact(y_hat, compas_split.test.s)
        assert min(di, 1 / di if di > 0 else 0) > 0.7

    def test_registry_name(self):
        from repro.registry import APPROACHES

        approach = APPROACHES.build("OmniFair-dp", seed=0)
        assert approach.name == "OmniFair-dp"
        assert approach.notion.value == "demographic parity"
