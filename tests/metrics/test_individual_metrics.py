"""Tests for the individual-level fairness metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import CausalGraph, CounterfactualSCM, DiscreteCPT
from repro.metrics import (counterfactual_fairness,
                           fairness_through_awareness, metric_multifairness,
                           pairwise, path_specific_counterfactual_fairness,
                           situation_testing)

RNG = np.random.default_rng
DOM = np.array([0.0, 1.0])


def small_scm():
    """S → X → Y with direct S → Y."""
    cpts = {
        "S": DiscreteCPT((), DOM, {(): np.array([0.5, 0.5])}),
        "X": DiscreteCPT(("S",), DOM, {
            (0.0,): np.array([0.7, 0.3]),
            (1.0,): np.array([0.3, 0.7]),
        }),
        "Y": DiscreteCPT(("S", "X"), DOM, {
            (0.0, 0.0): np.array([0.9, 0.1]),
            (1.0, 0.0): np.array([0.5, 0.5]),
            (0.0, 1.0): np.array([0.6, 0.4]),
            (1.0, 1.0): np.array([0.2, 0.8]),
        }),
    }
    graph = CausalGraph([("S", "X"), ("S", "Y"), ("X", "Y")])
    return CounterfactualSCM(graph, cpts)


def sample_columns(scm, n, seed=0):
    return scm.sample(n, RNG(seed))


class TestCounterfactualFairness:
    def test_s_blind_predictor_is_cf_fair_given_full_evidence(self):
        """A predictor reading only X never flips: X is part of the
        evidence, and do(S=·) cannot change an observed non-descendant
        pathway when noise is abducted exactly... X *is* a descendant
        of S here, so instead audit a constant predictor."""
        scm = small_scm()
        cols = sample_columns(scm, 40)
        res = counterfactual_fairness(
            scm, cols, "S", "Y",
            predict=lambda v: np.ones_like(v["S"]),
            rng=RNG(1), n_particles=100, max_rows=30)
        assert res.mean_gap == pytest.approx(0.0, abs=1e-12)
        assert res.unfair_fraction == 0.0

    def test_s_reading_predictor_is_maximally_unfair(self):
        scm = small_scm()
        cols = sample_columns(scm, 40)
        res = counterfactual_fairness(
            scm, cols, "S", "Y", predict=lambda v: v["S"],
            rng=RNG(2), n_particles=50, max_rows=20)
        assert res.mean_gap == pytest.approx(1.0, abs=1e-12)
        assert res.unfair_fraction == 1.0
        assert res.n_rows == 20

    def test_mediated_predictor_has_intermediate_gap(self):
        scm = small_scm()
        cols = sample_columns(scm, 60)
        res = counterfactual_fairness(
            scm, cols, "S", "Y", predict=lambda v: v["X"],
            rng=RNG(3), n_particles=300, max_rows=40)
        assert 0.0 < res.mean_gap < 1.0
        assert res.max_gap <= 1.0

    def test_missing_columns_rejected(self):
        scm = small_scm()
        with pytest.raises(ValueError, match="missing"):
            counterfactual_fairness(
                scm, {"S": np.zeros(3)}, "S", "Y",
                predict=lambda v: v["S"], rng=RNG(0))


class TestPathSpecificCF:
    def test_direct_edge_only(self):
        scm = small_scm()
        effect = path_specific_counterfactual_fairness(
            scm, "S", "Y", {("S", "Y")},
            predict=None or (lambda v: v["Y"]), n=40000, rng=RNG(0))
        # Direct effect of S on Y is +0.4 at every X level in the CPT.
        assert effect == pytest.approx(0.4, abs=0.03)

    def test_no_discriminatory_paths_means_fair(self):
        scm = small_scm()
        effect = path_specific_counterfactual_fairness(
            scm, "S", "Y", frozenset(), predict=lambda v: v["Y"],
            n=10000, rng=RNG(1))
        assert effect == pytest.approx(0.0, abs=1e-12)


class TestSituationTesting:
    def make_data(self, n=400, seed=0, discriminate=False):
        rng = RNG(seed)
        X = rng.normal(size=(n, 3))
        s = (rng.random(n) < 0.5).astype(int)
        score = X[:, 0] + 0.5 * X[:, 1]
        if discriminate:
            score = score + 1.5 * s  # privileged get a boost
        y_hat = (score > 0).astype(float)
        return X, s, y_hat

    def test_blind_decisions_not_flagged(self):
        X, s, y_hat = self.make_data(discriminate=False)
        res = situation_testing(X, s, y_hat, k=10, threshold=0.3)
        assert res.flagged_fraction < 0.15
        assert abs(res.mean_gap) < 0.1

    def test_discriminatory_decisions_flagged(self):
        X, s, y_hat = self.make_data(discriminate=True)
        res = situation_testing(X, s, y_hat, k=10, threshold=0.3)
        assert res.flagged_fraction > 0.4
        assert res.mean_gap > 0.2

    def test_audit_group_selection(self):
        X, s, y_hat = self.make_data()
        res0 = situation_testing(X, s, y_hat, audit_group=0)
        res1 = situation_testing(X, s, y_hat, audit_group=1)
        assert res0.n_audited + res1.n_audited == len(s)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            situation_testing(np.zeros((5, 2)), np.zeros(4), np.zeros(5))

    def test_k_validation(self):
        X, s, y_hat = self.make_data(n=50)
        with pytest.raises(ValueError, match="at least 1"):
            situation_testing(X, s, y_hat, k=0)

    def test_k_above_group_size_clamps(self):
        """A group smaller than k contributes the neighbours it has
        instead of failing the whole audit."""
        rng = RNG(0)
        X = rng.normal(size=(30, 3))
        s = np.zeros(30, dtype=int)
        s[:4] = 1  # only 4 privileged members, k far above that
        y_hat = np.ones(30)
        res = situation_testing(X, s, y_hat, k=10)
        assert res.n_audited == 26
        assert res.mean_gap == pytest.approx(0.0)  # decisions all equal
        assert np.isfinite(res.flagged_fraction)

    def test_empty_group_rejected(self):
        X = RNG(0).normal(size=(5, 2))
        s = np.zeros(5, dtype=int)
        with pytest.raises(ValueError, match="non-empty"):
            situation_testing(X, s, np.zeros(5), k=2)

    def test_single_member_group_as_neighbour_pool(self):
        """A single-member privileged group still supplies its one
        neighbour to every audited individual."""
        rng = RNG(1)
        X = rng.normal(size=(12, 2))
        s = np.zeros(12, dtype=int)
        s[0] = 1
        y_hat = np.ones(12)
        res = situation_testing(X, s, y_hat, k=3)
        assert res.n_audited == 11
        assert res.mean_gap == pytest.approx(0.0)

    def test_lone_audited_individual_rejected(self):
        """An auditee that is its own group's only member has no
        within-group neighbours; when no auditee has usable rates the
        audit fails with a clear message rather than returning NaN."""
        rng = RNG(2)
        X = rng.normal(size=(5, 2))
        s = np.array([0, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="usable neighbours"):
            situation_testing(X, s, np.ones(5), k=2, audit_group=0)

    def test_zero_variance_features_do_not_blow_up(self):
        """Constant features must contribute nothing — not NaN scales
        from a zero span."""
        rng = RNG(3)
        X = np.column_stack([rng.normal(size=40), np.full(40, 7.0)])
        s = (rng.random(40) < 0.5).astype(int)
        y_hat = (X[:, 0] > 0).astype(float)
        res = situation_testing(X, s, y_hat, k=5)
        assert np.isfinite(res.mean_gap)
        assert np.isfinite(res.flagged_fraction)


class TestNormalizedEuclidean:
    """The live metrics' individual distance: min-max scaling, then
    Euclidean distance over the sampled pairs."""

    def test_constant_feature_ignored(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        d = pairwise.pair_distances(pairwise.minmax_scale(X),
                                    np.array([0]), np.array([4]))
        assert d[0] == pytest.approx(1.0)

    def test_single_row_distance_matrix(self):
        """One row means every feature is constant — the scale guard
        must yield a clean zero self-distance."""
        Z = pairwise.minmax_scale(np.array([[3.0, -2.0, 9.0]]))
        assert np.array_equal(Z, np.zeros((1, 3)))
        d = pairwise.pair_distances(Z, np.array([0]), np.array([0]))
        assert np.array_equal(d, np.zeros(1))


class TestAwareness:
    def test_lipschitz_scores_pass(self):
        rng = RNG(0)
        X = rng.random((200, 2))
        # Score is 0.3 * first (normalised) feature: Lipschitz with L=1.
        scores = 0.3 * (X[:, 0] - X[:, 0].min()) / np.ptp(X[:, 0])
        v = fairness_through_awareness(X, scores, RNG(1), lipschitz=1.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_discontinuous_scores_fail(self):
        rng = RNG(2)
        X = rng.random((300, 2))
        scores = (X[:, 0] > 0.5).astype(float)  # jump at the threshold
        v = fairness_through_awareness(X, scores, RNG(3), lipschitz=1.0)
        assert v > 0.05

    def test_invalid_lipschitz(self):
        with pytest.raises(ValueError, match="lipschitz"):
            fairness_through_awareness(
                np.zeros((10, 2)), np.zeros(10), RNG(0), lipschitz=0.0)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            fairness_through_awareness(np.zeros((10, 2)), np.zeros(9), RNG(0))


class TestMetricMultifairness:
    def test_smooth_scores_are_multifair(self):
        rng = RNG(0)
        X = rng.random((300, 2))
        scores = 0.1 * X[:, 0]
        v = metric_multifairness(X, scores, RNG(1))
        assert v < 0.1

    def test_no_similar_pairs_raises(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="no similar pairs"):
            metric_multifairness(X, np.zeros(2), RNG(0), radius=0.01)
