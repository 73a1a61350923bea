"""Parity of the vectorized individual-fairness metrics vs the loop
reference.

The vectorized paths reorder RNG draws (one batch per node instead of
one batch per row), so the audits are compared exactly where the
result is RNG-independent (deterministic predictors, tie-free
neighbourhoods) and to statistical tolerance where it is not.  Every consumer of the shared pairwise kernel — situation
testing, awareness, multifairness, the k-NN classifier, and k-NN
donor imputation — is checked here against its retained loop
reference, across odd kernel block boundaries; the k-NN classifier and
imputer also on repeated rows, which the kernel searches once.
"""

import numpy as np
import pytest

from repro import obs
from repro.causal import CausalGraph, CounterfactualSCM, DiscreteCPT
from repro.errors.imputers import impute_knn
from repro.metrics import (counterfactual_fairness,
                           fairness_through_awareness, metric_multifairness,
                           situation_testing)
from repro.metrics.reference import (counterfactual_fairness_loop,
                                     fairness_through_awareness_dense,
                                     impute_knn_loop,
                                     knn_predict_proba_loop,
                                     metric_multifairness_dense,
                                     situation_testing_loop)
from repro.models.knn import KNearestNeighbors

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


class TestCounterfactualFairnessParity:
    def test_deterministic_predictors_match_loop_exactly(self):
        """Constant and S-reading predictors give RNG-independent gaps
        (0 and 1), so batched and loop audits must agree exactly."""
        scm = small_scm()
        cols = scm.sample(60, RNG(0))
        for predict in (lambda v: np.ones_like(v["S"]), lambda v: v["S"]):
            vec = counterfactual_fairness(
                scm, cols, "S", "Y", predict, RNG(1),
                n_particles=40, max_rows=50)
            loop = counterfactual_fairness_loop(
                scm, cols, "S", "Y", predict, RNG(2),
                n_particles=40, max_rows=50)
            assert vec.mean_gap == loop.mean_gap
            assert vec.max_gap == loop.max_gap
            assert vec.unfair_fraction == loop.unfair_fraction
            assert vec.n_rows == loop.n_rows

    def test_mediated_predictor_matches_loop_statistically(self):
        scm = small_scm()
        cols = scm.sample(80, RNG(3))
        vec = counterfactual_fairness(
            scm, cols, "S", "Y", lambda v: v["X"], RNG(4),
            n_particles=600, max_rows=60)
        loop = counterfactual_fairness_loop(
            scm, cols, "S", "Y", lambda v: v["X"], RNG(5),
            n_particles=600, max_rows=60)
        assert vec.mean_gap == pytest.approx(loop.mean_gap, abs=0.05)
        assert vec.unfair_fraction == pytest.approx(
            loop.unfair_fraction, abs=0.1)

    def test_chunked_audit_matches_unchunked_statistically(self):
        scm = small_scm()
        cols = scm.sample(48, RNG(6))
        one = counterfactual_fairness(
            scm, cols, "S", "Y", lambda v: v["X"], RNG(7),
            n_particles=500, max_rows=None, chunk_rows=7)
        big = counterfactual_fairness(
            scm, cols, "S", "Y", lambda v: v["X"], RNG(8),
            n_particles=500, max_rows=None)
        assert one.n_rows == big.n_rows == 48
        assert one.mean_gap == pytest.approx(big.mean_gap, abs=0.05)

    def test_chunk_counters(self):
        scm = small_scm()
        cols = scm.sample(100, RNG(0))
        with obs.recording() as rec:
            counterfactual_fairness(
                scm, cols, "S", "Y", lambda v: v["S"], RNG(1),
                n_particles=5, max_rows=100, chunk_rows=17)
        counters = rec.snapshot()["counters"]
        assert counters["abduction.chunks"] == -(-100 // 17)
        assert counters["abduction.rows"] == 100

    def test_empty_audit_raises_clear_error(self):
        scm = small_scm()
        cols = scm.sample(10, RNG(9))
        with pytest.raises(ValueError, match="no rows to audit"):
            counterfactual_fairness(scm, cols, "S", "Y",
                                    lambda v: v["S"], RNG(0), max_rows=0)

    def test_zero_length_columns_raise_clear_error(self):
        scm = small_scm()
        empty = {n: np.empty(0) for n in scm.graph.nodes}
        with pytest.raises(ValueError, match="no rows to audit"):
            counterfactual_fairness(scm, empty, "S", "Y",
                                    lambda v: v["S"], RNG(0))

    def test_invalid_particles_rejected(self):
        scm = small_scm()
        cols = scm.sample(5, RNG(0))
        with pytest.raises(ValueError, match="n_particles"):
            counterfactual_fairness(scm, cols, "S", "Y",
                                    lambda v: v["S"], RNG(0), n_particles=0)

    def test_invalid_chunk_rows_rejected(self):
        """A non-positive chunk would skip the batch loop and return
        uninitialized gaps — must raise instead."""
        scm = small_scm()
        cols = scm.sample(5, RNG(0))
        for chunk_rows in (0, -1):
            with pytest.raises(ValueError, match="chunk_rows"):
                counterfactual_fairness(scm, cols, "S", "Y",
                                        lambda v: v["S"], RNG(0),
                                        chunk_rows=chunk_rows)


class TestSituationTestingParity:
    def make_data(self, n=300, seed=0):
        rng = RNG(seed)
        X = rng.normal(size=(n, 4))  # continuous → tie-free distances
        s = (rng.random(n) < 0.5).astype(int)
        y_hat = (X[:, 0] + 0.8 * s > 0).astype(float)
        return X, s, y_hat

    def test_matches_loop_on_tie_free_data(self):
        X, s, y_hat = self.make_data()
        vec = situation_testing(X, s, y_hat, k=9)
        loop = situation_testing_loop(X, s, y_hat, k=9)
        assert vec.mean_gap == pytest.approx(loop.mean_gap, abs=1e-9)
        assert vec.flagged_fraction == loop.flagged_fraction
        assert vec.n_audited == loop.n_audited

    def test_block_size_does_not_change_result(self):
        X, s, y_hat = self.make_data(seed=2, n=150)
        whole = situation_testing(X, s, y_hat, k=6, block_size=10_000)
        tiny = situation_testing(X, s, y_hat, k=6, block_size=13)
        assert whole.mean_gap == pytest.approx(tiny.mean_gap, abs=1e-12)
        assert whole.flagged_fraction == tiny.flagged_fraction

    # 419/420/427 are n−1 / n / n+7 for the n below: blocks that just
    # miss, exactly hit, and overshoot the audited count.
    @pytest.mark.parametrize("block_size", [1, None, 419, 420, 427])
    def test_matches_loop_across_odd_block_boundaries(self, block_size):
        """Blockwise top-k must agree with the loop reference whatever
        the tiling — including one-row blocks and blocks around the
        query-count boundary."""
        X, s, y_hat = self.make_data(seed=5, n=420)
        vec = situation_testing(X, s, y_hat, k=7, block_size=block_size)
        loop = situation_testing_loop(X, s, y_hat, k=7)
        assert vec.mean_gap == pytest.approx(loop.mean_gap, abs=1e-9)
        assert vec.flagged_fraction == loop.flagged_fraction
        assert vec.n_audited == loop.n_audited

    def test_matches_loop_at_larger_n(self):
        X, s, y_hat = self.make_data(seed=6, n=1500)
        vec = situation_testing(X, s, y_hat, k=11, block_size=256)
        loop = situation_testing_loop(X, s, y_hat, k=11)
        assert vec.mean_gap == pytest.approx(loop.mean_gap, abs=1e-9)
        assert vec.flagged_fraction == loop.flagged_fraction

    def test_invalid_block_size_rejected(self):
        X, s, y_hat = self.make_data(seed=3, n=60)
        with pytest.raises(ValueError, match="block_size"):
            situation_testing(X, s, y_hat, k=4, block_size=0)


class TestDistanceParity:
    def test_awareness_matches_dense_path(self):
        rng = RNG(1)
        X = rng.random((250, 3))
        scores = (X[:, 0] > 0.5).astype(float)
        sparse = fairness_through_awareness(X, scores, RNG(2))
        dense = fairness_through_awareness_dense(X, scores, RNG(2))
        assert sparse == pytest.approx(dense, abs=1e-3)

    def test_multifairness_matches_dense_path(self):
        rng = RNG(3)
        X = rng.random((250, 2))
        scores = 0.4 * X[:, 0] + 0.1 * X[:, 1]
        sparse = metric_multifairness(X, scores, RNG(4))
        dense = metric_multifairness_dense(X, scores, RNG(4))
        assert sparse == pytest.approx(dense, abs=1e-3)


class TestKnnModelParity:
    """The k-NN classifier rides the shared kernel; its votes must
    match the per-query loop reference exactly on tie-free data."""

    def make_data(self, n=260, d=4, seed=0):
        rng = RNG(seed)
        X = rng.normal(size=(n, d))
        y = (X @ np.arange(1, d + 1) > 0).astype(int)
        return X, y

    @pytest.mark.parametrize("block_size", [1, 63, 64, 71, None])
    def test_matches_loop_across_block_boundaries(self, block_size):
        X, y = self.make_data()
        model = KNearestNeighbors(k=7, block_size=block_size).fit(X, y)
        queries = X[:64]
        ref = knn_predict_proba_loop(X, y, np.ones(len(y)), queries, 7)
        np.testing.assert_allclose(model.predict_proba(queries), ref)

    def test_weighted_votes_match_loop(self):
        X, y = self.make_data(seed=1)
        rng = RNG(2)
        w = rng.random(len(y)) + 0.1
        model = KNearestNeighbors(k=9).fit(X, y, sample_weight=w)
        ref = knn_predict_proba_loop(X, y, w, X[:80], 9)
        np.testing.assert_allclose(model.predict_proba(X[:80]), ref)

    def test_k_above_train_size_matches_loop(self):
        X, y = self.make_data(n=12)
        model = KNearestNeighbors(k=40).fit(X, y)
        ref = knn_predict_proba_loop(X, y, np.ones(len(y)), X, 40)
        np.testing.assert_allclose(model.predict_proba(X), ref)

    def test_offset_features_match_loop(self):
        """Raw unscaled features with a large common offset (e.g.
        timestamps) must not lose precision in the kernel's screen —
        regression test for float32 Gram cancellation."""
        rng = RNG(3)
        X = rng.normal(size=(400, 5)) + 1e4
        y = (X[:, 0] > 1e4).astype(int)
        model = KNearestNeighbors(k=7).fit(X, y)
        queries = X[:50]
        ref = knn_predict_proba_loop(X, y, np.ones(len(y)), queries, 7)
        np.testing.assert_allclose(model.predict_proba(queries), ref)

    @pytest.mark.parametrize("block_size", [1, 7, None])
    def test_duplicated_queries_match_loop(self, block_size):
        """Each distinct query row is searched once and its votes
        copied to its repeats; the repeats must still get the loop's
        answer."""
        X, y = self.make_data()
        model = KNearestNeighbors(k=7, block_size=block_size).fit(X, y)
        queries = X[RNG(4).integers(0, 30, 200)]
        ref = knn_predict_proba_loop(X, y, np.ones(len(y)), queries, 7)
        np.testing.assert_allclose(model.predict_proba(queries), ref)


class TestImputeKnnParity:
    """k-NN donor imputation rides the masked kernel; donors must
    match the per-row loop reference on tie-free data."""

    def make_data(self, n=70, d=5, seed=0, hole_rate=0.2):
        rng = RNG(seed)
        X = rng.normal(size=(n, d))
        holes = rng.random((n, d)) < hole_rate
        holes &= ~np.all(holes, axis=0)  # keep every column imputable
        X[holes] = np.nan
        return X

    @pytest.mark.parametrize("block_size", [1, 69, 70, 77, None])
    def test_matches_loop_across_block_boundaries(self, block_size):
        X = self.make_data()
        out = impute_knn(X, k=3, block_size=block_size)
        ref = impute_knn_loop(X, k=3)
        np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_matches_loop_with_dense_holes(self):
        X = self.make_data(seed=1, hole_rate=0.45)
        np.testing.assert_allclose(impute_knn(X, k=4),
                                   impute_knn_loop(X, k=4), atol=1e-9)

    @pytest.mark.parametrize("block_size", [1, 5, None])
    def test_duplicated_rows_match_loop(self, block_size):
        """Rows repeated with their holes are repaired once per
        distinct row; every repeat must get the loop's repair, and the
        repeats of one row the same bytes."""
        base = self.make_data(n=40, hole_rate=0.3)
        pick = RNG(5).integers(0, 40, 150)
        X = base[pick]
        out = impute_knn(X, k=3, block_size=block_size)
        np.testing.assert_allclose(out, impute_knn_loop(X, k=3), atol=1e-9)
        first = {}
        for row, source in enumerate(pick):
            np.testing.assert_array_equal(out[row],
                                          out[first.setdefault(source, row)])
