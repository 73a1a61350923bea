"""Behavioural tests shared across all model families, plus
model-specific checks."""

from unittest import mock

import numpy as np
import pytest

from repro.metrics import pairwise
from repro.models import (DecisionTree, GaussianNB, KernelSVM,
                          KNearestNeighbors, LinearSVM, LogisticRegression,
                          MLPClassifier, RandomForest, RBFSampler)


def linearly_separable(n=300, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X @ np.arange(1, d + 1) > 0).astype(int)
    return X, y


def xor_data(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


ALL_MODELS = [
    LogisticRegression(),
    LinearSVM(epochs=30),
    KernelSVM(n_components=150, epochs=30),
    KNearestNeighbors(k=7),
    DecisionTree(max_depth=8),
    RandomForest(n_trees=15, max_depth=8),
    MLPClassifier(epochs=40),
    GaussianNB(),
]


@pytest.mark.parametrize("model", ALL_MODELS,
                         ids=lambda m: type(m).__name__)
class TestCommonBehaviour:
    def test_fits_separable_data(self, model):
        X, y = linearly_separable()
        acc = model.clone().fit(X, y).score(X, y)
        assert acc > 0.85

    def test_proba_in_unit_interval(self, model):
        X, y = linearly_separable(150)
        p = model.clone().fit(X, y).predict_proba(X)
        assert p.shape == (150,)
        assert (p >= 0).all() and (p <= 1).all()

    def test_predict_is_binary(self, model):
        X, y = linearly_separable(100)
        y_hat = model.clone().fit(X, y).predict(X)
        assert set(np.unique(y_hat)) <= {0, 1}

    def test_unfitted_raises(self, model):
        with pytest.raises(RuntimeError):
            model.clone().predict_proba(np.ones((2, 4)))

    def test_single_class_handled_or_rejected(self, model):
        """Training on one class either works (predicting it) or raises
        a clear error — never crashes cryptically."""
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = np.ones(30, dtype=int)
        try:
            fitted = model.clone().fit(X, y)
        except (ValueError, np.linalg.LinAlgError):
            return
        assert fitted.predict(X).mean() >= 0.5

    def test_sample_weight_shifts_decision(self, model):
        """Heavily weighting one class pushes predictions toward it."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] + 0.3 * rng.normal(size=400) > 0).astype(int)
        w = np.where(y == 1, 50.0, 1.0)
        base = model.clone().fit(X, y).predict(X).mean()
        weighted = model.clone().fit(X, y, sample_weight=w).predict(X).mean()
        assert weighted >= base - 0.02


class TestLogisticRegression:
    def test_recovers_direction(self):
        X, y = linearly_separable(2000, d=3, seed=2)
        m = LogisticRegression(l2=0.01).fit(X, y)
        # Coefficients proportional to (1, 2, 3).
        ratios = m.coef_ / m.coef_[0]
        np.testing.assert_allclose(ratios, [1, 2, 3], rtol=0.15)

    def test_l2_shrinks_weights(self):
        X, y = linearly_separable(500)
        small = LogisticRegression(l2=0.01).fit(X, y)
        large = LogisticRegression(l2=100.0).fit(X, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_negative_l2_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression(l2=-1)

    def test_converges_quickly_on_easy_data(self):
        X, y = linearly_separable(500)
        m = LogisticRegression().fit(X, y)
        assert m.n_iter_ < 50

    def test_decision_function_sign_matches_predict(self):
        X, y = linearly_separable(200)
        m = LogisticRegression().fit(X, y)
        np.testing.assert_array_equal(
            m.predict(X), (m.decision_function(X) >= 0).astype(int))


class TestSVM:
    def test_kernel_svm_solves_xor(self):
        X, y = xor_data()
        m = KernelSVM(gamma=2.0, n_components=300, epochs=40)
        assert m.fit(X, y).score(X, y) > 0.8

    def test_linear_svm_cannot_solve_xor(self):
        X, y = xor_data()
        m = LinearSVM(epochs=40)
        assert m.fit(X, y).score(X, y) < 0.7

    def test_rbf_sampler_approximates_kernel(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        gamma = 0.5
        sampler = RBFSampler(gamma=gamma, n_components=4000, seed=0).fit(X)
        Z = sampler.transform(X)
        approx = Z @ Z.T
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        exact = np.exp(-gamma * d2)
        assert np.abs(approx - exact).mean() < 0.05

    def test_scale_gamma_resolved(self):
        X, y = linearly_separable(100)
        m = KernelSVM(gamma="scale").fit(X, y)
        assert m.sampler_.gamma > 0

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            LinearSVM(l2=0)
        with pytest.raises(ValueError):
            RBFSampler(gamma=-1)


class TestKNN:
    def test_k1_memorises(self):
        X, y = linearly_separable(100)
        m = KNearestNeighbors(k=1).fit(X, y)
        assert m.score(X, y) == 1.0

    def test_k_capped_at_train_size(self):
        X, y = linearly_separable(10)
        m = KNearestNeighbors(k=50).fit(X, y)
        p = m.predict_proba(X)
        np.testing.assert_allclose(p, y.mean())

    def test_blocking_consistent(self):
        X, y = linearly_separable(200)
        model = KNearestNeighbors(k=5).fit(X, y)
        probas = []
        for rows in (7, 512):
            with mock.patch.object(pairwise, "DEFAULT_BLOCK_SIZE", rows):
                probas.append(model.predict_proba(X))
        np.testing.assert_allclose(*probas)

    def test_matches_loop_reference(self):
        from repro.metrics.reference import knn_predict_proba_loop

        X, y = linearly_separable(150)
        model = KNearestNeighbors(k=9).fit(X, y)
        ref = knn_predict_proba_loop(X, y, np.ones(len(y)), X[:60], 9)
        np.testing.assert_allclose(model.predict_proba(X[:60]), ref)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(k=0)

    def test_block_size_is_not_a_parameter(self):
        """The kernel's block size is a constant, not a model knob."""
        from repro.registry import MODELS

        with pytest.raises(ValueError, match="block_size"):
            MODELS.build("knn(block_size=64)")


class TestTreeAndForest:
    def test_tree_solves_xor(self):
        X, y = xor_data()
        m = DecisionTree(max_depth=4).fit(X, y)
        assert m.score(X, y) > 0.9

    def test_depth_respected(self):
        X, y = xor_data()
        m = DecisionTree(max_depth=2).fit(X, y)
        assert m.depth() <= 2

    def test_pure_leaf_stops(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        m = DecisionTree(max_depth=10).fit(X, y)
        assert m.depth() == 1

    def test_min_samples_leaf(self):
        X, y = xor_data(100)
        m = DecisionTree(max_depth=20, min_samples_leaf=30).fit(X, y)
        # With large leaves the tree cannot memorise.
        assert m.score(X, y) < 1.0

    def test_forest_beats_stump_on_xor(self):
        X, y = xor_data()
        stump = DecisionTree(max_depth=1).fit(X, y).score(X, y)
        forest = RandomForest(n_trees=25, max_depth=6).fit(X, y).score(X, y)
        assert forest > stump + 0.2

    def test_forest_proba_is_vote_average(self):
        X, y = xor_data(100)
        m = RandomForest(n_trees=5, max_depth=3).fit(X, y)
        p = m.predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTree(max_depth=0)
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)


class TestMLP:
    def test_solves_xor(self):
        X, y = xor_data()
        m = MLPClassifier(hidden=16, epochs=150, learning_rate=0.02, seed=1)
        assert m.fit(X, y).score(X, y) > 0.85

    def test_decision_function_matches_proba(self):
        X, y = linearly_separable(100)
        m = MLPClassifier(epochs=20).fit(X, y)
        from repro.models import sigmoid

        np.testing.assert_allclose(sigmoid(m.decision_function(X)),
                                   m.predict_proba(X), atol=1e-9)

    def test_invalid_hidden(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden=0)


class TestGaussianNB:
    def test_matches_bayes_rule_on_gaussians(self):
        rng = np.random.default_rng(0)
        X0 = rng.normal(-1, 1, size=(500, 1))
        X1 = rng.normal(+1, 1, size=(500, 1))
        X = np.vstack([X0, X1])
        y = np.array([0] * 500 + [1] * 500)
        m = GaussianNB().fit(X, y)
        # Bayes decision boundary at 0.
        assert m.predict(np.array([[-2.0]]))[0] == 0
        assert m.predict(np.array([[+2.0]]))[0] == 1
        assert m.predict_proba(np.array([[0.0]]))[0] == pytest.approx(
            0.5, abs=0.1)
