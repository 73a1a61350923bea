"""Tests for model-layer validation helpers and the Classifier base."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (LogisticRegression, add_intercept, check_weights,
                          check_Xy, sigmoid)


class TestCheckXy:
    def test_accepts_valid(self):
        X, y = check_Xy(np.ones((3, 2)), np.array([0, 1, 0]))
        assert X.dtype == float
        assert y.dtype == int

    def test_rejects_1d_X(self):
        with pytest.raises(ValueError, match="2-D"):
            check_Xy(np.ones(3))

    def test_rejects_nan(self):
        X = np.ones((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            check_Xy(X)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_Xy(np.ones((3, 2)), np.array([0, 1]))

    def test_rejects_nonbinary_y(self):
        with pytest.raises(ValueError, match="binary"):
            check_Xy(np.ones((3, 2)), np.array([0, 1, 2]))


class TestCheckWeights:
    def test_uniform_default(self):
        w = check_weights(None, 4)
        np.testing.assert_allclose(w, 0.25)

    def test_normalised(self):
        w = check_weights(np.array([1.0, 3.0]), 2)
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_weights(np.array([-1.0, 2.0]), 2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            check_weights(np.zeros(3), 3)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            check_weights(np.ones(2), 3)


class TestHelpers:
    def test_add_intercept(self):
        Xb = add_intercept(np.zeros((3, 2)))
        assert Xb.shape == (3, 3)
        np.testing.assert_array_equal(Xb[:, 2], 1.0)

    def test_sigmoid_extremes_stable(self):
        z = np.array([-1000.0, 0.0, 1000.0])
        p = sigmoid(z)
        assert p[0] == 0.0
        assert p[1] == 0.5
        assert p[2] == 1.0
        assert np.isfinite(p).all()

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-50, 50))
    def test_sigmoid_symmetry(self, z):
        arr = np.array([z])
        assert sigmoid(arr)[0] + sigmoid(-arr)[0] == pytest.approx(1.0)


class TestClassifierProtocol:
    def test_score_is_accuracy(self, rng):
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(int)
        m = LogisticRegression().fit(X, y)
        assert m.score(X, y) > 0.9

    def test_clone_is_unfitted(self, rng):
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        m = LogisticRegression(l2=3.0).fit(X, y)
        fresh = m.clone()
        assert fresh.l2 == 3.0
        assert fresh.coef_ is None
