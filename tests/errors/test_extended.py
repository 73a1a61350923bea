"""Tests for the extended error injectors and imputers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (duplicate_rows, flip_labels, impute_constant,
                          impute_iterative, impute_knn, inject_outliers,
                          missing_completely_at_random, selection_bias)
from repro.registry import ERRORS

RNG = np.random.default_rng


@pytest.fixture
def ds(compas_small):
    return compas_small.head(400)


def full_mask(ds, value=True):
    return np.full(ds.n_rows, value)


class TestFlipLabels:
    def test_masked_labels_inverted(self, ds):
        mask = np.zeros(ds.n_rows, dtype=bool)
        mask[:10] = True
        out = flip_labels(ds, mask)
        assert np.array_equal(out.y[:10], 1 - ds.y[:10])
        assert np.array_equal(out.y[10:], ds.y[10:])

    def test_double_flip_is_identity(self, ds):
        mask = RNG(0).random(ds.n_rows) < 0.3
        out = flip_labels(flip_labels(ds, mask), mask)
        assert np.array_equal(out.y, ds.y)

    def test_bad_mask_shape(self, ds):
        with pytest.raises(ValueError, match="mask shape"):
            flip_labels(ds, np.zeros(3, dtype=bool))


class TestSelectionBias:
    def test_rows_removed(self, ds):
        mask = np.zeros(ds.n_rows, dtype=bool)
        mask[:50] = True
        out = selection_bias(ds, mask)
        assert out.n_rows == ds.n_rows - 50

    def test_disproportionate_removal_shifts_group_ratio(self, ds):
        rng = RNG(1)
        mask = (ds.s == 0) & (rng.random(ds.n_rows) < 0.5)
        out = selection_bias(ds, mask)
        assert np.mean(out.s) > np.mean(ds.s)

    def test_removing_entire_group_rejected(self, ds):
        with pytest.raises(ValueError, match="all rows of group"):
            selection_bias(ds, ds.s == 0)


class TestOutliers:
    def test_masked_entries_extreme(self, ds):
        col = ds.feature_names[0]
        mask = np.zeros(ds.n_rows, dtype=bool)
        mask[:5] = True
        out = inject_outliers(ds, col, mask, magnitude=10)
        original_max = ds.table[col].astype(float).max()
        assert np.all(out.table[col][:5] > original_max)

    def test_unmasked_entries_untouched(self, ds):
        col = ds.feature_names[0]
        mask = np.zeros(ds.n_rows, dtype=bool)
        mask[0] = True
        out = inject_outliers(ds, col, mask)
        assert np.array_equal(out.table[col][1:], ds.table[col][1:])

    def test_invalid_magnitude(self, ds):
        with pytest.raises(ValueError, match="magnitude"):
            inject_outliers(ds, ds.feature_names[0], full_mask(ds), 0.0)


class TestDuplicates:
    def test_row_count_grows(self, ds):
        mask = np.zeros(ds.n_rows, dtype=bool)
        mask[:20] = True
        out = duplicate_rows(ds, mask, copies=2)
        assert out.n_rows == ds.n_rows + 40

    def test_duplicates_reweight_distribution(self, ds):
        mask = ds.s == 0
        out = duplicate_rows(ds, mask, copies=3)
        assert np.mean(out.s) < np.mean(ds.s)

    def test_invalid_copies(self, ds):
        with pytest.raises(ValueError, match="copies"):
            duplicate_rows(ds, full_mask(ds), copies=0)


class TestMCAR:
    def test_no_nans_remain(self, ds):
        out = missing_completely_at_random(
            ds, [ds.feature_names[0]], 0.3, RNG(0))
        assert not np.isnan(out.table[ds.feature_names[0]].astype(float)).any()

    def test_mean_roughly_preserved(self, ds):
        col = ds.feature_names[0]
        out = missing_completely_at_random(ds, [col], 0.3, RNG(1))
        before = ds.table[col].astype(float).mean()
        after = out.table[col].astype(float).mean()
        assert after == pytest.approx(before, rel=0.15)

    def test_invalid_rate(self, ds):
        with pytest.raises(ValueError, match="rate"):
            missing_completely_at_random(ds, [], 1.5, RNG(0))


class TestExtendedRecipes:
    @pytest.mark.parametrize("recipe", ["t4", "t5", "t6"])
    def test_recipes_run_and_change_data(self, ds, recipe):
        out = ERRORS.build(recipe)(ds, seed=0)
        changed = (out.n_rows != ds.n_rows
                   or not np.array_equal(out.y, ds.y)
                   or not np.array_equal(out.X, ds.X))
        assert changed

    def test_unknown_recipe(self):
        with pytest.raises(KeyError, match="unknown error 't9'"):
            ERRORS.build("t9")


class TestNewImputers:
    def test_constant(self):
        out = impute_constant(np.array([1.0, np.nan]), -1.0)
        assert out[1] == -1.0

    def test_knn_uses_neighbours(self):
        # Two clusters; the missing cell must take its cluster's value.
        X = np.array([
            [0.0, 10.0], [0.1, 11.0], [0.05, np.nan],
            [5.0, 99.0], [5.1, 98.0],
        ])
        out = impute_knn(X, k=2)
        assert out[2, 1] == pytest.approx(10.5)

    def test_knn_no_missing_is_identity(self):
        X = RNG(0).normal(size=(10, 3))
        assert np.array_equal(impute_knn(X), X)

    def test_knn_fully_missing_column_rejected(self):
        X = np.array([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(ValueError, match="fully missing"):
            impute_knn(X)

    def test_knn_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            impute_knn(np.zeros((3, 2)), k=0)

    def test_iterative_recovers_linear_structure(self):
        rng = RNG(2)
        n = 400
        a = rng.normal(size=n)
        b = 2.0 * a + rng.normal(0, 0.1, n)
        X = np.column_stack([a, b])
        holes = rng.random(n) < 0.2
        X_miss = X.copy()
        X_miss[holes, 1] = np.nan
        out = impute_iterative(X_miss, n_iter=5)
        err = np.abs(out[holes, 1] - b[holes]).mean()
        # Mean imputation error would be ~E|b| ≈ 1.6; regression is far better.
        assert err < 0.3

    def test_iterative_validates_n_iter(self):
        with pytest.raises(ValueError, match="n_iter"):
            impute_iterative(np.zeros((3, 2)), n_iter=0)

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_knn_output_finite_property(self, seed):
        rng = RNG(seed)
        X = rng.normal(size=(25, 3))
        holes = rng.random((25, 3)) < 0.2
        holes[:, 0] &= rng.random(25) < 0.5  # keep column 0 mostly present
        X[holes] = np.nan
        if np.isnan(X).all(axis=0).any():
            return
        out = impute_knn(X, k=3)
        assert np.isfinite(out).all()
