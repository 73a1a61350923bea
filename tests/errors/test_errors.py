"""Tests for error injection and imputation (robustness substrate)."""

import numpy as np
import pytest

from repro.errors import (affected_rows, add_noise, corrupt_t1, corrupt_t2,
                          corrupt_t3, impute_mean, impute_median,
                          impute_missing, impute_mode, scale_column,
                          swap_columns)
from repro.registry import ERRORS


class TestImputers:
    def test_mean(self):
        v = np.array([1.0, np.nan, 3.0])
        np.testing.assert_allclose(impute_mean(v), [1.0, 2.0, 3.0])

    def test_mode(self):
        v = np.array([1.0, 1.0, 2.0, np.nan])
        assert impute_mode(v)[3] == 1.0

    def test_median(self):
        v = np.array([1.0, np.nan, 9.0, 2.0])
        assert impute_median(v)[1] == 2.0

    @pytest.mark.parametrize("imputer", [impute_mean, impute_mode,
                                         impute_median])
    def test_all_missing_rejected(self, imputer):
        with pytest.raises(ValueError):
            imputer(np.array([np.nan, np.nan]))

    @pytest.mark.parametrize("imputer", [impute_mean, impute_mode,
                                         impute_median])
    def test_no_missing_is_identity(self, imputer):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(imputer(v), v)


class TestAffectedRows:
    def test_disproportionate_rates(self, compas_small, rng):
        mask = affected_rows(compas_small, 0.5, 0.1, rng)
        s = compas_small.s
        rate0 = mask[s == 0].mean()
        rate1 = mask[s == 1].mean()
        assert rate0 == pytest.approx(0.5, abs=0.07)
        assert rate1 == pytest.approx(0.1, abs=0.05)

    def test_invalid_rate(self, compas_small, rng):
        with pytest.raises(ValueError):
            affected_rows(compas_small, 1.5, 0.1, rng)


class TestPrimitives:
    def test_swap(self, compas_small):
        mask = np.zeros(compas_small.n_rows, dtype=bool)
        mask[0] = True
        out = swap_columns(compas_small, "age", "prior_convictions", mask)
        assert out.table["age"][0] == \
            compas_small.table["prior_convictions"][0]
        assert out.table["prior_convictions"][0] == \
            compas_small.table["age"][0]
        # Untouched rows identical.
        np.testing.assert_array_equal(out.table["age"][1:],
                                      compas_small.table["age"][1:])

    def test_scale(self, compas_small):
        mask = np.ones(compas_small.n_rows, dtype=bool)
        out = scale_column(compas_small, "age", 2.0, mask)
        np.testing.assert_allclose(out.table["age"],
                                   compas_small.table["age"] * 2)

    def test_noise_changes_masked_only(self, compas_small, rng):
        mask = np.zeros(compas_small.n_rows, dtype=bool)
        mask[:10] = True
        out = add_noise(compas_small, "age", 1.0, mask, rng)
        assert not np.allclose(out.table["age"][:10],
                               compas_small.table["age"][:10])
        np.testing.assert_array_equal(out.table["age"][10:],
                                      compas_small.table["age"][10:])

    def test_impute_missing_keeps_binary(self, compas_small):
        mask = np.zeros(compas_small.n_rows, dtype=bool)
        mask[:100] = True
        out = impute_missing(compas_small, compas_small.sensitive, mask,
                             categorical=True)
        assert set(np.unique(out.table[out.sensitive])) <= {0.0, 1.0}


class TestRecipes:
    def test_t1_swaps(self, compas_small):
        out = corrupt_t1(compas_small, np.random.default_rng(0))
        changed = (out.table["age"] != compas_small.table["age"])
        assert changed.any()
        # Swap conserves the multiset of (age, priors) pairs per row.
        for i in np.flatnonzero(changed)[:5]:
            assert {out.table["age"][i], out.table["prior_convictions"][i]}\
                == {compas_small.table["age"][i],
                    compas_small.table["prior_convictions"][i]}

    def test_t2_scales_and_noises(self, compas_small):
        out = corrupt_t2(compas_small, np.random.default_rng(0))
        assert out.table["prior_convictions"].max() > \
            compas_small.table["prior_convictions"].max()

    def test_t3_schema_still_valid(self, compas_small):
        out = corrupt_t3(compas_small, np.random.default_rng(0))
        assert set(np.unique(out.s)) <= {0, 1}
        assert set(np.unique(out.y)) <= {0, 1}

    def test_t3_changes_labels(self, compas_small):
        out = corrupt_t3(compas_small, np.random.default_rng(0))
        assert (out.y != compas_small.y).any() or \
            (out.s != compas_small.s).any()

    def test_corrupt_dispatch(self, compas_small):
        out = ERRORS.build("t1")(compas_small, seed=0)
        assert out.n_rows == compas_small.n_rows

    def test_corrupt_unknown_recipe(self, compas_small):
        with pytest.raises(KeyError):
            ERRORS.build("t9")

    def test_corruption_is_deterministic(self, compas_small):
        a = ERRORS.build("t2")(compas_small, seed=5)
        b = ERRORS.build("t2")(compas_small, seed=5)
        assert a.table == b.table

    def test_corruption_hits_unprivileged_harder(self, compas_small):
        out = corrupt_t1(compas_small, np.random.default_rng(1))
        changed = out.table["age"] != compas_small.table["age"]
        s = compas_small.s
        assert changed[s == 0].mean() > changed[s == 1].mean()

    def test_recipes_generalise_to_other_datasets(self, adult_small):
        out = ERRORS.build("t1")(adult_small, seed=0)  # falls back to features
        assert out.n_rows == adult_small.n_rows
