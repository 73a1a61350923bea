"""Mechanism-level tests for the post-processing approaches."""

import re

import numpy as np
import pytest

from repro.fairness.postprocessing import Hardt, KamKar, Pleiss


@pytest.fixture(scope="module")
def scored():
    """A biased scorer: privileged group gets systematically higher
    scores, ground truth only partly justifies it."""
    rng = np.random.default_rng(5)
    n = 4000
    s = (rng.random(n) < 0.5).astype(int)
    y = (rng.random(n) < 0.35 + 0.1 * s).astype(int)
    scores = np.clip(0.25 + 0.3 * y + 0.18 * s
                     + rng.normal(0, 0.15, n), 0.01, 0.99)
    return y, scores, s


def parity_gap(y_hat, s):
    return abs(y_hat[s == 0].mean() - y_hat[s == 1].mean())


def tpr_gap(y, y_hat, s):
    gaps = [y_hat[(s == g) & (y == 1)].mean() for g in (0, 1)]
    return abs(gaps[1] - gaps[0])


def fnr(y, y_hat, mask):
    positives = mask & (y == 1)
    return float(np.mean(y_hat[positives] == 0))


class TestKamKar:
    def test_achieves_parity(self, scored, rng):
        y, scores, s = scored
        kk = KamKar(parity_target=0.02).fit(y, scores, s)
        adjusted = kk.adjust(scores, s, rng)
        base = (scores >= 0.5).astype(int)
        assert parity_gap(adjusted, s) < parity_gap(base, s)
        assert parity_gap(adjusted, s) < 0.05

    def test_only_critical_region_touched(self, scored, rng):
        y, scores, s = scored
        kk = KamKar().fit(y, scores, s)
        adjusted = kk.adjust(scores, s, rng)
        base = (scores >= 0.5).astype(int)
        confident = np.maximum(scores, 1 - scores) >= kk.theta_
        np.testing.assert_array_equal(adjusted[confident], base[confident])

    def test_direction_of_override(self, scored, rng):
        y, scores, s = scored
        kk = KamKar().fit(y, scores, s)
        adjusted = kk.adjust(scores, s, rng)
        critical = np.maximum(scores, 1 - scores) < kk.theta_
        assert (adjusted[critical & (s == 0)] == 1).all()
        assert (adjusted[critical & (s == 1)] == 0).all()

    def test_adjust_before_fit(self, scored, rng):
        y, scores, s = scored
        with pytest.raises(RuntimeError):
            KamKar().adjust(scores, s, rng)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            KamKar(parity_target=1.0)


class TestHardt:
    def test_equalizes_rates(self, scored, rng):
        y, scores, s = scored
        hardt = Hardt().fit(y, scores, s)
        adjusted = hardt.adjust(scores, s, rng)
        base = (scores >= 0.5).astype(int)
        assert tpr_gap(y, adjusted, s) < tpr_gap(y, base, s) + 0.02
        assert tpr_gap(y, adjusted, s) < 0.08

    def test_mixing_probabilities_valid(self, scored):
        y, scores, s = scored
        hardt = Hardt().fit(y, scores, s)
        for p in hardt.mix_.values():
            assert 0.0 <= p <= 1.0

    def test_randomised_but_seed_stable(self, scored):
        y, scores, s = scored
        hardt = Hardt().fit(y, scores, s)
        a = hardt.adjust(scores, s, np.random.default_rng(0))
        b = hardt.adjust(scores, s, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_adjust_before_fit(self, scored, rng):
        y, scores, s = scored
        with pytest.raises(RuntimeError):
            Hardt().adjust(scores, s, rng)

    def test_table_lookup_matches_per_row_mapping(self, scored):
        y, scores, s = scored
        hardt = Hardt().fit(y, scores, s)
        y_hat = (scores >= 0.5).astype(int)
        p = np.array([hardt.mix_[(int(sv), int(hv))]
                      for sv, hv in zip(s, y_hat)])
        expected = (np.random.default_rng(3).random(len(p)) < p).astype(int)
        np.testing.assert_array_equal(
            hardt.adjust(scores, s, np.random.default_rng(3)), expected)

    @pytest.mark.parametrize("stray", [2, -1])
    def test_non_binary_sensitive_refused(self, scored, stray):
        # A table index would wrap -1 to group 1 without a word.
        y, scores, s = scored
        hardt = Hardt().fit(y, scores, s)
        s = s.copy()
        s[7] = stray
        with pytest.raises(ValueError, match=re.escape(
                f"must be 0 or 1, got [{stray}]")):
            hardt.adjust(scores, s, np.random.default_rng(0))

    def test_depends_on_sensitive(self, scored):
        """The derived predictor keys on S (the source of its ID
        violations per the paper)."""
        y, scores, s = scored
        hardt = Hardt().fit(y, scores, s)
        a = hardt.adjust(scores, s, np.random.default_rng(1))
        b = hardt.adjust(scores, 1 - s, np.random.default_rng(1))
        assert (a != b).any()


class TestPleiss:
    def test_equalizes_fnr(self, scored, rng):
        y, scores, s = scored
        pleiss = Pleiss().fit(y, scores, s)
        adjusted = pleiss.adjust(scores, s, rng)
        base = (scores >= 0.5).astype(int)
        gap_before = abs(fnr(y, base, s == 0) - fnr(y, base, s == 1))
        gap_after = abs(fnr(y, adjusted, s == 0) - fnr(y, adjusted, s == 1))
        assert gap_after < gap_before

    def test_withholds_from_advantaged_group_only(self, scored, rng):
        y, scores, s = scored
        pleiss = Pleiss().fit(y, scores, s)
        adjusted = pleiss.adjust(scores, s, rng)
        base = (scores >= 0.5).astype(int)
        other = s != pleiss.withhold_group_
        np.testing.assert_array_equal(adjusted[other], base[other])

    def test_alpha_in_unit_interval(self, scored):
        y, scores, s = scored
        pleiss = Pleiss().fit(y, scores, s)
        assert 0.0 <= pleiss.alpha_ <= 1.0

    def test_no_gap_means_no_withholding(self, rng):
        n = 2000
        s = (rng.random(n) < 0.5).astype(int)
        y = (rng.random(n) < 0.5).astype(int)
        scores = np.where(y == 1, 0.8, 0.2) + rng.normal(0, 0.01, n)
        pleiss = Pleiss().fit(y, scores, s)
        assert pleiss.alpha_ < 0.1

    def test_adjust_before_fit(self, scored, rng):
        y, scores, s = scored
        with pytest.raises(RuntimeError):
            Pleiss().adjust(scores, s, rng)
