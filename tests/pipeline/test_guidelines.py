"""Tests for the Section 5 guidelines advisor."""

import pytest

from repro.fairness import Stage
from repro.pipeline import ApplicationProfile, recommend


class TestProfileValidation:
    def test_default_profile_valid(self):
        profile = ApplicationProfile()
        assert profile.target_notion == "demographic-parity"

    def test_unknown_notion_rejected(self):
        with pytest.raises(ValueError, match="target_notion"):
            ApplicationProfile(target_notion="karma")


class TestHardConstraints:
    def test_frozen_data_excludes_preprocessing(self):
        rec = recommend(ApplicationProfile(data_modifiable=False))
        pre = next(e for e in rec.ranking if e.stage is Stage.PRE)
        assert pre.excluded
        assert rec.best_stage is not Stage.PRE

    def test_no_retraining_leaves_only_postprocessing(self):
        rec = recommend(ApplicationProfile(model_retrainable=False))
        assert rec.best_stage is Stage.POST
        excluded = {e.stage for e in rec.ranking if e.excluded}
        assert excluded == {Stage.PRE, Stage.IN}

    def test_fixed_model_excludes_inprocessing(self):
        rec = recommend(ApplicationProfile(model_replaceable=False))
        inp = next(e for e in rec.ranking if e.stage is Stage.IN)
        assert inp.excluded

    def test_excluded_stages_rank_last(self):
        rec = recommend(ApplicationProfile(model_retrainable=False))
        statuses = [e.excluded for e in rec.ranking]
        assert statuses == sorted(statuses)


class TestPaperFindings:
    def test_dirty_data_favours_postprocessing(self):
        """§4.4: post-processing is most robust to data errors."""
        rec = recommend(ApplicationProfile(
            target_notion="error-rate", dirty_data=True))
        assert rec.best_stage is Stage.POST

    def test_causal_notion_with_model_favours_preprocessing(self):
        """§3.1: all causal approaches are pre-processing."""
        rec = recommend(ApplicationProfile(
            target_notion="causal", causal_model_available=True))
        assert rec.best_stage is Stage.PRE
        assert any("Salimi" in a or "ZhaWu" in a for a in rec.approaches)

    def test_high_dimensional_penalises_preprocessing(self):
        """§4.3: pre-processing scales poorly with attributes."""
        base = recommend(ApplicationProfile())
        hd = recommend(ApplicationProfile(high_dimensional=True))
        score = {e.stage: e.score for e in base.ranking}
        score_hd = {e.stage: e.score for e in hd.ranking}
        assert score_hd[Stage.PRE] < score[Stage.PRE]

    def test_individual_fairness_penalises_postprocessing(self):
        """§4.2: post-processing violates individual-level fairness."""
        rec = recommend(ApplicationProfile(target_notion="individual"))
        assert rec.best_stage is not Stage.POST

    def test_clean_dp_setting_prefers_pre_or_in(self):
        rec = recommend(ApplicationProfile(
            target_notion="demographic-parity"))
        assert rec.best_stage in (Stage.PRE, Stage.IN)


class TestRecommendationOutput:
    def test_candidates_match_stage_and_notion(self):
        from repro.registry import APPROACHES

        rec = recommend(ApplicationProfile(target_notion="error-rate",
                                           dirty_data=True))
        for name in rec.approaches:
            approach = APPROACHES.build(name, seed=0)
            assert approach.stage is rec.best_stage

    def test_every_adjustment_has_a_reason(self):
        rec = recommend(ApplicationProfile(
            target_notion="error-rate", dirty_data=True,
            high_dimensional=True, large_data=True))
        for entry in rec.ranking:
            assert entry.reasons  # no silent scoring

    def test_summary_mentions_every_stage(self):
        text = recommend(ApplicationProfile()).summary()
        for stage in ("pre-processing", "in-processing", "post-processing"):
            assert stage in text

    def test_all_stages_excluded_gives_no_best(self):
        rec = recommend(ApplicationProfile(
            model_retrainable=False, data_modifiable=False,
            model_replaceable=False))
        # Post-processing survives even this profile.
        assert rec.best_stage is Stage.POST
