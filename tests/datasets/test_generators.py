"""Tests of the SCM-based dataset generators against the paper's
documented population statistics."""

import numpy as np
import pytest

from repro.datasets import (load_admissions, load_adult, load_compas,
                            load_german)
from repro.registry import DATASETS


class TestAdult:
    def test_shape_and_schema(self, adult_small):
        assert adult_small.n_rows == 1500
        assert adult_small.n_features == 9  # paper Figure 6: |X| = 9
        assert adult_small.sensitive == "sex"
        assert adult_small.label == "income"

    def test_bias_direction_and_magnitude(self):
        ds = load_adult(20000, seed=0)
        # Paper: 11% of women vs 32% of men report high income.
        assert 0.07 <= ds.base_rate(0) <= 0.16
        assert 0.25 <= ds.base_rate(1) <= 0.37

    def test_privileged_majority(self):
        ds = load_adult(20000, seed=0)
        assert 0.6 <= ds.s.mean() <= 0.75  # males ~67%

    def test_causal_graph_attached(self, adult_small):
        graph = adult_small.causal_graph
        assert graph.has_directed_path("sex", "income")
        assert "occupation" in graph.mediators("sex", "income")

    def test_scm_attached(self, adult_small):
        assert adult_small.scm is not None
        assert adult_small.scm.graph is adult_small.causal_graph

    def test_determinism(self):
        a = load_adult(200, seed=5)
        b = load_adult(200, seed=5)
        assert a.table == b.table

    def test_seed_changes_sample(self):
        a = load_adult(200, seed=5)
        b = load_adult(200, seed=6)
        assert a.table != b.table


class TestCompas:
    def test_schema(self, compas_small):
        assert compas_small.n_features == 3  # paper Figure 6: |X| = 3
        assert compas_small.sensitive == "race"

    def test_bias(self):
        ds = load_compas(20000, seed=0)
        # Favorable = no recidivism: ~49% unprivileged vs ~61% privileged.
        assert ds.base_rate(0) < ds.base_rate(1)
        assert 0.42 <= ds.base_rate(0) <= 0.56
        assert 0.55 <= ds.base_rate(1) <= 0.67

    def test_priors_nonnegative(self, compas_small):
        assert (compas_small.table["prior_convictions"] >= 0).all()

    def test_unprivileged_more_priors(self):
        ds = load_compas(20000, seed=0)
        priors = ds.table["prior_convictions"]
        assert priors[ds.s == 0].mean() > priors[ds.s == 1].mean()


class TestGerman:
    def test_schema(self, german_small):
        assert german_small.n_features == 9
        assert german_small.sensitive == "sex"
        assert german_small.label == "credit_risk"

    def test_bias(self):
        ds = load_german(20000, seed=0)
        # ~70% good credit overall, slightly lower for women.
        assert 0.6 <= ds.base_rate() <= 0.78
        assert ds.base_rate(0) < ds.base_rate(1)

    def test_default_size_matches_paper(self):
        assert load_german().n_rows == 1000  # paper Figure 6


class TestAdmissions:
    def test_exact_rows(self, admissions):
        assert admissions.n_rows == 12  # paper Figure 12

    def test_group_rates(self, admissions):
        # 4/6 males and 3/6 females admitted in the example.
        assert admissions.base_rate(1) == pytest.approx(4 / 6)
        assert admissions.base_rate(0) == pytest.approx(3 / 6)

    def test_graph_matches_figure_13(self, admissions):
        g = admissions.causal_graph
        assert g.mediators("gender", "admitted") == {"dept_choice"}
        assert not g.has_directed_path("sat", "gender")


class TestLoaderRegistry:
    @pytest.mark.parametrize("name", ["adult", "compas", "german"])
    def test_every_feature_in_graph(self, name):
        ds = DATASETS.build(name, n=50, seed=0)
        for feature in ds.feature_names:
            assert feature in ds.causal_graph

    @pytest.mark.parametrize("name", ["adult", "compas", "german"])
    def test_sensitive_is_root(self, name):
        """Observational TE estimation requires a root S (paper graphs)."""
        ds = DATASETS.build(name, n=50, seed=0)
        assert ds.causal_graph.parents(ds.sensitive) == []

    @pytest.mark.parametrize("name", ["adult", "compas", "german"])
    def test_admissible_subset_of_features(self, name):
        ds = DATASETS.build(name, n=50, seed=0)
        assert set(ds.admissible) <= set(ds.feature_names)
