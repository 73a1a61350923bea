"""Tests for the real-CSV loaders (using small synthetic fixture files)."""

import numpy as np
import pytest

from repro.datasets import load_adult_csv, load_compas_csv, load_german_csv

ADULT_ROWS = """\
39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, \
Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, \
Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, >50K
38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, \
Not-in-family, White, Male, 0, 0, 40, United-States, <=50K
28, Private, 338409, Bachelors, 13, Married-civ-spouse, Prof-specialty, \
Wife, Black, Female, 0, 0, 40, Cuba, <=50K
37, ?, 284582, Masters, 14, Married-civ-spouse, ?, Wife, White, Female, \
0, 0, 40, United-States, >50K
"""

COMPAS_CSV = """\
id,sex,age,race,priors_count,two_year_recid
1,Male,34,African-American,0,1
2,Female,24,Caucasian,1,0
3,Male,41,African-American,5,1
4,Male,29,Other,0,0
"""

GERMAN_CSV = """\
Age,Sex,Job,Housing,Saving accounts,Checking account,Credit amount,Duration,Risk
67,male,2,own,,little,1169,6,good
22,female,2,own,little,moderate,5951,48,bad
49,male,1,own,little,,2096,12,good
45,female,2,free,little,little,7882,42,good
"""


class TestAdultLoader:
    @pytest.fixture
    def adult_path(self, tmp_path):
        path = tmp_path / "adult.data"
        path.write_text(ADULT_ROWS)
        return path

    def test_schema_matches_synthetic(self, adult_path):
        ds = load_adult_csv(adult_path)
        assert ds.sensitive == "sex"
        assert ds.label == "income"
        assert len(ds.feature_names) == 9

    def test_rows_with_missing_values_dropped(self, adult_path):
        ds = load_adult_csv(adult_path)
        assert ds.n_rows == 4  # the '?' row is removed

    def test_sensitive_and_label_binary(self, adult_path):
        ds = load_adult_csv(adult_path)
        assert set(np.unique(ds.s)) <= {0, 1}
        assert set(np.unique(ds.y)) <= {0, 1}
        assert ds.y.sum() == 1  # one >50K row survives

    def test_occupation_coding(self, adult_path):
        ds = load_adult_csv(adult_path)
        occ = ds.table["occupation"]
        assert occ[1] == 3.0  # Exec-managerial → professional bucket

    def test_causal_graph_attached(self, adult_path):
        ds = load_adult_csv(adult_path)
        assert ds.causal_graph is not None
        assert "sex" in ds.causal_graph.nodes

    def test_missing_file_column_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing expected columns"):
            load_adult_csv(path, header_in_file=True)


class TestCompasLoader:
    @pytest.fixture
    def compas_path(self, tmp_path):
        path = tmp_path / "compas.csv"
        path.write_text(COMPAS_CSV)
        return path

    def test_schema(self, compas_path):
        ds = load_compas_csv(compas_path)
        assert ds.sensitive == "race"
        assert ds.label == "risk"
        assert ds.n_rows == 4

    def test_african_american_is_unprivileged(self, compas_path):
        ds = load_compas_csv(compas_path)
        assert list(ds.s) == [0, 1, 0, 1]

    def test_label_is_non_recidivism(self, compas_path):
        ds = load_compas_csv(compas_path)
        assert list(ds.y) == [0, 1, 0, 1]


class TestGermanLoader:
    @pytest.fixture
    def german_path(self, tmp_path):
        path = tmp_path / "german.csv"
        path.write_text(GERMAN_CSV)
        return path

    def test_schema(self, german_path):
        ds = load_german_csv(german_path)
        assert ds.sensitive == "sex"
        assert ds.label == "credit_risk"
        assert len(ds.feature_names) == 9

    def test_risk_coding(self, german_path):
        ds = load_german_csv(german_path)
        assert list(ds.y) == [1, 0, 1, 1]

    def test_missing_savings_defaults(self, german_path):
        ds = load_german_csv(german_path)
        assert ds.table["savings"][0] == 0.0  # empty cell → default bucket

