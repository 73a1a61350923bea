"""Loaders for the *real* Adult / COMPAS / German CSV files.

The synthetic generators in :mod:`repro.datasets.generators` are the
default data source (no network access is assumed), but a user who has
downloaded the original files can load them here.  Each loader applies
the paper's preprocessing — binary sensitive attribute and label,
integer-coded categoricals, the paper's feature set (its Figure 6) —
and emits a :class:`~repro.datasets.dataset.Dataset` with the *same
schema and causal graph* as the synthetic counterpart, so every
pipeline, metric, and benchmark in the repository runs unchanged on
real data.

Expected file formats:

* ``load_adult_csv`` — the UCI ``adult.data``/``adult.csv`` layout
  (14 attributes + income, comma separated, ``?`` for missing);
* ``load_compas_csv`` — ProPublica's ``compas-scores-two-years.csv``
  (only the columns the paper uses are read);
* ``load_german_csv`` — the Kaggle ``german_credit_data.csv`` layout
  with a ``Risk`` column.

The synthetic counterparts are built by name through
:data:`repro.registry.DATASETS`.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .generators import (_adult_scm, _compas_scm, _german_scm, load_adult,
                         load_compas, load_german)
from .io import read_csv
from .table import Table

__all__ = [
    "load_adult_csv",
    "load_compas_csv",
    "load_german_csv",
]


def _require_columns(table: Table, needed: list[str], path: Path) -> None:
    missing = [c for c in needed if c not in table]
    if missing:
        raise ValueError(
            f"{path} is missing expected columns {missing}; "
            f"found {table.columns}"
        )


def _strings(table: Table, name: str) -> np.ndarray:
    """Column as lower-cased stripped strings (robust to spacing)."""
    return np.asarray([str(v).strip().lower() for v in table[name]],
                      dtype=object)


def _code(values: np.ndarray, mapping: Mapping[str, float],
          default: float) -> np.ndarray:
    """Map string categories to numeric codes with a default bucket."""
    return np.asarray([mapping.get(v, default) for v in values], dtype=float)


def _binary(values: np.ndarray, positives: tuple[str, ...]) -> np.ndarray:
    return np.isin(values, positives).astype(int)


# ----------------------------------------------------------------------
# Adult
# ----------------------------------------------------------------------
_ADULT_RAW_COLUMNS = [
    "age", "workclass", "fnlwgt", "education", "education-num",
    "marital-status", "occupation", "relationship", "race", "sex",
    "capital-gain", "capital-loss", "hours-per-week", "native-country",
    "income",
]

_ADULT_OCCUPATION = {
    # service → 0, clerical → 1, skilled/manual → 2, professional → 3
    "other-service": 0, "priv-house-serv": 0, "handlers-cleaners": 0,
    "protective-serv": 0, "armed-forces": 0,
    "adm-clerical": 1, "sales": 1, "tech-support": 1,
    "craft-repair": 2, "machine-op-inspct": 2, "transport-moving": 2,
    "farming-fishing": 2,
    "prof-specialty": 3, "exec-managerial": 3,
}

_ADULT_WORKCLASS = {
    "private": 0,
    "federal-gov": 1, "state-gov": 1, "local-gov": 1,
    "self-emp-not-inc": 2, "self-emp-inc": 2, "without-pay": 2,
    "never-worked": 2,
}


def load_adult_csv(path: str | Path, header_in_file: bool = False) -> Dataset:
    """Load the UCI Adult census file into the paper's Adult schema.

    Parameters
    ----------
    path:
        Location of ``adult.data`` / ``adult.csv``.
    header_in_file:
        ``adult.data`` ships without a header row (the default); set
        True if your copy has one with the standard UCI column names.

    Notes
    -----
    Rows with missing values in the used columns are dropped, matching
    the paper's 45,222-row cleaned Adult.  ``education_level`` is
    ``education-num`` bucketed to the generator's 0–4 scale.
    """
    path = Path(path)
    table = read_csv(path, header=None if header_in_file
                     else _ADULT_RAW_COLUMNS)
    _require_columns(table, ["age", "education-num", "marital-status",
                             "occupation", "relationship", "race", "sex",
                             "workclass", "hours-per-week",
                             "native-country", "income"], path)

    occupation = _strings(table, "occupation")
    workclass = _strings(table, "workclass")
    keep = (occupation != "") & (workclass != "")
    table = table.filter(keep)
    occupation, workclass = occupation[keep], workclass[keep]

    edu_num = np.asarray(table["education-num"], dtype=float)
    education_level = np.clip(((edu_num - 1) / 3.2).astype(int), 0, 4)

    columns = {
        "age": np.asarray(table["age"], dtype=float),
        "workclass": _code(workclass, _ADULT_WORKCLASS, 0),
        "education_level": education_level.astype(float),
        "marital_status": _binary(
            _strings(table, "marital-status"),
            ("married-civ-spouse", "married-af-spouse")).astype(float),
        "relationship": _binary(
            _strings(table, "relationship"),
            ("husband", "wife")).astype(float),
        "race": _binary(_strings(table, "race"), ("white",)).astype(float),
        "occupation": _code(occupation, _ADULT_OCCUPATION, 0),
        "hours_per_week": np.asarray(table["hours-per-week"], dtype=float),
        "native_country": _binary(
            _strings(table, "native-country"),
            ("united-states",)).astype(float),
        "sex": _binary(_strings(table, "sex"), ("male",)),
        "income": _binary(_strings(table, "income"), (">50k", ">50k.")),
    }
    template = load_adult(4, seed=0)
    return Dataset(
        table=Table({name: columns[name] for name in
                     (*template.feature_names, "sex", "income")}),
        feature_names=template.feature_names,
        sensitive="sex",
        label="income",
        name="adult-real",
        causal_graph=_adult_scm().graph,
        categorical=template.categorical,
        admissible=template.admissible,
    )


# ----------------------------------------------------------------------
# COMPAS
# ----------------------------------------------------------------------
def load_compas_csv(path: str | Path) -> Dataset:
    """Load ProPublica's two-year COMPAS file into the paper's schema.

    Reads ``race``, ``age``, ``sex``, ``priors_count``, and
    ``two_year_recid``; the favorable label ``risk = 1`` means *no*
    recidivism within two years, matching the generator.
    """
    path = Path(path)
    table = read_csv(path)
    _require_columns(table, ["race", "age", "sex", "priors_count",
                             "two_year_recid"], path)
    recid = np.asarray(table["two_year_recid"], dtype=float)
    columns = {
        "age": np.asarray(table["age"], dtype=float),
        "sex": _binary(_strings(table, "sex"), ("male",)).astype(float),
        "prior_convictions": np.asarray(table["priors_count"], dtype=float),
        # African-American is the unprivileged group (0), all others 1.
        "race": 1 - _binary(_strings(table, "race"), ("african-american",)),
        "risk": (1 - recid).astype(int),
    }
    template = load_compas(4, seed=0)
    return Dataset(
        table=Table({name: columns[name] for name in
                     (*template.feature_names, "race", "risk")}),
        feature_names=template.feature_names,
        sensitive="race",
        label="risk",
        name="compas-real",
        causal_graph=_compas_scm().graph,
        categorical=template.categorical,
        admissible=template.admissible,
    )


# ----------------------------------------------------------------------
# German credit
# ----------------------------------------------------------------------
_GERMAN_SAVINGS = {"little": 0, "moderate": 1, "quite rich": 2, "rich": 3}
_GERMAN_STATUS = {"little": 0, "moderate": 1, "rich": 2}
_GERMAN_HOUSING = {"rent": 0, "free": 1, "own": 2}


def load_german_csv(path: str | Path) -> Dataset:
    """Load the Kaggle German credit file into the paper's schema.

    Expects the ``german_credit_data.csv`` layout with columns ``Age``,
    ``Sex``, ``Job``, ``Housing``, ``Saving accounts``, ``Checking
    account``, ``Credit amount``, ``Duration``, and ``Risk``.  Two of
    the paper's nine German features (``property``,
    ``credit_history``) are absent from this public export; they are
    filled with their modal synthetic values, which is recorded in the
    dataset name so downstream reports can flag it.
    """
    path = Path(path)
    table = read_csv(path)
    _require_columns(table, ["Age", "Sex", "Job", "Housing",
                             "Saving accounts", "Checking account",
                             "Credit amount", "Duration", "Risk"], path)
    n = table.n_rows
    columns = {
        "age": np.asarray(table["Age"], dtype=float),
        "credit_amount": np.asarray(table["Credit amount"], dtype=float),
        "investment": np.asarray(table["Job"], dtype=float),
        "savings": _code(_strings(table, "Saving accounts"),
                         _GERMAN_SAVINGS, 0),
        "housing": _code(_strings(table, "Housing"), _GERMAN_HOUSING, 0),
        "property": np.full(n, 1.0),        # absent from this export
        "month": np.asarray(table["Duration"], dtype=float),
        "status": _code(_strings(table, "Checking account"),
                        _GERMAN_STATUS, 0),
        "credit_history": np.full(n, 1.0),  # absent from this export
        "sex": _binary(_strings(table, "Sex"), ("male",)),
        "credit_risk": _binary(_strings(table, "Risk"), ("good",)),
    }
    template = load_german(4, seed=0)
    return Dataset(
        table=Table({name: columns[name] for name in
                     (*template.feature_names, "sex", "credit_risk")}),
        feature_names=template.feature_names,
        sensitive="sex",
        label="credit_risk",
        name="german-real",
        causal_graph=_german_scm().graph,
        categorical=template.categorical,
        admissible=template.admissible,
    )
