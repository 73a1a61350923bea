"""Synthetic dataset generators mirroring the paper's three benchmarks.

The original study evaluates on UCI Adult, ProPublica COMPAS, and the
German Credit dataset.  Those CSVs are not available offline, so each
dataset is replaced by a structural-causal-model generator built on the
causal graphs the paper itself uses (its Figure 14) and calibrated to
the bias statistics it reports:

* **Adult** — sex is the sensitive attribute; 11% of women vs 32% of
  men have the favorable label (income ≥ 50K).
* **COMPAS** — race is the sensitive attribute; 51% of the unprivileged
  group reoffends vs 39% of the privileged group (favorable label = no
  recidivism, so base rates 49% vs 61%).
* **German** — sex is the sensitive attribute; 65% of women vs 71% of
  men have good credit risk (70% overall).

Because the SCM is known exactly, causal metrics (TE/NDE/NIE) can be
computed by true intervention rather than estimated — a strictly
stronger setting than the original study's learned causal models.

All generators take ``n`` and ``seed`` so that the scalability,
data-efficiency, and stability experiments can draw arbitrarily sized
i.i.d. samples from a single fixed population distribution.
"""

from __future__ import annotations

import numpy as np

from ..causal.graph import CausalGraph
from ..causal.scm import Mechanism, StructuralCausalModel
from .dataset import Dataset
from .table import Table


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _bernoulli(p: np.ndarray | float, n: int,
               rng: np.random.Generator) -> np.ndarray:
    return (rng.random(n) < p).astype(float)


def _categorical(logit_columns, rng: np.random.Generator) -> np.ndarray:
    """Sample a category per row from unnormalised per-category logits.

    ``logit_columns`` is a sequence with one entry per category; each
    entry is a per-row array or a scalar (broadcast to all rows).
    """
    columns = [np.asarray(c, dtype=float) for c in logit_columns]
    n = max((c.shape[0] for c in columns if c.ndim == 1), default=1)
    logits = np.column_stack([
        np.full(n, c) if c.ndim == 0 else c for c in columns])
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random((p.shape[0], 1))
    return (p.cumsum(axis=1) < u).sum(axis=1).astype(float)


# ----------------------------------------------------------------------
# Adult (US census income)
# ----------------------------------------------------------------------
def _adult_scm() -> StructuralCausalModel:
    graph = CausalGraph(edges=[
        ("sex", "occupation"), ("sex", "hours_per_week"),
        ("sex", "education_level"), ("sex", "marital_status"),
        ("sex", "relationship"), ("sex", "income"),
        ("age", "education_level"), ("age", "marital_status"),
        ("age", "workclass"), ("age", "income"),
        ("race", "education_level"), ("race", "income"),
        ("native_country", "education_level"),
        ("education_level", "occupation"), ("education_level", "income"),
        ("occupation", "income"), ("occupation", "hours_per_week"),
        ("hours_per_week", "income"),
        ("marital_status", "relationship"), ("marital_status", "income"),
        ("relationship", "income"), ("workclass", "income"),
    ])

    mechanisms: dict[str, Mechanism] = {
        # Roots.  sex: 1 = male (privileged, ~67% as in Adult).
        "sex": lambda p, rng: _bernoulli(0.67, _root_n(rng), rng),
        "age": lambda p, rng: np.clip(
            rng.normal(38.5, 13.0, _root_n(rng)), 17, 90).round(),
        "race": lambda p, rng: _bernoulli(0.85, _root_n(rng), rng),
        "native_country": lambda p, rng: _bernoulli(0.90, _root_n(rng), rng),
        # Education level 0..4 rises with age, sex, race, native country.
        "education_level": lambda p, rng: _categorical([
                1.2 - 0.35 * p["sex"] - 0.3 * p["race"],
                1.5,
                1.0 + 0.02 * (p["age"] - 38),
                0.4 + 0.45 * p["sex"] + 0.3 * p["race"]
                + 0.3 * p["native_country"],
                -0.6 + 0.55 * p["sex"] + 0.02 * (p["age"] - 38),
            ], rng),
        # Marital status: 1 = married.
        "marital_status": lambda p, rng: _bernoulli(
            _sigmoid(-0.8 + 0.9 * p["sex"] + 0.045 * (p["age"] - 25)),
            len(p["sex"]), rng),
        # Relationship: 1 = husband/wife household role.
        "relationship": lambda p, rng: _bernoulli(
            _sigmoid(-1.6 + 2.6 * p["marital_status"] + 0.5 * p["sex"]),
            len(p["sex"]), rng),
        # Workclass 0..2 (private / gov / self-employed).
        "workclass": lambda p, rng: _categorical([
                np.full(len(p["age"]), 1.6),
                np.full(len(p["age"]), 0.3),
                -0.4 + 0.02 * (p["age"] - 38),
            ], rng),
        # Occupation 0..3 (service / clerical / skilled / professional).
        "occupation": lambda p, rng: _categorical([
                1.0 - 0.5 * p["sex"] - 0.3 * p["education_level"],
                1.0 - 0.45 * p["sex"],
                0.2 + 0.75 * p["sex"] + 0.1 * p["education_level"],
                -0.9 + 0.25 * p["sex"] + 0.75 * p["education_level"],
            ], rng),
        "hours_per_week": lambda p, rng: np.clip(
            rng.normal(34 + 6.0 * p["sex"] + 1.5 * p["occupation"], 9.0),
            1, 99).round(),
        # Income ≥ 50K.  Calibrated to ~11% female / ~32% male positives.
        "income": lambda p, rng: _bernoulli(
            _sigmoid(
                -5.3
                + 0.70 * p["sex"]
                + 0.75 * p["education_level"]
                + 0.45 * p["occupation"]
                + 0.032 * (p["hours_per_week"] - 40)
                + 0.028 * (p["age"] - 38)
                + 0.9 * p["marital_status"]
                + 0.35 * p["relationship"]
                + 0.25 * p["race"]
                + 0.15 * p["workclass"]
            ), len(p["sex"]), rng),
    }
    return StructuralCausalModel(graph, mechanisms)


def _root_n(rng) -> int:
    """Sample size for root mechanisms (read off the SCM's SizedRNG)."""
    return rng.n


def _sample_scm(scm: StructuralCausalModel, n: int,
                rng: np.random.Generator,
                overrides=None) -> dict[str, np.ndarray]:
    return scm.sample(n, rng, overrides=overrides)


_ADULT_FEATURES = ("age", "workclass", "education_level", "marital_status",
                   "occupation", "relationship", "race", "hours_per_week",
                   "native_country")


def load_adult(n: int = 5000, seed: int = 0) -> Dataset:
    """Synthetic Adult: predict income ≥ 50K; sensitive attribute sex."""
    scm = _adult_scm()
    columns = _sample_scm(scm, n, np.random.default_rng(seed))
    table = Table({name: columns[name] for name in
                   (*_ADULT_FEATURES, "sex", "income")})
    return Dataset(
        table=table,
        feature_names=_ADULT_FEATURES,
        sensitive="sex",
        label="income",
        name="adult",
        causal_graph=scm.graph,
        scm=scm,
        categorical=("workclass", "education_level", "marital_status",
                     "occupation", "relationship", "race", "native_country"),
        admissible=("age", "workclass", "education_level", "occupation",
                    "hours_per_week", "native_country"),
    )


# ----------------------------------------------------------------------
# COMPAS (recidivism risk)
# ----------------------------------------------------------------------
def _compas_scm() -> StructuralCausalModel:
    graph = CausalGraph(edges=[
        ("race", "prior_convictions"), ("race", "risk"),
        ("age", "prior_convictions"), ("age", "risk"),
        ("sex", "prior_convictions"), ("sex", "risk"),
        ("prior_convictions", "risk"),
    ])
    mechanisms: dict[str, Mechanism] = {
        # race: 1 = privileged ("other races" in the paper, ~49% of rows).
        "race": lambda p, rng: _bernoulli(0.49, _root_n(rng), rng),
        "sex": lambda p, rng: _bernoulli(0.81, _root_n(rng), rng),
        "age": lambda p, rng: np.clip(
            rng.gamma(4.5, 7.6, _root_n(rng)) + 18, 18, 96).round(),
        # Priors rise for the unprivileged group (over-policing proxy),
        # young defendants, and men.
        "prior_convictions": lambda p, rng: np.clip(rng.poisson(
            np.exp(0.45 - 0.55 * p["race"] - 0.022 * (p["age"] - 30)
                   + 0.35 * p["sex"])), 0, 38).astype(float),
        # Favorable label = no recidivism within two years.  Calibrated
        # to ~49% for the unprivileged vs ~61% for the privileged group.
        "risk": lambda p, rng: _bernoulli(
            _sigmoid(-0.12 + 0.34 * p["race"] + 0.022 * (p["age"] - 30)
                     - 0.16 * p["prior_convictions"] - 0.18 * p["sex"]),
            len(p["race"]), rng),
    }
    return StructuralCausalModel(graph, mechanisms)


_COMPAS_FEATURES = ("age", "sex", "prior_convictions")


def load_compas(n: int = 5000, seed: int = 0) -> Dataset:
    """Synthetic COMPAS: predict non-recidivism; sensitive attribute race."""
    scm = _compas_scm()
    columns = _sample_scm(scm, n, np.random.default_rng(seed))
    table = Table({name: columns[name] for name in
                   (*_COMPAS_FEATURES, "race", "risk")})
    return Dataset(
        table=table,
        feature_names=_COMPAS_FEATURES,
        sensitive="race",
        label="risk",
        name="compas",
        causal_graph=scm.graph,
        scm=scm,
        categorical=("sex",),
        admissible=("age", "prior_convictions"),
    )


# ----------------------------------------------------------------------
# German credit
# ----------------------------------------------------------------------
def _german_scm() -> StructuralCausalModel:
    graph = CausalGraph(edges=[
        ("sex", "credit_amount"), ("sex", "savings"), ("sex", "status"),
        ("sex", "credit_risk"),
        ("age", "credit_history"), ("age", "savings"), ("age", "housing"),
        ("age", "credit_risk"),
        ("credit_amount", "credit_risk"), ("investment", "credit_risk"),
        ("savings", "credit_risk"), ("housing", "credit_risk"),
        ("property", "credit_risk"), ("month", "credit_risk"),
        ("status", "credit_risk"), ("credit_history", "credit_risk"),
        ("credit_amount", "month"), ("property", "housing"),
    ])
    mechanisms: dict[str, Mechanism] = {
        "sex": lambda p, rng: _bernoulli(0.69, _root_n(rng), rng),
        "age": lambda p, rng: np.clip(
            rng.gamma(5.0, 7.1, _root_n(rng)) + 19, 19, 75).round(),
        "investment": lambda p, rng: rng.integers(
            0, 4, _root_n(rng)).astype(float),
        "property": lambda p, rng: rng.integers(
            0, 4, _root_n(rng)).astype(float),
        "credit_amount": lambda p, rng: np.clip(
            rng.lognormal(7.7 + 0.12 * p["sex"], 0.8), 250, 20000).round(),
        "savings": lambda p, rng: _categorical([
                1.3 - 0.25 * p["sex"],
                np.full(len(p["sex"]), 0.8),
                0.1 + 0.25 * p["sex"] + 0.012 * (p["age"] - 35),
                -0.6 + 0.3 * p["sex"] + 0.015 * (p["age"] - 35),
            ], rng),
        "housing": lambda p, rng: _bernoulli(
            _sigmoid(-1.2 + 0.04 * (p["age"] - 35) + 0.5 * p["property"]),
            len(p["age"]), rng),
        "status": lambda p, rng: _categorical([
                1.0 - 0.3 * p["sex"],
                np.full(len(p["sex"]), 0.9),
                0.2 + 0.35 * p["sex"],
            ], rng),
        "credit_history": lambda p, rng: _categorical([
                0.8 - 0.012 * (p["age"] - 35),
                np.full(len(p["age"]), 1.2),
                0.3 + 0.02 * (p["age"] - 35),
            ], rng),
        "month": lambda p, rng: np.clip(
            rng.normal(12 + 0.0012 * p["credit_amount"], 8), 4, 72).round(),
        # Good credit risk ≈ 70% overall; ~65% female vs ~71% male.
        "credit_risk": lambda p, rng: _bernoulli(
            _sigmoid(-0.27 + 0.18 * p["sex"] + 0.012 * (p["age"] - 35)
                     + 0.30 * p["savings"] + 0.25 * p["status"]
                     + 0.22 * p["credit_history"] + 0.12 * p["housing"]
                     + 0.05 * p["investment"] + 0.04 * p["property"]
                     - 0.00006 * p["credit_amount"]
                     - 0.012 * (p["month"] - 20)),
            len(p["sex"]), rng),
    }
    return StructuralCausalModel(graph, mechanisms)


_GERMAN_FEATURES = ("age", "credit_amount", "investment", "savings",
                    "housing", "property", "month", "status",
                    "credit_history")


def load_german(n: int = 1000, seed: int = 0) -> Dataset:
    """Synthetic German credit: predict good risk; sensitive attribute sex."""
    scm = _german_scm()
    columns = _sample_scm(scm, n, np.random.default_rng(seed))
    table = Table({name: columns[name] for name in
                   (*_GERMAN_FEATURES, "sex", "credit_risk")})
    return Dataset(
        table=table,
        feature_names=_GERMAN_FEATURES,
        sensitive="sex",
        label="credit_risk",
        name="german",
        causal_graph=scm.graph,
        scm=scm,
        categorical=("investment", "savings", "housing", "property",
                     "status", "credit_history"),
        admissible=("credit_amount", "investment", "savings", "property",
                    "month", "status", "credit_history"),
    )


# ----------------------------------------------------------------------
# Admissions toy data (the paper's running example, Figures 11–13)
# ----------------------------------------------------------------------
def load_admissions() -> Dataset:
    """The 12-applicant admissions table of the paper's Figure 12.

    ``sat``: 1 = High, 0 = Average.  ``dept_choice``: 0 = Physics,
    1 = Mathematics.  ``gender``: 1 = Male (privileged).  The label
    column holds the classifier predictions of the example, so the
    metric unit tests can check the hand-computed numbers.
    """
    graph = CausalGraph(edges=[
        ("gender", "dept_choice"), ("gender", "admitted"),
        ("dept_choice", "admitted"), ("sat", "admitted"),
    ])
    table = Table({
        "sat": [1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0],
        "dept_choice": [0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0],
        "gender": [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        "admitted": [1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1],
    })
    return Dataset(
        table=table,
        feature_names=("sat", "dept_choice"),
        sensitive="gender",
        label="admitted",
        name="admissions",
        causal_graph=graph,
        categorical=("dept_choice",),
        admissible=("sat",),
    )

