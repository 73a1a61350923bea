"""Loop reference implementations of the individual-fairness metrics.

The pre-vectorization algorithms of :mod:`repro.metrics.individual`:
per-row abduction with Python float dicts for the counterfactual
audit, and dense ``n × n`` distance matrices with full-pool
``argsort`` for the k-NN metrics.  Kept for the parity test-suite and
for ``benchmarks/bench_perf_counterfactual.py``; no production code
path imports this module.  See :mod:`repro.causal.reference` for the
CPT/SCM-level loops these build on.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..causal.counterfactual import CounterfactualSCM
from ..causal.reference import scm_abduct_loop, scm_evaluate_loop
from .individual import (CounterfactualFairnessResult, Predictor,
                         SituationTestingResult)

__all__ = [
    "counterfactual_fairness_loop",
    "situation_testing_loop",
    "normalized_euclidean_dense",
    "fairness_through_awareness_dense",
    "metric_multifairness_dense",
    "knn_predict_proba_loop",
    "impute_knn_loop",
]


def counterfactual_fairness_loop(scm: CounterfactualSCM,
                                 columns: Mapping[str, np.ndarray],
                                 sensitive: str, outcome: str,
                                 predict: Predictor,
                                 rng: np.random.Generator,
                                 n_particles: int = 200,
                                 max_rows: int | None = 100,
                                 threshold: float = 0.05,
                                 ) -> CounterfactualFairnessResult:
    """Per-row audit: one abduction and two world evaluations per
    individual, through per-row dict lookups."""
    nodes = scm.graph.topological_order()
    missing = [n for n in nodes if n not in columns]
    if missing:
        raise ValueError(f"columns missing for SCM nodes: {missing}")
    n = np.asarray(columns[nodes[0]]).shape[0]
    take = n if max_rows is None else min(max_rows, n)
    rows = [
        {node: float(np.asarray(columns[node])[i]) for node in nodes}
        for i in range(take)
    ]
    gaps = []
    for row in rows:
        noise = scm_abduct_loop(scm, row, n_particles, rng)
        rates = []
        for value in (1.0, 0.0):
            world = scm_evaluate_loop(scm, noise, {sensitive: value})
            rates.append(float(np.mean(
                np.asarray(predict(world), dtype=float) > 0.5)))
        gaps.append(abs(rates[0] - rates[1]))
    gaps_arr = np.asarray(gaps)
    return CounterfactualFairnessResult(
        mean_gap=float(gaps_arr.mean()),
        max_gap=float(gaps_arr.max()),
        unfair_fraction=float(np.mean(gaps_arr > threshold)),
        threshold=threshold,
        n_rows=len(gaps),
    )


def normalized_euclidean_dense(X: np.ndarray) -> np.ndarray:
    """One-shot dense pairwise distances after min-max scaling."""
    X = np.asarray(X, dtype=float)
    span = X.max(axis=0) - X.min(axis=0)
    span[span == 0] = 1.0
    Z = (X - X.min(axis=0)) / span
    sq = np.sum(Z ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2 * Z @ Z.T
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def situation_testing_loop(X: np.ndarray, s: np.ndarray, y_hat: np.ndarray,
                           k: int = 8, threshold: float = 0.2,
                           audit_group: int = 0) -> SituationTestingResult:
    """Per-individual neighbour search over a dense distance matrix
    with full-pool stable ``argsort``.

    Defines the edge-case semantics the blockwise path must
    reproduce: pools smaller than ``k`` contribute the neighbours
    they have, an audited individual alone in its own pool yields no
    within-group rate (and drops out of the aggregates), and only an
    entirely empty group — or an audit with no usable rows at all —
    is an error.
    """
    X = np.asarray(X, dtype=float)
    s = np.asarray(s, dtype=int)
    y_hat = (np.asarray(y_hat, dtype=float) > 0.5).astype(float)
    if X.shape[0] != s.shape[0] or s.shape != y_hat.shape:
        raise ValueError("X, s, y_hat must be aligned")
    if k < 1:
        raise ValueError("k must be at least 1")
    d = normalized_euclidean_dense(X)
    idx_priv = np.flatnonzero(s == 1)
    idx_unpriv = np.flatnonzero(s == 0)
    if idx_priv.size == 0 or idx_unpriv.size == 0:
        raise ValueError(
            "situation testing needs both sensitive groups non-empty; "
            f"got {idx_priv.size} privileged and {idx_unpriv.size} "
            "unprivileged members")

    audited = np.flatnonzero(s == audit_group)
    if audited.size == 0:
        raise ValueError(f"audit_group={audit_group} selects no rows")
    gaps = []
    for i in audited:
        gap_parts = []
        for pool in (idx_priv, idx_unpriv):
            others = pool[pool != i]
            nearest = others[np.argsort(d[i, others], kind="stable")[:k]]
            gap_parts.append(float(np.mean(y_hat[nearest]))
                             if nearest.size else np.nan)
        gaps.append(gap_parts[0] - gap_parts[1])
    gaps_arr = np.asarray(gaps)
    finite = np.isfinite(gaps_arr)
    if not finite.any():
        raise ValueError(
            "no audited individual has usable neighbours in both "
            "groups; audit a larger sample")
    gaps_arr = gaps_arr[finite]
    return SituationTestingResult(
        flagged_fraction=float(np.mean(np.abs(gaps_arr) > threshold)),
        mean_gap=float(gaps_arr.mean()),
        threshold=threshold,
        n_audited=int(gaps_arr.size),
    )


def _sample_pairs(n: int, n_pairs: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    a = rng.integers(0, n, n_pairs)
    b = rng.integers(0, n, n_pairs)
    keep = a != b
    return a[keep], b[keep]


def fairness_through_awareness_dense(X: np.ndarray, scores: np.ndarray,
                                     rng: np.random.Generator,
                                     lipschitz: float = 1.0,
                                     n_pairs: int = 5000) -> float:
    """Lipschitz violation rate over a dense distance matrix."""
    X = np.asarray(X, dtype=float)
    scores = np.asarray(scores, dtype=float)
    d = normalized_euclidean_dense(X)
    a, b = _sample_pairs(X.shape[0], n_pairs, rng)
    if a.size == 0:
        raise ValueError("no valid pairs sampled; increase n_pairs")
    violations = np.abs(scores[a] - scores[b]) > lipschitz * d[a, b] + 1e-12
    return float(np.mean(violations))


def knn_predict_proba_loop(X_train: np.ndarray, y: np.ndarray,
                           weights: np.ndarray, X_query: np.ndarray,
                           k: int) -> np.ndarray:
    """Pre-kernel k-NN voting: one dense distance row per query point,
    neighbours by stable full ``argsort``."""
    X_train = np.asarray(X_train, dtype=float)
    X_query = np.asarray(X_query, dtype=float)
    kk = min(k, X_train.shape[0])
    out = np.empty(X_query.shape[0])
    for i, q in enumerate(X_query):
        d2 = np.sum((X_train - q) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[:kk]
        votes = weights[nearest]
        out[i] = (votes * (y[nearest] == 1)).sum() / votes.sum()
    return out


def impute_knn_loop(X: np.ndarray, k: int = 5) -> np.ndarray:
    """Pre-kernel k-NN imputation: one masked distance row per
    needy row, computed with full-matrix broadcasting."""
    X = np.asarray(X, dtype=float).copy()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if k < 1:
        raise ValueError("k must be at least 1")
    missing = np.isnan(X)
    if not missing.any():
        return X
    if missing.all(axis=0).any():
        raise ValueError("cannot impute a fully missing column")
    col_mean = np.nanmean(X, axis=0)
    col_std = np.nanstd(X, axis=0)
    col_std[col_std == 0] = 1.0
    Z = (X - col_mean) / col_std
    out = X.copy()
    needs = np.flatnonzero(missing.any(axis=1))
    for i in needs:
        shared = ~missing[i] & ~missing            # (n, d) overlap mask
        diff = np.where(shared, Z - Z[i], 0.0)
        counts = shared.sum(axis=1)
        counts[i] = 0                              # never one's own row
        with np.errstate(invalid="ignore", divide="ignore"):
            dist = np.sqrt((diff ** 2).sum(axis=1) / np.maximum(counts, 1))
        dist[counts == 0] = np.inf
        order = np.argsort(dist, kind="stable")
        finite = np.isfinite(dist[order])
        for j in np.flatnonzero(missing[i]):
            eligible = finite & ~missing[order, j]
            donors = order[eligible][:k]
            out[i, j] = (float(np.mean(X[donors, j])) if donors.size
                         else col_mean[j])
    return out


def metric_multifairness_dense(X: np.ndarray, scores: np.ndarray,
                               rng: np.random.Generator,
                               n_sets: int = 50, set_size: int = 40,
                               radius: float = 0.25) -> float:
    """Metric multifairness over a dense distance matrix."""
    X = np.asarray(X, dtype=float)
    scores = np.asarray(scores, dtype=float)
    d = normalized_euclidean_dense(X)
    n = X.shape[0]
    worst = 0.0
    found_any = False
    for _ in range(n_sets):
        a, b = _sample_pairs(n, set_size * 4, rng)
        close = d[a, b] <= radius
        a, b = a[close][:set_size], b[close][:set_size]
        if a.size == 0:
            continue
        found_any = True
        worst = max(worst, abs(float(np.mean(scores[a] - scores[b]))))
    if not found_any:
        raise ValueError(
            f"no similar pairs found within radius {radius}; increase it"
        )
    return worst
