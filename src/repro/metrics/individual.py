"""Individual-level fairness metrics beyond the ID metric.

Completes the individual rows of the paper's Figure 3 that the headline
evaluation excludes because they need a similarity metric or a causal
model:

* **counterfactual fairness** [Kusner et al.] — a predictor is fair for
  an individual if its prediction would not change had the individual's
  sensitive attribute been different, *holding the exogenous background
  fixed* (a rung-3 quantity computed by abduction).
* **path-specific counterfactual fairness** [Wu et al.] — the same, but
  only the discriminatory paths are flipped.
* **individual direct discrimination / situation testing** [Zhang et
  al.] — compare an individual's decision against the decisions of its
  k nearest neighbours in each sensitive group.
* **fairness through awareness** [Dwork et al.] — a Lipschitz condition
  tying prediction distance to individual similarity.
* **metric multifairness** [Kim et al.] — the awareness condition
  relaxed to hold on average over a collection of comparison sets.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..causal.counterfactual import CounterfactualSCM
from ..causal.pse import path_specific_effect
from . import pairwise
from .pairwise import minmax_scale as _minmax_scale

__all__ = [
    "CounterfactualFairnessResult",
    "counterfactual_fairness",
    "path_specific_counterfactual_fairness",
    "SituationReference",
    "SituationTestingResult",
    "prepare_situation_reference",
    "situation_testing",
    "fairness_through_awareness",
    "metric_multifairness",
]

Predictor = Callable[[dict[str, np.ndarray]], np.ndarray]


# ----------------------------------------------------------------------
# Counterfactual fairness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CounterfactualFairnessResult:
    """Per-population summary of counterfactual prediction flips.

    Attributes
    ----------
    mean_gap:
        Mean over audited rows of ``|P(Ŷ_{S←1}=1 | row) −
        P(Ŷ_{S←0}=1 | row)|``.
    max_gap:
        Largest per-row gap.
    unfair_fraction:
        Fraction of rows whose gap exceeds ``threshold``.
    threshold:
        The tolerance used for ``unfair_fraction``.
    n_rows:
        Number of rows audited.
    """

    mean_gap: float
    max_gap: float
    unfair_fraction: float
    threshold: float
    n_rows: int


#: Soft cap on rows × particles per batched-abduction chunk; bounds the
#: audit's peak memory at roughly this many floats per SCM node.
_MAX_BATCH = 1 << 18


def counterfactual_fairness(scm: CounterfactualSCM,
                            columns: Mapping[str, np.ndarray],
                            sensitive: str, outcome: str,
                            predict: Predictor,
                            rng: np.random.Generator,
                            n_particles: int = 200,
                            max_rows: int | None = 100,
                            threshold: float = 0.05,
                            chunk_rows: int | None = None,
                            ) -> CounterfactualFairnessResult:
    """Audit a classifier for counterfactual fairness.

    For each audited row the full abduction–action–prediction recipe
    runs twice (``do(S=1)`` and ``do(S=0)``) on shared posterior noise;
    the row's gap is the absolute difference of the two positive
    prediction rates.

    The audit is fully batched: all ``rows × n_particles`` evidence
    copies are abducted in one :meth:`CounterfactualSCM.abduct_rows`
    call per chunk, and the classifier sees exactly two ``predict``
    calls per chunk (one per counterfactual world).  Since abduction is
    exact, the factual replay equals the evidence, so each world only
    recomputes the sensitive attribute's descendants.

    Parameters
    ----------
    scm:
        Explicit-noise SCM over the data attributes (including the
        ground-truth outcome node, which is part of the evidence).
    columns:
        Observed data; must cover every SCM node.
    sensitive, outcome:
        The sensitive attribute and the ground-truth outcome node.
    predict:
        Classifier mapping a column dict to predictions; evaluated on
        the counterfactual attribute values.
    n_particles:
        Posterior noise samples per row and world.
    max_rows:
        Audit at most this many rows (None = all).
    threshold:
        A row counts as counterfactually unfair when its gap exceeds
        this.
    chunk_rows:
        Rows audited per batch; defaults to keeping rows × particles
        near ``_MAX_BATCH`` so memory stays bounded on large audits.
        Note the chunk boundary fixes where the per-node RNG batches
        split, so different ``chunk_rows`` give different (equally
        valid) seeded draws — hold it fixed when comparing runs at the
        same seed.

    Raises
    ------
    ValueError
        If columns are missing, ``n_particles < 1``, or the audit would
        cover zero rows (empty columns or ``max_rows=0``).
    """
    nodes = scm.graph.topological_order()
    missing = [n for n in nodes if n not in columns]
    if missing:
        raise ValueError(f"columns missing for SCM nodes: {missing}")
    if n_particles < 1:
        raise ValueError(f"n_particles must be at least 1, got {n_particles}")
    cols = {node: np.asarray(columns[node], dtype=float) for node in nodes}
    n = cols[nodes[0]].shape[0]
    take = n if max_rows is None else min(max_rows, n)
    if take <= 0:
        raise ValueError(
            "counterfactual_fairness has no rows to audit "
            f"(columns hold {n} rows, max_rows={max_rows}); "
            "pass non-empty columns and a positive max_rows"
        )
    if chunk_rows is None:
        chunk_rows = max(1, _MAX_BATCH // n_particles)
    elif chunk_rows < 1:
        raise ValueError(f"chunk_rows must be at least 1, got {chunk_rows}")
    obs.add("audit.rows", int(take))
    gaps = np.empty(take)
    for start in range(0, take, chunk_rows):
        stop = min(start + chunk_rows, take)
        obs.add("abduction.chunks")
        obs.add("abduction.rows", stop - start)
        evidence = {node: np.repeat(cols[node][start:stop], n_particles)
                    for node in nodes}
        noise = scm.abduct_rows(evidence, rng)
        rates = []
        for value in (1.0, 0.0):
            world = scm.evaluate(noise, {sensitive: value}, base=evidence)
            positive = np.asarray(predict(world), dtype=float) > 0.5
            rates.append(positive.reshape(stop - start, n_particles)
                         .mean(axis=1))
        gaps[start:stop] = np.abs(rates[0] - rates[1])

    return CounterfactualFairnessResult(
        mean_gap=float(gaps.mean()),
        max_gap=float(gaps.max()),
        unfair_fraction=float(np.mean(gaps > threshold)),
        threshold=threshold,
        n_rows=int(take),
    )


def path_specific_counterfactual_fairness(
        scm: CounterfactualSCM, sensitive: str, outcome: str,
        discriminatory_edges: frozenset[tuple[str, str]] | set,
        predict: Predictor, n: int, rng: np.random.Generator,
        s1: float = 1.0, s0: float = 0.0) -> float:
    """Wu et al.'s path-specific counterfactual (PC) fairness.

    Measures the effect of flipping the sensitive attribute *only along
    the user-designated discriminatory paths* on the classifier's
    predictions; 0 means the classifier is PC-fair w.r.t. those paths.

    This is the population-level PC effect — the per-individual variant
    is :func:`counterfactual_fairness` restricted to the same edges.
    """
    result = path_specific_effect(
        scm, sensitive, outcome, discriminatory_edges, n, rng,
        s1=s1, s0=s0, predict=predict)
    return result.effect


# ----------------------------------------------------------------------
# Situation testing (individual direct discrimination)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SituationTestingResult:
    """Summary of a k-NN situation-testing audit.

    Attributes
    ----------
    flagged_fraction:
        Fraction of audited individuals whose neighbourhood decision
        gap exceeds the test threshold.
    mean_gap:
        Mean neighbourhood decision gap over audited individuals
        (privileged-neighbour rate minus unprivileged-neighbour rate).
    threshold:
        The gap above which an individual counts as discriminated.
    n_audited:
        Number of individuals the aggregates cover: audited-group
        members with usable neighbours in both pools (an individual
        alone in its own group has no within-group rate and is
        excluded from all three numbers).
    """

    flagged_fraction: float
    mean_gap: float
    threshold: float
    n_audited: int


def situation_testing(X: np.ndarray, s: np.ndarray, y_hat: np.ndarray,
                      k: int = 8, threshold: float = 0.2,
                      audit_group: int = 0,
                      block_size: int | None = None,
                      ) -> SituationTestingResult:
    """Zhang et al.'s situation-testing discrimination discovery.

    For each member of the audited group, takes its ``k`` nearest
    neighbours within the privileged group and within the unprivileged
    group and compares their positive-decision rates.  A large gap
    means similar individuals are treated differently depending on the
    sensitive attribute — individual *direct* discrimination.

    Neighbour search runs on the shared blockwise top-k kernel
    (:func:`repro.metrics.pairwise.topk`), so the audit never
    materialises a dense ``n × n`` matrix and memory stays
    ``O(block_size · n)``.

    Groups smaller than ``k`` are audited against the neighbours they
    do have (``k`` is clamped per pool); an audited individual whose
    *own* group holds no one else gets no within-group rate and is
    excluded from the aggregates.  Only an entirely empty group — or
    an audit in which no individual has usable neighbours on both
    sides — is an error.

    Parameters
    ----------
    X:
        Feature matrix (without the sensitive attribute).
    s:
        Binary sensitive attribute (1 = privileged).
    y_hat:
        Binary decisions being audited.
    k:
        Neighbourhood size per group.
    threshold:
        Gap above which an individual is flagged.
    audit_group:
        Which group's members to audit (default: the unprivileged).
    block_size:
        Audited rows per kernel block (``None`` = kernel default).
    """
    X = np.asarray(X, dtype=float)
    s = np.asarray(s, dtype=int)
    y_hat = (np.asarray(y_hat, dtype=float) > 0.5).astype(float)
    if X.shape[0] != s.shape[0] or s.shape != y_hat.shape:
        raise ValueError("X, s, y_hat must be aligned")
    if k < 1:
        raise ValueError("k must be at least 1")
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
    pools = (idx_priv, idx_unpriv)
    # Position of each point inside each pool (-1 = not a member), for
    # masking a point out of its own neighbourhood.
    positions = []
    for pool in pools:
        pos = np.full(s.shape[0], -1)
        pos[pool] = np.arange(pool.size)
        positions.append(pos)

    Z = _minmax_scale(X)
    queries = Z[audited]
    rates = []
    for pool, pos in zip(pools, positions):
        nearest, d2 = pairwise.topk(queries, Z[pool], k,
                                    block_size=block_size,
                                    exclude=pos[audited])
        usable = np.isfinite(d2)  # drops the masked self-entry
        counts = usable.sum(axis=1)
        votes = (y_hat[pool[nearest]] * usable).sum(axis=1)
        rates.append(np.where(counts > 0,
                              votes / np.maximum(counts, 1), np.nan))
    gaps = rates[0] - rates[1]
    finite = np.isfinite(gaps)
    if not finite.any():
        raise ValueError(
            "no audited individual has usable neighbours in both "
            "groups; audit a larger sample")
    gaps = gaps[finite]
    obs.add("audit.rows", int(gaps.size))
    return SituationTestingResult(
        flagged_fraction=float(np.mean(np.abs(gaps) > threshold)),
        mean_gap=float(gaps.mean()),
        threshold=threshold,
        n_audited=int(gaps.size),
    )


# ----------------------------------------------------------------------
# Prepared situation testing (the fit-once/query-many serving form)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SituationReference:
    """A frozen reference population for per-request situation testing.

    Everything :func:`situation_testing` recomputes per call — the
    min-max scaling constants, the per-group neighbour pools as
    :class:`~repro.metrics.pairwise.PreparedReference` (Gram vectors
    precomputed), and the pools' decisions — is fitted once by
    :func:`prepare_situation_reference`.  :meth:`audit_rows` then costs
    two blockwise top-k queries per call and is row-independent, so a
    one-row request and a batch containing that row give identical
    answers.
    """

    lo: np.ndarray
    span: np.ndarray
    priv: pairwise.PreparedReference
    unpriv: pairwise.PreparedReference
    y_priv: np.ndarray
    y_unpriv: np.ndarray
    k: int
    threshold: float

    def scale(self, X: np.ndarray) -> np.ndarray:
        """Map query features into the frozen [0, 1] coordinates."""
        X = np.asarray(X, dtype=float)
        return (X - self.lo) / self.span

    def audit_rows(self, X: np.ndarray,
                   block_size: int | None = None) -> dict[str, np.ndarray]:
        """Situation-test query rows against the frozen reference.

        Unlike the offline audit, query rows are *new* individuals —
        they are not members of either pool, so no self-exclusion is
        needed.  Returns per-row arrays: ``rate_privileged``,
        ``rate_unprivileged``, ``gap`` (privileged minus unprivileged),
        and boolean ``flagged`` (``|gap| > threshold``).
        """
        Z = self.scale(X)
        rates = []
        for pool, y_pool in ((self.priv, self.y_priv),
                             (self.unpriv, self.y_unpriv)):
            nearest, d2 = pairwise.topk(Z, pool, self.k,
                                        block_size=block_size)
            usable = np.isfinite(d2)
            counts = usable.sum(axis=1)
            votes = (y_pool[nearest] * usable).sum(axis=1)
            rates.append(np.where(counts > 0,
                                  votes / np.maximum(counts, 1), np.nan))
        gaps = rates[0] - rates[1]
        return {
            "rate_privileged": rates[0],
            "rate_unprivileged": rates[1],
            "gap": gaps,
            "flagged": np.abs(gaps) > self.threshold,
        }


def prepare_situation_reference(X: np.ndarray, s: np.ndarray,
                                y_hat: np.ndarray, k: int = 8,
                                threshold: float = 0.2,
                                ) -> SituationReference:
    """Fit a :class:`SituationReference` from a labelled population.

    ``X``/``s``/``y_hat`` play the same roles as in
    :func:`situation_testing`; the min-max scaling constants are frozen
    from ``X`` so later queries land in the same coordinate system.
    """
    X = np.asarray(X, dtype=float)
    s = np.asarray(s, dtype=int)
    y_hat = (np.asarray(y_hat, dtype=float) > 0.5).astype(float)
    if X.shape[0] != s.shape[0] or s.shape != y_hat.shape:
        raise ValueError("X, s, y_hat must be aligned")
    if k < 1:
        raise ValueError("k must be at least 1")
    idx_priv = np.flatnonzero(s == 1)
    idx_unpriv = np.flatnonzero(s == 0)
    if idx_priv.size == 0 or idx_unpriv.size == 0:
        raise ValueError(
            "situation reference needs both sensitive groups non-empty; "
            f"got {idx_priv.size} privileged and {idx_unpriv.size} "
            "unprivileged members")
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span == 0, 1.0, span)
    Z = (X - lo) / span
    return SituationReference(
        lo=lo, span=span,
        priv=pairwise.prepare_reference(Z[idx_priv]),
        unpriv=pairwise.prepare_reference(Z[idx_unpriv]),
        y_priv=y_hat[idx_priv], y_unpriv=y_hat[idx_unpriv],
        k=int(k), threshold=float(threshold),
    )


# ----------------------------------------------------------------------
# Awareness-style metrics
# ----------------------------------------------------------------------
def _sample_pairs(n: int, n_pairs: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    a = rng.integers(0, n, n_pairs)
    b = rng.integers(0, n, n_pairs)
    keep = a != b
    return a[keep], b[keep]


def fairness_through_awareness(X: np.ndarray, scores: np.ndarray,
                               rng: np.random.Generator,
                               lipschitz: float = 1.0,
                               n_pairs: int = 5000,
                               ) -> float:
    """Dwork et al.'s Lipschitz fairness violation rate.

    Samples random pairs and returns the fraction violating
    ``|f(x) − f(y)| ≤ L · d(x, y)`` where ``f`` is the score and ``d``
    the normalised-Euclidean individual similarity.  0 means the
    awareness condition holds on the sampled pairs.
    """
    X = np.asarray(X, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if X.shape[0] != scores.shape[0]:
        raise ValueError("X and scores must be aligned")
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive")
    a, b = _sample_pairs(X.shape[0], n_pairs, rng)
    if a.size == 0:
        raise ValueError("no valid pairs sampled; increase n_pairs")
    # Only the sampled pairs' distances are needed — O(n_pairs) memory,
    # never the dense n × n matrix.
    d_ab = pairwise.pair_distances(_minmax_scale(X), a, b)
    violations = np.abs(scores[a] - scores[b]) > lipschitz * d_ab + 1e-12
    return float(np.mean(violations))


def metric_multifairness(X: np.ndarray, scores: np.ndarray,
                         rng: np.random.Generator,
                         n_sets: int = 50, set_size: int = 40,
                         radius: float = 0.25) -> float:
    """Kim et al.'s metric multifairness violation.

    For a collection of random comparison sets of *similar* pairs
    (pairs closer than ``radius`` under the normalised metric), the
    average score difference within each set must be small.  Returns
    the largest absolute within-set average difference; 0 means
    multifair on the sampled collection.
    """
    X = np.asarray(X, dtype=float)
    scores = np.asarray(scores, dtype=float)
    Z = _minmax_scale(X)
    n = X.shape[0]
    worst = 0.0
    found_any = False
    for _ in range(n_sets):
        a, b = _sample_pairs(n, set_size * 4, rng)
        d_ab = pairwise.pair_distances(Z, a, b)
        close = d_ab <= radius
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
