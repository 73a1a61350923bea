"""The paper's Figure 3 catalog: 34 fairness notions, categorised.

Section 2 of the paper contributes a categorisation of 34 fairness
notions along four axes — association (causal / non-causal),
granularity (group / individual), position in Pearl's causal hierarchy
(observation / intervention / counterfactual), and additional
requirements (prediction probabilities, a causality model, resolving
attributes, a similarity metric).  This module reproduces that catalog
as data (:class:`Notion`, :func:`catalog`) and implements every notion
that is computable from observational data — predictions, labels,
scores, and group membership — as a documented function.

The five headline metrics of Figure 4 (DI, TPRB, TNRB, ID, TE) live in
:mod:`repro.metrics.fairness`; this module widens coverage to the rest
of the observational rows of Figure 3 so that users can audit a
classifier against any group notion the literature proposes.

Sign conventions follow the paper: for difference-style metrics,
positive values mean the *privileged* group (``S = 1``) is favoured,
negative values mean reverse discrimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import pairwise
from .confusion import ConfusionCounts


class Association(Enum):
    """Whether a notion reasons causally or via statistical association."""

    NON_CAUSAL = "non-causal"
    CAUSAL = "causal"


class Granularity(Enum):
    """Whether a notion protects groups or individuals."""

    GROUP = "group"
    INDIVIDUAL = "individual"


class CausalHierarchy(Enum):
    """Pearl's ladder of causation: the domain knowledge a notion needs."""

    OBSERVATION = "observation"
    INTERVENTION = "intervention"
    COUNTERFACTUAL = "counterfactual"


class GroupStrategy(Enum):
    """How a group notion measures discrimination (paper Figure 3)."""

    DEMOGRAPHY_AWARE = "demography-aware"
    ERROR_AWARE = "error-aware"
    NOT_APPLICABLE = "n/a"


@dataclass(frozen=True)
class Notion:
    """One row of the paper's Figure 3.

    ``metric`` names the quantifying metric; ``implemented_as`` names
    the function in this package that computes it.  Every row of
    Figure 3 is implemented: the observational rows in this module, the
    interventional and counterfactual rows in
    :mod:`repro.metrics.causal_notions` and
    :mod:`repro.metrics.individual` (the paper's own evaluation excludes
    the counterfactual rows; we provide them as an extension).
    """

    name: str
    metric: str
    association: Association
    granularity: Granularity
    hierarchy: CausalHierarchy
    strategy: GroupStrategy = GroupStrategy.NOT_APPLICABLE
    requirements: tuple[str, ...] = ()
    implemented_as: str = ""
    evaluated_in_paper: bool = False


def _notion(name, metric, association, granularity, hierarchy,
            strategy=GroupStrategy.NOT_APPLICABLE, requirements=(),
            implemented_as="", evaluated=False) -> Notion:
    return Notion(name=name, metric=metric, association=association,
                  granularity=granularity, hierarchy=hierarchy,
                  strategy=strategy, requirements=tuple(requirements),
                  implemented_as=implemented_as,
                  evaluated_in_paper=evaluated)


_NC, _C = Association.NON_CAUSAL, Association.CAUSAL
_G, _I = Granularity.GROUP, Granularity.INDIVIDUAL
_OBS = CausalHierarchy.OBSERVATION
_INT = CausalHierarchy.INTERVENTION
_CF = CausalHierarchy.COUNTERFACTUAL
_DEM = GroupStrategy.DEMOGRAPHY_AWARE
_ERR = GroupStrategy.ERROR_AWARE

#: The 34 rows of the paper's Figure 3, in the paper's order.
FIGURE3_NOTIONS: tuple[Notion, ...] = (
    _notion("conditional statistical parity", "conditional statistical parity",
            _NC, _G, _OBS, _DEM, ("resolving attribute",),
            "conditional_statistical_parity"),
    _notion("demographic parity", "disparate impact / CV score",
            _NC, _G, _OBS, _DEM, (), "disparate_impact", evaluated=True),
    _notion("intersectional fairness", "differential fairness",
            _NC, _G, _OBS, _DEM, (), "differential_fairness"),
    _notion("conditional accuracy equality",
            "false discovery/omission rate parity",
            _NC, _G, _OBS, _ERR, (), "conditional_accuracy_equality"),
    _notion("predictive parity", "false discovery rate parity",
            _NC, _G, _OBS, _ERR, (), "false_discovery_rate_parity"),
    _notion("overall accuracy equality", "balanced classification rate",
            _NC, _G, _OBS, _ERR, (), "balanced_classification_rate_difference"),
    _notion("treatment equality", "ratio of false negative and false positive",
            _NC, _G, _OBS, _ERR, (), "treatment_equality"),
    _notion("equalized odds", "true positive/negative rate balance",
            _NC, _G, _OBS, _ERR, (), "true_positive_rate_balance",
            evaluated=True),
    _notion("equal opportunity", "true negative rate balance",
            _NC, _G, _OBS, _ERR, (), "equal_opportunity_difference",
            evaluated=True),
    _notion("resilience to random bias", "resilience to random bias",
            _NC, _G, _OBS, _ERR, (), "resilience_to_random_bias"),
    _notion("preference-based fairness", "group benefit",
            _NC, _G, _OBS, _DEM, (), "group_benefit_ratio"),
    _notion("calibration", "calibration",
            _NC, _G, _OBS, _ERR, ("prediction probability",),
            "calibration_error"),
    _notion("calibration within groups", "well calibration",
            _NC, _G, _OBS, _ERR, ("prediction probability",),
            "calibration_gap"),
    _notion("positive class balance", "fairness to positive class",
            _NC, _G, _OBS, _ERR, ("prediction probability",),
            "positive_class_balance"),
    _notion("negative class balance", "fairness to negative class",
            _NC, _G, _OBS, _ERR, ("prediction probability",),
            "negative_class_balance"),
    _notion("individual discrimination", "individual discrimination",
            _NC, _I, _OBS, GroupStrategy.NOT_APPLICABLE, (),
            "individual_discrimination", evaluated=True),
    _notion("metric multifairness", "metric multifairness",
            _NC, _I, _OBS, GroupStrategy.NOT_APPLICABLE,
            ("similarity metric",), "metric_multifairness"),
    _notion("fairness through awareness", "fairness through awareness",
            _NC, _I, _OBS, GroupStrategy.NOT_APPLICABLE,
            ("similarity metric",), "fairness_through_awareness"),
    _notion("fairness through unawareness", "Kusner et al.",
            _NC, _I, _OBS, GroupStrategy.NOT_APPLICABLE, (),
            "fairness_through_unawareness"),
    _notion("proxy fairness", "proxy fairness", _C, _G, _INT,
            requirements=("causality model",),
            implemented_as="proxy_fairness_gap"),
    _notion("total causal effect", "total effect", _C, _G, _INT,
            requirements=("causality model",), implemented_as="total_effect",
            evaluated=True),
    _notion("direct causal effect", "natural direct effect", _C, _G, _INT,
            requirements=("causality model",),
            implemented_as="natural_direct_effect"),
    _notion("indirect causal effect", "natural indirect effect",
            _C, _G, _INT, requirements=("causality model",),
            implemented_as="natural_indirect_effect"),
    _notion("path-specific fairness", "path specific effect", _C, _G, _INT,
            requirements=("causality model",),
            implemented_as="path_specific_effect"),
    _notion("unresolved discrimination", "causal risk difference",
            _C, _G, _INT,
            requirements=("causality model", "resolving attribute"),
            implemented_as="causal_risk_difference"),
    _notion("interventional/justifiable fairness",
            "ratio of observable discrimination", _C, _G, _INT,
            requirements=("resolving attribute",),
            implemented_as="justifiable_fairness_gap"),
    _notion("fair on average causal effect", "fair on average causal effect",
            _C, _G, _INT, requirements=("causality model",),
            implemented_as="fair_on_average_causal_effect"),
    _notion("non-discrimination criterion", "non-discrimination criterion",
            _C, _G, _INT, requirements=("causality model",),
            implemented_as="non_discrimination_score"),
    _notion("equality of effort", "equality of effort", _C, _I, _INT,
            requirements=("causality model",),
            implemented_as="equality_of_effort_gap"),
    _notion("counterfactual effects", "counterfactual direct/indirect effect",
            _C, _G, _CF, requirements=("causality model",),
            implemented_as="ctf_effects"),
    _notion("counterfactual error rates", "counterfactual error rates",
            _C, _G, _CF, requirements=("causality model", "error-aware"),
            implemented_as="counterfactual_error_rates"),
    _notion("counterfactual fairness", "counterfactual effect", _C, _I, _CF,
            requirements=("causality model",),
            implemented_as="counterfactual_fairness"),
    _notion("path-specific counterfactuals", "counterfactual effect",
            _C, _I, _CF, requirements=("causality model",),
            implemented_as="path_specific_counterfactual_fairness"),
    _notion("individual direct discrimination",
            "individual direct discrimination", _C, _I, _CF,
            requirements=("causality model", "similarity metric"),
            implemented_as="situation_testing"),
)


def catalog(association: Association | None = None,
            granularity: Granularity | None = None,
            hierarchy: CausalHierarchy | None = None,
            implemented_only: bool = False) -> list[Notion]:
    """Filter the Figure 3 catalog along the paper's categorisation axes.

    >>> len(catalog())
    34
    >>> all(n.association is Association.CAUSAL
    ...     for n in catalog(association=Association.CAUSAL))
    True
    """
    notions = list(FIGURE3_NOTIONS)
    if association is not None:
        notions = [n for n in notions if n.association is association]
    if granularity is not None:
        notions = [n for n in notions if n.granularity is granularity]
    if hierarchy is not None:
        notions = [n for n in notions if n.hierarchy is hierarchy]
    if implemented_only:
        notions = [n for n in notions if n.implemented_as]
    return notions


def notion_by_name(name: str) -> Notion:
    """Look up a catalog row by its notion name (case-insensitive)."""
    for notion in FIGURE3_NOTIONS:
        if notion.name.lower() == name.lower():
            return notion
    raise KeyError(f"unknown fairness notion {name!r}")


# ----------------------------------------------------------------------
# Shared group helpers
# ----------------------------------------------------------------------
def _as_binary(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr).astype(int)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must be binary 0/1, found "
                         f"{np.setdiff1d(np.unique(arr), (0, 1))}")
    return arr


def _group_counts(y: np.ndarray, y_hat: np.ndarray, s: np.ndarray
                  ) -> tuple[ConfusionCounts, ConfusionCounts]:
    """Confusion counts for (unprivileged, privileged)."""
    y = _as_binary("y", y)
    y_hat = _as_binary("y_hat", y_hat)
    s = _as_binary("s", s)
    if not (y.shape == y_hat.shape == s.shape):
        raise ValueError("y, y_hat, s must align")
    if not (s == 0).any() or not (s == 1).any():
        raise ValueError("both sensitive groups must be present")
    c0 = ConfusionCounts.from_predictions(y[s == 0], y_hat[s == 0])
    c1 = ConfusionCounts.from_predictions(y[s == 1], y_hat[s == 1])
    return c0, c1


def _safe_diff(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return float("nan")
    return a - b


# ----------------------------------------------------------------------
# Demography-aware group notions
# ----------------------------------------------------------------------
def cv_score(y_hat: np.ndarray, s: np.ndarray) -> float:
    """Calders–Verwer gap ``P(ŷ=1 | S=1) − P(ŷ=1 | S=0)``.

    The difference form of demographic parity (the ratio form is
    :func:`repro.metrics.fairness.disparate_impact`).  0 is parity.
    """
    y_hat = _as_binary("y_hat", y_hat)
    s = _as_binary("s", s)
    if y_hat.shape != s.shape:
        raise ValueError("y_hat and s must align")
    if not (s == 0).any() or not (s == 1).any():
        raise ValueError("both sensitive groups must be present")
    return float(np.mean(y_hat[s == 1]) - np.mean(y_hat[s == 0]))


def conditional_statistical_parity(y_hat: np.ndarray, s: np.ndarray,
                                   legitimate: np.ndarray) -> float:
    """Worst-stratum demographic disparity, controlling for a
    legitimate (resolving) attribute [Corbett-Davies et al.].

    Rows are stratified by the values of ``legitimate``; within each
    stratum the CV gap is computed, and the largest absolute gap over
    strata containing both groups is returned (signed by the stratum
    that attains it).  0 is parity in every stratum.
    """
    y_hat = _as_binary("y_hat", y_hat)
    s = _as_binary("s", s)
    legitimate = np.asarray(legitimate)
    if not (y_hat.shape == s.shape == legitimate.shape):
        raise ValueError("y_hat, s, legitimate must align")
    worst = 0.0
    seen_stratum = False
    for value in np.unique(legitimate):
        mask = legitimate == value
        s_stratum = s[mask]
        if not (s_stratum == 0).any() or not (s_stratum == 1).any():
            continue
        seen_stratum = True
        gap = cv_score(y_hat[mask], s_stratum)
        if abs(gap) > abs(worst):
            worst = gap
    if not seen_stratum:
        raise ValueError("no stratum contains both sensitive groups")
    return float(worst)


def differential_fairness(y_hat: np.ndarray, groups: np.ndarray,
                          smoothing: float = 1.0) -> float:
    """Intersectional differential fairness ε [Foulds et al.].

    ``groups`` labels each row with an (intersectional) subgroup id;
    the metric is the largest absolute log-ratio of smoothed positive-
    prediction rates over all ordered subgroup pairs.  ε = 0 means all
    subgroups receive positives at identical rates; a classifier is
    "ε-differentially fair" when the returned value is at most ε.
    Dirichlet smoothing keeps empty-rate subgroups finite.
    """
    y_hat = _as_binary("y_hat", y_hat)
    groups = np.asarray(groups)
    if y_hat.shape != groups.shape:
        raise ValueError("y_hat and groups must align")
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    rates = []
    for value in np.unique(groups):
        mask = groups == value
        rate = (y_hat[mask].sum() + smoothing) / (mask.sum() + 2 * smoothing)
        rates.append(rate)
    if len(rates) < 2:
        return 0.0
    log_rates = np.log(rates)
    return float(log_rates.max() - log_rates.min())


def group_benefit_ratio(y: np.ndarray, y_hat: np.ndarray, s: np.ndarray
                        ) -> float:
    """Preference-based group benefit [Zafar et al., NeurIPS'17].

    The benefit a group receives is its rate of favourable outcomes
    among rows whose ground truth or prediction is positive
    ``P(ŷ=1 ∨ y=1)``-relative; we report the benefit difference
    (privileged − unprivileged) of positive predictions among rows
    with any stake in the positive class.  0 means both groups benefit
    equally.
    """
    y = _as_binary("y", y)
    y_hat = _as_binary("y_hat", y_hat)
    s = _as_binary("s", s)
    benefits = []
    for group in (0, 1):
        mask = (s == group) & ((y == 1) | (y_hat == 1))
        if not mask.any():
            benefits.append(float("nan"))
        else:
            benefits.append(float(np.mean(y_hat[mask])))
    return _safe_diff(benefits[1], benefits[0])


# ----------------------------------------------------------------------
# Error-aware group notions
# ----------------------------------------------------------------------
def equal_opportunity_difference(y: np.ndarray, y_hat: np.ndarray,
                                 s: np.ndarray) -> float:
    """TPR(S=1) − TPR(S=0): the equal-opportunity gap [Hardt et al.]."""
    c0, c1 = _group_counts(y, y_hat, s)
    return _safe_diff(c1.tpr, c0.tpr)


def predictive_equality_difference(y: np.ndarray, y_hat: np.ndarray,
                                   s: np.ndarray) -> float:
    """FPR(S=1) − FPR(S=0): the predictive-equality gap.

    Negative values mean the unprivileged group suffers more false
    positives (the COMPAS pattern of the paper's Example 1).
    """
    c0, c1 = _group_counts(y, y_hat, s)
    return _safe_diff(c1.fpr, c0.fpr)


def false_discovery_rate_parity(y: np.ndarray, y_hat: np.ndarray,
                                s: np.ndarray) -> float:
    """FDR(S=1) − FDR(S=0), where FDR = P(y=0 | ŷ=1) (predictive
    parity's quantifying metric; Celis's ``pp`` constraint target)."""
    c0, c1 = _group_counts(y, y_hat, s)
    fdr0 = c0.fp / (c0.fp + c0.tp) if (c0.fp + c0.tp) else float("nan")
    fdr1 = c1.fp / (c1.fp + c1.tp) if (c1.fp + c1.tp) else float("nan")
    return _safe_diff(fdr1, fdr0)


def false_omission_rate_parity(y: np.ndarray, y_hat: np.ndarray,
                               s: np.ndarray) -> float:
    """FOR(S=1) − FOR(S=0), where FOR = P(y=1 | ŷ=0)."""
    c0, c1 = _group_counts(y, y_hat, s)
    for0 = c0.fn / (c0.fn + c0.tn) if (c0.fn + c0.tn) else float("nan")
    for1 = c1.fn / (c1.fn + c1.tn) if (c1.fn + c1.tn) else float("nan")
    return _safe_diff(for1, for0)


def conditional_accuracy_equality(y: np.ndarray, y_hat: np.ndarray,
                                  s: np.ndarray) -> float:
    """Worst of the FDR and FOR parities [Berk et al.] — the notion
    holds only when both prediction-conditioned error rates match."""
    fdr = false_discovery_rate_parity(y, y_hat, s)
    fom = false_omission_rate_parity(y, y_hat, s)
    if math.isnan(fdr):
        return fom
    if math.isnan(fom):
        return fdr
    return fdr if abs(fdr) >= abs(fom) else fom


def balanced_classification_rate_difference(y: np.ndarray,
                                            y_hat: np.ndarray,
                                            s: np.ndarray) -> float:
    """BCR(S=1) − BCR(S=0) with BCR = (TPR + TNR) / 2 [Friedler et al.]
    — the quantifying metric of overall accuracy equality."""
    c0, c1 = _group_counts(y, y_hat, s)
    bcr0 = (c0.tpr + c0.tnr) / 2
    bcr1 = (c1.tpr + c1.tnr) / 2
    return _safe_diff(bcr1, bcr0)


def accuracy_equality_difference(y: np.ndarray, y_hat: np.ndarray,
                                 s: np.ndarray) -> float:
    """Plain accuracy difference between the groups (COMPAS's famous
    "67% vs 69%" from the paper's Example 1)."""
    c0, c1 = _group_counts(y, y_hat, s)
    acc0 = (c0.tp + c0.tn) / c0.total if c0.total else float("nan")
    acc1 = (c1.tp + c1.tn) / c1.total if c1.total else float("nan")
    return _safe_diff(acc1, acc0)


def treatment_equality(y: np.ndarray, y_hat: np.ndarray, s: np.ndarray
                       ) -> float:
    """Difference of FN/FP ratios between groups [Berk et al.].

    A group with a higher FN/FP ratio is denied favourable outcomes it
    deserved more often than it receives undeserved ones.  ``nan`` when
    either group has no false positives.
    """
    c0, c1 = _group_counts(y, y_hat, s)
    r0 = c0.fn / c0.fp if c0.fp else float("nan")
    r1 = c1.fn / c1.fp if c1.fp else float("nan")
    return _safe_diff(r1, r0)


def resilience_to_random_bias(y: np.ndarray, scores: np.ndarray,
                              s: np.ndarray, flip_fraction: float = 0.1,
                              n_trials: int = 20, seed: int = 0) -> float:
    """Resilience to random bias [Fish et al., SDM'16].

    Measures how much a score-thresholded classifier's demographic
    disparity moves when a random ``flip_fraction`` of unprivileged
    rows have their labels flipped to unfavourable before measuring —
    a proxy for how sensitive the decision surface is to label noise
    that targets one group.  Returns the mean absolute CV-gap shift
    over trials; 0 means perfectly resilient.
    """
    y = _as_binary("y", y)
    s = _as_binary("s", s)
    scores = np.asarray(scores, dtype=float)
    if not 0 <= flip_fraction <= 1:
        raise ValueError("flip_fraction must be in [0, 1]")
    y_hat = (scores >= 0.5).astype(int)
    base_gap = cv_score(y_hat, s)
    rng = np.random.default_rng(seed)
    unpriv_idx = np.flatnonzero(s == 0)
    shifts = []
    for _ in range(n_trials):
        flipped = y_hat.copy()
        n_flip = int(round(flip_fraction * unpriv_idx.size))
        if n_flip:
            chosen = rng.choice(unpriv_idx, size=n_flip, replace=False)
            flipped[chosen] = 0
        shifts.append(abs(cv_score(flipped, s) - base_gap))
    return float(np.mean(shifts))


# ----------------------------------------------------------------------
# Score-based (calibration-family) notions
# ----------------------------------------------------------------------
def _check_scores(y: np.ndarray, scores: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    y = _as_binary("y", y)
    scores = np.asarray(scores, dtype=float)
    if y.shape != scores.shape:
        raise ValueError("y and scores must align")
    if scores.size and (scores.min() < 0 or scores.max() > 1):
        raise ValueError("scores must lie in [0, 1]")
    return y, scores


def calibration_error(y: np.ndarray, scores: np.ndarray,
                      n_bins: int = 10) -> float:
    """Expected calibration error: bin-weighted |mean score − empirical
    positive rate| over equal-width score bins.  0 = calibrated."""
    y, scores = _check_scores(y, scores)
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    bins = np.clip(np.digitize(scores, edges[1:-1]), 0, n_bins - 1)
    error = 0.0
    for b in range(n_bins):
        mask = bins == b
        if not mask.any():
            continue
        weight = mask.mean()
        error += weight * abs(scores[mask].mean() - y[mask].mean())
    return float(error)


def calibration_gap(y: np.ndarray, scores: np.ndarray, s: np.ndarray,
                    n_bins: int = 10) -> float:
    """Calibration-within-groups gap [Kleinberg et al.]:
    ECE(S=1) − ECE(S=0).  0 means both groups are equally well
    calibrated (each group may still be miscalibrated in absolute
    terms — pair with :func:`calibration_error`)."""
    s = _as_binary("s", s)
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=float)
    if not (y.shape == scores.shape == s.shape):
        raise ValueError("y, scores, s must align")
    ece0 = calibration_error(y[s == 0], scores[s == 0], n_bins=n_bins)
    ece1 = calibration_error(y[s == 1], scores[s == 1], n_bins=n_bins)
    return _safe_diff(ece1, ece0)


def positive_class_balance(y: np.ndarray, scores: np.ndarray,
                           s: np.ndarray) -> float:
    """Balance for the positive class [Kleinberg et al.]: difference of
    mean scores among truly-positive rows, privileged − unprivileged.
    0 means positive members of both groups get the same average
    score."""
    y, scores = _check_scores(y, scores)
    s = _as_binary("s", s)
    means = []
    for group in (0, 1):
        mask = (s == group) & (y == 1)
        means.append(float(scores[mask].mean()) if mask.any()
                     else float("nan"))
    return _safe_diff(means[1], means[0])


def negative_class_balance(y: np.ndarray, scores: np.ndarray,
                           s: np.ndarray) -> float:
    """Balance for the negative class [Kleinberg et al.]: difference of
    mean scores among truly-negative rows, privileged − unprivileged."""
    y, scores = _check_scores(y, scores)
    s = _as_binary("s", s)
    means = []
    for group in (0, 1):
        mask = (s == group) & (y == 0)
        means.append(float(scores[mask].mean()) if mask.any()
                     else float("nan"))
    return _safe_diff(means[1], means[0])


# ----------------------------------------------------------------------
# Individual-level notions
# ----------------------------------------------------------------------
def consistency_score(X: np.ndarray, y_hat: np.ndarray,
                      n_neighbors: int = 5) -> float:
    """kNN consistency [Zemel et al.]: 1 − mean |ŷᵢ − mean(ŷ of the k
    nearest neighbours of i)| — the operational form of "similar
    individuals are treated similarly" (fairness through awareness with
    Euclidean similarity).  1 is perfectly consistent.

    The neighbours come from the shared top-k kernel
    (:func:`repro.metrics.pairwise.topk`), each row leaving itself out:
    exact squared distances, ties to the lowest index.
    """
    X = np.asarray(X, dtype=float)
    y_hat = _as_binary("y_hat", y_hat)
    if X.ndim != 2 or X.shape[0] != y_hat.shape[0]:
        raise ValueError("X must be 2-D and align with y_hat")
    n = X.shape[0]
    if n_neighbors < 1:
        raise ValueError("n_neighbors must be at least 1")
    if n < 2:
        return 1.0
    nearest, _ = pairwise.topk(X, X, n_neighbors, exclude=np.arange(n))
    gaps = np.abs(y_hat - y_hat[nearest].mean(axis=1))
    return 1.0 - float(gaps.sum()) / n


def fairness_through_unawareness(feature_names: list[str],
                                 sensitive: str,
                                 proxies: tuple[str, ...] = ()) -> bool:
    """Does a model satisfy fairness through unawareness [Kusner et
    al.] — i.e. is the sensitive attribute (and any declared proxies)
    absent from its feature set?  Purely syntactic, as the notion is.
    """
    banned = {sensitive, *proxies}
    return not banned.intersection(feature_names)


# ----------------------------------------------------------------------
# Full observational audit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupFairnessReport:
    """Every observational group metric of Figure 3 for one prediction
    set — a one-call fairness audit.

    Score-based entries are ``nan`` when ``scores`` were not supplied.
    """

    cv_gap: float
    equal_opportunity: float
    predictive_equality: float
    fdr_parity: float
    for_parity: float
    bcr_difference: float
    accuracy_difference: float
    treatment_equality: float
    group_benefit: float
    calibration_gap: float = float("nan")
    positive_balance: float = float("nan")
    negative_balance: float = float("nan")
    values: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_predictions(cls, y: np.ndarray, y_hat: np.ndarray,
                         s: np.ndarray,
                         scores: np.ndarray | None = None
                         ) -> "GroupFairnessReport":
        kwargs = {
            "cv_gap": cv_score(y_hat, s),
            "equal_opportunity": equal_opportunity_difference(y, y_hat, s),
            "predictive_equality": predictive_equality_difference(
                y, y_hat, s),
            "fdr_parity": false_discovery_rate_parity(y, y_hat, s),
            "for_parity": false_omission_rate_parity(y, y_hat, s),
            "bcr_difference": balanced_classification_rate_difference(
                y, y_hat, s),
            "accuracy_difference": accuracy_equality_difference(y, y_hat, s),
            "treatment_equality": treatment_equality(y, y_hat, s),
            "group_benefit": group_benefit_ratio(y, y_hat, s),
        }
        if scores is not None:
            kwargs["calibration_gap"] = calibration_gap(y, scores, s)
            kwargs["positive_balance"] = positive_class_balance(y, scores, s)
            kwargs["negative_balance"] = negative_class_balance(y, scores, s)
        return cls(**kwargs, values=dict(kwargs))

    def worst(self) -> tuple[str, float]:
        """The metric with the largest absolute violation."""
        finite = {k: v for k, v in self.values.items() if v == v}
        if not finite:
            return ("", float("nan"))
        name = max(finite, key=lambda k: abs(finite[k]))
        return name, finite[name]
