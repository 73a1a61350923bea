"""Group-level causal fairness metrics beyond TE/NDE/NIE.

This module completes the *causal* rows of the paper's Figure 3 that
the headline evaluation omits: counterfactual direct/indirect/spurious
effects [Zhang & Bareinboim], counterfactual error rates, proxy
fairness [Kilbertus et al.], fair-on-average causal effect (FACE)
[Khademi et al.], causal risk difference / unresolved discrimination
[Qureshi et al.; Kilbertus et al.], Salimi's ratio of observable
discrimination for justifiable fairness, Zha-Wu's non-discrimination
criterion, and equality of effort [Huan et al.].

Two kinds of inputs appear:

* metrics on an explicit-noise :class:`~repro.causal.counterfactual.
  CounterfactualSCM` (the rung-3 quantities — they need cross-world
  counterfactual consistency);
* metrics on plain observational columns plus, where required, the
  causal graph (rung-1/2 quantities estimated by stratification or
  adjustment).

All return signed gaps where 0 means perfectly fair, matching the
convention of ``TPRB``/``TE`` in :mod:`repro.metrics.fairness`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from ..causal.counterfactual import CounterfactualSCM
from ..causal.graph import CausalGraph
from ..causal.identification import backdoor_estimate, identify_effect

__all__ = [
    "CtfEffects",
    "ctf_effects",
    "CounterfactualErrorRates",
    "counterfactual_error_rates",
    "proxy_fairness_gap",
    "fair_on_average_causal_effect",
    "causal_risk_difference",
    "justifiable_fairness_gap",
    "non_discrimination_score",
    "equality_of_effort_gap",
]

Predictor = Callable[[dict[str, np.ndarray]], np.ndarray]


def _positive(values: np.ndarray) -> np.ndarray:
    return (np.asarray(values, dtype=float) > 0.5).astype(float)


def _outcome(values: dict[str, np.ndarray], outcome: str,
             predict: Predictor | None) -> np.ndarray:
    raw = predict(values) if predict is not None else values[outcome]
    return _positive(raw)


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    if not np.any(mask):
        raise ValueError("conditioning event has no samples; increase n")
    return float(np.mean(values[mask]))


# ----------------------------------------------------------------------
# Counterfactual effects (Zhang & Bareinboim's explanation formula)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CtfEffects:
    """Counterfactual decomposition of observed disparity.

    The explanation formula decomposes the observed (total-variation)
    disparity ``tv = E[Y | S=s1] − E[Y | S=s0]`` into a counterfactual
    direct effect (``de``), indirect effect (``ie``), and spurious
    effect (``se``):

    * ``de = E[Y_{s1, Z_{s0}} − Y_{s0} | S = s0]`` — the direct effect
      of the ``s0 → s1`` transition on the unprivileged group;
    * ``ie = E[Y_{s1, Z_{s0}} − Y_{s1} | S = s0]`` — the indirect
      effect of the *reverse* ``s1 → s0`` mediator transition (negative
      when the mediated path raises outcomes under ``s1``);
    * ``se = E[Y_{s1} | S = s1] − E[Y_{s1} | S = s0]`` — the spurious
      (confounded) association not carried by any causal path.

    These satisfy the explanation formula ``tv = de − ie + se``
    *exactly* (``residual`` records the numeric gap, which with shared
    noise is zero up to float error).
    """

    de: float
    ie: float
    se: float
    tv: float

    @property
    def residual(self) -> float:
        """``tv − (de − ie + se)`` — zero up to sampling error."""
        return self.tv - (self.de - self.ie + self.se)


def ctf_effects(scm: CounterfactualSCM, source: str, outcome: str,
                n: int, rng: np.random.Generator,
                s1: float = 1.0, s0: float = 0.0,
                predict: Predictor | None = None) -> CtfEffects:
    """Estimate the counterfactual DE/IE/SE decomposition.

    Shares exogenous noise across all worlds, which is what makes the
    cross-world terms (e.g. ``Y_{s1, Z_{s0}}``) well defined.

    Parameters
    ----------
    scm:
        Explicit-noise SCM of the data-generating process.
    source, outcome:
        Sensitive attribute and outcome node.
    n:
        Monte-Carlo sample size (the estimate conditions on the factual
        group, so use a few thousand at least).
    predict:
        Optional classifier replacing the outcome node.
    """
    return _ctf_draw(scm, source, outcome, n, rng, s1, s0, predict,
                     error_rates=False)[0]


# ----------------------------------------------------------------------
# Counterfactual error rates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CounterfactualErrorRates:
    """Counterfactual FPR/FNR gaps for the unprivileged group.

    ``fpr_gap = P(Ŷ_{s1}=1 | Y=0, S=s0) − P(Ŷ=1 | Y=0, S=s0)``: how the
    group's false-positive exposure *would change* had its members been
    privileged; analogously for ``fnr_gap``.  Zero means the error
    profile is counterfactually invariant to the sensitive attribute.
    """

    fpr_gap: float
    fnr_gap: float


def counterfactual_error_rates(scm: CounterfactualSCM, source: str,
                               outcome: str, predict: Predictor,
                               n: int, rng: np.random.Generator,
                               s1: float = 1.0, s0: float = 0.0,
                               ) -> CounterfactualErrorRates:
    """Estimate counterfactual error-rate gaps of a classifier.

    The ground truth ``outcome`` is taken from the factual world; the
    classifier is evaluated on factual and counterfactual (``do(source
    = s1)``) feature values generated from shared noise.
    """
    return _ctf_draw(scm, source, outcome, n, rng, s1, s0, predict,
                     effects=False)[1]


def _ctf_draw(scm, source, outcome, n, rng, s1=1.0, s0=0.0, predict=None,
              effects=True, error_rates=True):
    """:func:`ctf_effects` and :func:`counterfactual_error_rates` on one
    noise draw: the error rates reuse the factual and ``do(source=s1)``
    worlds and their predictions, so the pair costs one ``sample_noise``
    and four ``predict`` calls.  Returns ``(effects, error_rates)``,
    ``None`` for one not asked for."""
    noise = scm.sample_noise(n, rng)
    factual = scm.evaluate(noise)
    # All worlds share the factual noise, so passing the factual world
    # as ``base`` recomputes only the source's descendants per world.
    world1 = scm.evaluate(noise, {source: s1}, base=factual)
    y_fact = _outcome(factual, outcome, predict)
    y1 = _outcome(world1, outcome, predict)
    in_s0 = factual[source] == s0
    rates = None
    if error_rates:
        y = _positive(factual[outcome])
        neg = in_s0 & (y == 0)
        pos = in_s0 & (y == 1)
        rates = CounterfactualErrorRates(
            fpr_gap=_masked_mean(y1, neg) - _masked_mean(y_fact, neg),
            fnr_gap=((1 - _masked_mean(y1, pos))
                     - (1 - _masked_mean(y_fact, pos))))
    if not effects:
        return None, rates
    mediators = sorted(scm.graph.mediators(source, outcome))
    world0 = scm.evaluate(noise, {source: s0}, base=factual)
    y0 = _outcome(world0, outcome, predict)
    z0 = {m: world0[m] for m in mediators}
    y_s1_z0 = _outcome(
        scm.evaluate(noise, {source: s1}, overrides=z0, base=factual),
        outcome, predict)
    in_s1 = factual[source] == s1
    ctf = CtfEffects(
        de=_masked_mean(y_s1_z0 - y0, in_s0),
        ie=_masked_mean(y_s1_z0 - y1, in_s0),
        se=_masked_mean(y1, in_s1) - _masked_mean(y1, in_s0),
        tv=_masked_mean(y_fact, in_s1) - _masked_mean(y_fact, in_s0))
    return ctf, rates


# ----------------------------------------------------------------------
# Proxy fairness
# ----------------------------------------------------------------------
def proxy_fairness_gap(scm: CounterfactualSCM, proxy: str, outcome: str,
                       n: int, rng: np.random.Generator,
                       values: Iterable[float] = (0.0, 1.0),
                       predict: Predictor | None = None) -> float:
    """Kilbertus et al.'s proxy fairness violation.

    A predictor is proxy-fair w.r.t. a proxy ``P`` of the sensitive
    attribute when ``P(Ŷ = 1 | do(P = p))`` is the same for every proxy
    value.  Returns the max-minus-min spread of those interventional
    rates; 0 means proxy-fair.

    All proxy values are evaluated on one shared noise draw (common
    random numbers): only the proxy's descendants are recomputed per
    value, and the spread estimate loses sampling variance it would
    otherwise pay for independent draws.
    """
    noise = scm.sample_noise(n, rng)
    natural = scm.evaluate(noise)
    rates = []
    for value in values:
        sample = scm.evaluate(noise, {proxy: value}, base=natural)
        rates.append(float(np.mean(_outcome(sample, outcome, predict))))
    return float(max(rates) - min(rates))


# ----------------------------------------------------------------------
# FACE — fair on average causal effect
# ----------------------------------------------------------------------
def fair_on_average_causal_effect(columns: Mapping[str, np.ndarray],
                                  graph: CausalGraph, sensitive: str,
                                  outcome: str,
                                  y_hat: np.ndarray | None = None) -> float:
    """Khademi et al.'s FACE: the average causal effect of ``S`` on the
    (predicted) outcome, estimated by covariate adjustment.

    Uses :func:`repro.causal.identification.identify_effect` to find a
    valid adjustment set; returns ``E[Y(1)] − E[Y(0)]``.

    Raises
    ------
    ValueError
        If the effect is not backdoor/root-identified on the graph.
    """
    cols = dict(columns)
    if y_hat is not None:
        cols[outcome] = np.asarray(y_hat, dtype=float)
    ident = identify_effect(graph, sensitive, outcome)
    if ident.strategy not in ("root", "backdoor"):
        raise ValueError(
            f"FACE needs a backdoor-identified effect; got {ident.strategy!r}"
        )
    p1 = backdoor_estimate(cols, sensitive, outcome, ident.adjustment, 1.0)
    p0 = backdoor_estimate(cols, sensitive, outcome, ident.adjustment, 0.0)
    return p1 - p0


# ----------------------------------------------------------------------
# Stratified conditional-parity family
# ----------------------------------------------------------------------
def _strata_keys(columns: Mapping[str, np.ndarray],
                 names: Iterable[str], n: int) -> np.ndarray:
    names = sorted(names)
    if not names:
        return np.zeros(n, dtype=int)
    matrix = np.column_stack(
        [np.asarray(columns[c], dtype=float) for c in names])
    _, inverse = np.unique(matrix, axis=0, return_inverse=True)
    return inverse


def _stratified_gaps(y_hat: np.ndarray, s: np.ndarray,
                     keys: np.ndarray) -> tuple[float, float]:
    """Return ``(weighted_mean_gap, max_abs_gap)`` of per-stratum
    ``P(Ŷ=1|S=1,stratum) − P(Ŷ=1|S=0,stratum)`` over strata containing
    both groups."""
    weighted = 0.0
    weight_total = 0.0
    max_abs = 0.0
    for key in np.unique(keys):
        mask = keys == key
        m1, m0 = mask & (s == 1), mask & (s == 0)
        if not (np.any(m1) and np.any(m0)):
            continue
        gap = float(np.mean(y_hat[m1]) - np.mean(y_hat[m0]))
        w = float(np.mean(mask))
        weighted += w * gap
        weight_total += w
        max_abs = max(max_abs, abs(gap))
    if weight_total == 0.0:
        raise ValueError("no stratum contains both sensitive groups")
    return weighted / weight_total, max_abs


def causal_risk_difference(columns: Mapping[str, np.ndarray], sensitive: str,
                           y_hat: np.ndarray,
                           resolving: Iterable[str]) -> float:
    """Unresolved discrimination via the causal risk difference.

    Stratifies on the *resolving* attributes (those that mediate the
    sensitive attribute's influence in an accepted way) and returns the
    stratum-weighted difference in positive prediction rates.  Zero
    means any remaining association is fully explained by the resolving
    attributes.
    """
    y_hat = _positive(y_hat)
    s = np.asarray(columns[sensitive], dtype=float)
    keys = _strata_keys(columns, resolving, y_hat.shape[0])
    weighted, _ = _stratified_gaps(y_hat, s, keys)
    return weighted


def justifiable_fairness_gap(columns: Mapping[str, np.ndarray],
                             sensitive: str, y_hat: np.ndarray,
                             admissible: Iterable[str]) -> float:
    """Salimi et al.'s observable-discrimination score.

    Justifiable fairness requires ``Ŷ ⫫ S | A`` for the admissible
    attributes ``A``.  Returns the *largest* absolute conditional
    disparity across admissible strata; 0 means justifiably fair.
    """
    y_hat = _positive(y_hat)
    s = np.asarray(columns[sensitive], dtype=float)
    keys = _strata_keys(columns, admissible, y_hat.shape[0])
    _, max_abs = _stratified_gaps(y_hat, s, keys)
    return max_abs


def non_discrimination_score(columns: Mapping[str, np.ndarray],
                             graph: CausalGraph, sensitive: str,
                             outcome: str,
                             y_hat: np.ndarray | None = None) -> float:
    """Zha-Wu's non-discrimination criterion.

    Computes ``Δq = P(Y=1 | S=1, Q=q) − P(Y=1 | S=0, Q=q)`` for every
    value ``q`` of the blocking-parent set ``Q`` (the parents of the
    outcome that intercept all indirect ``S → Y`` paths) and returns
    ``max_q |Δq|``.  The criterion holds when this is below the user's
    threshold ``τ``.
    """
    q_set = graph.blocking_parents(sensitive, outcome)
    y = _positive(y_hat if y_hat is not None else columns[outcome])
    s = np.asarray(columns[sensitive], dtype=float)
    keys = _strata_keys(columns, q_set, y.shape[0])
    _, max_abs = _stratified_gaps(y, s, keys)
    return max_abs


# ----------------------------------------------------------------------
# Equality of effort
# ----------------------------------------------------------------------
def equality_of_effort_gap(columns: Mapping[str, np.ndarray],
                           sensitive: str, effort: str, outcome: str,
                           target: float = 0.5) -> float:
    """Huan et al.'s equality of effort, at the group level.

    For each sensitive group, finds the minimal value of the *effort*
    attribute (e.g. education level) at which the group's empirical
    success rate ``P(Y=1 | effort ≥ e, S=s)`` reaches ``target``.  The
    metric is the privileged-minus-unprivileged difference of those
    minimal efforts, rescaled by the effort attribute's observed range
    so it lies in ``[-1, 1]``.  Positive values mean the unprivileged
    group must exert *more* effort for the same chance of success.

    Raises
    ------
    ValueError
        If either group never reaches the target success rate.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must be in (0, 1], got {target}")
    e = np.asarray(columns[effort], dtype=float)
    s = np.asarray(columns[sensitive], dtype=float)
    y = _positive(columns[outcome])
    span = float(e.max() - e.min())
    if span == 0.0:
        raise ValueError(f"effort attribute {effort!r} is constant")

    def minimal_effort(group: float) -> float:
        mask = s == group
        levels = np.unique(e[mask])
        for level in levels:
            sub = mask & (e >= level)
            if np.mean(y[sub]) >= target:
                return float(level)
        raise ValueError(
            f"group S={group} never reaches success rate {target}"
        )

    return (minimal_effort(0.0) - minimal_effort(1.0)) / span
