"""Evaluation metrics: correctness (Figure 2), fairness (Figure 4), and
the full notion catalog of Figure 3 (observational, interventional, and
counterfactual).  :mod:`repro.metrics.pairwise` is the shared
block-matmul top-k and pair-distance kernel behind every k-NN-shaped
consumer.
"""

from . import pairwise
from .causal_notions import (CounterfactualErrorRates, CtfEffects,
                             causal_risk_difference,
                             counterfactual_error_rates, ctf_effects,
                             equality_of_effort_gap,
                             fair_on_average_causal_effect,
                             justifiable_fairness_gap,
                             non_discrimination_score, proxy_fairness_gap)
from .confusion import ConfusionCounts
from .correctness import (CorrectnessReport, accuracy, f1_score, precision,
                          recall)
from .fairness import (causal_effects_of_predictions, disparate_impact,
                       id_sample_size, individual_discrimination,
                       total_effect, true_negative_rate_balance,
                       true_positive_rate_balance)
from .individual import (CounterfactualFairnessResult,
                         SituationTestingResult, counterfactual_fairness,
                         fairness_through_awareness, metric_multifairness,
                         path_specific_counterfactual_fairness,
                         situation_testing)
from .normalize import (NormalizedScore, di_star, normalize_di, normalize_id,
                        normalize_signed, one_minus_abs)

__all__ = [
    "ConfusionCounts",
    "accuracy", "precision", "recall", "f1_score", "CorrectnessReport",
    "disparate_impact", "true_positive_rate_balance",
    "true_negative_rate_balance", "individual_discrimination",
    "id_sample_size", "total_effect", "causal_effects_of_predictions",
    "di_star", "one_minus_abs", "NormalizedScore", "normalize_di",
    "normalize_signed", "normalize_id",
    "CtfEffects", "ctf_effects",
    "CounterfactualErrorRates", "counterfactual_error_rates",
    "proxy_fairness_gap", "fair_on_average_causal_effect",
    "causal_risk_difference", "justifiable_fairness_gap",
    "non_discrimination_score", "equality_of_effort_gap",
    "CounterfactualFairnessResult", "counterfactual_fairness",
    "path_specific_counterfactual_fairness",
    "SituationTestingResult", "situation_testing",
    "fairness_through_awareness", "metric_multifairness",
    "pairwise",
]
