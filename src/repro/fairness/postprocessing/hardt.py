"""Hardt: equality of opportunity in supervised learning.

Hardt, Price & Srebro (NeurIPS 2016).  A derived predictor
``ỹ = g(ŷ, S)`` replaces the base prediction: for each sensitive group
``s`` and base prediction ``ŷ ∈ {0, 1}`` a mixing probability
``p_{s,ŷ} = P(ỹ=1 | ŷ, S=s)`` is chosen.  Group-conditional TPR and
FPR are *linear* in these four probabilities, so the loss-minimising
predictor satisfying equalized odds is the solution of a linear
program, solved here with :func:`scipy.optimize.linprog` (paper
Appendix B.3.2).
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from ..base import Notion, PostProcessor


class Hardt(PostProcessor):
    """Equalized-odds post-processing by the derived-predictor LP."""

    notion = Notion.EQUALIZED_ODDS
    uses_sensitive_feature = True

    def __init__(self):
        # p_[s][yhat] = P(ỹ=1 | ŷ=yhat, S=s)
        self.mix_: dict[tuple[int, int], float] | None = None

    def fit(self, y: np.ndarray, scores: np.ndarray,
            s: np.ndarray) -> "Hardt":
        y = np.asarray(y).astype(int)
        s = np.asarray(s).astype(int)
        y_hat = (np.asarray(scores, float) >= 0.5).astype(int)

        # Base-rate statistics per group: P(ŷ=1 | y, s).
        def rate(s_val: int, y_val: int) -> float:
            cell = (s == s_val) & (y == y_val)
            if not cell.any():
                return 0.5
            return float(np.mean(y_hat[cell]))

        # Variables x = [p_{0,0}, p_{0,1}, p_{1,0}, p_{1,1}].
        def tpr_coeffs(s_val: int) -> np.ndarray:
            """TPR_s(x) = x_{s,0} (1−r) + x_{s,1} r with r = P(ŷ=1|y=1,s)."""
            r = rate(s_val, 1)
            coeffs = np.zeros(4)
            coeffs[2 * s_val] = 1 - r
            coeffs[2 * s_val + 1] = r
            return coeffs

        def fpr_coeffs(s_val: int) -> np.ndarray:
            r = rate(s_val, 0)
            coeffs = np.zeros(4)
            coeffs[2 * s_val] = 1 - r
            coeffs[2 * s_val + 1] = r
            return coeffs

        # Expected loss is linear in x: for each (s, ŷ) cell, predicting
        # 1 with prob x costs FP mass among y=0 and saves FN among y=1.
        cost = np.zeros(4)
        n = len(y)
        for s_val in (0, 1):
            for hat in (0, 1):
                cell = (s == s_val) & (y_hat == hat)
                n_pos = float(np.sum(cell & (y == 1)))
                n_neg = float(np.sum(cell & (y == 0)))
                # P(ỹ=1) in this cell costs n_neg (FPs) and avoids n_pos FNs.
                cost[2 * s_val + hat] = (n_neg - n_pos) / n

        # Equality constraints: TPR_0 = TPR_1 and FPR_0 = FPR_1.
        a_eq = np.vstack([tpr_coeffs(0) - tpr_coeffs(1),
                          fpr_coeffs(0) - fpr_coeffs(1)])
        b_eq = np.zeros(2)
        result = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq,
                                  bounds=[(0, 1)] * 4, method="highs")
        if not result.success:
            # Degenerate group statistics: fall back to identity mixing.
            x = np.array([0.0, 1.0, 0.0, 1.0])
        else:
            x = result.x
        self.mix_ = {(s_val, hat): float(x[2 * s_val + hat])
                     for s_val in (0, 1) for hat in (0, 1)}
        return self

    def adjust(self, scores: np.ndarray, s: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        if self.mix_ is None:
            raise RuntimeError("post-processor not fitted")
        s = np.asarray(s).astype(int)
        stray = (s != 0) & (s != 1)
        if stray.any():
            raise ValueError(
                "Hardt.adjust: the sensitive attribute must be 0 or 1, "
                f"got {np.unique(s[stray]).tolist()}")
        y_hat = (np.asarray(scores, float) >= 0.5).astype(int)
        table = np.array([[self.mix_[(sv, hv)] for hv in (0, 1)]
                          for sv in (0, 1)])
        p = table[s, y_hat]
        return (rng.random(len(p)) < p).astype(int)
