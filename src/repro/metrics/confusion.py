"""Confusion-matrix profiling of binary predictions (paper Section 2.1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_binary_pair(y: np.ndarray, y_hat: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y).astype(int)
    y_hat = np.asarray(y_hat).astype(int)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise ValueError(f"label arrays must be aligned 1-D, got {y.shape} "
                         f"vs {y_hat.shape}")
    for name, arr in (("y", y), ("y_hat", y_hat)):
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError(f"{name} must be binary 0/1, found "
                             f"{np.setdiff1d(np.unique(arr), (0, 1))}")
    return y, y_hat


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/TN/FP/FN counts with the derived rates of the paper."""

    tp: int
    tn: int
    fp: int
    fn: int

    @classmethod
    def from_predictions(cls, y: np.ndarray,
                         y_hat: np.ndarray) -> "ConfusionCounts":
        y, y_hat = _check_binary_pair(y, y_hat)
        return cls(
            tp=int(np.sum((y == 1) & (y_hat == 1))),
            tn=int(np.sum((y == 0) & (y_hat == 0))),
            fp=int(np.sum((y == 0) & (y_hat == 1))),
            fn=int(np.sum((y == 1) & (y_hat == 0))),
        )

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @staticmethod
    def _rate(num: int, den: int) -> float:
        return num / den if den else float("nan")

    @property
    def tpr(self) -> float:
        """True positive rate (recall of the positive class)."""
        return self._rate(self.tp, self.tp + self.fn)

    @property
    def tnr(self) -> float:
        """True negative rate."""
        return self._rate(self.tn, self.tn + self.fp)

    @property
    def fpr(self) -> float:
        """False positive rate."""
        return self._rate(self.fp, self.fp + self.tn)

    @property
    def fnr(self) -> float:
        """False negative rate."""
        return self._rate(self.fn, self.fn + self.tp)

    @property
    def positive_rate(self) -> float:
        """Fraction of positive predictions P(ŷ = 1)."""
        return self._rate(self.tp + self.fp, self.total)
