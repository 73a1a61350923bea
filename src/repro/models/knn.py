"""Brute-force k-nearest-neighbours classification.

The paper pairs pre-/post-processing approaches with a 33-NN classifier
(Appendix F).  Neighbour search runs on the shared block-matmul top-k
kernel (:mod:`repro.metrics.pairwise`), so memory stays bounded on the
larger scalability sweeps and the model shares one tuned code path
with the individual-fairness metrics and the k-NN imputer.
"""

from __future__ import annotations

import numpy as np

from ..metrics import pairwise
from .base import Classifier, check_weights, check_Xy


class KNearestNeighbors(Classifier):
    """k-NN with Euclidean distance and (optionally weighted) voting.

    Parameters
    ----------
    k:
        Number of neighbours (paper default: 33).
    """

    def __init__(self, k: int = 33):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.X_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        self.w_: np.ndarray | None = None
        self.ref_: pairwise.PreparedReference | None = None

    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None) -> "KNearestNeighbors":
        X, y = check_Xy(X, y)
        self.X_ = X
        self.y_ = y
        self.w_ = check_weights(sample_weight, len(y))
        # Train-side kernel operands never change between predict
        # calls; prepare them once.
        self.ref_ = pairwise.prepare_reference(X)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.X_ is None:
            raise RuntimeError("model not fitted")
        X, _ = check_Xy(X)
        neighbours, _ = pairwise.topk(X, self.ref_, self.k)
        votes = self.w_[neighbours]
        positive = votes * (self.y_[neighbours] == 1)
        return positive.sum(axis=1) / votes.sum(axis=1)
