"""From-scratch ML model substrate (the scikit-learn substitute).

The model families are built by key through
:data:`repro.registry.MODELS` (``lr``/``svm``/``knn``/``rf``/``mlp``/
``nb``/``gb``)."""

from .base import Classifier, add_intercept, check_weights, check_Xy, sigmoid
from .boosting import GradientBoosting
from .calibration import (CalibratedClassifier, IsotonicRegression,
                          PlattScaler, ReliabilityCurve, brier_score,
                          expected_calibration_error, reliability_curve)
from .forest import RandomForest
from .knn import KNearestNeighbors
from .logistic import LogisticRegression
from .mlp import MLPClassifier
from .naive_bayes import GaussianNB
from .svm import KernelSVM, LinearSVM, RBFSampler
from .tree import DecisionTree

__all__ = [
    "Classifier", "sigmoid", "add_intercept", "check_Xy", "check_weights",
    "LogisticRegression", "LinearSVM", "KernelSVM", "RBFSampler",
    "KNearestNeighbors", "DecisionTree", "RandomForest", "MLPClassifier",
    "GaussianNB", "GradientBoosting",
    "PlattScaler", "IsotonicRegression", "CalibratedClassifier",
    "brier_score", "expected_calibration_error", "reliability_curve",
    "ReliabilityCurve",
]
