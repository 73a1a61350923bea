"""Feature encoding and scaling transforms.

Fit-on-train / apply-on-test transforms used by the model pipelines:
standard scaling for numeric features, one-hot encoding for categorical
codes, and equal-frequency discretisation (used by the approaches that
need small discrete domains, e.g. Calmon and Salimi).
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .table import Table


class StandardScaler:
    """Column-wise zero-mean unit-variance scaling of a matrix."""

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler not fitted")
        return (np.asarray(X, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class OneHotEncoder:
    """One-hot encoding of integer-coded categorical columns.

    Values unseen at fit time map to the all-zeros vector for their
    column block, which keeps the transform total on shifted test data.
    """

    def __init__(self):
        self.categories_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "OneHotEncoder":
        X = np.asarray(X)
        self.categories_ = [np.unique(X[:, j]) for j in range(X.shape[1])]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.categories_ is None:
            raise RuntimeError("encoder not fitted")
        X = np.asarray(X)
        blocks = []
        for j, cats in enumerate(self.categories_):
            block = (X[:, j][:, None] == cats[None, :]).astype(float)
            blocks.append(block)
        return np.hstack(blocks) if blocks else np.empty((X.shape[0], 0))

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class EqualFrequencyDiscretizer:
    """Bin numeric columns into (at most) ``n_bins`` quantile buckets."""

    def __init__(self, n_bins: int = 4):
        if n_bins < 2:
            raise ValueError("need at least 2 bins")
        self.n_bins = n_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "EqualFrequencyDiscretizer":
        X = np.asarray(X, dtype=float)
        quantiles = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        self.edges_ = [np.unique(np.quantile(X[:, j], quantiles))
                       for j in range(X.shape[1])]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("discretizer not fitted")
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for j, edges in enumerate(self.edges_):
            out[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


def discretize_dataset(dataset: Dataset, n_bins: int = 4) -> Dataset:
    """Return a copy of ``dataset`` with every feature binned to a small
    discrete domain (categorical features are kept as-is)."""
    numeric = [f for f in dataset.feature_names if f not in dataset.categorical]
    if not numeric:
        return dataset
    return _bin_dataset(dataset, EqualFrequencyDiscretizer(n_bins).fit(
        dataset.table.to_matrix(numeric)), numeric)


def _bin_dataset(dataset: Dataset, discretizer, numeric) -> Dataset:
    """``dataset`` with ``numeric`` binned by a fitted discretiser."""
    if discretizer is None:
        return dataset
    binned = discretizer.transform(dataset.table.to_matrix(list(numeric)))
    table = dataset.table.assign(
        **{name: binned[:, j] for j, name in enumerate(numeric)})
    return dataset.with_table(table)


class FeatureEncoder:
    """Fit-on-train feature encoder for model pipelines.

    One-hot encodes the categorical features and standardises the
    numeric ones; the fitted state is reusable on any dataset with the
    same schema (test splits, SCM counterfactual samples, ...).
    """

    def __init__(self, scale: bool = True):
        self.scale = scale
        self._numeric: list[str] | None = None
        self._categorical: list[str] | None = None
        self._scaler: StandardScaler | None = None
        self._onehot: OneHotEncoder | None = None

    def fit(self, dataset: Dataset) -> "FeatureEncoder":
        self._numeric = [f for f in dataset.feature_names
                         if f not in dataset.categorical]
        self._categorical = [f for f in dataset.feature_names
                             if f in dataset.categorical]
        if self._numeric and self.scale:
            self._scaler = StandardScaler().fit(
                dataset.table.to_matrix(self._numeric))
        if self._categorical:
            self._onehot = OneHotEncoder().fit(
                dataset.table.to_matrix(self._categorical))
        return self

    def transform(self, dataset: Dataset) -> np.ndarray:
        if self._numeric is None:
            raise RuntimeError("encoder not fitted")
        parts: list[np.ndarray] = []
        if self._numeric:
            numeric = dataset.table.to_matrix(self._numeric)
            parts.append(self._scaler.transform(numeric)
                         if self._scaler else numeric)
        if self._categorical:
            parts.append(self._onehot.transform(
                dataset.table.to_matrix(self._categorical)))
        return (np.hstack(parts) if parts
                else np.empty((dataset.n_rows, 0)))

    def fit_transform(self, dataset: Dataset) -> np.ndarray:
        return self.fit(dataset).transform(dataset)


def encode_features(train: Dataset, test: Dataset | None = None,
                    scale: bool = True):
    """Encode train (and optionally test) features into model matrices.

    Categorical features are one-hot encoded, numeric ones standardised
    (fit on train only).  Returns ``(X_train, X_test)`` where ``X_test``
    is ``None`` when no test set is given.
    """
    numeric = [f for f in train.feature_names if f not in train.categorical]
    categorical = [f for f in train.feature_names if f in train.categorical]

    parts_train: list[np.ndarray] = []
    parts_test: list[np.ndarray] = []
    if numeric:
        scaler = StandardScaler() if scale else None
        num_train = train.table.to_matrix(numeric)
        parts_train.append(scaler.fit_transform(num_train)
                           if scaler else num_train)
        if test is not None:
            num_test = test.table.to_matrix(numeric)
            parts_test.append(scaler.transform(num_test)
                              if scaler else num_test)
    if categorical:
        encoder = OneHotEncoder()
        parts_train.append(encoder.fit_transform(
            train.table.to_matrix(categorical)))
        if test is not None:
            parts_test.append(encoder.transform(
                test.table.to_matrix(categorical)))

    X_train = (np.hstack(parts_train) if parts_train
               else np.empty((train.n_rows, 0)))
    if test is None:
        return X_train, None
    X_test = (np.hstack(parts_test) if parts_test
              else np.empty((test.n_rows, 0)))
    return X_train, X_test
