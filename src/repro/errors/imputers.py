"""Missing-value imputation (the paper's "standard Scikit-learn
imputers" used by corruption recipe T3)."""

from __future__ import annotations

import numpy as np

from .. import obs


def impute_mean(values: np.ndarray) -> np.ndarray:
    """Replace NaNs with the mean of the observed entries."""
    values = np.asarray(values, dtype=float).copy()
    missing = np.isnan(values)
    if missing.all():
        raise ValueError("cannot impute a fully missing column")
    obs.add("impute.cells", int(missing.sum()))
    values[missing] = values[~missing].mean()
    return values


def impute_mode(values: np.ndarray) -> np.ndarray:
    """Replace NaNs with the most frequent observed value."""
    values = np.asarray(values, dtype=float).copy()
    missing = np.isnan(values)
    if missing.all():
        raise ValueError("cannot impute a fully missing column")
    obs.add("impute.cells", int(missing.sum()))
    observed = values[~missing]
    uniques, counts = np.unique(observed, return_counts=True)
    values[missing] = uniques[np.argmax(counts)]
    return values


def impute_median(values: np.ndarray) -> np.ndarray:
    """Replace NaNs with the median of the observed entries."""
    values = np.asarray(values, dtype=float).copy()
    missing = np.isnan(values)
    if missing.all():
        raise ValueError("cannot impute a fully missing column")
    obs.add("impute.cells", int(missing.sum()))
    values[missing] = np.median(values[~missing])
    return values


def impute_constant(values: np.ndarray, fill_value: float) -> np.ndarray:
    """Replace NaNs with a fixed sentinel value."""
    values = np.asarray(values, dtype=float).copy()
    missing = np.isnan(values)
    obs.add("impute.cells", int(missing.sum()))
    values[missing] = fill_value
    return values


def impute_knn(X: np.ndarray, k: int = 5) -> np.ndarray:
    """k-nearest-neighbour imputation over a feature matrix.

    For each missing cell, the imputed value is the mean of that column
    over the ``k`` rows nearest in the observed coordinates (distances
    use only features present in *both* rows, rescaled per column).
    Donor distances come from the shared masked block-matmul kernel
    (:func:`repro.metrics.pairwise.masked_sq_blocks`): rows needing
    repair are processed a kernel block at a time against the whole
    matrix, instead of one Python-level row at a time, and each
    distinct row (the same observed values and the same holes) is
    searched and repaired once, its repair copied to its duplicates.
    That is only a change of tiling, so the kernel's caveat holds:
    BLAS may sum a block differently under another tiling, which could
    break an exact distance tie differently.  Row pairs with
    fully disjoint observation patterns are *incomparable* — they get
    an explicit infinite distance
    (:func:`repro.metrics.pairwise.masked_mean_distances`) and are
    never donors; a cell with no comparable observed donor at all
    falls back to the column mean.

    Parameters
    ----------
    X:
        2-D matrix with NaNs marking missing entries.
    k:
        Neighbourhood size.

    Raises
    ------
    ValueError
        If some column is entirely missing or ``k`` is invalid.
    """
    from ..metrics import pairwise

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
    obs.add("impute.cells", int(missing.sum()))

    # Column scaling for comparable distances; constant columns keep a
    # unit scale rather than dividing by a zero spread.
    col_mean = np.nanmean(X, axis=0)
    col_std = np.nanstd(X, axis=0)
    col_std[col_std == 0] = 1.0
    Z = (X - col_mean) / col_std

    out = X.copy()
    observed = ~missing
    needs = np.flatnonzero(missing.any(axis=1))
    # One search per distinct row (values and holes; the NaNs are in
    # the bytes): duplicates lack the same columns, so none is ever a
    # donor for another and excluding one's own row cannot set them
    # apart.
    first, inverse = pairwise.distinct_rows(X[needs])
    distinct = needs[first]
    unobserved = np.ascontiguousarray(missing.T)
    for start, stop, d2, counts in pairwise.masked_sq_blocks(
            Z, observed, distinct):
        rows = distinct[start:stop]
        dist = pairwise.masked_mean_distances(d2, counts)
        dist[np.arange(rows.size), rows] = np.inf  # never one's own row
        for local, i in enumerate(rows):
            for j in np.flatnonzero(missing[i]):
                donors = _nearest_donors(dist[local], unobserved[j], k)
                out[i, j] = (float(np.mean(X[donors, j])) if donors.size
                             else col_mean[j])
    out[needs] = out[distinct[inverse]]
    return out


def _nearest_donors(dist: np.ndarray, unobserved: np.ndarray,
                    k: int) -> np.ndarray:
    """The first ``k`` eligible donors of one distance row, in the
    order of a stable argsort of ``dist``: ascending distance, ties to
    the lowest index.

    A donor is eligible if its distance is finite and it observes the
    column being filled.  Only the donors at or below the ``k``-th
    eligible distance are sorted.
    """
    eligible = np.where(unobserved, np.inf, dist)
    cut = np.inf
    if k < eligible.size:
        cut = np.partition(eligible, k - 1)[k - 1]
    near = np.flatnonzero(eligible <= cut if cut < np.inf
                          else eligible < np.inf)
    return near[np.argsort(eligible[near], kind="stable")[:k]]


def impute_iterative(X: np.ndarray, n_iter: int = 5,
                     ridge: float = 1.0) -> np.ndarray:
    """Round-robin regression imputation (MICE-style).

    Missing entries start at their column means; then each column with
    holes is repeatedly re-predicted by ridge regression on all other
    columns, for ``n_iter`` sweeps.  Captures cross-column structure
    that mean imputation destroys.
    """
    X = np.asarray(X, dtype=float).copy()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if n_iter < 1:
        raise ValueError("n_iter must be at least 1")
    missing = np.isnan(X)
    if not missing.any():
        return X
    if missing.all(axis=0).any():
        raise ValueError("cannot impute a fully missing column")
    obs.add("impute.cells", int(missing.sum()))
    col_mean = np.nanmean(X, axis=0)
    filled = np.where(missing, col_mean, X)
    holes = np.flatnonzero(missing.any(axis=0))
    d = X.shape[1]
    for _ in range(n_iter):
        for j in holes:
            observed = ~missing[:, j]
            others = [c for c in range(d) if c != j]
            A = np.column_stack([filled[:, others],
                                 np.ones(X.shape[0])])
            reg = ridge * np.eye(A.shape[1])
            reg[-1, -1] = 0.0                      # don't shrink the bias
            coef = np.linalg.solve(
                A[observed].T @ A[observed] + reg,
                A[observed].T @ filled[observed, j])
            filled[missing[:, j], j] = (A @ coef)[missing[:, j]]
    return filled
