"""Extended error injectors beyond the paper's T1/T2/T3 recipes.

Section 4.4 notes that its three corruption recipes "highlight
situations where classifiers may perform unexpectedly, not ... all
possible scenarios".  This module fills in the rest of the standard
data-quality taxonomy (label noise, selection bias, outliers,
duplicates, feature missingness) so robustness studies can sweep a
wider corruption space.  The named recipes (T4–T6 and ``missing``)
are registered in :data:`repro.registry.ERRORS` beside T1–T3.

All injectors follow the T-recipe conventions: they take a dataset and
a boolean row mask (usually from
:func:`repro.errors.injectors.affected_rows`, which implements the
paper's disproportionate 50%/10% group rates) and return a *new*
dataset.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..datasets.dataset import Dataset
from .injectors import affected_rows

__all__ = [
    "flip_labels",
    "selection_bias",
    "inject_outliers",
    "duplicate_rows",
    "missing_completely_at_random",
]


def _check_mask(dataset: Dataset, mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (dataset.n_rows,):
        raise ValueError(
            f"mask shape {mask.shape} != ({dataset.n_rows},)")
    return mask


def flip_labels(dataset: Dataset, mask: np.ndarray) -> Dataset:
    """Invert the ground-truth label on the masked rows.

    Models the paper's "misclassification" data-quality issue: the
    recorded outcome is simply wrong for some subpopulation (e.g.
    unreported recidivism).
    """
    mask = _check_mask(dataset, mask)
    y = dataset.y.copy()
    y[mask] = 1 - y[mask]
    return dataset.with_labels(y)


def selection_bias(dataset: Dataset, mask: np.ndarray) -> Dataset:
    """Drop the masked rows, distorting the population distribution.

    With the disproportionate group rates this under-represents the
    unprivileged group — the classic sampling bias of over-policed or
    under-surveyed populations.

    Raises
    ------
    ValueError
        If the mask would remove every row of a sensitive group.
    """
    mask = _check_mask(dataset, mask)
    keep = ~mask
    s = dataset.s
    for group in (0, 1):
        if not np.any(keep & (s == group)):
            raise ValueError(
                f"selection bias would remove all rows of group S={group}"
            )
    return dataset.filter(keep)


def inject_outliers(dataset: Dataset, column: str, mask: np.ndarray,
                    magnitude: float = 10.0) -> Dataset:
    """Replace masked entries of a column with extreme values.

    The outliers are placed ``magnitude`` standard deviations above the
    column maximum — the kind of sentinel/unit error (e.g. cents
    instead of dollars) that survives naive range checks.
    """
    mask = _check_mask(dataset, mask)
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    values = dataset.table[column].astype(float).copy()
    sigma = float(values.std()) or 1.0
    values[mask] = float(values.max()) + magnitude * sigma
    return dataset.with_table(dataset.table.assign(**{column: values}))


def duplicate_rows(dataset: Dataset, mask: np.ndarray,
                   copies: int = 1) -> Dataset:
    """Append ``copies`` duplicates of every masked row.

    Duplication is the benign-looking error with teeth: it silently
    reweights the training distribution toward the duplicated
    subpopulation.
    """
    mask = _check_mask(dataset, mask)
    if copies < 1:
        raise ValueError("copies must be at least 1")
    idx = np.flatnonzero(mask)
    extra = np.tile(idx, copies)
    order = np.concatenate([np.arange(dataset.n_rows), extra])
    return dataset.take(order)


def missing_completely_at_random(dataset: Dataset, columns: Sequence[str],
                                 rate: float, rng: np.random.Generator,
                                 imputer: Callable[[np.ndarray], np.ndarray]
                                 | None = None) -> Dataset:
    """Blank a uniform fraction of entries per column and re-impute.

    Unlike the T3 recipe (group-correlated missingness of S and Y),
    this is plain MCAR over arbitrary feature columns — the baseline
    against which disproportionate missingness should be compared.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    from .imputers import impute_mean
    imputer = imputer or impute_mean
    table = dataset.table
    for column in columns:
        values = table[column].astype(float).copy()
        holes = rng.random(dataset.n_rows) < rate
        if holes.all():
            holes[rng.integers(dataset.n_rows)] = False
        values[holes] = np.nan
        table = table.assign(**{column: imputer(values)})
    return dataset.with_table(table)


# ----------------------------------------------------------------------
# Named extended recipes (T4–T6), mirroring the T1–T3 interface
# ----------------------------------------------------------------------
def corrupt_t4(dataset: Dataset, rng: np.random.Generator,
               unprivileged_rate: float = 0.5,
               privileged_rate: float = 0.1) -> Dataset:
    """T4: disproportionate label flipping."""
    mask = affected_rows(dataset, unprivileged_rate, privileged_rate, rng)
    return flip_labels(dataset, mask)


def corrupt_t5(dataset: Dataset, rng: np.random.Generator,
               unprivileged_rate: float = 0.5,
               privileged_rate: float = 0.1) -> Dataset:
    """T5: selection bias (disproportionate row removal)."""
    mask = affected_rows(dataset, unprivileged_rate, privileged_rate, rng)
    return selection_bias(dataset, mask)


def corrupt_t6(dataset: Dataset, rng: np.random.Generator,
               unprivileged_rate: float = 0.5,
               privileged_rate: float = 0.1) -> Dataset:
    """T6: outliers in the first feature plus duplicated rows."""
    mask = affected_rows(dataset, unprivileged_rate, privileged_rate, rng)
    out = inject_outliers(dataset, dataset.feature_names[0], mask)
    dup_mask = affected_rows(out, unprivileged_rate / 2,
                             privileged_rate / 2, rng)
    return duplicate_rows(out, dup_mask)


def corrupt_missing(dataset: Dataset, rng: np.random.Generator,
                    unprivileged_rate: float = 0.5,
                    privileged_rate: float = 0.1,
                    column_rate: float = 0.5) -> Dataset:
    """Disproportionate feature missingness, left as NaN.

    Unlike T3 (which blanks S and Y and re-imputes them on the spot),
    the holes here *stay* NaN: each affected row loses a random
    ``column_rate`` fraction of its feature values.  The repair choice
    is deliberately someone else's job — pair this recipe with the
    sweep engine's ``imputer`` axis to compare imputers on identical
    corruption.
    """
    mask = affected_rows(dataset, unprivileged_rate, privileged_rate, rng)
    if not 0.0 <= column_rate <= 1.0:
        raise ValueError("column_rate must be in [0, 1]")
    features = dataset.feature_names
    holes = mask[:, None] & (rng.random((dataset.n_rows,
                                         len(features))) < column_rate)
    table = dataset.table
    for column, feature in enumerate(features):
        column_holes = holes[:, column]
        if column_holes.all():  # keep every column imputable
            column_holes[rng.integers(dataset.n_rows)] = False
        values = table[feature].astype(float).copy()
        values[column_holes] = np.nan
        table = table.assign(**{feature: values})
    return dataset.with_table(table)

