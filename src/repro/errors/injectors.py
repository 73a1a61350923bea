"""Data-error injection for the robustness experiments (Section 4.4).

The paper corrupts COMPAS training data with three recipes, each
applied *disproportionately* — 50% of the unprivileged group's rows and
10% of the privileged group's — reflecting how data-quality issues
correlate with sensitive attributes in practice:

* **T1** — values of two attributes are swapped
  (``prior_convictions`` ↔ ``age``).
* **T2** — one attribute is scaled and another receives additive noise.
* **T3** — the sensitive attribute and the label go missing and are
  re-imputed with standard imputers.

The injectors here are generic over column names so the same machinery
drives tests, benchmarks, and ad-hoc studies; a named recipe is built
through :data:`repro.registry.ERRORS` (``ERRORS.build("t2")(dataset,
seed=0)``) and applied to a dataset the way the paper does.
"""

from __future__ import annotations

import numpy as np

from ..datasets.dataset import Dataset
from .imputers import impute_mean, impute_mode

MISSING = np.nan


def affected_rows(dataset: Dataset, unprivileged_rate: float,
                  privileged_rate: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of rows selected for corruption, drawn at the two
    group-specific rates (paper: 50% unprivileged / 10% privileged)."""
    for name, rate in (("unprivileged_rate", unprivileged_rate),
                       ("privileged_rate", privileged_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    s = dataset.s
    u = rng.random(dataset.n_rows)
    return np.where(s == 0, u < unprivileged_rate, u < privileged_rate)


def swap_columns(dataset: Dataset, first: str, second: str,
                 mask: np.ndarray) -> Dataset:
    """T1 primitive: swap two columns' values on the masked rows."""
    a = dataset.table[first].astype(float).copy()
    b = dataset.table[second].astype(float).copy()
    a[mask], b[mask] = b[mask], a[mask].copy()
    return dataset.with_table(dataset.table.assign(**{first: a, second: b}))


def scale_column(dataset: Dataset, column: str, factor: float,
                 mask: np.ndarray) -> Dataset:
    """T2 primitive: multiply a column by ``factor`` on masked rows."""
    values = dataset.table[column].astype(float).copy()
    values[mask] = values[mask] * factor
    return dataset.with_table(dataset.table.assign(**{column: values}))


def add_noise(dataset: Dataset, column: str, scale: float,
              mask: np.ndarray, rng: np.random.Generator) -> Dataset:
    """T2 primitive: add Gaussian noise (std = ``scale`` × column std)."""
    values = dataset.table[column].astype(float).copy()
    sigma = float(values.std()) * scale
    values[mask] = values[mask] + rng.normal(0, sigma, int(mask.sum()))
    return dataset.with_table(dataset.table.assign(**{column: values}))


def impute_missing(dataset: Dataset, column: str, mask: np.ndarray,
                   categorical: bool) -> Dataset:
    """T3 primitive: blank the masked entries, then re-impute them with
    the standard mean (numeric) / mode (categorical) imputer."""
    values = dataset.table[column].astype(float).copy()
    values[mask] = MISSING
    imputed = impute_mode(values) if categorical else impute_mean(values)
    return dataset.with_table(dataset.table.assign(**{column: imputed}))


# ----------------------------------------------------------------------
# Paper recipes
# ----------------------------------------------------------------------
def _pick(dataset: Dataset, preferred: tuple[str, ...],
          count: int) -> list[str]:
    """First ``count`` of the preferred columns present, padded with
    other features so recipes stay total on any dataset."""
    chosen = [c for c in preferred if c in dataset.feature_names]
    for feature in dataset.feature_names:
        if len(chosen) >= count:
            break
        if feature not in chosen:
            chosen.append(feature)
    if len(chosen) < count:
        raise ValueError(f"dataset has fewer than {count} features")
    return chosen[:count]


def corrupt_t1(dataset: Dataset, rng: np.random.Generator,
               unprivileged_rate: float = 0.5,
               privileged_rate: float = 0.1) -> Dataset:
    """T1: swapped values between ``prior_convictions`` and ``age``."""
    first, second = _pick(dataset, ("prior_convictions", "age"), 2)
    mask = affected_rows(dataset, unprivileged_rate, privileged_rate, rng)
    return swap_columns(dataset, first, second, mask)


def corrupt_t2(dataset: Dataset, rng: np.random.Generator,
               unprivileged_rate: float = 0.5,
               privileged_rate: float = 0.1,
               scale_factor: float = 10.0,
               noise_scale: float = 1.0) -> Dataset:
    """T2: scaled ``prior_convictions`` and noisy ``age``."""
    scaled, noisy = _pick(dataset, ("prior_convictions", "age"), 2)
    mask = affected_rows(dataset, unprivileged_rate, privileged_rate, rng)
    out = scale_column(dataset, scaled, scale_factor, mask)
    return add_noise(out, noisy, noise_scale, mask, rng)


def corrupt_t3(dataset: Dataset, rng: np.random.Generator,
               unprivileged_rate: float = 0.5,
               privileged_rate: float = 0.1) -> Dataset:
    """T3: missing sensitive attribute and label, re-imputed.

    Mode imputation of binary columns keeps them 0/1 so the dataset
    schema invariants continue to hold, exactly as scikit-learn's
    ``SimpleImputer(strategy="most_frequent")`` would.
    """
    mask = affected_rows(dataset, unprivileged_rate, privileged_rate, rng)
    out = impute_missing(dataset, dataset.sensitive, mask, categorical=True)
    return impute_missing(out, dataset.label, mask, categorical=True)

