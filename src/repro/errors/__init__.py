"""Data-error injection and imputation (robustness experiments).

Named recipes (``t1``–``t6``, ``missing``) are built through
:data:`repro.registry.ERRORS`."""

from .extended import (corrupt_missing, duplicate_rows, flip_labels,
                       inject_outliers, missing_completely_at_random,
                       selection_bias)
from .imputers import (impute_constant, impute_iterative, impute_knn,
                       impute_mean, impute_median, impute_mode)
from .injectors import (add_noise, affected_rows, corrupt_t1, corrupt_t2,
                        corrupt_t3, impute_missing, scale_column,
                        swap_columns)

__all__ = [
    "impute_mean", "impute_median", "impute_mode", "impute_constant",
    "impute_knn", "impute_iterative",
    "affected_rows", "swap_columns", "scale_column", "add_noise",
    "impute_missing", "corrupt_t1", "corrupt_t2", "corrupt_t3",
    "flip_labels", "selection_bias", "inject_outliers", "duplicate_rows",
    "missing_completely_at_random", "corrupt_missing",
]
