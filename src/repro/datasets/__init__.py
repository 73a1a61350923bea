"""Data substrate: tabular container, annotated datasets, generators,
real-CSV loaders, encoders, CSV IO, and splitting utilities."""

from .dataset import Dataset
from .dependencies import MvdReport, check_mvd
from .encoding import (EqualFrequencyDiscretizer, FeatureEncoder,
                       OneHotEncoder, StandardScaler, discretize_dataset,
                       encode_features)
from .generators import (load_admissions, load_adult, load_compas,
                         load_german)
from .io import format_csv, parse_csv, read_csv, write_csv
from .real import load_adult_csv, load_compas_csv, load_german_csv
from .splits import (Split, k_fold, stratified_k_fold, train_test_split,
                     train_validation_test_split)
from .table import AGGREGATIONS, GroupBy, Table, crosstab, value_counts

__all__ = [
    "Dataset", "Table", "GroupBy", "AGGREGATIONS", "crosstab",
    "value_counts", "MvdReport", "check_mvd",
    "StandardScaler", "OneHotEncoder", "EqualFrequencyDiscretizer",
    "FeatureEncoder",
    "discretize_dataset", "encode_features",
    "load_adult", "load_compas", "load_german", "load_admissions",
    "load_adult_csv", "load_compas_csv", "load_german_csv",
    "read_csv", "write_csv", "parse_csv", "format_csv",
    "Split", "train_test_split", "train_validation_test_split",
    "k_fold", "stratified_k_fold",
]
