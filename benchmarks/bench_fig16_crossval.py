"""Appendix Figures 16-18: 5-fold cross-validation metric tables.

For each dataset, every variant (main + additional) is trained and
evaluated across 5 stratified folds and the per-metric averages are
printed — the tabular form of the paper's Figures 16 (Adult),
17 (COMPAS), and 18 (German).

Stays on the pipeline API, off the sweep engine: the engine's cells
split at random, and no ``Job`` field expresses a stratified k-fold
split."""

import numpy as np
import pytest

from common import CAUSAL_SAMPLES, CV_SIZES, FULL, emit, once
from repro.datasets import stratified_k_fold
from repro.pipeline import (CORRECTNESS_COLUMNS, FAIRNESS_COLUMNS,
                            run_experiment)
from repro.pipeline.report import HEADER_LABELS
from repro.registry import APPROACHES, DATASETS

VARIANTS = APPROACHES.keys() if FULL else APPROACHES.keys(group="main")
COLUMNS = [*CORRECTNESS_COLUMNS, *FAIRNESS_COLUMNS]
FIGURE_BY_DATASET = {"adult": 16, "compas": 17, "german": 18}


def run_crossval(dataset_name: str) -> str:
    dataset = DATASETS.build(dataset_name, n=CV_SIZES[dataset_name], seed=0)
    splits = stratified_k_fold(dataset, k=5, seed=0)
    lines = [f"Figure {FIGURE_BY_DATASET[dataset_name]} ({dataset_name}): "
             "5-fold cross-validated averages"]
    header = " ".join(f"{HEADER_LABELS[c]:>8s}" for c in COLUMNS)
    lines.append(f"{'approach':18s} {header}")
    lines.append("-" * (19 + 9 * len(COLUMNS)))
    for name in (None, *VARIANTS):
        per_fold = []
        for fold, split in enumerate(splits):
            r = run_experiment(name, split.train, split.test,
                               causal_samples=CAUSAL_SAMPLES, seed=fold)
            merged = {**r.correctness_scores(), **r.fairness_scores()}
            per_fold.append([merged[c] for c in COLUMNS])
        means = np.nanmean(np.array(per_fold, dtype=float), axis=0)
        row = " ".join(f"{v:8.2f}" for v in means)
        lines.append(f"{(name or 'LR'):18s} {row}")
    return "\n".join(lines)


@pytest.mark.parametrize("dataset_name", ["adult", "compas", "german"])
def test_fig16_18(benchmark, dataset_name):
    emit(f"fig{FIGURE_BY_DATASET[dataset_name]}_crossval_{dataset_name}",
         once(benchmark, lambda: run_crossval(dataset_name)))
