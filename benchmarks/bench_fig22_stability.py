"""Appendix Figure 22: stability over random train/test folds.

Each variant runs 10 times on random 2/3-train folds of Adult; the
bench prints the per-metric standard deviations (the whisker widths of
the paper's box plots).  The shape under test: variances are small and
no stage stands out.

Runs through the sweep engine.  Every fold splits the *same* Adult
sample (``dataset_params`` pins its seed at 0) with the fold number as
the cell's seed, so only the split and the fit move between folds."""

import numpy as np

from common import CAUSAL_SAMPLES, FULL, SIZES, emit, once, run_jobs
from repro.engine import Job
from repro.registry import APPROACHES

N_FOLDS = 10 if FULL else 5
VARIANTS = APPROACHES.keys() if FULL else [
    "KamCal-dp", "Feld-dp", "Calmon-dp", "ZhaWu-psf", "Salimi-jf-maxsat",
    "Zafar-dp-fair", "Zafar-eo-fair", "ZhaLe-eo", "Kearns-pe", "Celis-pp",
    "Thomas-dp", "KamKar-dp", "Hardt-eo", "Pleiss-eop",
]
COLUMNS = ("accuracy", "f1", "di_star", "tprb", "id", "te")


def run_stability() -> str:
    jobs = [Job(dataset="adult", approach=name, rows=SIZES["adult"],
                seed=fold, dataset_params={"seed": 0},
                test_fraction=1 / 3, causal_samples=CAUSAL_SAMPLES)
            for name in (None, *VARIANTS) for fold in range(N_FOLDS)]
    by_approach: dict = {}
    for outcome in run_jobs(jobs).outcomes:
        r = outcome.result
        merged = {**r.correctness_scores(), **r.fairness_scores()}
        values = by_approach.setdefault(outcome.job.approach,
                                        {c: [] for c in COLUMNS})
        for c in COLUMNS:
            values[c].append(merged[c])
    lines = ["Figure 22: std-dev over random 2/3 train folds (Adult)"]
    header = " ".join(f"σ{c:>8s}" for c in COLUMNS)
    lines.append(f"{'approach':18s} {header}")
    lines.append("-" * (19 + 10 * len(COLUMNS)))
    for name, values in by_approach.items():
        row = " ".join(
            f"{np.nanstd(np.array(values[c], dtype=float)):9.3f}"
            for c in COLUMNS)
        lines.append(f"{(name or 'LR'):18s} {row}")
    return "\n".join(lines)


def test_fig22(benchmark):
    emit("fig22_stability", once(benchmark, run_stability))
