"""Appendix Figure 23: data efficiency.

Each variant is retrained on growing prefixes of Adult (0.1K up to the
full sample) and evaluated on a fixed held-out set; the bench prints
accuracy and DI* series per approach.  Shape under test: most curves
flatten by ~1K rows (the paper's data-efficiency finding).

Stays on the pipeline API, off the sweep engine: every point trains on
a prefix of one fixed training split and tests on one fixed test set,
and no ``Job`` field expresses a training prefix."""

import numpy as np

from common import CAUSAL_SAMPLES, FULL, emit, load_sized, once
from repro.datasets import train_test_split
from repro.pipeline import run_experiment
from repro.registry import APPROACHES

SIZES_SWEEP = ([100, 1000, 5000, 10000, 20000, 36000] if FULL
               else [100, 500, 1000, 2000])
VARIANTS = APPROACHES.keys() if FULL else [
    "KamCal-dp", "Feld-dp", "ZhaWu-psf", "Salimi-jf-maxsat",
    "Zafar-dp-fair", "ZhaLe-eo", "Kearns-pe", "Thomas-dp",
    "KamKar-dp", "Hardt-eo", "Pleiss-eop",
]


def run_data_efficiency() -> str:
    dataset = load_sized("adult")
    split = train_test_split(dataset, test_fraction=0.3, seed=0)
    lines = ["Figure 23: accuracy / DI* vs training-set size (Adult)"]
    header = " ".join(f"{n:>11d}" for n in SIZES_SWEEP
                      if n <= split.train.n_rows)
    lines.append(f"{'approach':18s} {'metric':6s} {header}")
    lines.append("-" * (26 + 12 * len(SIZES_SWEEP)))
    for name in (None, *VARIANTS):
        accs, dis = [], []
        for n_train in SIZES_SWEEP:
            if n_train > split.train.n_rows:
                continue
            r = run_experiment(name, split.train.head(n_train), split.test,
                               causal_samples=CAUSAL_SAMPLES, seed=0)
            accs.append(r.accuracy)
            dis.append(r.di_star)
        label = name or "LR"
        lines.append(f"{label:18s} {'acc':6s} "
                     + " ".join(f"{v:11.3f}" for v in accs))
        lines.append(f"{'':18s} {'DI*':6s} "
                     + " ".join(f"{v:11.3f}" for v in dis))
    return "\n".join(lines)


def test_fig23(benchmark):
    emit("fig23_data_efficiency", once(benchmark, run_data_efficiency))
