"""Extension: how redundant are the fairness metrics, empirically?

Section 2.2.2 justifies evaluating only five fairness metrics by citing
prior findings that "a large number of metrics (and their notions)
strongly correlate with one another, and, thus, are highly redundant"
[Friedler et al.; Majumder et al.].  This bench verifies that premise
on this repository's own results: it evaluates every approach on every
dataset, collects the seven normalised fairness scores per run, and
prints the Pearson correlation matrix plus the strongly
correlated/anti-correlated pairs.

Shape under test: the two equalized-odds components (1-|TPRB| and
1-|TNRB|) and the causal trio (1-|TE|/|NDE|/|NIE|) form correlated
blocks, while DI* and 1-ID carry independent signal — exactly the
redundancy structure the paper's metric selection assumes.

The runs are one engine grid per dataset: the baseline and the 18 main
variants, as in Figure 7.
"""

import numpy as np

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid
from repro.registry import APPROACHES

METRICS = ["di_star", "tprb", "tnrb", "id", "te", "nde", "nie"]


def run_correlation() -> str:
    rows = []
    for dataset_name in ("compas", "german"):
        grid = ScenarioGrid(
            datasets=[dataset_name],
            approaches=[None, *APPROACHES.keys(group="main")],
            rows=[SIZES[dataset_name]], causal_samples=CAUSAL_SAMPLES)
        rows += [[r.fairness_scores()[m] for m in METRICS]
                 for r in run_grid(grid).results]
    matrix = np.asarray(rows)
    corr = np.corrcoef(matrix, rowvar=False)

    lines = [f"Fairness-metric correlations over "
             f"{matrix.shape[0]} (approach × dataset) runs",
             "        " + " ".join(f"{m:>7}" for m in METRICS)]
    for i, metric in enumerate(METRICS):
        lines.append(f"{metric:<7} " + " ".join(
            f"{corr[i, j]:>7.2f}" for j in range(len(METRICS))))

    lines.append("")
    lines.append("strongly correlated pairs (|r| >= 0.6):")
    for i in range(len(METRICS)):
        for j in range(i + 1, len(METRICS)):
            if abs(corr[i, j]) >= 0.6:
                lines.append(f"  {METRICS[i]} ~ {METRICS[j]}: "
                             f"r={corr[i, j]:+.2f}")
    return "\n".join(lines)


def test_ablation_metric_correlation(benchmark):
    emit("ablation_metric_correlation", once(benchmark, run_correlation))
