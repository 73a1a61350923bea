"""Ablation: does the imputer choice change robustness conclusions?

The paper's T3 recipe re-imputes missing values with "standard
Scikit-learn imputers" (mean/mode) and finds post-processing most
robust.  This ablation asks whether that conclusion is an artefact of
the simple imputer: COMPAS features get disproportionate missingness
(the ``missing`` error recipe) and are re-imputed with four imputers
of increasing sophistication (mean, median, k-NN, iterative
regression), then the baseline and one approach per stage are
retrained on each variant — one engine grid over the imputer axis.

Shape under test: better imputers recover more accuracy, but the
*ordering* of stages by fairness robustness is stable across imputers.
"""

from common import CAUSAL_SAMPLES, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid

APPROACHES = (None, "KamCal-dp", "Zafar-dp-fair", "Hardt-eo")

IMPUTERS = ("mean", "median", "knn", "iterative(n_iter=3)")


def run_ablation() -> str:
    grid = ScenarioGrid(datasets=["compas"], approaches=APPROACHES,
                        errors=["missing"], imputers=IMPUTERS,
                        rows=[SIZES["compas"]],
                        causal_samples=CAUSAL_SAMPLES)
    lines = ["Ablation: imputer choice under disproportionate feature "
             "missingness (COMPAS)",
             f"{'imputer':<10} {'approach':<14} {'acc':>6} {'DI*':>6} "
             f"{'1-|TPRB|':>9}"]
    for outcome in run_grid(grid).outcomes:
        r = outcome.result
        lines.append(f"{outcome.job.imputer:<10} {r.approach:<14} "
                     f"{r.accuracy:>6.3f} {r.di_star:>6.3f} "
                     f"{r.tprb:>9.3f}")
    return "\n".join(lines)


def test_ablation_imputers(benchmark):
    emit("ablation_imputers", once(benchmark, run_ablation))
