"""Figure 10 (and Appendix Figure 21): sensitivity to the ML model.

Every pre- and post-processing variant is paired with the paper's five
downstream models (LR, SVM, kNN, RF, MLP) on Adult.  The bench prints
accuracy, DI*, and 1-|TE| per (approach, model) pair plus the
across-model spread; the shape under test is that pre-processing
repairs vary with the model while post-processing accuracy does not.

Runs through the sweep engine as one (model × approach) grid; the
spreads are taken over each approach's cells.
"""

import numpy as np

from common import CAUSAL_SAMPLES, FULL, SIZES, emit, once, run_grid
from repro.engine import ScenarioGrid
from repro.fairness import Stage
from repro.registry import APPROACHES

MODELS = ("lr", "svm", "knn", "rf", "mlp")

#: The random forest is trimmed at reduced scale.
MODEL_SPECS = {"rf": "rf" if FULL else "rf(n_trees=15,max_depth=12)"}

PRE_POST = [name for name in APPROACHES.keys()
            if APPROACHES.get(name).metadata["stage"]
            in (Stage.PRE, Stage.POST)]


def run_sensitivity() -> str:
    grid = ScenarioGrid(datasets=["adult"], approaches=PRE_POST,
                        models=[MODEL_SPECS.get(m, m) for m in MODELS],
                        rows=[SIZES["adult"]],
                        causal_samples=CAUSAL_SAMPLES)
    results = {(o.job.approach, o.job.model): o.result
               for o in run_grid(grid).outcomes}
    lines = [
        "Figure 10/21: pre- & post-processing × downstream model (Adult)",
        f"{'approach':18s} {'model':5s} {'acc':>6s} {'DI*':>6s} "
        f"{'1-|TE|':>7s}",
        "-" * 48,
    ]
    for approach_name in PRE_POST:
        accs, dis = [], []
        for model_name in MODELS:
            r = results[approach_name, model_name]
            accs.append(r.accuracy)
            dis.append(r.di_star)
            lines.append(f"{approach_name:18s} {model_name:5s} "
                         f"{r.accuracy:6.3f} {r.di_star:6.3f} {r.te:7.3f}")
        lines.append(f"{approach_name:18s} spread    acc="
                     f"{max(accs) - min(accs):5.3f} DI*="
                     f"{np.nanmax(dis) - np.nanmin(dis):5.3f}")
        lines.append("")
    return "\n".join(lines)


def test_fig10(benchmark):
    emit("fig10_model_sensitivity", once(benchmark, run_sensitivity))
