"""Ablation: Pleiss's calibration assumption, made explicit.

Pleiss et al. assume the underlying classifier is *calibrated* before
their randomised TPR-equalising mix is applied.  This ablation wires
the repository's calibration module into the pipeline: the downstream
model is (a) raw logistic regression, (b) Platt-scaled, (c)
isotonic-calibrated, and for each we report the model's expected
calibration error next to Pleiss's resulting accuracy and fairness.

Shape under test: logistic regression is already nearly calibrated on
this data (Platt/isotonic change little), while a deliberately
over-confident model (naive Bayes) shows a large ECE drop from
calibration and a visible effect on Pleiss's achieved TPR balance.

Stays on the pipeline API, off the sweep engine: the calibrated models
are wrappers around another model, which no registry model spec
expresses, and the ECE reads the fitted pipeline's scores.
"""

from common import CAUSAL_SAMPLES, emit, load_sized, once
from repro.fairness.postprocessing import Pleiss
from repro.models import (CalibratedClassifier, GaussianNB,
                          LogisticRegression,
                          expected_calibration_error)
from repro.datasets import train_test_split
from repro.pipeline import FairPipeline, evaluate_pipeline

MODELS = {
    "lr-raw": lambda: LogisticRegression(),
    "lr-platt": lambda: CalibratedClassifier(LogisticRegression(),
                                             method="platt"),
    "nb-raw": lambda: GaussianNB(),
    "nb-platt": lambda: CalibratedClassifier(GaussianNB(), method="platt"),
    "nb-isotonic": lambda: CalibratedClassifier(GaussianNB(),
                                                method="isotonic"),
}


def run_ablation() -> str:
    dataset = load_sized("compas")
    split = train_test_split(dataset, seed=0)
    lines = ["Ablation: calibration of the model under Pleiss (COMPAS)",
             f"{'model':<12} {'ECE':>6} {'acc':>6} {'1-|TPRB|':>9} "
             f"{'DI*':>6}"]
    for name, factory in MODELS.items():
        pipe = FairPipeline(Pleiss(), model=factory(), seed=0)
        pipe.fit(split.train)
        scores = pipe.predict_proba(split.test)
        ece = expected_calibration_error(split.test.y, scores)
        r = evaluate_pipeline(pipe, split.test,
                              causal_samples=CAUSAL_SAMPLES)
        lines.append(f"{name:<12} {ece:>6.3f} {r.accuracy:>6.3f} "
                     f"{r.tprb:>9.3f} {r.di_star:>6.3f}")
    return "\n".join(lines)


def test_ablation_calibration(benchmark):
    emit("ablation_calibration", once(benchmark, run_ablation))
