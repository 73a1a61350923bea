"""Extension: measuring Section 5's claim about combining approaches.

The paper states that "combining multiple approaches is possible, but
faces practical hurdles such as substantial penalties in correctness
[and] runtime overhead" — without measuring it.  This bench does: on
COMPAS it compares the baseline, each single-stage approach, and the
pre+post compositions, reporting accuracy, the fairness metrics both
stages target, and fit time.

Shape under test: composition pushes DI* at or above the best single
stage, at a visible extra accuracy cost and the summed runtime.

Stays on the pipeline API, off the sweep engine: a ``Job`` holds one
approach, and a pre+post stack is a second pipeline shape.
"""

from common import CAUSAL_SAMPLES, emit, load_sized, once
from repro.datasets import train_test_split
from repro.fairness.postprocessing import Hardt, KamKar
from repro.fairness.preprocessing import Feld, KamCal
from repro.pipeline import (ComposedPipeline, FairPipeline,
                            evaluate_pipeline)


def run_composition() -> str:
    dataset = load_sized("compas")
    split = train_test_split(dataset, seed=0)

    configs = {
        "LR baseline": FairPipeline(None, seed=0),
        "KamCal (pre)": FairPipeline(KamCal(seed=0), seed=0),
        "KamKar (post)": FairPipeline(KamKar(), seed=0),
        "Hardt (post)": FairPipeline(Hardt(), seed=0),
        "KamCal→KamKar": ComposedPipeline(pre=KamCal(seed=0),
                                          post=KamKar(), seed=0),
        "KamCal→Hardt": ComposedPipeline(pre=KamCal(seed=0),
                                         post=Hardt(), seed=0),
        "Feld→Hardt": ComposedPipeline(pre=Feld(lam=1.0),
                                       post=Hardt(), seed=0),
    }

    lines = ["Composition ablation (COMPAS): single stages vs pre+post "
             "stacks",
             f"{'pipeline':<16} {'acc':>6} {'DI*':>6} {'1-|TPRB|':>9} "
             f"{'fit s':>7}"]
    for label, pipe in configs.items():
        pipe.fit(split.train)
        r = evaluate_pipeline(pipe, split.test,
                              causal_samples=CAUSAL_SAMPLES)
        lines.append(f"{label:<16} {r.accuracy:>6.3f} {r.di_star:>6.3f} "
                     f"{r.tprb:>9.3f} {pipe.fit_seconds_:>7.2f}")
    return "\n".join(lines)


def test_ablation_composition(benchmark):
    emit("ablation_composition", once(benchmark, run_composition))
