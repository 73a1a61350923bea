"""Integration tests: every registered variant runs end-to-end on every
dataset family, improves its target notion, and the paper's headline
qualitative findings hold on the synthetic benchmarks."""

import numpy as np
import pytest

from repro.datasets import load_compas, train_test_split
from repro.engine import Job
from repro.engine.executor import prepare_cell
from repro.fairness import Notion
from repro.pipeline import FairPipeline, evaluate_pipeline, run_experiment
from repro.registry import APPROACHES, ERRORS, MODELS

VARIANTS = APPROACHES.keys()

CAUSAL_SAMPLES = 2000


@pytest.fixture(scope="module")
def split():
    return train_test_split(load_compas(2500, seed=21), seed=2)


@pytest.fixture(scope="module")
def baseline(split):
    return run_experiment(None, split.train, split.test,
                          causal_samples=CAUSAL_SAMPLES)


@pytest.fixture(scope="module")
def all_results(split):
    results = {}
    for name in VARIANTS:
        results[name] = run_experiment(name, split.train, split.test,
                                       causal_samples=CAUSAL_SAMPLES)
    return results


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_runs_and_produces_sane_metrics(name, all_results):
    r = all_results[name]
    assert 0.35 <= r.accuracy <= 1.0
    for key, value in r.fairness_scores().items():
        assert np.isnan(value) or 0.0 <= value <= 1.0, (key, value)


TARGET_METRIC = {
    Notion.DEMOGRAPHIC_PARITY: "di_star",
    Notion.EQUALIZED_ODDS: "tprb",
    Notion.EQUAL_OPPORTUNITY: "tprb",
    Notion.PATH_SPECIFIC_FAIRNESS: "te",
    Notion.DIRECT_CAUSAL_EFFECT: "nde",
    Notion.JUSTIFIABLE_FAIRNESS: "te",
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_improves_target_notion(name, all_results, baseline):
    """Paper Section 4.2: every approach improves the metric it targets
    (allowing small generalisation noise)."""
    approach = APPROACHES.build(name, seed=0)
    metric = TARGET_METRIC.get(approach.notion)
    if metric is None:
        pytest.skip("predictive parity/equality not among headline "
                    "normalised metrics")
    before = getattr(baseline, metric)
    after = getattr(all_results[name], metric)
    assert after > before - 0.07, (
        f"{name} did not improve {metric}: {before:.3f} -> {after:.3f}")


def test_no_single_winner(all_results):
    """Paper: no approach achieves perfect fairness on all metrics —
    except a vacuous (constant) classifier, which the paper notes is
    what enforcing everything at once degenerates to.  Non-trivial
    approaches (recall strictly between 0 and 1) must trade off."""
    for name, r in all_results.items():
        trivial = (np.isnan(r.recall) or r.recall in (0.0, 1.0)
                   or np.isnan(r.precision))
        if trivial:
            continue
        scores = [v for v in r.fairness_scores().values()
                  if not np.isnan(v)]
        assert min(scores) < 0.995, f"{name} perfect on all metrics"


def test_causal_approaches_improve_te(all_results, baseline):
    """Paper: the causal approaches consistently improve TE."""
    causal = ["ZhaWu-psf", "Salimi-jf-maxsat", "Salimi-jf-matfac"]
    improved = sum(all_results[n].te > baseline.te - 0.02 for n in causal)
    assert improved >= 2


def test_postprocessing_violates_id_more_than_s_blind(all_results):
    """Paper: post-processing tends to violate individual fairness,
    while S-discarding approaches satisfy it trivially."""
    post_id = np.mean([all_results[n].id for n in
                       ("KamKar-dp", "Hardt-eo", "Pleiss-eop")])
    blind_id = np.mean([all_results[n].id for n in
                        ("Feld-dp", "Zafar-dp-fair", "Zafar-eo-fair")])
    assert blind_id == pytest.approx(1.0)
    assert post_id < blind_id


#: Fig. 7's Thomas cells at the benchmark's sizes (seed 0), and whether
#: each candidate passes its safety test; the others return "No Solution
#: Found", the constant majority-class classifier.
FIG7_THOMAS_PASSES = {
    ("adult", 4000, "Thomas-dp"): True,
    ("adult", 4000, "Thomas-eo"): False,
    ("compas", 4000, "Thomas-dp"): True,
    ("compas", 4000, "Thomas-eo"): False,
    ("german", 1000, "Thomas-dp"): True,
    ("german", 1000, "Thomas-eo"): False,
}


@pytest.mark.parametrize(("dataset", "rows", "approach"),
                         sorted(FIG7_THOMAS_PASSES))
def test_fig7_thomas_safety_verdicts(dataset, rows, approach):
    """Fig. 7's degenerate cells: Thomas-dp certifies a classifier on
    every dataset, Thomas-eo on none."""
    train, _ = prepare_cell(Job(dataset=dataset, approach=approach,
                                rows=rows, causal_samples=200))
    thomas = APPROACHES.build(approach, seed=0)
    FairPipeline(thomas, seed=0).fit(train)
    passes = FIG7_THOMAS_PASSES[(dataset, rows, approach)]
    assert thomas.no_solution_ is not passes


def test_seed_reproducibility(split):
    a = run_experiment("KamCal-dp", split.train, split.test, seed=5,
                       causal_samples=1000)
    b = run_experiment("KamCal-dp", split.train, split.test, seed=5,
                       causal_samples=1000)
    assert a.accuracy == b.accuracy
    assert a.fairness_scores() == b.fairness_scores()


@pytest.mark.parametrize("model_name", ["lr", "knn", "nb"])
def test_preprocessing_composes_with_other_models(split, model_name):
    """Section 4.5 machinery: pre-processing pairs with any model."""
    pipe = FairPipeline(APPROACHES.build("KamCal-dp", seed=0),
                        model=MODELS.build(model_name))
    pipe.fit(split.train)
    r = evaluate_pipeline(pipe, split.test, causal_samples=1000)
    assert 0.4 <= r.accuracy <= 1.0


def test_robustness_pipeline_runs(split):
    """Section 4.4 machinery: corrupt train, evaluate on clean test."""
    corrupted = ERRORS.build("t2")(split.train, seed=0)
    r = run_experiment("KamCal-dp", corrupted, split.test,
                       causal_samples=1000)
    assert 0.3 <= r.accuracy <= 1.0
