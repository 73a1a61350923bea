"""Model-sensitivity study: pairing repairs with different classifiers.

Reproduces the paper's Section 4.5 question at laptop scale: does a
pre-processing repair keep working when the downstream model changes
from logistic regression to SVM / kNN / random forest / MLP — and is
post-processing really indifferent to the model?

Run:  python examples/model_sensitivity.py
"""

from repro.datasets import load_adult, train_test_split
from repro.pipeline import FairPipeline, evaluate_pipeline
from repro.registry import APPROACHES, MODELS

MODEL_NAMES = ("lr", "svm", "knn", "rf", "mlp")
APPROACH_NAMES = ("KamCal-dp", "Feld-dp", "KamKar-dp")


def model_kwargs(name: str) -> dict:
    # Laptop-scale settings for the slower families.
    return {"rf": {"n_trees": 15, "max_depth": 12}}.get(name, {})


def main() -> None:
    dataset = load_adult(n=4000, seed=3)
    split = train_test_split(dataset, seed=3)

    for approach_name in APPROACH_NAMES:
        stage = APPROACHES.build(approach_name, seed=0).stage.value
        print(f"{approach_name} ({stage}):")
        print(f"  {'model':5s} {'acc':>6s} {'DI*':>6s} {'1-|TE|':>7s}")
        spread = []
        for model_name in MODEL_NAMES:
            pipe = FairPipeline(
                APPROACHES.build(approach_name, seed=0),
                model=MODELS.build(model_name, **model_kwargs(model_name)))
            pipe.fit(split.train)
            r = evaluate_pipeline(pipe, split.test, causal_samples=3000)
            spread.append(r.di_star)
            print(f"  {model_name:5s} {r.accuracy:6.3f} {r.di_star:6.3f} "
                  f"{r.te:7.3f}")
        print(f"  DI* spread across models: "
              f"{max(spread) - min(spread):.3f}\n")
    print("Expected shape (paper Section 4.5): pre-processing repairs "
          "vary visibly\nacross models; post-processing (KamKar) keeps "
          "its accuracy nearly model-\nindependent and its fairness "
          "variation traces only score calibration.")


if __name__ == "__main__":
    main()
