"""Robustness study: what dirty training data does to fair classifiers.

Reproduces the paper's Section 4.4 scenario on a small scale: COMPAS
training data is corrupted with the three error recipes (T1 swapped
columns, T2 scaled+noisy columns, T3 missing-and-imputed S/Y), hitting
50% of the unprivileged group but only 10% of the privileged group.
One approach per stage is retrained on each corrupted set and evaluated
on the clean test data.

Run:  python examples/robustness_study.py
"""

from repro.datasets import load_compas, train_test_split
from repro.pipeline import run_experiment
from repro.registry import ERRORS

APPROACHES = (None, "KamCal-dp", "Zafar-dp-fair", "Hardt-eo")
RECIPES = ("t1", "t2", "t3")


def main() -> None:
    dataset = load_compas(n=5000, seed=2)
    split = train_test_split(dataset, seed=2)

    print(f"{'approach':14s} {'train set':9s} {'acc':>6s} {'DI*':>6s} "
          f"{'1-|TPRB|':>9s}")
    print("-" * 50)
    for name in APPROACHES:
        clean = run_experiment(name, split.train, split.test,
                               causal_samples=3000, seed=0)
        print(f"{clean.approach:14s} {'clean':9s} {clean.accuracy:6.3f} "
              f"{clean.di_star:6.3f} {clean.tprb:9.3f}")
        for recipe in RECIPES:
            corrupted_train = ERRORS.build(recipe)(split.train, seed=0)
            r = run_experiment(name, corrupted_train, split.test,
                               causal_samples=3000, seed=0)
            print(f"{'':14s} {recipe.upper():9s} {r.accuracy:6.3f} "
                  f"{r.di_star:6.3f} {r.tprb:9.3f}")
        print()
    print("Expected shape (paper Section 4.4): the post-processing row "
          "moves least\nunder T1/T2 (it never reads the corrupted "
          "attributes) and most under T3\n(it relies on S and Y).")


if __name__ == "__main__":
    main()
