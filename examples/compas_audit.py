"""Recidivism-risk audit: the paper's Example 1 scenario end-to-end.

A court deploys a risk classifier.  This script audits it the way
ProPublica audited COMPAS: per-group error rates, disparate impact,
individual discrimination, and — because the synthetic benchmark ships
its true causal model — the causal share of the disparity (how much of
the gap flows through prior convictions vs directly through race).
It then compares the three causal repair approaches.

Run:  python examples/compas_audit.py
"""

import numpy as np

from repro.datasets import load_compas, train_test_split
from repro.metrics import (ConfusionCounts, causal_effects_of_predictions,
                           disparate_impact)
from repro.pipeline import FairPipeline, evaluate_pipeline, run_experiment


def audit_group_errors(y, y_hat, s) -> None:
    print("Per-group confusion profile (the ProPublica analysis):")
    for group, label in ((0, "unprivileged"), (1, "privileged")):
        c = ConfusionCounts.from_predictions(y[s == group],
                                             y_hat[s == group])
        print(f"  {label:13s} accuracy={(c.tp + c.tn) / c.total:.3f}  "
              f"FPR={c.fpr:.3f}  FNR={c.fnr:.3f}")


def main() -> None:
    dataset = load_compas(n=6000, seed=1)
    split = train_test_split(dataset, seed=1)

    pipeline = FairPipeline().fit(split.train)
    y_hat = pipeline.predict(split.test)
    y, s = split.test.y, split.test.s

    audit_group_errors(y, y_hat, s)
    print(f"\nDisparate impact: {disparate_impact(y_hat, s):.3f} "
          "(1 = parity)")

    effects = causal_effects_of_predictions(
        split.test, y_hat, predict=pipeline.predict_columns,
        n_samples=20000, seed=0)
    print("Causal decomposition of the disparity (interventional):")
    print(f"  total effect     TE  = {effects.te:+.3f}")
    print(f"  direct (race)    NDE = {effects.nde:+.3f}")
    print(f"  via mediators    NIE = {effects.nie:+.3f} "
          "(prior convictions pathway)")

    print("\nCausal repairs (pre-processing) vs the baseline:")
    header = f"{'approach':18s} {'acc':>6s} {'1-|TE|':>7s} {'1-|NDE|':>8s}"
    print(header)
    for name in (None, "ZhaWu-psf", "ZhaWu-dce", "Salimi-jf-maxsat"):
        r = run_experiment(name, split.train, split.test,
                           causal_samples=10000, seed=0)
        print(f"{r.approach:18s} {r.accuracy:6.3f} {r.te:7.3f} "
              f"{r.nde:8.3f}")


if __name__ == "__main__":
    main()
