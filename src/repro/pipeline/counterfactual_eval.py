"""Counterfactual (rung-3) evaluation of fair-classification pipelines.

:func:`~repro.pipeline.experiment.evaluate_pipeline` covers the paper's
nine metrics.  This module adds the counterfactual extension in one
call, mirroring :func:`~repro.pipeline.experiment.run_experiment`'s
interface: given an approach name and a train/test split, it

1. fits the serving components ``repro pack`` ships: train-fitted
   bins (CPT estimation needs small discrete domains), the approach's
   pipeline and a discrete explicit-noise SCM on the binned training
   data, using the dataset's causal graph,
2. audits that pipeline for counterfactual fairness (per-individual
   flips under abduction of the test rows, in the train bins), the
   Ctf-DE/IE/SE decomposition and counterfactual error rates (one
   shared noise draw).

Fitting on the discretised data keeps the classifier's input
distribution identical to the SCM's output distribution, so the audit
measures the model rather than a train/audit encoding mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..datasets.dataset import Dataset
from ..metrics.causal_notions import (CounterfactualErrorRates, CtfEffects,
                                      _ctf_draw)
from ..metrics.individual import (CounterfactualFairnessResult,
                                  counterfactual_fairness)

__all__ = ["CounterfactualAudit", "evaluate_counterfactual"]


@dataclass(frozen=True)
class CounterfactualAudit:
    """Rung-3 audit of one approach.

    Attributes
    ----------
    fairness:
        Per-individual counterfactual-flip summary.
    effects:
        Ctf-DE/IE/SE decomposition of the prediction disparity.
    error_rates:
        Counterfactual FPR/FNR gaps for the unprivileged group.
    """

    approach: str
    dataset: str
    fairness: CounterfactualFairnessResult
    effects: CtfEffects
    error_rates: CounterfactualErrorRates


def evaluate_counterfactual(approach_name: str | None, train: Dataset,
                            test: Dataset, model=None, n_bins: int = 4,
                            n_samples: int = 20000,
                            n_particles: int = 150,
                            max_rows: int | None = 60,
                            seed: int = 0,
                            approach_params: dict | None = None,
                            ) -> CounterfactualAudit:
    """Fit an approach and audit it at the counterfactual rung.

    The individual audit runs on the batched abduction path: all audit
    rows are abducted together (``rows × n_particles`` evidence copies
    per chunk) and the pipeline's classifier is called twice per chunk,
    so ``max_rows=None`` — auditing the whole test split — is practical.

    Parameters
    ----------
    approach_name:
        Registry name of the variant (``None`` = the LR baseline).
    train, test:
        The split; the bin edges, the pipeline and the SCM's CPTs come
        from ``train``, the individual audit rows from ``test`` (binned
        with the train edges).
    model:
        Optional downstream classifier (pre/post approaches only).
    n_bins:
        Discretisation granularity for continuous features.
    n_samples:
        Monte-Carlo size for the population-level estimands.
    n_particles, max_rows:
        Abduction controls of the individual audit (``max_rows=None``
        audits every test row).
    seed:
        Randomness for fitting, sampling, and abduction.  The abduction
        chunk follows ``n_particles`` (it bounds rows × particles
        memory), so a (seed, n_particles) pair fixes the audit.
    approach_params:
        Registry parameter overrides for the approach factory
        (``approach_name`` may also carry them as a spec string).

    Raises
    ------
    ValueError
        If the dataset carries no causal graph.
    """
    from ..artifacts.pack import _fit_components

    components, binned = _fit_components(
        train, test, approach_name, approach_params, model, seed, n_bins,
        n_particles, "audit.")
    return _audit(components, binned, n_samples, max_rows)


def _audit(components, test: Dataset, n_samples: int,
           max_rows: int | None) -> CounterfactualAudit:
    """Audit fitted serving components on their binned test split; one
    RNG from the components' seed feeds abduction, then the one noise
    draw the Ctf effects and error rates share."""
    meta, scm = components.meta, components.scm
    predict = components.pipeline.predict_columns
    rng = np.random.default_rng(meta["seed"])
    with obs.span("audit.fairness", n_particles=meta["n_particles"]):
        fairness = counterfactual_fairness(
            scm, {n: test.table[n].astype(float) for n in meta["nodes"]},
            meta["sensitive"], meta["label"], predict, rng,
            n_particles=meta["n_particles"], max_rows=max_rows)
    with obs.span("audit.effects", n_samples=n_samples):
        effects, error_rates = _ctf_draw(scm, meta["sensitive"],
                                         meta["label"], n_samples, rng,
                                         predict=predict)
    return CounterfactualAudit(
        approach=components.pipeline.name,
        dataset=meta["dataset"],
        fairness=fairness,
        effects=effects,
        error_rates=error_rates,
    )
