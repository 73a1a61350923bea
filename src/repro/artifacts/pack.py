"""Packing experiment cells into serving bundles.

:func:`build_serving_components` refits everything the online audit
path needs from a :class:`~repro.engine.spec.Job` — deterministically,
on :func:`~repro.engine.executor.prepare_cell`'s data path (the one
``execute_job`` runs) and mirroring
:func:`~repro.pipeline.counterfactual_eval.evaluate_counterfactual`'s
fit path — and :func:`pack_bundle` serializes the result as an
artifact bundle.  :func:`components_from_bundle` is the inverse, and
:func:`pack_from_cache` builds a bundle for a finished sweep cell
(using the cell's stored artifact payload when the sweep ran with
``--pack-artifacts``, refitting from the stored params otherwise).

One deliberate divergence from the offline audit: the offline
counterfactual evaluation discretises train and test *independently*
(each split fits its own quantile edges).  A serving system has no
"test split" — requests arrive one at a time — so the bundle freezes
the *train*-fitted edges as the single coordinate system and applies
them to the reference population and to every request.  Served audits
are byte-identical to the in-process :class:`~repro.serve.AuditService`
on the same components, which is the parity the bundle guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..causal.counterfactual import CounterfactualSCM
from ..datasets.encoding import EqualFrequencyDiscretizer
from ..engine.spec import Job
from ..metrics.individual import (SituationReference,
                                  prepare_situation_reference)
from ..pipeline.experiment import FairPipeline
from .bundle import (Bundle, BundleError, load_bundle, write_bundle)

__all__ = ["ServingComponents", "build_serving_components",
           "components_from_bundle", "pack_bundle", "pack_from_cache"]

#: Situation-testing defaults frozen into bundles (the offline audit's
#: own defaults — see :func:`repro.metrics.individual.situation_testing`).
ST_K = 8
ST_THRESHOLD = 0.2
#: Counterfactual per-row flip tolerance (matches
#: :func:`repro.metrics.individual.counterfactual_fairness`).
CF_THRESHOLD = 0.05


@dataclass
class ServingComponents:
    """Everything the online audit path needs, fitted and frozen.

    Attributes
    ----------
    pipeline:
        The fitted :class:`FairPipeline` (fit on the discretised train
        split, exactly as in the offline counterfactual audit).
    scm:
        Explicit-noise SCM fitted on the same discretised train split.
    discretizer:
        Train-fitted quantile edges applied to every request's numeric
        features (``None`` when the dataset has no numeric features).
    numeric:
        Names of the feature columns the discretizer applies to, in
        edge order.
    reference:
        Frozen situation-testing reference population (the discretised
        test split, labelled with the pipeline's own predictions).
    meta:
        Plain-JSON serving metadata (column roles, node order, audit
        knobs, source-job fingerprint); stored in the bundle manifest.
    """

    pipeline: FairPipeline
    scm: CounterfactualSCM
    discretizer: EqualFrequencyDiscretizer | None
    numeric: tuple[str, ...]
    reference: SituationReference
    meta: dict = field(default_factory=dict)


def build_serving_components(job: Job) -> ServingComponents:
    """Refit the serving components for one grid cell, from its job.

    Deterministic in ``job`` alone (same contract as ``execute_job``):
    the dataset build, split, error injection, imputation, pipeline fit
    and SCM fit all derive their randomness from the job's seed.
    """
    from ..engine.executor import prepare_cell
    from ..registry import APPROACHES, MODELS

    with prepare_cell(job, span_prefix="pack.") as (train, test):
        if train.causal_graph is None:
            raise ValueError(
                f"dataset {train.name!r} has no causal graph; the "
                "serving audit path needs one")

        n_bins = int(job.audit_params.get("n_bins", 4))
        n_particles = int(job.audit_params.get("n_particles", 150))
        numeric = tuple(f for f in train.feature_names
                        if f not in train.categorical)
        discretizer = None
        train_disc = train
        if numeric:
            # Same fit as discretize_dataset(train, n_bins), with the
            # fitted edges kept for request-time use.
            discretizer = EqualFrequencyDiscretizer(n_bins).fit(
                train.table.to_matrix(list(numeric)))
            train_disc = _apply_discretizer(train, discretizer, numeric)

        with obs.span("pack.fit", approach=job.approach_label):
            approach = (APPROACHES.build(job.approach, seed=job.seed,
                                         **job.approach_params)
                        if job.approach is not None else None)
            pipeline = FairPipeline(
                approach, model=MODELS.build(job.model, **job.model_params),
                seed=job.seed)
            pipeline.fit(train_disc)

        nodes = train.causal_graph.nodes
        with obs.span("pack.scm", nodes=len(nodes)):
            scm = CounterfactualSCM.fit(
                {n: train_disc.table[n].astype(float) for n in nodes},
                train.causal_graph)

        # The reference population: the held-out split in the frozen
        # (train-fitted) coordinates, labelled with the deployed
        # pipeline's own decisions.
        test_ref = test
        if discretizer is not None:
            test_ref = _apply_discretizer(test_ref, discretizer, numeric)
        with obs.span("pack.reference", rows=test_ref.n_rows):
            y_hat = pipeline.predict(test_ref)
            reference = prepare_situation_reference(
                test_ref.X, test_ref.s, y_hat,
                k=ST_K, threshold=ST_THRESHOLD)

    meta = {
        "dataset": train.name,
        "sensitive": train.sensitive,
        "label": train.label,
        "feature_names": list(train.feature_names),
        "categorical": list(train.categorical),
        "nodes": list(nodes),
        "numeric": list(numeric),
        "seed": job.seed,
        "n_bins": n_bins,
        "n_particles": n_particles,
        "cf_threshold": CF_THRESHOLD,
        "st_k": ST_K,
        "st_threshold": ST_THRESHOLD,
        "fingerprint": job.fingerprint,
        "job_label": job.label(),
    }
    return ServingComponents(pipeline=pipeline, scm=scm,
                             discretizer=discretizer, numeric=numeric,
                             reference=reference, meta=meta)


def _apply_discretizer(dataset, discretizer, numeric):
    binned = discretizer.transform(dataset.table.to_matrix(list(numeric)))
    table = dataset.table.assign(
        **{name: binned[:, j] for j, name in enumerate(numeric)})
    return dataset.with_table(table)


def pack_bundle(job: Job, out, components: ServingComponents | None = None,
                overwrite: bool = False) -> Path:
    """Build (or reuse) serving components for ``job`` and write the
    bundle to ``out``.  Returns the bundle path."""
    if components is None:
        components = build_serving_components(job)
    n_bins = components.meta.get("n_bins", 4)
    artifacts = [
        ("pipeline", job.approach_label, components.pipeline),
        ("scm", "counterfactual-scm", components.scm),
        ("encoding", f"equal-frequency(n_bins={n_bins})",
         {"discretizer": components.discretizer,
          "numeric": list(components.numeric)}),
        ("reference",
         f"situation-testing(k={components.meta.get('st_k', ST_K)}, "
         f"threshold={components.meta.get('st_threshold', ST_THRESHOLD)})",
         components.reference),
    ]
    return write_bundle(out, fingerprint=job.fingerprint,
                        job_params=job.params(), artifacts=artifacts,
                        serving=components.meta, overwrite=overwrite)


def components_from_bundle(bundle: Bundle | str | Path
                           ) -> ServingComponents:
    """Reconstruct the serving components from a bundle (path or
    loaded)."""
    if not isinstance(bundle, Bundle):
        bundle = load_bundle(bundle)
    meta = dict(bundle.serving)
    for name in ("pipeline", "scm", "encoding", "reference"):
        if name not in bundle.artifact_names():
            raise BundleError(
                f"bundle {bundle.path} is not a serving bundle: missing "
                f"artifact {name!r}")
    encoding = bundle.load_artifact("encoding")
    return ServingComponents(
        pipeline=bundle.load_artifact("pipeline"),
        scm=bundle.load_artifact("scm"),
        discretizer=encoding["discretizer"],
        numeric=tuple(encoding["numeric"]),
        reference=bundle.load_artifact("reference"),
        meta=meta,
    )


def pack_from_cache(cache, out, *, where: dict | None = None,
                    fingerprint: str | None = None,
                    overwrite: bool = False) -> Path:
    """Pack a bundle for one finished cell of a sweep cache.

    ``cache`` is a :class:`~repro.engine.cache.ResultCache` or any
    store URI :func:`~repro.engine.backend.parse_store` accepts
    (``file:DIR``, ``sqlite:PATH``, or a bare directory).  The cell is
    selected by ``fingerprint`` or by a
    ``--where``-style axis filter; exactly one cell must match.  When
    the sweep stored an artifact payload for the cell (``repro sweep
    --pack-artifacts``), it is reused verbatim — no refitting;
    otherwise the components are refit deterministically from the
    cell's stored params.
    """
    import shutil

    from ..engine.cache import ResultCache
    from ..engine.report import filter_outcomes

    if not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    if not cache.exists():
        raise FileNotFoundError(f"no sweep cache at {cache.location}")
    outcomes = cache.outcomes()
    if fingerprint is not None:
        outcomes = [o for o in outcomes
                    if o.job.fingerprint.startswith(fingerprint)]
    if where:
        outcomes = filter_outcomes(outcomes, where)
    if not outcomes:
        raise ValueError("no cached cell matches the selection; run the "
                         "sweep first or relax --where")
    if len(outcomes) > 1:
        labels = ", ".join(o.job.label() for o in outcomes[:5])
        raise ValueError(
            f"selection matches {len(outcomes)} cells ({labels}"
            f"{', …' if len(outcomes) > 5 else ''}); narrow --where "
            "down to exactly one")
    job = outcomes[0].job
    stored = cache.get_artifact(job)
    if stored is not None:
        load_bundle(stored)  # validate before copying
        out = Path(out)
        if out.exists():
            if not overwrite:
                raise BundleError(
                    f"bundle target {out} already exists; pass --force "
                    "to replace it")
            shutil.rmtree(out)
        shutil.copytree(stored, out)
        obs.add("pack.reused")
        return out
    obs.add("pack.refit")
    return pack_bundle(job, out, overwrite=overwrite)
