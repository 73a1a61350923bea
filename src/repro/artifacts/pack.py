"""Packing experiment cells into serving bundles.

:func:`build_serving_components` refits everything the online audit
path needs from a :class:`~repro.engine.spec.Job` — deterministically,
on :func:`~repro.engine.executor.prepare_cell`'s data path (the one
``execute_job`` runs) — and :func:`pack_bundle` serializes the result
as an artifact bundle.  :func:`components_from_bundle` is the inverse,
and :func:`pack_from_cache` builds a bundle for a finished sweep cell
(using the cell's stored artifact payload when the sweep ran with
``--pack-artifacts``, refitting from the stored params otherwise).

The rung-3 audit runs on components from the same fit, so a cell's
``cf_*``/``ctf_*`` values describe the bundle it packs, in its
train-fitted bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..causal.counterfactual import CounterfactualSCM
from ..datasets.encoding import EqualFrequencyDiscretizer, _bin_dataset
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
        split; the rung-3 audit runs on it).
    scm:
        Explicit-noise SCM fitted on the same discretised train split.
    discretizer:
        Train-fitted quantile edges applied to every request's numeric
        features (``None`` when the dataset has no numeric features).
    numeric:
        Names of the feature columns the discretizer applies to, in
        edge order.
    reference:
        Frozen situation-testing reference population (the test split
        binned with the train edges, labelled with the pipeline's own
        predictions).
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

    Deterministic in ``job`` alone (same contract as ``execute_job``,
    whose rung-3 audit runs on the same fit): the dataset build, split,
    error injection, imputation, pipeline fit and SCM fit all derive
    their randomness from the job's seed.
    """
    from ..engine.executor import prepare_cell

    train, test = prepare_cell(job, span_prefix="pack.")
    return _cell_components(job, train, test, "pack.")[0]


def _cell_components(job: Job, train, test, span_prefix: str):
    """:func:`_fit_components` on ``job``'s split, named for the job."""
    from ..registry import MODELS

    return _fit_components(
        train, test, job.approach, job.approach_params,
        MODELS.build(job.model, **job.model_params), job.seed,
        int(job.audit_params.get("n_bins", 4)),
        int(job.audit_params.get("n_particles", 150)), span_prefix,
        fingerprint=job.fingerprint, job_label=job.label())


def _fit_components(train, test, approach_name, approach_params, model,
                    seed, n_bins, n_particles, span_prefix, **meta):
    """The one discretise-and-fit path of a cell's rung-3 components:
    bins, pipeline and SCM fit on the train split; the reference is the
    test split binned with the train edges, labelled by the pipeline.
    Returns ``(components, binned test split)``; ``meta`` extends the
    serving metadata."""
    from ..registry import APPROACHES

    if train.causal_graph is None:
        raise ValueError(
            f"dataset {train.name!r} has no causal graph; the rung-3 "
            "audit and the serving path need one (learn it with "
            "repro.causal.learn_dataset_graph)")
    numeric = tuple(f for f in train.feature_names
                    if f not in train.categorical)
    discretizer = None
    with obs.span(f"{span_prefix}fit", n_bins=n_bins):
        if numeric:
            discretizer = EqualFrequencyDiscretizer(n_bins).fit(
                train.table.to_matrix(list(numeric)))
        train = _bin_dataset(train, discretizer, numeric)
        approach = (APPROACHES.build(approach_name, seed=seed,
                                     **(approach_params or {}))
                    if approach_name is not None else None)
        pipeline = FairPipeline(approach, model=model, seed=seed)
        pipeline.fit(train)

    nodes = train.causal_graph.nodes
    with obs.span(f"{span_prefix}scm", nodes=len(nodes)):
        scm = CounterfactualSCM.fit(
            {n: train.table[n].astype(float) for n in nodes},
            train.causal_graph)

    test = _bin_dataset(test, discretizer, numeric)
    with obs.span(f"{span_prefix}reference", rows=test.n_rows):
        reference = prepare_situation_reference(
            test.X, test.s, pipeline.predict(test),
            k=ST_K, threshold=ST_THRESHOLD)

    meta = {
        "dataset": train.name,
        "sensitive": train.sensitive,
        "label": train.label,
        "feature_names": list(train.feature_names),
        "categorical": list(train.categorical),
        "nodes": list(nodes),
        "numeric": list(numeric),
        "seed": seed,
        "n_bins": n_bins,
        "n_particles": n_particles,
        "cf_threshold": CF_THRESHOLD,
        "st_k": ST_K,
        "st_threshold": ST_THRESHOLD,
        **meta,
    }
    return ServingComponents(pipeline=pipeline, scm=scm,
                             discretizer=discretizer, numeric=numeric,
                             reference=reference, meta=meta), test


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
    selected by a prefix of its stored ``fingerprint`` or by a
    ``--where``-style axis filter; exactly one cell must match.  When
    the sweep stored an artifact payload for the cell (``repro sweep
    --pack-artifacts``), it is reused verbatim — no refitting;
    otherwise the components are refit deterministically from the
    cell's stored params, unless it was stored under another
    ``SPEC_VERSION`` (``ValueError``: re-run the cell).
    """
    import shutil

    from ..engine.cache import ResultCache
    from ..engine.spec import SPEC_VERSION

    if not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    if not cache.exists():
        raise FileNotFoundError(f"no sweep cache at {cache.location}")
    cells = cache._latest(where)
    if fingerprint is not None:
        cells = [cell for cell in cells if cell[0].startswith(fingerprint)]
    if not cells:
        raise ValueError("no cached cell matches the selection; run the "
                         "sweep first or relax --where")
    if len(cells) > 1:
        labels = ", ".join(cell[2].job.label() for cell in cells[:5])
        raise ValueError(
            f"selection matches {len(cells)} cells ({labels}"
            f"{', …' if len(cells) > 5 else ''}); narrow --where "
            "down to exactly one")
    stored_fingerprint, version, outcome = cells[0]
    job = outcome.job
    stored = cache.get_artifact(stored_fingerprint)
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
    if version != SPEC_VERSION:
        raise ValueError(
            f"cell {job.label()} was stored under spec_version {version} "
            f"(current {SPEC_VERSION}) with no artifact bundle, and a "
            "refit would not be the model its metrics came from; re-run "
            "the cell with --pack-artifacts, then pack it")
    obs.add("pack.refit")
    return pack_bundle(job, out, overwrite=overwrite)
