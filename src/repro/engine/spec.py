"""Declarative scenario grids for the sweep engine.

Every figure in the paper is a grid — (dataset × approach × model ×
error condition × seed) — so the engine's unit of work is one grid
*cell*, a :class:`Job`, and its unit of specification is the
:class:`ScenarioGrid` that expands into the deterministic job list.
Each job carries a stable content fingerprint hashed from its full
parameterization, which is what the result cache keys on: two sweeps
that describe the same cell — whether from the CLI, a benchmark, a
config file, or an example script — share one cache entry.

Grid dimensions are registry specs: any entry may carry parameter
overrides in the :mod:`repro.registry` spec grammar
(``"Celis-pp(tau=0.9)"``, ``{"key": "knn", "params": {"k": 7}}``), and
those parameters are part of the cell's fingerprint — a changed
``tau`` is a cache miss, not a silent reuse.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

__all__ = ["AUDITS", "BASELINE_ALIASES", "Job", "ScenarioGrid",
           "SPEC_VERSION", "job_from_params"]

#: Bumped whenever the experimental protocol behind a job changes
#: meaning (it is hashed into every fingerprint, so old cache entries
#: are invalidated rather than silently reused).  Version 2: registry
#: parameter overrides and the optional counterfactual audit joined
#: the parameterization.  Version 3: the imputer and metric families
#: became sweep axes (``imputer``/``metric`` + ``*_params`` fields).
#: Version 4: the pairwise-kernel block size joined the
#: parameterization (k-NN consumers' tie-breaking can depend on it).
#: Version 5: fits run at one BLAS thread, no longer at the core count,
#: so a cell cached on a multi-core host can differ from a fresh run
#: (the adult Thomas-dp cell at 4,000 rows does).  Version 6: the
#: rung-3 audit bins its test rows with train-fitted edges, on the
#: components ``repro pack`` ships, and its error rates share the Ctf
#: effects' noise draw, so the ``cf_*`` values move.  Version 7: the
#: metric axis, the abduction chunk and the kernel block size left the
#: parameterization; no stored value moved, only the fingerprints.
#: Version 8: Thomas (Seldonian) candidate selection descends on the
#: exact gradient, not finite differences, so Thomas cells move.
#: Version 9: the k-NN top-k screens distinct reference rows and takes
#: tied repeats by lowest index, so k-NN model cells and situation
#: testing move where reference rows repeat (large compas/adult splits).
SPEC_VERSION = 9

#: Spellings accepted for the fairness-unaware baseline pipeline.
BASELINE_ALIASES = {None, "", "baseline", "none", "LR"}

#: Recognised per-cell audit extensions (``None`` = paper metrics only).
AUDITS = (None, "counterfactual")

#: Parameters ``audit_params`` may tune (the keyword surface of
#: ``evaluate_counterfactual`` minus what the job protocol owns:
#: approach/model/seed), each an integer with its least value;
#: ``max_rows`` may also be null.
AUDIT_PARAM_MINIMA = {"n_bins": 2, "n_samples": 1, "n_particles": 1,
                      "max_rows": 1}

#: Job axes a report can group, pivot, or filter on (and the SQL
#: store's axis columns, in this order).
_COMPONENT_AXES = ("dataset", "approach", "model", "error", "imputer")
_JOB_AXES = (*_COMPONENT_AXES, "seed", "rows", "n_features", "audit")


def check_audit_params(audit: str | None, params: dict) -> dict:
    """Validate an audit configuration at construction time.

    Unknown parameter names, values that are not integers in range,
    or audit parameters without an audit to consume them, must fail
    before any cell is scheduled, not per-cell inside a worker.
    """
    params = _check_json_params(dict(params), "audit")
    if audit not in AUDITS:
        raise ValueError(f"unknown audit {audit!r}; choose "
                         f"from {[a for a in AUDITS if a]}")
    if params and audit is None:
        raise ValueError(
            f"audit_params {sorted(params)} given without an audit; set "
            f"audit to one of {[a for a in AUDITS if a]}")
    unknown = sorted(set(params) - AUDIT_PARAM_MINIMA.keys())
    if unknown:
        raise ValueError(
            f"unknown audit parameter(s) {unknown}; accepted: "
            f"{sorted(AUDIT_PARAM_MINIMA)} (seed/approach/model are "
            "controlled by their own job fields)")
    for name, value in params.items():
        nullable = name == "max_rows"  # null audits every test row
        if not (value is None and nullable) and (
                type(value) is not int or value < AUDIT_PARAM_MINIMA[name]):
            raise ValueError(
                f"audit parameter {name} must be an integer >= "
                f"{AUDIT_PARAM_MINIMA[name]}{' or null' * nullable}, "
                f"got {value!r}")
    return params


@dataclass(frozen=True)
class Job:
    """One fully-parameterized grid cell.

    All fields are plain picklable primitives (registry keys, numbers,
    and JSON-ready parameter mappings) so jobs can cross a process
    boundary and serialise canonically into a fingerprint.
    """

    dataset: str
    approach: str | None = None  # None = fairness-unaware baseline
    model: str = "lr"
    error: str | None = None  # corruption recipe for the training split
    imputer: str | None = None  # repairs NaNs left in the train split
    seed: int = 0
    rows: int = 4000
    n_features: int | None = None  # truncate feature set (scalability)
    causal_samples: int = 5000
    test_fraction: float = 0.3
    # Registry parameter overrides (merged over each component's
    # declared defaults); all hash into the fingerprint.
    dataset_params: dict = field(default_factory=dict)
    approach_params: dict = field(default_factory=dict)
    model_params: dict = field(default_factory=dict)
    error_params: dict = field(default_factory=dict)
    imputer_params: dict = field(default_factory=dict)
    # Optional per-cell audit extension and its cost knobs.
    audit: str | None = None  # e.g. "counterfactual"
    audit_params: dict = field(default_factory=dict)

    def params(self) -> dict:
        """The job's full parameterization as a JSON-ready mapping.

        Component parameters appear *resolved* — registry defaults
        merged under the job's overrides — so two jobs that build the
        same component share one entry (``Celis-pp`` versus an
        explicit ``Celis-pp(tau=0.8)``), and editing a declared
        default in the registry changes the fingerprint instead of
        silently re-serving results computed under the old default.
        """
        from ..registry import (APPROACHES, DATASETS, ERRORS, IMPUTERS,
                                MODELS)

        return {
            "spec_version": SPEC_VERSION,
            "dataset": self.dataset,
            "approach": self.approach,
            "model": self.model,
            "error": self.error,
            "imputer": self.imputer,
            "seed": int(self.seed),
            "rows": int(self.rows),
            "n_features": (None if self.n_features is None
                           else int(self.n_features)),
            "causal_samples": int(self.causal_samples),
            "test_fraction": float(self.test_fraction),
            "dataset_params": DATASETS.resolved_params(
                self.dataset, self.dataset_params),
            "approach_params": (
                {} if self.approach is None
                else APPROACHES.resolved_params(self.approach,
                                                self.approach_params)),
            "model_params": MODELS.resolved_params(self.model,
                                                   self.model_params),
            "error_params": (
                {} if self.error is None
                else ERRORS.resolved_params(self.error,
                                            self.error_params)),
            "imputer_params": (
                {} if self.imputer is None
                else IMPUTERS.resolved_params(self.imputer,
                                              self.imputer_params)),
            "audit": self.audit,
            "audit_params": dict(self.audit_params),
        }

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the full parameterization.

        sha256 over the canonical (sorted-key, no-whitespace) JSON of
        :meth:`params` — independent of process, platform, and
        ``PYTHONHASHSEED``, so parallel workers and later sessions
        agree on cache keys.  Parameter overrides are part of the
        hash: ``Celis-pp(tau=0.9)`` and ``Celis-pp`` are different
        cells.
        """
        canonical = json.dumps(self.params(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    @property
    def approach_label(self) -> str:
        if self.approach is None:
            return "LR"
        from ..registry import format_spec
        return format_spec(self.approach, self.approach_params)

    def label(self) -> str:
        """Compact human-readable cell description for progress lines."""
        parts = [self.dataset, self.approach_label, self.model,
                 f"seed={self.seed}"]
        if self.imputer is not None:
            parts.insert(2, f"imputer={self.imputer}")
        if self.error is not None:
            parts.insert(2, f"error={self.error}")
        if self.n_features is not None:
            parts.append(f"attrs={self.n_features}")
        if self.audit is not None:
            parts.append(f"audit={self.audit}")
        parts.append(f"n={self.rows}")
        return " ".join(parts)


def job_from_params(params) -> Job:
    """Reconstruct a :class:`Job` from a stored cache ``params`` block.

    Inverse of :meth:`Job.params` for the reporting path: a finished
    sweep cache fully describes its cells, so outcomes can be rebuilt
    without re-executing anything.  Stored component parameters are
    *resolved* (registry defaults were merged in at save time);
    entries that merely restate a currently-declared default are
    stripped back to overrides, so reconstructed jobs carry the same
    axis labels — and, for current-``SPEC_VERSION`` entries, the same
    fingerprints — as live ones.  Blocks written under an older
    ``spec_version`` still reconstruct (absent axes default, keys of
    removed fields are ignored), they just fingerprint differently.
    """
    from ..registry import APPROACHES, DATASETS, ERRORS, IMPUTERS, MODELS

    def overrides(registry, key) -> dict:
        stored = dict(params.get(f"{registry.family}_params") or {})
        if key is None or key not in registry:
            return stored
        defaults = registry.get(key).defaults
        return {name: value for name, value in stored.items()
                if not (name in defaults and defaults[name] == value)}

    dataset = params["dataset"]
    n_features = params.get("n_features")
    return Job(
        dataset=dataset,
        approach=params.get("approach"),
        model=params.get("model", "lr"),
        error=params.get("error"),
        imputer=params.get("imputer"),
        seed=int(params.get("seed", 0)),
        rows=int(params.get("rows", 4000)),
        n_features=None if n_features is None else int(n_features),
        causal_samples=int(params.get("causal_samples", 5000)),
        test_fraction=float(params.get("test_fraction", 0.3)),
        dataset_params=overrides(DATASETS, dataset),
        approach_params=overrides(APPROACHES, params.get("approach")),
        model_params=overrides(MODELS, params.get("model", "lr")),
        error_params=overrides(ERRORS, params.get("error")),
        imputer_params=overrides(IMPUTERS, params.get("imputer")),
        audit=params.get("audit"),
        audit_params=dict(params.get("audit_params") or {}),
    )


def _normalise_approach(name):
    """Map any baseline alias to ``None``; other specs pass through."""
    if name is None or (isinstance(name, str) and name in BASELINE_ALIASES):
        return None
    return name


def _as_tuple(name: str, values: Iterable | None, default: tuple) -> tuple:
    """Grid dimension ``name`` as a tuple (``None`` is ``default``); a
    scalar, a bare string included, or an empty dimension (which would
    expand to no cells) fails naming the dimension."""
    if values is None:
        values = default
    elif isinstance(values, (str, bytes)) or not isinstance(values,
                                                            Iterable):
        raise ValueError(
            f"{name} must be a list of values, got {values!r}")
    dimension = tuple(values)
    if not dimension:
        raise ValueError(
            f"{name} must list at least one value, got {values!r}")
    return dimension


def _check_json_params(params: dict, what: str) -> dict:
    try:
        json.dumps(params, sort_keys=True)
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} parameters must be JSON-serialisable literals, "
            f"got {params!r}") from None
    return params


def check_count(name: str, value, least: int = 1) -> int:
    """Reject a count that is not an integer >= ``least`` (bools and
    floats included) before any cell is scheduled; returns it as an
    ``int``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(
            f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_seconds(name: str, value, positive: bool = False) -> float:
    """Reject a duration that is not a finite real number of seconds
    (bools included), is negative, or is zero when ``positive``; returns
    it as a ``float``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
            or not (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be a number of seconds "
                         f"{'> 0' if positive else '>= 0'}, got {value!r}")
    return float(value)


def check_test_fraction(value) -> None:
    """Reject a test fraction outside the open interval (0, 1)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < 1):
        raise ValueError("test_fraction must lie strictly between 0 and "
                         f"1, got {value!r}")


def check_fingerprintable_params(spec: str, what: str) -> None:
    """Reject spec parameters that cannot enter a fingerprint.

    Parameter values are hashed as canonical JSON; a value that is a
    valid Python literal but not JSON-ready (e.g. a set) must fail at
    construction, not later inside :attr:`Job.fingerprint`.
    """
    from ..registry import parse_spec

    _check_json_params(parse_spec(spec)[1], what)


def check_reserved_params(spec: str | None, reserved: dict[str, str]
                          ) -> None:
    """Reject spec parameters the experiment protocol owns.

    ``reserved`` maps a parameter name to the field that controls it
    (e.g. the grid's ``rows``/``seeds`` dimensions); letting a spec
    set it too would make the cell's parameterization ambiguous.
    """
    if spec is None:
        return
    from ..registry import parse_spec

    key, params = parse_spec(spec)
    for name, owner in reserved.items():
        if name in params:
            raise ValueError(
                f"spec {spec!r} may not set {name!r}: it is controlled "
                f"by {owner}")


@dataclass(frozen=True)
class ScenarioGrid:
    """Declarative cross-product of experimental dimensions.

    Expands to ``datasets × approaches × models × errors × imputers ×
    seeds × rows × feature_counts`` jobs, in a deterministic nesting
    order, with duplicate cells removed.  Dimension values are
    registry specs — a bare key or a parameterized
    ``"key(param=value)"`` string / nested dict — validated against
    the live registries at construction so a typo (in a key *or* a
    parameter name) fails before any work is scheduled.

    ``approaches`` may contain ``None`` (or the aliases ``"baseline"``
    / ``"LR"``) for the fairness-unaware baseline; most figures want it
    as their first row.

    ``imputers`` entries repair any NaNs the error recipe left in the
    training split (``None`` = no repair).  Every cell reports all
    correctness and fairness metrics at once, so metrics are no grid
    dimension: :func:`~repro.engine.report.pivot` picks one at report
    time.

    ``audit="counterfactual"`` extends every cell with the rung-3
    counterfactual audit; ``audit_params`` (``n_particles``,
    ``max_rows``, ``n_bins``, ``n_samples``) tune its cost.

    ``rows``, ``feature_counts`` (``None`` = every feature) and
    ``causal_samples`` must be integers >= 1, ``seeds`` integers >= 0,
    and ``test_fraction`` must lie strictly between 0 and 1.  A grid
    is frozen, so it is the grid these checks passed:
    ``dataclasses.replace`` derives a changed one, checked anew.
    """

    datasets: Sequence[str]
    approaches: Sequence[str | None] = (None,)
    models: Sequence[str] = ("lr",)
    errors: Sequence[str | None] = (None,)
    imputers: Sequence[str | None] = (None,)
    seeds: Sequence[int] = (0,)
    rows: Sequence[int] = (4000,)
    feature_counts: Sequence[int | None] = (None,)
    causal_samples: int = 5000
    test_fraction: float = 0.3
    audit: str | None = None
    audit_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        from ..registry import APPROACHES, DATASETS, ERRORS, IMPUTERS, MODELS

        assign = functools.partial(object.__setattr__, self)  # frozen
        assign("datasets", tuple(
            DATASETS.canonical(d)
            for d in _as_tuple("datasets", self.datasets, ())))
        assign("approaches", tuple(
            None if _normalise_approach(a) is None
            else APPROACHES.canonical(a)
            for a in _as_tuple("approaches", self.approaches, (None,))))
        assign("models", tuple(
            MODELS.canonical(m)
            for m in _as_tuple("models", self.models, ("lr",))))
        assign("errors", tuple(
            None if e is None else ERRORS.canonical(e)
            for e in _as_tuple("errors", self.errors, (None,))))
        assign("imputers", tuple(
            None if i is None else IMPUTERS.canonical(i)
            for i in _as_tuple("imputers", self.imputers, (None,))))
        assign("seeds", tuple(check_count("seeds entries", s, least=0)
                              for s in _as_tuple("seeds", self.seeds, (0,))))
        assign("rows", tuple(check_count("rows entries", r)
                             for r in _as_tuple("rows", self.rows, (4000,))))
        assign("feature_counts", _as_tuple("feature_counts",
                                           self.feature_counts, (None,)))
        assign("audit_params", check_audit_params(self.audit,
                                                  self.audit_params))

        for dataset_spec in self.datasets:
            check_reserved_params(dataset_spec, {
                "n": "the rows dimension", "seed": "the seeds dimension"})
        for approach_spec in self.approaches:
            check_reserved_params(approach_spec,
                                  {"seed": "the seeds dimension"})
        for what, specs in (("dataset", self.datasets),
                            ("approach", self.approaches),
                            ("model", self.models),
                            ("error", self.errors),
                            ("imputer", self.imputers)):
            for spec in specs:
                if spec is not None:
                    check_fingerprintable_params(spec, what)
        for n_features in self.feature_counts:
            if n_features is not None:
                check_count("feature_counts entries", n_features)
        check_count("causal_samples", self.causal_samples)
        check_test_fraction(self.test_fraction)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of distinct jobs the grid expands to."""
        return len(self.expand())

    def expand(self) -> list[Job]:
        """The grid's deterministic, duplicate-free job list.

        The nesting order, outermost first, is datasets, rows,
        feature_counts, errors, imputers, models, approaches, seeds,
        so the list is reproducible across processes and sessions; cells
        that collapse to the same parameterization (e.g. a repeated
        approach name) appear once, at their first position.
        """
        from ..registry import parse_spec

        def parsed(specs):
            return [(None, {}) if spec is None else parse_spec(spec)
                    for spec in specs]

        jobs: dict[str, Job] = {}
        for ((dataset, dataset_params), n_rows, n_features,
             (error, error_params), (imputer, imputer_params),
             (model, model_params), (approach, approach_params),
             seed) in itertools.product(
                parsed(self.datasets), self.rows, self.feature_counts,
                parsed(self.errors), parsed(self.imputers),
                parsed(self.models), parsed(self.approaches), self.seeds):
            job = Job(
                dataset=dataset, approach=approach, model=model,
                error=error, imputer=imputer, seed=seed, rows=n_rows,
                n_features=n_features,
                causal_samples=self.causal_samples,
                test_fraction=self.test_fraction,
                dataset_params=dataset_params,
                approach_params=approach_params,
                model_params=model_params, error_params=error_params,
                imputer_params=imputer_params, audit=self.audit,
                audit_params=dict(self.audit_params),
            )
            jobs.setdefault(job.fingerprint, job)
        return list(jobs.values())

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        dims = []
        for name in ("datasets", "approaches", "models", "errors",
                     "imputers", "seeds", "rows", "feature_counts"):
            values = getattr(self, name)
            if len(values) > 1 or (len(values) == 1
                                   and values[0] is not None):
                dims.append(f"{len(values)} {name}")
        extras = f", audit={self.audit}" if self.audit else ""
        return f"grid of {self.size} cells ({', '.join(dims)}{extras})"
