"""Declarative experiment API: specs, config files, one-call runs.

This is the public facade over the registry + engine stack.  A single
experiment is an :class:`ExperimentSpec`, a whole grid is a
:class:`SweepSpec` (a :class:`~repro.engine.ScenarioGrid` plus engine
fields, run with ``spec.run(progress=, trace=, chaos=)``); both load
from / dump to plain mappings, so JSON and YAML scenario files fully
describe a run::

    from repro import api

    result = api.ExperimentSpec(dataset="compas",
                                approach="Celis-pp(tau=0.9)").run()

    report = api.sweep("examples/sweep.yaml",
                       progress=lambda p: print(p.line()))

Config schema (YAML shown; JSON is isomorphic)::

    sweep:
      datasets: [german]                    # registry specs
      approaches: [baseline, Hardt-eo, "Celis-pp(tau=0.9)"]
      models: [lr]
      errors: [null, t1]                    # null = clean data
      imputers: [null, mean, "knn(k=7)"]    # repairs NaNs (e.g. after
                                            # the `missing` recipe)
      seeds: [0, 1]                         # or an int: seeds 0..N-1
      rows: [400]
      causal_samples: 300
      audit: counterfactual                 # optional rung-3 audit
      audit_params: {n_particles: 20, max_rows: 40}
    engine:
      jobs: 2
      store: .sweep-cache                   # or sqlite:results.db (any
                                            # backend URI; none = no
                                            # caching)
      resume: true
      retry: 3                              # attempts per cell on
                                            # transient failures
      timeout: 600                          # per-cell deadline (s)
      backoff: 1.0                          # retry backoff base (s)
      max_failures: 10                      # circuit breaker
      pack_artifacts: true                  # store fitted components
                                            # next to each cached cell

A finished cache loads back without re-execution::

    report = api.report(".sweep-cache",
                        where={"dataset": "german", "error": "none"})

Every component entry is a :mod:`repro.registry` spec — a bare key,
a parameterized ``"key(param=value)"`` string, or the nested
``{key: ..., params: {...}}`` mapping — and the parameters feed the
cells' cache fingerprints, so a changed ``tau`` recomputes instead of
silently reusing a cached cell.  Every cell reports all metrics;
pick one at report time (``pivot``, ``repro report --pivot``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .engine import (Job, ResultCache, RetryPolicy, ScenarioGrid,
                     SweepReport, execute_job, run_sweep)
from .engine.backend import parse_store
from .engine.spec import check_count, check_seconds
from .pipeline.experiment import EvaluationResult

__all__ = ["ExperimentSpec", "SweepSpec", "load_config", "report",
           "run_spec", "sweep"]


# ----------------------------------------------------------------------
# Config files
# ----------------------------------------------------------------------
def load_config(path: str | Path) -> dict:
    """Load a JSON or YAML config file into a mapping.

    ``.json`` parses with the stdlib; ``.yaml``/``.yml`` needs PyYAML
    and fails with a clear message when it is missing.  Other suffixes
    try JSON first, then YAML.
    """
    path = Path(path)
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix == ".json":
        return json.loads(text)
    if suffix in (".yaml", ".yml"):
        return _parse_yaml(text, path)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return _parse_yaml(text, path)


def _parse_yaml(text: str, path: Path) -> dict:
    try:
        import yaml
    except ImportError:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            f"cannot load {path}: PyYAML is not installed; use a JSON "
            "config or install pyyaml") from None
    try:
        config = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"invalid YAML in {path}: {exc}") from None
    if not isinstance(config, Mapping):
        raise ValueError(f"config {path} must be a mapping, "
                         f"got {type(config).__name__}")
    return dict(config)


def _as_mapping(config, section: str) -> dict:
    """Accept a mapping, a config path, or a ``{section: {...}}``
    wrapper; return the flat field mapping (plus siblings)."""
    if isinstance(config, (str, Path)):
        config = load_config(config)
    if not isinstance(config, Mapping):
        raise TypeError(f"expected a mapping or config path, "
                        f"got {config!r}")
    config = dict(config)
    if section in config:
        inner = dict(config.pop(section) or {})
        overlap = set(inner) & set(config)
        if overlap:
            raise ValueError(
                f"fields {sorted(overlap)} appear both inside and "
                f"outside the {section!r} section")
        config.update(inner)
    return config


def _check_fields(config: Mapping, allowed: set[str], what: str) -> None:
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} config field(s) {unknown}; "
                         f"expected a subset of {sorted(allowed)}")


# ----------------------------------------------------------------------
# Single experiments
# ----------------------------------------------------------------------
@dataclass
class ExperimentSpec:
    """One fully-described experiment cell, config-file round-trippable.

    Component fields (``dataset``/``approach``/``model``/``error``/
    ``imputer``) are registry specs and are canonicalised (and
    validated) at construction; ``approach`` accepts the baseline
    aliases (``None``/``"baseline"``/``"LR"``).  ``rows`` must be an
    integer >= 1 and ``seed`` an integer >= 0; every other value is
    checked by the one-cell :class:`~repro.engine.ScenarioGrid` the
    spec describes.
    """

    dataset: str = "compas"
    approach: str | None = None
    model: str = "lr"
    error: str | None = None
    imputer: str | None = None
    seed: int = 0
    rows: int = 4000
    n_features: int | None = None
    causal_samples: int = 5000
    test_fraction: float = 0.3
    audit: str | None = None
    audit_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.seed = check_count("seed", self.seed, least=0)
        self.rows = check_count("rows", self.rows)
        if self.n_features is not None:
            check_count("n_features", self.n_features)
        grid = self._grid()  # checks and canonicalises everything else
        ((self.dataset,), (self.approach,), (self.model,), (self.error,),
         (self.imputer,)) = (grid.datasets, grid.approaches, grid.models,
                             grid.errors, grid.imputers)
        self.audit_params = grid.audit_params

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "ExperimentSpec":
        """Build from a mapping, a ``{"experiment": {...}}`` wrapper,
        or a JSON/YAML config path."""
        fields = _as_mapping(config, "experiment")
        allowed = {f.name for f in dataclasses.fields(cls)}
        _check_fields(fields, allowed, "experiment")
        return cls(**fields)

    def to_config(self) -> dict:
        """The spec as a JSON/YAML-ready mapping (full round trip:
        ``ExperimentSpec.from_config(spec.to_config()) == spec``)."""
        return dataclasses.asdict(self)

    # ------------------------------------------------------------------
    def _grid(self) -> ScenarioGrid:
        """The one-cell grid this spec describes."""
        return ScenarioGrid(
            datasets=[self.dataset], approaches=[self.approach],
            models=[self.model], errors=[self.error],
            imputers=[self.imputer], seeds=[self.seed], rows=[self.rows],
            feature_counts=[self.n_features],
            causal_samples=self.causal_samples,
            test_fraction=self.test_fraction, audit=self.audit,
            audit_params=self.audit_params)

    def to_job(self) -> Job:
        """The engine job this spec describes (same fingerprinting as
        a sweep cell, so single runs share the sweep cache)."""
        (job,) = self._grid().expand()
        return job

    def run(self) -> EvaluationResult:
        """Execute the experiment (load → split → corrupt → fit →
        evaluate → optional audit), deterministically in the spec."""
        return execute_job(self.to_job())


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec(ScenarioGrid):
    """A :class:`~repro.engine.ScenarioGrid` plus engine options.

    The grid fields, their checks and :meth:`expand` are the grid's
    own (every dimension entry is a registry spec); the fields below
    configure execution.  Construction validates everything against
    the live registries, so a typo in a key or parameter fails before
    any cell is scheduled.  A spec is frozen like its grid:
    ``dataclasses.replace`` derives a changed one and re-runs every
    check.
    """

    jobs: int = 1
    store: str | None = None
    resume: bool = True
    retry: int = 1
    timeout: float | None = None
    backoff: float = 0.0
    max_failures: int | None = None
    pack_artifacts: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        assign = functools.partial(object.__setattr__, self)  # frozen
        assign("jobs", check_count("jobs", self.jobs))
        assign("retry", check_count("retry", self.retry))
        if self.max_failures is not None:
            assign("max_failures", check_count("max_failures",
                                               self.max_failures, least=0))
        if self.timeout is not None:
            assign("timeout", check_seconds("timeout", self.timeout,
                                            positive=True))
        assign("backoff", check_seconds("backoff", self.backoff))
        if self.store == "none":
            if self.pack_artifacts:
                raise ValueError(
                    "pack_artifacts stores fitted components in the "
                    "result store; it cannot be combined with store none")
        elif self.store is not None:
            parse_store(self.store)  # a bad URI fails before any cell

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "SweepSpec":
        """Build from a ``{"sweep": {...}, "engine": {...}}`` mapping,
        a flat mapping, or a JSON/YAML config path.

        ``seeds`` may be an integer N (meaning seeds ``0..N-1``).
        """
        fields = _as_mapping(config, "sweep")
        fields = _as_mapping(fields, "engine")
        allowed = {f.name for f in dataclasses.fields(cls)}
        _check_fields(fields, allowed, "sweep")
        seeds = fields.get("seeds")
        if isinstance(seeds, numbers.Integral):
            fields["seeds"] = list(range(check_count("seeds count", seeds)))
        return cls(**fields)

    def to_config(self) -> dict:
        """``{"sweep": {...}, "engine": {...}}`` mapping (full round
        trip: ``SweepSpec.from_config(spec.to_config()) == spec``)."""
        grid = {f.name for f in dataclasses.fields(ScenarioGrid)}
        config = {"sweep": {}, "engine": {}}
        for name, value in dataclasses.asdict(self).items():
            config["sweep" if name in grid else "engine"][name] = (
                list(value) if isinstance(value, tuple) else value)
        return config

    # ------------------------------------------------------------------
    def to_grid(self) -> ScenarioGrid:
        """The grid this spec declares: the spec itself."""
        return self

    def to_policy(self) -> RetryPolicy:
        """The :class:`~repro.engine.RetryPolicy` the engine fields
        declare (the no-op default policy when none are set)."""
        return RetryPolicy(max_attempts=self.retry,
                           timeout=self.timeout, backoff=self.backoff,
                           max_failures=self.max_failures)

    def run(self, progress=None, trace=None, chaos=None) -> SweepReport:
        """Expand and execute the grid with the spec's engine options.

        ``progress`` is called with a
        :class:`~repro.engine.SweepProgress` after every finished cell.

        ``trace`` turns on telemetry: pass a directory path to record
        the sweep and write ``events.jsonl`` + ``trace.json`` there, or
        a :class:`~repro.obs.TraceCollector` to collect without writing
        (inspect or ``.write()`` it yourself).

        ``chaos`` injects deterministic faults for resilience testing:
        a :class:`~repro.engine.FaultPlan`, an inline spec string, or
        a plan file path (see :mod:`repro.engine.chaos`).

        ``store`` names the result store (``None`` or ``"none"``: no
        caching).  With ``pack_artifacts`` each computed cell's fitted
        components are packed into its store artifact slot, so ``repro
        pack`` later builds serving bundles without re-fitting
        (requires ``store``).
        """
        cache = (None if self.store in (None, "none")
                 else ResultCache(self.store))
        trace_dir, collector = _resolve_trace(trace)
        report = run_sweep(
            self.expand(), cache=cache, max_workers=self.jobs,
            resume=self.resume, progress=progress, trace=collector,
            policy=self.to_policy(), chaos=chaos,
            pack=self.pack_artifacts)
        if trace_dir is not None:
            collector.write(trace_dir)
        return report


# ----------------------------------------------------------------------
# One-call conveniences
# ----------------------------------------------------------------------
def check_output(name: str, path, directory: bool) -> None:
    """Fail by ``name``, before any work, for an output path that
    cannot be written: a ``directory`` output must be a directory or
    absent, a file output must not be a directory, and the closest
    existing ancestor of an absent path must be a directory."""
    if path is None:
        return
    target = Path(path)
    if target.exists():
        if target.is_dir() != directory:
            wanted, found = (("a directory", "a file") if directory
                             else ("a file", "a directory"))
            raise ValueError(
                f"{name} must name {wanted}, but {str(path)!r} is {found}")
        return
    ancestor = next(p for p in target.parents if p.exists())
    if not ancestor.is_dir():
        raise ValueError(f"{name} {str(path)!r} cannot be created: "
                         f"{str(ancestor)!r} is a file")


def _resolve_trace(trace):
    """Normalise a ``trace`` argument: ``None`` → no telemetry, a
    path → checked now (:func:`check_output`) and a fresh collector
    written there after the run, a :class:`~repro.obs.TraceCollector`
    → used as-is (caller writes)."""
    if trace is None:
        return None, None
    from . import obs

    if isinstance(trace, obs.TraceCollector):
        return None, trace
    check_output("trace", trace, directory=True)
    return Path(trace), obs.TraceCollector(env=obs.environment_info())


def run_spec(config) -> EvaluationResult:
    """Run a single experiment from a spec, mapping, or config path."""
    if isinstance(config, ExperimentSpec):
        return config.run()
    return ExperimentSpec.from_config(config).run()


def sweep(config, progress=None, trace=None, chaos=None) -> SweepReport:
    """Run a sweep from a spec, mapping, or config path.

    ``trace`` records telemetry: a directory path (events + Chrome
    trace written there) or a :class:`~repro.obs.TraceCollector`.
    ``chaos`` injects deterministic faults (plan, inline spec, or plan
    file — see :mod:`repro.engine.chaos`).
    """
    spec = (config if isinstance(config, SweepSpec)
            else SweepSpec.from_config(config))
    return spec.run(progress=progress, trace=trace, chaos=chaos)


def report(store, where: Mapping | None = None) -> SweepReport:
    """Load a finished sweep cache as a :class:`SweepReport` — the
    cache is the query surface, nothing is re-executed.

    ``store`` is a directory path or a store URI (``file:DIR`` or
    ``sqlite:PATH``) — see :mod:`repro.engine.backend`.  Every cached
    cell's stored ``params`` block is reconstructed into its job, so
    the returned outcomes support the full aggregation toolkit
    (``grid_table``/``pivot``/``overhead_series``/exports) exactly
    like a live sweep's, with the baseline ordered first per dataset.
    ``where`` filters by any job axis before returning, e.g.
    ``{"dataset": "adult", "approach": "Celis-pp(tau=0.9)"}`` (run in
    the row scan on SQL backends).

    Raises
    ------
    FileNotFoundError
        If the store does not exist (an existing-but-empty cache
        returns an empty report instead).
    """
    cache = ResultCache(store)
    if not cache.exists():
        raise FileNotFoundError(f"no sweep cache at {cache.location}")
    outcomes = cache.outcomes(where=where or None)
    return SweepReport(outcomes=outcomes)
