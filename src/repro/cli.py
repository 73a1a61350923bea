"""Command-line interface: run and compare fair-classification
approaches from the shell.

Examples
--------
List every registered component with its defaults::

    python -m repro list

Evaluate three approaches against the baseline on COMPAS (any
component accepts registry parameters inline)::

    python -m repro run --dataset compas --approach KamCal-dp \
        --approach "Celis-pp(tau=0.9)" --model "knn(k=7)"

Audit the fairness-unaware baseline only::

    python -m repro audit --dataset adult --rows 4000

Both run their cells through the sweep engine; keep them in a result
store and report on them later::

    python -m repro run --dataset german --store sqlite:runs.db
    python -m repro report --store sqlite:runs.db

Sweep a full scenario grid in parallel with result caching::

    python -m repro sweep --dataset compas --approach KamCal-dp \
        --approach Hardt-eo --seeds 3 --jobs 4 --store .sweep-cache

Run the same kind of sweep from a declarative scenario file::

    python -m repro sweep --config examples/sweep.yaml

Make an hours-long sweep survive flaky infrastructure — retries with
backoff, per-cell deadlines, a circuit breaker — or soak-test that
very machinery with deterministic fault injection::

    python -m repro sweep --config examples/sweep.yaml \
        --retry 3 --timeout 600 --backoff 1 --max-failures 10
    python -m repro sweep --config examples/sweep.yaml \
        --retry 3 --chaos 'transient:seed=0@0;kill:Hardt@0'

Audit a sweep cache for corrupt or stale shards (and delete them so
the next sweep recomputes exactly those cells)::

    python -m repro cache verify --store .sweep-cache --repair

Query a finished sweep's cache — tables, pivots, exports — without
re-executing anything::

    python -m repro report --store .sweep-cache \
        --where error=missing --pivot approach imputer accuracy

Record a sweep's telemetry and inspect it (also openable in
Perfetto / ``chrome://tracing`` via ``DIR/trace.json``)::

    python -m repro sweep --config examples/sweep.yaml --trace DIR
    python -m repro trace DIR --by error --check

Print the environment block traces embed (versions, BLAS, thread
caps)::

    python -m repro doctor

Pack one finished cell's fitted components into a serving bundle, look
inside it, then serve online audits from it::

    python -m repro sweep --config examples/sweep.yaml --pack-artifacts
    python -m repro pack --store .sweep-cache \
        --where approach=Hardt-eo seed=0 --out audit-bundle
    python -m repro inspect audit-bundle
    python -m repro serve audit-bundle --port 8399

Browse the paper's Figure 3 notion catalog::

    python -m repro notions --association causal

Get a stage recommendation for a deployment profile (Section 5)::

    python -m repro recommend --notion error-rate --dirty-data
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from collections.abc import Sequence

from .api import SweepSpec, check_output
from .engine import ResultCache, grid_table
from .engine.executor import CELL_AXES
from .engine.spec import check_count
from .fairness import Stage
from .metrics.notions import (Association, CausalHierarchy, Granularity,
                              catalog)
from .pipeline import ApplicationProfile, format_results_table, recommend
from .registry import (APPROACHES, DATASETS, ERRORS, IMPUTERS, METRICS,
                       MODELS, format_spec, parse_spec)


def _spec_argument(registry):
    """argparse ``type=`` validating a registry spec (key + params)."""
    def parse(text: str) -> str:
        try:
            return registry.canonical(text)
        except (KeyError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = registry.family  # for argparse error messages
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Through the Data Management Lens' "
                    "(SIGMOD 2022): fair-classification benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="list every registered component with defaults")
    list_cmd.add_argument("--family", default=None,
                          choices=["datasets", "models", "approaches",
                                   "errors", "imputers", "metrics"],
                          help="restrict to one component family")
    list_cmd.set_defaults(func=cmd_list)

    for name, help_text in (("run", "evaluate approaches vs the baseline"),
                            ("audit", "score the fairness-unaware "
                                      "baseline")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--dataset", choices=sorted(DATASETS.keys()),
                         default="compas")
        cmd.add_argument("--rows", type=int, default=4000,
                         help="synthetic sample size")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--causal-samples", type=int, default=5000,
                         help="Monte-Carlo samples for TE/NDE/NIE")
        cmd.add_argument("--model", type=_spec_argument(MODELS),
                         default="lr", metavar="SPEC",
                         help="downstream model family, with optional "
                              "parameters, e.g. lr or 'knn(k=7)' "
                              "(ignored by in-processing approaches)")
        cmd.add_argument("--store", metavar="URI", default=None,
                         help="keep the cells in a result store: "
                              "file:DIR or sqlite:PATH (read them back "
                              "with `repro report --store`)")
        if name == "run":
            cmd.add_argument("--approach", action="append", default=[],
                             metavar="SPEC",
                             help="approach to run, with optional "
                                  "parameters, e.g. 'Celis-pp(tau=0.9)' "
                                  "(repeatable; default: one per stage)")
            cmd.set_defaults(func=cmd_run)
        else:
            cmd.set_defaults(func=cmd_audit)

    sweep_cmd = sub.add_parser(
        "sweep", help="run a scenario grid in parallel with caching")
    sweep_cmd.add_argument("--config", metavar="FILE", default=None,
                           help="declarative JSON/YAML scenario file "
                                "(replaces the grid flags below)")
    sweep_cmd.add_argument("--dataset", action="append", default=[],
                           choices=sorted(DATASETS.keys()), metavar="NAME",
                           help="dataset to include (repeatable; "
                                "default: compas)")
    sweep_cmd.add_argument("--approach", action="append", default=[],
                           metavar="SPEC",
                           help="approach to include, with optional "
                                "parameters (repeatable; default: one "
                                "per stage)")
    sweep_cmd.add_argument("--model", action="append", default=[],
                           type=_spec_argument(MODELS), metavar="SPEC",
                           help="downstream model family (repeatable; "
                                "default: lr)")
    sweep_cmd.add_argument("--error", action="append", default=[],
                           type=_spec_argument(ERRORS), metavar="RECIPE",
                           help="training-data corruption recipe "
                                "(repeatable; default: clean data)")
    sweep_cmd.add_argument("--imputer", action="append", default=[],
                           type=_spec_argument(IMPUTERS), metavar="SPEC",
                           help="imputer repairing NaNs in the training "
                                "split, e.g. after --error missing "
                                "(repeatable; default: none)")
    sweep_cmd.add_argument("--seeds", type=int, default=None,
                           help="number of seeds per cell (0..N-1; "
                                "default: 1)")
    sweep_cmd.add_argument("--rows", type=int, action="append",
                           default=[], metavar="N",
                           help="sample size (repeatable for "
                                "scalability sweeps; default: 4000)")
    sweep_cmd.add_argument("--causal-samples", type=int, default=None,
                           help="Monte-Carlo samples for TE/NDE/NIE "
                                "(default: 5000, or the config's value)")
    sweep_cmd.add_argument("--audit", default=None,
                           choices=["counterfactual"],
                           help="extend every cell with the rung-3 "
                                "counterfactual audit")
    sweep_cmd.add_argument("--no-baseline", action="store_true",
                           help="omit the fairness-unaware LR baseline "
                                "cells")
    sweep_cmd.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="worker processes (default 1 = serial)")
    sweep_cmd.add_argument("--store", metavar="URI", default=None,
                           help="content-addressed result store: "
                                "file:DIR (sharded JSON; a bare DIR "
                                "means the same) or sqlite:PATH (one "
                                "database file); default: the "
                                "config's store, else .sweep-cache; "
                                "'none' disables caching")
    sweep_cmd.add_argument("--resume", default=None,
                           action=argparse.BooleanOptionalAction,
                           help="reuse cached cells (--no-resume "
                                "recomputes and refreshes them)")
    sweep_cmd.add_argument("--retry", type=int, default=None,
                           metavar="N",
                           help="attempts per cell on transient "
                                "failures and timeouts (default 1 = "
                                "no retries; deterministic errors "
                                "always fail fast)")
    sweep_cmd.add_argument("--timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="per-cell deadline; a cell running "
                                "past it has its worker killed and is "
                                "re-queued (consumes an attempt)")
    sweep_cmd.add_argument("--backoff", type=float, default=None,
                           metavar="SECONDS",
                           help="base sleep before retry k: "
                                "backoff * 2^(k-1) (deterministic, "
                                "no jitter; default 0)")
    sweep_cmd.add_argument("--max-failures", type=int, default=None,
                           metavar="N",
                           help="circuit breaker: abort the sweep "
                                "once more than N cells have "
                                "terminally failed")
    sweep_cmd.add_argument("--pack-artifacts", action="store_true",
                           default=None,
                           help="also store each computed cell's "
                                "fitted components (model, SCM, "
                                "encoding, reference) in the cache, "
                                "so `repro pack` never refits")
    sweep_cmd.add_argument("--chaos", metavar="PLAN", default=None,
                           help="inject deterministic faults: an "
                                "inline spec like "
                                "'transient:seed=0@0;kill:Hardt@0' "
                                "or a JSON/YAML plan file (resilience "
                                "soak testing)")
    sweep_cmd.add_argument("--trace", metavar="DIR", default=None,
                           help="record telemetry and write "
                                "events.jsonl + trace.json (Chrome "
                                "trace-event) into DIR")
    sweep_cmd.add_argument("-v", "--verbose", action="count", default=0,
                           help="per-phase timings in each progress "
                                "line (implies trace collection)")
    sweep_cmd.add_argument("-q", "--quiet", action="store_true",
                           help="suppress per-cell progress lines")
    sweep_cmd.set_defaults(func=cmd_sweep)

    cache_cmd = sub.add_parser(
        "cache", help="inspect, repair, compact, and merge sweep "
                      "result caches")
    cache_cmd.add_argument("action",
                           choices=["verify", "compact", "merge"],
                           help="verify: walk every entry and report "
                                "corrupt, stale, mismatched, or "
                                "orphaned ones; compact: fold stale "
                                "spec-version duplicates and reclaim "
                                "space; merge: copy SRC's cells into "
                                "DST (insert-or-ignore on "
                                "fingerprint, newest spec_version "
                                "wins)")
    cache_cmd.add_argument("stores", nargs="*", metavar="STORE",
                           help="for merge: SRC DST store URIs or "
                                "directories (e.g. file:host1-cache "
                                "sqlite:merged.db)")
    cache_cmd.add_argument("--store", metavar="URI",
                           default=".sweep-cache",
                           help="store URI to operate on (file:DIR / "
                                "sqlite:PATH; default: .sweep-cache; "
                                "verify/compact only)")
    cache_cmd.add_argument("--repair", action="store_true",
                           help="delete defective entries so the next "
                                "sweep recomputes exactly those cells")
    cache_cmd.set_defaults(func=cmd_cache)

    doctor_cmd = sub.add_parser(
        "doctor", help="print environment diagnostics (versions, BLAS, "
                       "thread caps, kernel defaults)")
    doctor_cmd.set_defaults(func=cmd_doctor)

    trace_cmd = sub.add_parser(
        "trace", help="summarize a recorded sweep trace")
    trace_cmd.add_argument("trace_dir", metavar="DIR",
                           help="directory written by sweep --trace "
                                "(or its events.jsonl)")
    trace_cmd.add_argument("--top", type=int, default=10, metavar="N",
                           help="slowest spans to list (default: 10)")
    trace_cmd.add_argument("--by", default=None, metavar="AXIS",
                           choices=CELL_AXES,
                           help="per-phase totals grouped by a grid "
                                f"axis: {', '.join(CELL_AXES)}")
    trace_cmd.add_argument("--check", action="store_true",
                           help="verify every computed cell recorded "
                                "its expected phase spans and the "
                                "phases cover its elapsed time; "
                                "exit 1 otherwise")
    trace_cmd.set_defaults(func=cmd_trace)

    report_cmd = sub.add_parser(
        "report", help="query a finished sweep cache (no re-execution)")
    report_cmd.add_argument("--store", metavar="URI",
                            default=".sweep-cache",
                            help="store URI to load (file:DIR / "
                                 "sqlite:PATH; default: .sweep-cache); "
                                 "on sqlite stores --where filters run "
                                 "in the row scan")
    report_cmd.add_argument("--where", nargs="*", default=[],
                            metavar="AXIS=VALUE",
                            help="filter cells by job axes, e.g. "
                                 "dataset=adult error=none "
                                 "approach='Celis-pp(tau=0.9)'")
    report_cmd.add_argument("--pivot", nargs=3, action="append",
                            default=[],
                            metavar=("INDEX", "COLUMNS", "VALUE"),
                            help="print a two-way pivot; VALUE is a "
                                 "metric field or any raw/audit key "
                                 "(e.g. cf_mean_gap); repeatable")
    report_cmd.add_argument("--overhead", nargs="?", const="rows",
                            default=None, metavar="AXIS",
                            help="print the Figure 8 overhead series "
                                 "along AXIS (default: rows)")
    report_cmd.add_argument("--no-tables", action="store_true",
                            help="skip the per-dataset Figure 7 tables")
    report_cmd.add_argument("--export-json", metavar="FILE", default=None,
                            help="write flat per-cell records as JSON")
    report_cmd.add_argument("--export-csv", metavar="FILE", default=None,
                            help="write flat per-cell records as CSV")
    report_cmd.set_defaults(func=cmd_report)

    pack_cmd = sub.add_parser(
        "pack", help="build a serving bundle from a finished sweep cell")
    pack_cmd.add_argument("--store", metavar="URI",
                          default=".sweep-cache",
                          help="store URI holding the cell "
                               "(default: .sweep-cache)")
    pack_cmd.add_argument("--where", nargs="*", default=[],
                          metavar="AXIS=VALUE",
                          help="select exactly one cached cell by job "
                               "axes, e.g. approach=Hardt-eo seed=0")
    pack_cmd.add_argument("--fingerprint", metavar="PREFIX", default=None,
                          help="select the cell by (a prefix of) its "
                               "cache fingerprint instead")
    pack_cmd.add_argument("--out", metavar="DIR", required=True,
                          help="bundle directory to create")
    pack_cmd.add_argument("--force", action="store_true",
                          help="overwrite an existing bundle at --out")
    pack_cmd.set_defaults(func=cmd_pack)

    inspect_cmd = sub.add_parser(
        "inspect", help="print a serving bundle's manifest")
    inspect_cmd.add_argument("bundle", metavar="DIR",
                             help="bundle directory written by "
                                  "`repro pack`")
    inspect_cmd.set_defaults(func=cmd_inspect)

    serve_cmd = sub.add_parser(
        "serve", help="serve online fairness audits from a bundle")
    serve_cmd.add_argument("bundle", metavar="DIR",
                           help="bundle directory written by "
                                "`repro pack`")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8399,
                           help="bind port (default: 8399; 0 picks a "
                                "free port)")
    serve_cmd.add_argument("--max-requests", type=int, default=None,
                           metavar="N",
                           help="shut down after N handled requests "
                                "(smoke tests and CI)")
    serve_cmd.add_argument("--trace", metavar="DIR", default=None,
                           help="record request telemetry and write "
                                "events.jsonl + trace.json into DIR "
                                "on shutdown")
    serve_cmd.set_defaults(func=cmd_serve)

    describe_cmd = sub.add_parser(
        "describe", help="summarise a dataset: stats, bias, MVD check")
    describe_cmd.add_argument("--dataset", choices=sorted(DATASETS.keys()),
                              default="compas")
    describe_cmd.add_argument("--rows", type=int, default=4000)
    describe_cmd.add_argument("--seed", type=int, default=0)
    describe_cmd.set_defaults(func=cmd_describe)

    notions_cmd = sub.add_parser(
        "notions", help="browse the Figure 3 fairness-notion catalog")
    notions_cmd.add_argument(
        "--association", choices=[a.value for a in Association],
        default=None)
    notions_cmd.add_argument(
        "--granularity", choices=[g.value for g in Granularity],
        default=None)
    notions_cmd.add_argument(
        "--hierarchy", choices=[h.value for h in CausalHierarchy],
        default=None)
    notions_cmd.add_argument("--implemented-only", action="store_true")
    notions_cmd.set_defaults(func=cmd_notions)

    rec_cmd = sub.add_parser(
        "recommend", help="Section 5 advisor: rank stages for a profile")
    rec_cmd.add_argument(
        "--notion", dest="target_notion", default="demographic-parity",
        choices=["demographic-parity", "error-rate", "causal", "individual"])
    rec_cmd.add_argument("--fixed-model", action="store_true",
                         help="the learning algorithm cannot be replaced")
    rec_cmd.add_argument("--no-retraining", action="store_true",
                         help="the model cannot be retrained at all")
    rec_cmd.add_argument("--frozen-data", action="store_true",
                         help="training data may not be modified")
    rec_cmd.add_argument("--causal-model", action="store_true",
                         help="a causal graph is available")
    rec_cmd.add_argument("--high-dimensional", action="store_true")
    rec_cmd.add_argument("--large-data", action="store_true")
    rec_cmd.add_argument("--dirty-data", action="store_true")
    rec_cmd.add_argument("--runtime-critical", action="store_true")
    rec_cmd.add_argument("--accuracy-first", action="store_true",
                         help="prioritise accuracy over fairness")
    rec_cmd.set_defaults(func=cmd_recommend)
    return parser


def cmd_list(args: argparse.Namespace) -> int:
    def want(family: str) -> bool:
        return args.family is None or args.family == family

    if want("datasets"):
        print("datasets:")
        for component in DATASETS.components():
            print(f"  {component.describe()}")
    if want("models"):
        print("models:")
        for component in MODELS.components():
            print(f"  {component.describe()}")
    if want("approaches"):
        print("approaches:")
        for stage in (Stage.PRE, Stage.IN, Stage.POST):
            print(f"  [{stage.value}]")
            for component in APPROACHES.components(stage=stage):
                label = format_spec(component.key, component.defaults)
                flags = " [stochastic]" if component.stochastic else ""
                print(f"    {label:36s} targets "
                      f"{component.metadata['notion'].value}{flags}")
    if want("errors"):
        print("errors:")
        for component in ERRORS.components():
            print(f"  {component.describe()}")
    if want("imputers"):
        print("imputers:")
        for component in IMPUTERS.components():
            print(f"  {component.describe()}")
    if want("metrics"):
        print("metrics:")
        for component in METRICS.components():
            print(f"  {component.describe()}")
    return 0


def _evaluate(args: argparse.Namespace,
              approaches: Sequence[str | None]) -> int:
    """``repro run``/``repro audit``: one sweep cell per approach,
    through the engine (``--store`` keeps the cells for ``repro
    report``)."""
    try:
        spec = SweepSpec(datasets=[args.dataset], approaches=approaches,
                         models=[args.model], seeds=[args.seed],
                         rows=[args.rows],
                         causal_samples=args.causal_samples,
                         store=args.store)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    report = spec.run()
    for failure in report.failures:
        print(f"\nFAILED {failure.job.label()}:\n{failure.error}",
              file=sys.stderr)
    if report.failures:
        return 1
    print(format_results_table(
        report.results,
        title=f"{args.dataset} (n={args.rows}, seed={args.seed})"))
    if spec.store not in (None, "none"):
        print(f"cells stored in {ResultCache(spec.store).location}")
    return 0


def _grid_flags(args: argparse.Namespace) -> dict:
    """The sweep config ``repro sweep``'s grid flags spell."""
    approaches = args.approach or ["KamCal-dp", "Zafar-dp-fair",
                                   "Hardt-eo"]
    return {"datasets": args.dataset or ["compas"],
            "approaches": (approaches if args.no_baseline
                           else [None, *approaches]),
            "models": args.model or ["lr"],
            "errors": [None, *args.error],
            "imputers": args.imputer or [None],
            "seeds": 1 if args.seeds is None else args.seeds,
            "rows": args.rows or [4000]}


#: ``repro sweep`` flags that, when given, override the spec field of
#: the same name (over a config file, or over the grid flags' spec).
_OVERRIDE_FLAGS = ("causal_samples", "audit", "jobs", "store", "resume",
                   "retry", "timeout", "backoff", "max_failures",
                   "pack_artifacts")


def cmd_sweep(args: argparse.Namespace) -> int:
    grid_flags_used = bool(args.dataset or args.approach or args.model
                           or args.error or args.imputer or args.rows
                           or args.seeds is not None or args.no_baseline)
    chaos = None
    if args.chaos is not None:
        from .engine import FaultPlan
        try:
            chaos = FaultPlan.load(args.chaos)
        except FileNotFoundError:
            print(f"error: chaos plan file {args.chaos!r} not found",
                  file=sys.stderr)
            return 2
        except IsADirectoryError:
            print(f"error: --chaos must name a file, but {args.chaos!r} "
                  "is a directory", file=sys.stderr)
            return 2
        except (ValueError, KeyError, TypeError, RuntimeError) as exc:
            print(f"error: invalid chaos plan {args.chaos!r}: {exc}",
                  file=sys.stderr)
            return 2

    if args.config is not None:
        if grid_flags_used:
            print("error: --config replaces the grid flags; drop "
                  "--dataset/--approach/--model/--error/--imputer/"
                  "--seeds/--rows/--no-baseline",
                  file=sys.stderr)
            return 2
        try:
            spec = SweepSpec.from_config(args.config)
        except FileNotFoundError:
            print(f"error: config file {args.config!r} not found",
                  file=sys.stderr)
            return 2
        except IsADirectoryError:
            print(f"error: --config must name a file, but {args.config!r} "
                  "is a directory", file=sys.stderr)
            return 2
        except (KeyError, ValueError, TypeError, RuntimeError) as exc:
            print(f"error: invalid config {args.config!r}: {exc}",
                  file=sys.stderr)
            return 2
    overrides = {name: getattr(args, name) for name in _OVERRIDE_FLAGS
                 if getattr(args, name) is not None}
    try:
        check_output("--trace", args.trace, directory=True)
        if args.config is None:
            spec = SweepSpec.from_config(_grid_flags(args))
        # The CLI caches by default; a config turns caching off with
        # store: none.
        overrides.setdefault("store", spec.store or ".sweep-cache")
        spec = dataclasses.replace(spec, **overrides)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}",
              file=sys.stderr)
        return 2
    description = spec.describe()
    print(description + (
        ", caching disabled" if spec.store == "none"
        else f", cache at {ResultCache(spec.store).location}"))

    from . import obs

    # Progress (and obs warnings) go through logging on stderr so they
    # never interleave with the stdout tables; the handler is attached
    # per invocation and removed after, so repeated main() calls (the
    # test-suite) never write to a stale stream.
    logger = logging.getLogger("repro")
    logger.setLevel(logging.WARNING if args.quiet else logging.INFO)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    progress = obs.LoggingProgress(
        verbosity=-1 if args.quiet else args.verbose)
    # -v needs per-cell fragments for its phase breakdowns, so it
    # collects a trace even when none is written to disk.
    collector = (obs.TraceCollector(env=obs.environment_info(),
                                    meta={"grid": description})
                 if args.trace is not None or args.verbose else None)
    if chaos is not None:
        print(f"chaos plan active: {chaos.describe()}")
    try:
        report = spec.run(progress=progress, trace=collector, chaos=chaos)
    finally:
        logger.removeHandler(handler)
    if args.trace is not None:
        collector.write(args.trace)
        print(f"trace written to {args.trace} "
              f"(inspect with `repro trace {args.trace}`)")
    for dataset_spec in spec.datasets:
        dataset = parse_spec(dataset_spec)[0]
        print()
        print(grid_table(report.outcomes, dataset=dataset,
                         title=f"{dataset} (seed-averaged over "
                               f"{len(spec.seeds)} seeds)"))
    print()
    print(f"sweep finished: {report.summary()}")
    for failure in report.failures:
        print(f"\nFAILED {failure.job.label()}:\n{failure.error}",
              file=sys.stderr)
    if report.interrupted:
        # Distinct status (SIGINT convention): partial results are
        # cached, a re-run resumes from them.
        return 130
    return 1 if report.failures else 0


def _parse_where(pairs: Sequence[str]) -> dict:
    """Parse ``AXIS=VALUE`` CLI tokens into a filter mapping."""
    where = {}
    for pair in pairs:
        axis, sep, value = pair.partition("=")
        if not sep or not axis:
            raise ValueError(f"--where expects AXIS=VALUE, got {pair!r}")
        where[axis] = value
    return where


def cmd_report(args: argparse.Namespace) -> int:
    from .engine import (export_csv, export_json, format_pivot_table,
                         grid_slices)
    from .engine.report import check_axes
    from .pipeline.report import format_runtime_table

    axes = [axis for index, columns, _ in args.pivot
            for axis in (index, columns)]
    if args.overhead is not None:
        axes.append(args.overhead)
    try:
        check_axes(axes)
        check_output("--export-json", args.export_json, directory=False)
        check_output("--export-csv", args.export_csv, directory=False)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        cache = ResultCache(args.store)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not cache.exists():
        print(f"error: no sweep cache at {cache.location}",
              file=sys.stderr)
        return 2
    try:
        where = _parse_where(args.where)
        if len(cache) == 0:
            print(f"error: sweep cache at {cache.location} is empty — "
                  "nothing to report (run `repro sweep` first)",
                  file=sys.stderr)
            return 2
        outcomes = cache.outcomes(where=where or None)
        # Every requested view is computed before anything renders, so
        # a bad --pivot metric fails before the first table prints (an
        # empty selection renders nothing and exits 1 below).
        if outcomes:
            pivots = [(index, columns, value,
                       cache.pivot(index=index, columns=columns,
                                   value=value, outcomes=outcomes))
                      for index, columns, value in args.pivot]
            series = (None if args.overhead is None
                      else cache.overhead_series(sweep=args.overhead,
                                                 outcomes=outcomes))
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    selection = f" matching {' '.join(args.where)}" if where else ""
    print(f"{len(outcomes)} cached cells{selection} in "
          f"{cache.location}")
    if not outcomes:
        return 1

    if not args.no_tables:
        datasets: list[str] = []
        for outcome in outcomes:
            if outcome.job.dataset not in datasets:
                datasets.append(outcome.job.dataset)
        for dataset in datasets:
            selected = [o for o in outcomes if o.job.dataset == dataset]
            seeds = {o.job.seed for o in selected}
            # One table per combination of varying non-approach axes,
            # so e.g. clean and corrupted cells never render as
            # identically-labelled rows of one table.
            for label, cells in grid_slices(selected):
                qualifier = f"{label}, " if label else ""
                print()
                print(grid_table(cells, dataset=dataset,
                                 title=f"{dataset} ({qualifier}"
                                       f"seed-averaged over "
                                       f"{len(seeds)} seeds)"))

    for index, columns, value, table in pivots:
        print()
        print(format_pivot_table(table, index=index, columns=columns,
                                 value=value))

    if series is not None:
        print()
        print(format_runtime_table(
            list(series.items()), sweep_label=args.overhead,
            title=f"fit-time overhead vs baseline by {args.overhead}"))

    if args.export_json is not None:
        print(f"wrote {export_json(outcomes, args.export_json)}")
    if args.export_csv is not None:
        print(f"wrote {export_csv(outcomes, args.export_csv)}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "merge":
        return _cmd_cache_merge(args)
    if args.stores:
        print(f"error: cache {args.action} takes no positional "
              "stores (use --store)", file=sys.stderr)
        return 2
    try:
        cache = ResultCache(args.store)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not cache.exists():
        print(f"error: no sweep cache at {cache.location}",
              file=sys.stderr)
        return 2
    if args.action == "compact":
        try:
            stats = cache.compact()
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"compacted {cache.location}: {stats.describe()}")
        return 0
    try:
        problems = cache.verify(repair=args.repair)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = len(cache) + (len(problems) if args.repair else 0)
    if not problems:
        print(f"cache at {cache.location} is healthy: {total} "
              f"entries verified")
        return 0
    for problem in problems:
        print(problem.describe(), file=sys.stderr)
    if args.repair:
        print(f"repaired: deleted {len(problems)} defective of "
              f"{total} entries (the next sweep recomputes exactly "
              f"those cells)")
        return 0
    print(f"{len(problems)} defective of {total} entries "
          f"(re-run with --repair to delete them)")
    return 1


def _cmd_cache_merge(args: argparse.Namespace) -> int:
    if len(args.stores) != 2:
        print("error: cache merge takes exactly two stores: "
              "`repro cache merge SRC DST`", file=sys.stderr)
        return 2
    try:
        src = ResultCache(args.stores[0])
        dst = ResultCache(args.stores[1])
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not src.exists():
        print(f"error: no sweep cache at {src.location}",
              file=sys.stderr)
        return 2
    try:
        stats = dst.merge_from(src)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"merged {src.location} into {dst.location}: "
          f"{stats.describe()}")
    print(f"{len(dst)} cells now in {dst.location}")
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    from .artifacts import BundleError, load_bundle, pack_from_cache

    try:
        cache = ResultCache(args.store)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        where = _parse_where(args.where)
        path = pack_from_cache(cache, args.out,
                               where=where or None,
                               fingerprint=args.fingerprint,
                               overwrite=args.force)
    except (FileNotFoundError, KeyError, ValueError, BundleError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    bundle = load_bundle(path)
    print(f"packed bundle at {path} "
          f"(fingerprint {bundle.fingerprint[:12]}…)")
    print(f"inspect with `repro inspect {path}`, serve with "
          f"`repro serve {path}`")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from .artifacts import BundleError, format_manifest, load_bundle

    try:
        bundle = load_bundle(args.bundle)
    except BundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_manifest(bundle))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from . import obs
    from .artifacts import BundleError
    from .serve import AuditHTTPServer, AuditService

    try:
        if not 0 <= args.port <= 65535:
            raise ValueError("--port must be an integer in 0..65535, "
                             f"got {args.port}")
        if args.max_requests is not None:
            check_count("--max-requests", args.max_requests)
        check_output("--trace", args.trace, directory=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        service = AuditService.from_bundle(args.bundle)
    except BundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = service.components.meta
    try:
        server = AuditHTTPServer((args.host, args.port), service,
                                 max_requests=args.max_requests)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"serving bundle {args.bundle} "
          f"(dataset {meta.get('dataset', '?')}, "
          f"approach {meta.get('job_label', '?')}) "
          f"on http://{host}:{port}/", flush=True)

    def run() -> None:
        try:
            server.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()

    if args.trace is not None:
        collector = obs.TraceCollector(env=obs.environment_info(),
                                       meta={"bundle": str(args.bundle)})
        with obs.recording() as recorder:
            run()
        collector.add_scope("serve", recorder.snapshot())
        collector.write(args.trace)
        print(f"trace written to {args.trace}")
    else:
        run()
    print(f"served {server.requests_handled} requests")
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    from . import obs

    print(obs.format_doctor(obs.environment_info()))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from . import obs

    try:
        check_count("--top", args.top)
        trace = obs.load_trace(args.trace_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(obs.format_summary(trace, top=args.top, by=args.by))
    if args.check:
        problems = obs.check_trace(trace)
        if problems:
            print()
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print("\ntrace check passed: all computed cells carry their "
              "expected phase spans")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    names = args.approach or ["KamCal-dp", "Zafar-dp-fair", "Hardt-eo"]
    return _evaluate(args, [None, *names])


def cmd_audit(args: argparse.Namespace) -> int:
    return _evaluate(args, [None])


def cmd_describe(args: argparse.Namespace) -> int:
    from .datasets import check_mvd, discretize_dataset

    try:
        check_count("--rows", args.rows)
        check_count("--seed", args.seed, least=0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dataset = DATASETS.build(args.dataset, n=args.rows, seed=args.seed)
    print(dataset)
    print(f"base rates: P(Y=1|S=0) = {dataset.base_rate(0):.3f}, "
          f"P(Y=1|S=1) = {dataset.base_rate(1):.3f}")
    stats = dataset.table.describe()
    names = list(stats["column"])
    width = max(len(n) for n in names)
    print(f"{'column':<{width}} {'mean':>9} {'std':>9} "
          f"{'min':>9} {'max':>9}")
    for i, name in enumerate(names):
        print(f"{name:<{width}} {stats['mean'][i]:>9.3f} "
              f"{stats['std'][i]:>9.3f} {stats['min'][i]:>9.3f} "
              f"{stats['max'][i]:>9.3f}")
    if dataset.admissible:
        binned = discretize_dataset(dataset, n_bins=3)
        report = check_mvd(binned.table, key=list(binned.admissible),
                           left=[binned.label],
                           right=list(binned.inadmissible))
        status = "holds" if report.holds else "violated"
        print(f"justifiable-fairness MVD (Y ⫫ inadmissible | admissible, "
              f"3-bin discretised): {status} "
              f"({report.missing} missing tuples of {report.n_joined})")
    return 0


def cmd_notions(args: argparse.Namespace) -> int:
    rows = catalog(
        association=(Association(args.association)
                     if args.association else None),
        granularity=(Granularity(args.granularity)
                     if args.granularity else None),
        hierarchy=(CausalHierarchy(args.hierarchy)
                   if args.hierarchy else None),
        implemented_only=args.implemented_only,
    )
    if not rows:
        print("no notions match the given filters")
        return 0
    name_width = max(len(n.name) for n in rows)
    for notion in rows:
        impl = notion.implemented_as or "-"
        print(f"{notion.name:<{name_width}}  "
              f"{notion.association.value:<10} "
              f"{notion.granularity.value:<10} "
              f"{notion.hierarchy.value:<14} {impl}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    profile = ApplicationProfile(
        model_replaceable=not args.fixed_model,
        model_retrainable=not args.no_retraining,
        data_modifiable=not args.frozen_data,
        target_notion=args.target_notion,
        causal_model_available=args.causal_model,
        high_dimensional=args.high_dimensional,
        large_data=args.large_data,
        dirty_data=args.dirty_data,
        runtime_critical=args.runtime_critical,
        fairness_priority=not args.accuracy_first,
    )
    print(recommend(profile).summary())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed early (``repro list | head -1``): send what
        # is left to devnull, so the interpreter's final flush does not
        # raise again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
