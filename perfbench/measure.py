"""Measurement helpers shared by the workloads (runs in the workload
interpreter, after ``import repro``)."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
from pathlib import Path

#: Environment knobs that set thread counts; the benchmark reads them
#: but never sets them, so oversubscription stays visible.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPRO_THREADS")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples beyond it.

    Infinite values (failed operations) sort last, so a failure always
    lands in the tail."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MiB).

    Linux reports ``ru_maxrss`` in KiB; for ``RUSAGE_CHILDREN`` it is
    the largest single descendant that has been waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def digest(payload) -> str:
    """sha256 of a canonical JSON rendering."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def result_payload(result) -> dict:
    """An ``EvaluationResult`` as plain data without its wall-clock
    ``fit_seconds`` (the only field that differs between runs)."""
    data = dataclasses.asdict(result)
    data.pop("fit_seconds", None)
    return data


# ----------------------------------------------------------------------
# Spans around public calls, recorded from the benchmark's own code
# ----------------------------------------------------------------------
def instrument(owner, attr: str, span: str, **attrs) -> None:
    """Replace ``owner.attr`` with a wrapper that opens an
    ``obs.span(span)`` around every call.

    The span is a no-op unless a recorder is active, and it lands in
    whichever recorder is active where the call runs: a pool worker's
    per-cell recording (workers are forked after patching) or the
    benchmark's own ``obs.recording()``.  Each value in ``attrs`` is a
    function of the call's arguments."""
    from repro import obs

    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        labels = {key: label(*args, **kwargs)
                  for key, label in attrs.items()}
        with obs.span(span, **labels):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)


def instrument_layers() -> None:
    """Wrap the public calls whose time the engine records no span for:
    the result store, its reports, the report tables, and k-NN
    prediction."""
    from repro import cli, engine
    from repro.engine import ResultCache
    from repro.models.knn import KNearestNeighbors
    from repro.pipeline import report

    def backend(cache, *args, **kwargs):
        return cache.backend.kind

    def filtered(cache, *args, **kwargs):
        return kwargs.get("where") is not None

    instrument(ResultCache, "put", "bench.cache.put", backend=backend)
    instrument(ResultCache, "outcomes", "bench.cache.outcomes",
               backend=backend, filtered=filtered)
    instrument(ResultCache, "pivot", "bench.cache.pivot", backend=backend,
               filtered=filtered)
    instrument(ResultCache, "overhead_series", "bench.cache.overhead",
               backend=backend)
    instrument(KNearestNeighbors, "predict_proba", "bench.knn.predict")
    # Table rendering, under each name the CLI and the workloads look
    # it up by at call time.
    for owner, attr in ((engine, "grid_table"), (cli, "grid_table"),
                        (engine, "format_pivot_table"),
                        (report, "format_runtime_table")):
        instrument(owner, attr, "bench.report.render")


#: The spans of :func:`instrument_layers` outside the sweep cells, each
#: the time of a layer a per-layer metric reports.
LAYER_SPANS = ("bench.cache.put", "bench.cache.outcomes",
               "bench.cache.pivot", "bench.cache.overhead",
               "bench.report.render")


def layer_seconds(spans) -> float:
    """Seconds inside :data:`LAYER_SPANS` (outermost spans only)."""
    return sum(s["dur"] for s in spans
               if s["depth"] == 0 and s["name"] in LAYER_SPANS)


def spans_named(spans, name: str, **match) -> list[dict]:
    return [s for s in spans if s["name"] == name and all(
        s["attrs"].get(key) == value for key, value in match.items())]


def total_s(spans, name: str, **match) -> float:
    return sum(s["dur"] for s in spans_named(spans, name, **match))


def p50_ms(spans, name: str, **match) -> float:
    return median(s["dur"] for s in spans_named(spans, name, **match)) * 1e3


#: Layer counters recorded by the program itself; exact for a given
#: commit and seed, so a change in them is a change in the work.
COUNTERS = ("cache.bytes_written", "store.rows", "impute.cells",
            "pairwise.blocks", "pairwise.candidates", "abduction.chunks",
            "abduction.rows")

#: Fit spans by pipeline stage -> layer metric.
STAGES = {"baseline": "fit.baseline_s", "pre-processing": "fit.pre_s",
          "in-processing": "fit.in_s", "post-processing": "fit.post_s"}


def layer_metrics(spans, counters) -> dict[str, float]:
    """Every layer metric derived from engine spans, the spans of
    :func:`instrument_layers` and the program's counters (0 for a
    layer the workload does not reach)."""
    layers = {
        "datasets.build_s": total_s(spans, "dataset"),
        **{metric: total_s(spans, "fit", stage=stage)
           for stage, metric in STAGES.items()},
        "metrics.evaluate_s": total_s(spans, "metrics"),
        "cache.put_ms": p50_ms(spans, "bench.cache.put"),
        "errors.impute_s": total_s(spans, "impute"),
        "models.knn_predict_s": total_s(spans, "bench.knn.predict"),
        "audit.fairness_s": total_s(spans, "audit.fairness"),
        "audit.effects_s": total_s(spans, "audit.effects"),
        "audit.scm_s": total_s(spans, "audit.scm"),
        "report.pivot_memory_ms": p50_ms(spans, "bench.cache.pivot",
                                         backend="file", filtered=False),
        "report.pivot_sql_ms": p50_ms(spans, "bench.cache.pivot",
                                      backend="sqlite", filtered=False),
        "report.overhead_memory_ms": p50_ms(spans, "bench.cache.overhead",
                                            backend="file"),
        "report.overhead_sql_ms": p50_ms(spans, "bench.cache.overhead",
                                         backend="sqlite"),
    }
    for kind in ("file", "sqlite"):
        layers[f"store.put_{kind}_ms"] = p50_ms(spans, "bench.cache.put",
                                                backend=kind)
        layers[f"store.outcomes_{kind}_ms"] = p50_ms(
            spans, "bench.cache.outcomes", backend=kind, filtered=False)
    for name in COUNTERS:
        layers[name] = counters.get(name, 0)
    return layers


# ----------------------------------------------------------------------
# Machine stamp
# ----------------------------------------------------------------------
def _openblas() -> tuple[str, int | None]:
    """numpy's bundled OpenBLAS and its live thread count, read through
    ctypes (no threadpoolctl needed)."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return Path(path).name, int(getter())
    return "unknown", None


def _filesystem(path: Path) -> str:
    """Type of the mount holding ``path`` (longest mount-point match)."""
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def machine_stamp(work: Path) -> dict:
    import numpy

    blas, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        **{name: os.environ.get(name) for name in THREAD_ENV},
        "store_fs": _filesystem(work),
    }


def last_line(text: str | None) -> str:
    """The last line of a traceback (``ExcType: message``)."""
    lines = (text or "").strip().splitlines()
    return lines[-1] if lines else "no error text"
