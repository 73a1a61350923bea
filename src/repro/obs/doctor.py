"""Environment diagnostics: ``repro doctor`` and trace headers.

Performance numbers are only interpretable together with the
environment that produced them — BLAS backend and its live thread
counts, usable CPUs, numpy version, default kernel block sizes.
:func:`environment_info` collects that block once; ``repro doctor``
prints it, and every trace written by
:class:`repro.obs.trace.TraceCollector` embeds it in the header so a
trace file is self-describing.
"""

from __future__ import annotations

import os
import platform

__all__ = ["THREAD_ENV_VARS", "environment_info", "format_doctor"]

#: Thread-count environment variables the numerical stack honours.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _blas_info() -> dict:
    """Best-effort BLAS/LAPACK identification from numpy's build
    config (shape varies across numpy versions, hence the guards)."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # pragma: no cover - numpy < 1.25
        return {"detail": "unavailable (numpy too old for mode='dicts')"}
    except Exception as exc:  # pragma: no cover - exotic builds
        return {"detail": f"unavailable ({exc})"}
    info: dict = {}
    dependencies = (config or {}).get("Build Dependencies", {})
    for kind in ("blas", "lapack"):
        block = dependencies.get(kind)
        if isinstance(block, dict):
            info[kind] = {key: block[key]
                          for key in ("name", "version", "openblas configuration")
                          if key in block}
    return info or {"detail": "unavailable"}


def environment_info() -> dict:
    """One JSON-safe block describing the numerical environment.

    Includes the package version, interpreter and platform, numpy and
    its BLAS backend, each loaded OpenBLAS with its live thread count
    (``blas_runtime``; empty when none is found), the thread-count
    environment variables (value or ``None`` when unset), CPU count
    and usable CPUs, and the library's default block/chunk sizes —
    the knobs every perf trace depends on.
    """
    import numpy as np

    from .. import __version__, blas
    from ..metrics.individual import _MAX_BATCH
    from ..metrics.pairwise import DEFAULT_BLOCK_SIZE

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": blas.usable_cpus(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_runtime": blas.runtime(),
        "threads": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
        "defaults": {
            "pairwise_block_size": DEFAULT_BLOCK_SIZE,
            "abduction_max_batch": _MAX_BATCH,
        },
    }


def format_doctor(info: dict | None = None) -> str:
    """Human-readable rendering of :func:`environment_info`."""
    info = environment_info() if info is None else info
    lines = [
        f"repro {info['repro']}",
        f"python {info['python']} on {info['platform']}",
        f"cpus: {info['cpu_count']} ({info['usable_cpus']} usable)",
        f"numpy {info['numpy']}",
    ]
    blas = info.get("blas", {})
    if "detail" in blas:
        lines.append(f"blas: {blas['detail']}")
    else:
        for kind, block in sorted(blas.items()):
            name = block.get("name", "?")
            version = block.get("version", "?")
            lines.append(f"{kind}: {name} {version}")
    lines.append("blas runtime (live threads; fits run at 1):")
    for lib in info["blas_runtime"]:
        lines.append(f"  {lib['library']} = {lib['threads']}")
    if not info["blas_runtime"]:
        lines.append("  (no OpenBLAS found)")
    lines.append("thread environment:")
    for var, value in info["threads"].items():
        lines.append(f"  {var} = {value if value is not None else '(unset)'}")
    lines.append("defaults:")
    for knob, value in info["defaults"].items():
        lines.append(f"  {knob} = {value}")
    return "\n".join(lines)
