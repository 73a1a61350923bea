"""Runtime control of the OpenBLAS thread pools numpy and scipy bundle.

numpy's and scipy's wheels each ship an OpenBLAS, both load at ``import
repro``, and a forked sweep worker inherits both, initialised, so
``OPENBLAS_NUM_THREADS`` set after import reaches neither.  Their
exported setters do; this module calls them through ctypes, finding the
libraries the way the wheels lay them out (scipy is never imported for
it).  :func:`budget` is the rule the sweep executor sizes workers by.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from contextlib import contextmanager
from functools import cache
from pathlib import Path

__all__ = ["ENV_VARS", "budget", "cap", "explicit", "limited", "runtime",
           "set_threads", "threads", "usable_cpus"]

#: Variables OpenBLAS reads at load time; when one is set, the user's
#: count governs and the executor leaves worker pools alone.
ENV_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: (package, library glob in ``<package>.libs``, exported symbol suffix)
_BUNDLES = (("numpy", "libscipy_openblas64_*.so", "64_"),
            ("scipy", "libscipy_openblas-*.so", ""))


@cache
def _libraries() -> tuple:
    """``(file name, getter, setter)`` for every bundled OpenBLAS."""
    found = []
    for package, pattern, suffix in _BUNDLES:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = Path(spec.origin).resolve().parent.parent / f"{package}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            found.append((path.name, getter, setter))
    return tuple(found)


def runtime() -> list[dict]:
    """Each OpenBLAS found, with its live thread count (JSON-safe)."""
    return [{"library": name, "threads": getter()}
            for name, getter, _ in _libraries()]


def threads() -> int | None:
    """The smallest live thread count; ``None`` without OpenBLAS."""
    return min((getter() for _, getter, _ in _libraries()), default=None)


def set_threads(n: int) -> None:
    """Set every OpenBLAS to ``n`` threads."""
    for _, _, setter in _libraries():
        setter(int(n))


def cap(n: int) -> None:
    """Lower every OpenBLAS to at most ``n`` threads; a count below
    ``n`` stays.  The sweep pool's worker initializer."""
    for _, getter, setter in _libraries():
        setter(min(getter(), int(n)))


@contextmanager
def limited(n: int):
    """:func:`cap` at ``n`` for the block, then restore the previous
    counts.  The counts are process-wide: blocks nest, but two threads
    must not hold overlapping blocks."""
    saved = [(setter, getter()) for _, getter, setter in _libraries()]
    cap(n)
    try:
        yield
    finally:
        for setter, count in saved:
            setter(count)


def explicit() -> bool:
    """Whether the environment sets a BLAS thread count."""
    return any(os.environ.get(var) for var in ENV_VARS)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def budget(cpus: int, workers: int) -> int:
    """BLAS threads per worker so that workers × BLAS threads stays
    within ``cpus``; never below 1."""
    return max(1, cpus // workers)
