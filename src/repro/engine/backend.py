"""Pluggable storage backends for the sweep result cache.

:class:`~repro.engine.cache.ResultCache` keys each finished cell by
its job fingerprint and keeps it in a :class:`StoreBackend`.  Two
ship: :class:`FileBackend`, a sharded directory of one JSON entry per
cell, and :class:`SqlBackend`, one row per cell in a single SQLite
database: a whole sweep is one file, ``--where`` filters run in the
row scan, and whole caches merge across hosts, compact, and verify
like directories do.

Backends are addressed by URI::

    file:/path/to/dir      sharded-JSON directory (the default)
    sqlite:/path/to/db     single-file SQLite database
    /bare/path             shorthand for file:/bare/path

``parse_store`` resolves any of these (or a ``Path``, or an existing
backend instance) to a backend; ``backend.uri`` round-trips, so worker
processes can rebuild their parent's store from a string.

Every entry is the one result a cell has plus its ``params`` block.
The SQLite ``cells`` table stores both as the JSON the file entry
holds, so ``load()`` returns exactly what the file backend returns,
plus the report axes as real columns for the ``--where`` row scan.
Artifact bundles are directory trees with their own
manifest/checksums, so they live in a ``<db>.artifacts/<fp>/`` sidecar
directory and are found on disk.
"""

from __future__ import annotations

import abc
import json
import os
import re
import sqlite3
import tempfile
from collections.abc import Mapping
from pathlib import Path

from .. import obs
from ..pipeline.experiment import (EvaluationResult, result_from_dict,
                                   result_to_dict)
from .spec import _JOB_AXES, job_from_params

__all__ = ["StoreBackend", "FileBackend", "SqlBackend", "parse_store"]

#: Schema version of the SQL cell table (``meta.store_version``).
SQL_STORE_VERSION = 1

#: Format version of a file entry (its ``"version"`` field).
_ENTRY_VERSION = 1

_AXIS_COLUMN_TYPES = {
    "seed": "INTEGER", "rows": "INTEGER", "n_features": "INTEGER",
}


def _axis_values(params: dict) -> dict:
    """A stored entry's report-axis column values, or ``{}`` (all
    NULL) when the params no longer parse (a component since removed
    from the registry) — ``outcomes()`` skips such rows anyway."""
    from .report import _axis_value

    try:
        job = job_from_params(params)
    except (KeyError, TypeError, ValueError):
        return {}
    return {axis: _axis_value(job, axis) for axis in _JOB_AXES}


class StoreBackend(abc.ABC):
    """Where the result cache keeps its entries.

    One entry per cell, addressed by the job's content fingerprint:
    the cell's one result and its ``params`` block, plus an
    artifact-bundle slot.  ``load`` raises ``FileNotFoundError`` on a
    missing entry and ``ValueError``/``KeyError`` on a corrupt one —
    the cache maps those to a miss and a corrupt miss.
    """

    kind: str

    # -- identity ------------------------------------------------------
    @property
    @abc.abstractmethod
    def uri(self) -> str:
        """Round-trippable address (``parse_store(uri)`` rebuilds)."""

    @property
    @abc.abstractmethod
    def location(self) -> str:
        """Human-readable place name for messages."""

    @abc.abstractmethod
    def exists(self) -> bool:
        """Whether the store exists on disk (never creates it)."""

    # -- entries -------------------------------------------------------
    @abc.abstractmethod
    def save(self, fingerprint: str, result: EvaluationResult,
             params: dict) -> Path:
        """Write one entry (replacing any previous one); returns the
        path holding it (the shard file, or the database)."""

    @abc.abstractmethod
    def load(self, fingerprint: str) -> tuple[EvaluationResult, dict]:
        """Read one entry back as ``(result, params)``."""

    @abc.abstractmethod
    def delete(self, fingerprint: str) -> None:
        """Drop one entry (no-op if absent)."""

    @abc.abstractmethod
    def fingerprints(self) -> list[str]:
        """Fingerprints of every stored entry, sorted."""

    @abc.abstractmethod
    def entry_path(self, fingerprint: str) -> Path:
        """The file a problem report should name for this entry."""

    # -- artifact slots ------------------------------------------------
    @abc.abstractmethod
    def artifact_dir(self, fingerprint: str) -> Path:
        """Directory slot for the cell's artifact bundle."""

    def artifact_fingerprints(self) -> list[str]:
        """Fingerprints that have an artifact slot on disk (intact or
        torn), sorted."""
        return []

    # -- maintenance ---------------------------------------------------
    @abc.abstractmethod
    def corrupt(self, fingerprint: str) -> None:
        """Chaos hook: damage one stored entry in place so reads see a
        corrupt (not missing) entry."""

    def vacuum(self) -> None:
        """Reclaim space after deletions (best-effort no-op default)."""

    def close(self) -> None:
        """Release any held handles (no-op for file stores)."""


class FileBackend(StoreBackend):
    """A sharded directory of JSON entries.

    ``<root>/<fp[:2]>/<fp>.json`` holds ``{"params": …, "results":
    [<result>], "run": <fp>, "version": 1}``, written atomically;
    artifact bundles are ``<fp>.artifacts`` sibling directories.
    """

    kind = "file"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def uri(self) -> str:
        return f"file:{self.root}"

    @property
    def location(self) -> str:
        return str(self.root)

    def exists(self) -> bool:
        return self.root.is_dir()

    def entry_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def save(self, fingerprint: str, result: EvaluationResult,
             params: dict) -> Path:
        """Write the entry through a temp file and ``os.replace``, so a
        crash mid-save (a killed sweep worker) leaves the old complete
        entry or the new one, never a truncated JSON."""
        path = self.entry_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": _ENTRY_VERSION, "run": fingerprint,
                   "params": dict(params),
                   "results": [result_to_dict(result)]}
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{fingerprint}.",
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
        obs.add("store.rows")
        obs.add("cache.bytes_written", path.stat().st_size)
        return path

    def load(self, fingerprint: str) -> tuple[EvaluationResult, dict]:
        """Raises ``ValueError`` on an entry that is not a JSON object
        of the current format version holding exactly one result."""
        payload = json.loads(self.entry_path(fingerprint).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"entry is a JSON {type(payload).__name__}, "
                             "not an object")
        version = payload.get("version")
        if version != _ENTRY_VERSION:
            raise ValueError(f"entry has format version {version}, "
                             f"expected {_ENTRY_VERSION}")
        results = payload["results"]
        if not isinstance(results, list) or len(results) != 1:
            raise ValueError("entry does not hold exactly one result")
        return (result_from_dict(results[0]),
                dict(payload.get("params", {})))

    def delete(self, fingerprint: str) -> None:
        self.entry_path(fingerprint).unlink(missing_ok=True)

    def fingerprints(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.stem for p in self.root.glob("??/*.json"))

    def artifact_dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.artifacts"

    def artifact_fingerprints(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name[:-len(".artifacts")]
                      for p in self.root.glob("??/*.artifacts")
                      if p.is_dir())

    def corrupt(self, fingerprint: str) -> None:
        from .chaos import corrupt_entry
        corrupt_entry(self.entry_path(fingerprint))

    def vacuum(self) -> None:
        """Drop shard directories emptied by deletions."""
        if not self.root.exists():
            return
        for shard in self.root.iterdir():
            if shard.is_dir() and not any(shard.iterdir()):
                shard.rmdir()


class SqlBackend(StoreBackend):
    """One-file SQLite store: a row per cell.

    WAL journaling with a generous busy timeout, so concurrent readers
    and the writing sweep coexist.  The payload columns
    (``params``/``result``) hold the exact JSON the file layout
    stores, so ``load`` is lossless; the axis columns are derived at
    save time for the ``--where`` row scan.  ``spec_version`` and
    ``raw`` are written but never read, because stores created
    earlier under the same store version declare them ``NOT NULL``;
    ``attempts`` is left at its ``'[]'`` default.  The insert names
    its columns, so those stores' extra nullable columns (such as the
    metric, abduction-chunk and block-size axes that ``SPEC_VERSION``
    7 removed) stay NULL.
    """

    kind = "sqlite"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None

    @property
    def uri(self) -> str:
        return f"sqlite:{self.path}"

    @property
    def location(self) -> str:
        return str(self.path)

    def exists(self) -> bool:
        return self.path.is_file()

    def entry_path(self, fingerprint: str) -> Path:
        return self.path

    # ------------------------------------------------------------------
    def connection(self) -> sqlite3.Connection:
        """The (lazily opened) database handle, schema ready.

        A path that exists but is not a SQLite result store raises
        ``ValueError`` — callers treat that like any other corrupt
        store rather than crashing with a driver-specific error.
        """
        if self._conn is not None:
            return self._conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema(conn)
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise ValueError(
                f"{self.path} is not a sqlite result store "
                f"({type(exc).__name__}: {exc})") from None
        self._conn = conn
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        axis_cols = ", ".join(
            f'"{c}" {_AXIS_COLUMN_TYPES.get(c, "TEXT")}'
            for c in _JOB_AXES)
        conn.execute(f"""
            CREATE TABLE IF NOT EXISTS cells (
                fingerprint TEXT PRIMARY KEY,
                spec_version INTEGER NOT NULL,
                {axis_cols},
                params TEXT NOT NULL,
                result TEXT NOT NULL,
                raw TEXT NOT NULL,
                attempts TEXT NOT NULL DEFAULT '[]'
            )""")
        conn.execute("CREATE TABLE IF NOT EXISTS meta "
                     "(key TEXT PRIMARY KEY, value TEXT)")
        conn.execute(
            "INSERT OR IGNORE INTO meta VALUES ('store_version', ?)",
            (str(SQL_STORE_VERSION),))
        conn.commit()
        stored = conn.execute(
            "SELECT value FROM meta WHERE key = 'store_version'"
        ).fetchone()[0]
        if int(stored) != SQL_STORE_VERSION:
            raise ValueError(
                f"{self.path} has store version {stored}, expected "
                f"{SQL_STORE_VERSION}")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------
    _INSERT = ("INSERT OR REPLACE INTO cells (fingerprint, spec_version, "
               + ", ".join(f'"{c}"' for c in _JOB_AXES)
               + ", params, result, raw) VALUES ("
               + ", ".join(["?"] * (len(_JOB_AXES) + 5)) + ")")

    def save(self, fingerprint: str, result: EvaluationResult,
             params: dict) -> Path:
        axes = _axis_values(params)
        payload = result_to_dict(result)
        conn = self.connection()
        conn.execute(self._INSERT, (
            fingerprint, int(params.get("spec_version", 0)),
            *(axes.get(axis) for axis in _JOB_AXES),
            json.dumps(params, sort_keys=True),
            json.dumps(payload, sort_keys=True),
            json.dumps(payload["raw"], sort_keys=True)))
        conn.commit()
        obs.add("store.rows")
        return self.path

    def load(self, fingerprint: str) -> tuple[EvaluationResult, dict]:
        row = self.connection().execute(
            "SELECT result, params FROM cells WHERE fingerprint = ?",
            (fingerprint,)).fetchone()
        if row is None:
            raise FileNotFoundError(
                f"no entry {fingerprint!r} in {self.path}")
        return (result_from_dict(json.loads(row[0])),
                dict(json.loads(row[1])))

    def select(self, where: Mapping[str, object]):
        """``(fingerprint, result, params)`` JSON text of every row
        matching the ``axis=value`` constraints, by fingerprint, so a
        ``--where`` filter decodes only the rows it keeps.  Axes
        validate and values normalise exactly as in
        :func:`~repro.engine.report.filter_outcomes`; an unset axis
        (``none``) matches ``IS NULL``."""
        from .report import _normalise_where

        clauses, parameters = [], []
        for axis, value in _normalise_where(where).items():
            if value is None:
                clauses.append(f'"{axis}" IS NULL')
            else:
                clauses.append(f'"{axis}" = ?')
                parameters.append(value)
        return self.connection().execute(
            "SELECT fingerprint, result, params FROM cells WHERE "
            + (" AND ".join(clauses) or "1") + " ORDER BY fingerprint",
            parameters)

    def delete(self, fingerprint: str) -> None:
        conn = self.connection()
        conn.execute("DELETE FROM cells WHERE fingerprint = ?",
                     (fingerprint,))
        conn.commit()

    def fingerprints(self) -> list[str]:
        if not self.exists():
            return []
        return [row[0] for row in self.connection().execute(
            "SELECT fingerprint FROM cells ORDER BY fingerprint")]

    # ------------------------------------------------------------------
    def artifact_root(self) -> Path:
        return self.path.with_name(self.path.name + ".artifacts")

    def artifact_dir(self, fingerprint: str) -> Path:
        return self.artifact_root() / fingerprint

    def artifact_fingerprints(self) -> list[str]:
        root = self.artifact_root()
        if not root.is_dir():
            return []
        return sorted(p.name for p in root.iterdir() if p.is_dir())

    # ------------------------------------------------------------------
    def corrupt(self, fingerprint: str) -> None:
        """Chaos hook: tear the row's result payload (mirrors the file
        backend's truncated-shard fault) so reads flag it corrupt."""
        conn = self.connection()
        conn.execute(
            "UPDATE cells SET result = substr(result, 1, "
            "max(1, length(result) / 2)) || 'CHAOS' "
            "WHERE fingerprint = ?", (fingerprint,))
        conn.commit()

    def vacuum(self) -> None:
        """``VACUUM``, after dropping the per-metric side table and
        sort-key index that stores created earlier kept for
        SQL-compiled reports; nothing reads either."""
        conn = self.connection()
        conn.commit()
        conn.execute("DROP TABLE IF EXISTS cell_values")
        conn.execute("DROP INDEX IF EXISTS cells_grid_order")
        conn.execute("VACUUM")


#: A URI scheme: a letter, then at least one more scheme character
#: (a one-letter prefix is a drive letter, as in ``C:/cache``).
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]+")


def parse_store(store) -> StoreBackend:
    """Resolve a store address to a backend.

    Accepts a backend instance (returned as-is), a ``Path`` (file
    layout), or a string: ``file:DIR``, ``sqlite:PATH``, or a bare
    directory path (file layout).  Any other scheme raises
    ``ValueError`` naming the two supported ones.
    """
    if isinstance(store, StoreBackend):
        return store
    if isinstance(store, Path):
        return FileBackend(store)
    if not isinstance(store, str):
        raise TypeError(f"expected a store URI, path, or backend, "
                        f"got {store!r}")
    scheme, sep, rest = store.partition(":")
    if not sep or not _SCHEME.fullmatch(scheme):
        return FileBackend(store)
    if scheme not in ("file", "sqlite"):
        raise ValueError(f"unknown store scheme {scheme!r} in "
                         f"{store!r}; use file:DIR or sqlite:PATH")
    if not rest:
        raise ValueError(f"store URI {store!r} names no path")
    return SqlBackend(rest) if scheme == "sqlite" else FileBackend(rest)
