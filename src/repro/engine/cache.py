"""Content-addressed result cache for sweep jobs.

A thin layer over a pluggable :class:`~repro.engine.backend
.StoreBackend` that keys each stored
:class:`~repro.pipeline.experiment.EvaluationResult` by the producing
job's content fingerprint.  Any sweep — CLI, benchmark, or example —
that describes the same cell hits the same entry, so a grid re-run
(or a crashed sweep resumed) refits nothing that already finished.

Two backends ship (see :mod:`repro.engine.backend`):

* ``file:DIR`` (default) — a sharded-JSON directory::

      <root>/<fp[:2]>/<fp>.json       # one entry per cell
      <root>/<fp[:2]>/<fp>.artifacts  # optional artifact bundle

* ``sqlite:PATH`` — one database row per cell in a single file;
  ``--where`` filters run in the row scan.

Either kind merges across hosts (:meth:`ResultCache.merge_from`),
folds stale spec-version duplicates in place
(:meth:`ResultCache.compact`), and reports through the same in-memory
path over :meth:`ResultCache.outcomes`.

Every entry holds the cell's one result and a ``params`` block with
the job's full parameterization, so cached cells stay greppable and
load back as jobs without re-execution.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..pipeline.experiment import EvaluationResult, result_from_dict
from .backend import SqlBackend, StoreBackend, parse_store
from .spec import Job

__all__ = ["CacheProblem", "CompactStats", "MergeStats", "ResultCache"]


def _none_first(value) -> tuple:
    return (value is not None, "" if value is None else str(value))


def _grid_order(outcome) -> tuple:
    """Sort key restoring a grid-like order over reconstructed cells."""
    job = outcome.job
    return (job.dataset, job.rows, _none_first(job.n_features),
            _none_first(job.error), _none_first(job.imputer), job.model,
            job.approach is not None, job.approach_label, job.seed)


#: Problem kinds :meth:`ResultCache.verify` reports.
PROBLEM_KINDS = ("unreadable", "mismatch", "unparseable", "stale",
                 "orphaned")


@dataclass(frozen=True)
class CacheProblem:
    """One defective cache entry found by :meth:`ResultCache.verify`.

    ``kind`` is one of :data:`PROBLEM_KINDS`:

    ``unreadable``
        The entry no longer parses (truncated write, disk corruption,
        chaos ``corrupt`` fault) or does not hold exactly one result.
    ``mismatch``
        The stored fingerprint disagrees with the entry's address, or
        the entry's own params re-fingerprint to a different value —
        the content no longer matches its address.
    ``unparseable``
        The params block no longer reconstructs a :class:`Job` (a
        component since removed from the registry).
    ``stale``
        Written under an older ``SPEC_VERSION``; a current sweep can
        never address it, so it only takes up disk.
    ``orphaned``
        An artifact bundle whose metrics entry is gone (e.g. a prior
        ``--repair`` removed a defective shard and left the bundle
        behind); nothing can ever address it.
    """

    fingerprint: str
    path: Path
    kind: str
    detail: str

    def describe(self) -> str:
        return f"{self.kind}: {self.path} ({self.detail})"


@dataclass(frozen=True)
class CompactStats:
    """What :meth:`ResultCache.compact` did."""

    folded: int  # stale spec-version duplicates removed
    kept: int  # entries remaining after the fold

    def describe(self) -> str:
        return (f"folded {self.folded} stale duplicate(s), "
                f"{self.kept} entries kept")


@dataclass(frozen=True)
class MergeStats:
    """What :meth:`ResultCache.merge_from` did."""

    merged: int  # entries copied in (fingerprint absent from dst)
    replaced: int  # dst entries replaced by a newer spec_version
    skipped: int  # src entries already present (or unreadable)
    artifacts: int  # intact artifact bundles copied

    def describe(self) -> str:
        return (f"merged {self.merged} new cell(s), {self.replaced} "
                f"replaced by newer spec_version, {self.skipped} "
                f"already present, {self.artifacts} artifact bundle(s) "
                f"copied")


class ResultCache:
    """Fingerprint-addressed store of finished grid cells.

    ``store`` is a backend URI (``file:DIR`` / ``sqlite:PATH``), a
    bare directory path (file layout), a ``Path``, or a constructed
    :class:`~repro.engine.backend.StoreBackend`.
    """

    def __init__(self, store: str | Path | StoreBackend):
        self.backend = parse_store(store)

    # -- identity ------------------------------------------------------
    @property
    def root(self) -> Path:
        """The store's on-disk anchor (the directory for file caches,
        the database file for SQL caches)."""
        if isinstance(self.backend, SqlBackend):
            return self.backend.path
        return self.backend.root

    @property
    def uri(self) -> str:
        """Round-trippable address: ``ResultCache(cache.uri)`` opens
        the same store (workers rebuild their parent's cache from
        this)."""
        return self.backend.uri

    @property
    def location(self) -> str:
        """Human-readable place name for messages."""
        return self.backend.location

    def exists(self) -> bool:
        return self.backend.exists()

    def close(self) -> None:
        self.backend.close()

    def _corrupt(self, fingerprint: str, exc: Exception) -> None:
        obs.add("cache.corrupt")
        obs.warning("cache.corrupt",
                    path=str(self.backend.entry_path(fingerprint)),
                    reason=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def get(self, job: Job) -> EvaluationResult | None:
        """The cached result for a job, or ``None`` on a miss.

        A malformed entry (interrupted write predating atomic saves,
        disk corruption, stale format version) counts as a miss rather
        than poisoning the sweep, and is reported as a structured
        ``cache.corrupt`` warning naming the entry and the decode
        failure.
        """
        fingerprint = job.fingerprint
        try:
            result, params = self.backend.load(fingerprint)
        except FileNotFoundError:
            obs.add("cache.misses")
            return None
        except (ValueError, KeyError) as exc:
            obs.add("cache.misses")
            self._corrupt(fingerprint, exc)
            return None
        if params.get("fingerprint") != fingerprint:
            obs.add("cache.misses")
            self._corrupt(fingerprint,
                          ValueError("entry fingerprint mismatch"))
            return None
        obs.add("cache.hits")
        return result

    def put(self, job: Job, result: EvaluationResult) -> Path:
        """Store a finished cell; returns the path holding the entry."""
        fingerprint = job.fingerprint
        params = {"fingerprint": fingerprint, **job.params()}
        return self.backend.save(fingerprint, result, params)

    def __contains__(self, job: Job) -> bool:
        return self.get(job) is not None

    def chaos_corrupt(self, job: Job) -> None:
        """Chaos-harness hook: damage the job's stored entry in place
        (backend-appropriately) so later reads see corruption."""
        self.backend.corrupt(job.fingerprint)

    # ------------------------------------------------------------------
    # Artifact payloads (optional, next to the metrics entry)
    # ------------------------------------------------------------------
    def artifact_path(self, job: Job | str) -> Path:
        """Where a cell's artifact bundle lives: the sibling
        ``<root>/<fp[:2]>/<fp>.artifacts`` directory for file caches,
        a ``<db>.artifacts/<fp>`` sidecar slot for SQL caches."""
        fingerprint = job if isinstance(job, str) else job.fingerprint
        return self.backend.artifact_dir(fingerprint)

    def put_artifact(self, job: Job, components=None) -> Path:
        """Pack the cell's fitted components into its artifact slot.

        With ``components=None`` they are refit deterministically from
        the job (see :func:`repro.artifacts.build_serving_components`).
        Overwrites any previous payload for the fingerprint.
        """
        from ..artifacts import pack_bundle  # local: avoids an
        # import cycle (artifacts.pack imports the engine for Job)

        return pack_bundle(job, self.artifact_path(job),
                           components=components, overwrite=True)

    def get_artifact(self, job: Job | str) -> Path | None:
        """The cell's artifact-bundle path, or ``None`` when the sweep
        stored no payload (or left a torn one behind)."""
        path = self.artifact_path(job)
        if (path / "manifest.json").is_file():
            return path
        return None

    def has_artifact(self, job: Job | str) -> bool:
        return self.get_artifact(job) is not None

    # ------------------------------------------------------------------
    def fingerprints(self) -> list[str]:
        """Fingerprints of every cached cell, sorted."""
        return self.backend.fingerprints()

    def entries(self):
        """Iterate ``(fingerprint, result, params)`` over every
        readable cached cell (malformed entries are skipped, as in
        :meth:`get`)."""
        for fingerprint in self.fingerprints():
            try:
                result, params = self.backend.load(fingerprint)
            except FileNotFoundError:
                continue
            except (ValueError, KeyError) as exc:
                self._corrupt(fingerprint, exc)
                continue
            yield fingerprint, result, params

    def outcomes(self, where=None):
        """Reconstruct every cached cell as a :class:`JobOutcome`.

        This is the reporting path: each entry's stored ``params``
        block fully describes its job, so a finished sweep cache loads
        back as outcomes — grid tables, pivots, and exports all work
        with zero job re-executions.  Entries whose params no longer
        parse (e.g. a component since removed from the registry) are
        skipped.  Outcomes come back in a deterministic grid-like
        order — dataset, rows, error, imputer, model, then approaches
        with the baseline first — so rendered tables match a live
        sweep's layout regardless of fingerprint order on disk.

        ``where`` filters by job axes before returning (same axes and
        normalisation as :func:`~repro.engine.report.filter_outcomes`);
        on SQL backends the filter runs in the row scan, so only the
        matching rows are decoded.

        A cache that survived a ``SPEC_VERSION`` bump can hold the
        same logical cell twice (the old entry plus its re-computed
        replacement under the new fingerprint); such duplicates
        reconstruct to equal jobs and are collapsed to the entry
        written under the newest spec version, so the old protocol's
        results are never silently averaged into the new ones.
        """
        return [outcome for _, _, outcome in self._latest(where)]

    def _latest(self, where=None) -> list[tuple[str, int, object]]:
        """:meth:`outcomes` as ``(stored fingerprint, spec_version,
        outcome)`` triples: which entry each outcome was read from."""
        from .executor import JobOutcome
        from .report import _normalise_where, filter_outcomes
        from .spec import job_from_params

        entries = self.entries()
        if where and isinstance(self.backend, SqlBackend) \
                and self.backend.exists():
            entries = self._sql_entries(where)
            where = None
        elif where:
            _normalise_where(where)  # unknown axes fail before any I/O

        best: dict[str, tuple[str, int, object]] = {}
        for fingerprint, result, params in entries:
            try:
                job = job_from_params(params)
            except (KeyError, TypeError, ValueError):
                continue
            version = int(params.get("spec_version", 0))
            key = job.fingerprint
            if key in best and best[key][1] >= version:
                continue
            best[key] = (fingerprint, version,
                         JobOutcome(job=job, result=result, cached=True))
        cells = sorted(best.values(), key=lambda cell: _grid_order(cell[2]))
        if where:
            kept = {id(outcome) for outcome in filter_outcomes(
                (cell[2] for cell in cells), where)}
            cells = [cell for cell in cells if id(cell[2]) in kept]
        return cells

    def _sql_entries(self, where):
        """:meth:`entries` over the SQL backend's ``where`` row scan:
        decodes each matching row, skipping malformed ones."""
        for fingerprint, result, params in self.backend.select(where):
            try:
                yield (fingerprint,
                       result_from_dict(json.loads(result)),
                       dict(json.loads(params)))
            except (ValueError, KeyError, TypeError) as exc:
                self._corrupt(fingerprint, exc)

    def pivot(self, index: str, columns: str, value: str, where=None,
              outcomes=None):
        """A :func:`~repro.engine.report.pivot` over ``outcomes``
        (loaded via :meth:`outcomes` with ``where`` when not
        supplied)."""
        from .report import pivot

        if outcomes is None:
            outcomes = self.outcomes(where=where)
        return pivot(outcomes, index=index, columns=columns, value=value)

    def overhead_series(self, sweep: str = "rows", where=None,
                        outcomes=None):
        """A :func:`~repro.engine.report.overhead_series` over
        ``outcomes`` (loaded as for :meth:`pivot`)."""
        from .report import overhead_series

        if outcomes is None:
            outcomes = self.outcomes(where=where)
        return overhead_series(outcomes, sweep=sweep)

    # ------------------------------------------------------------------
    def verify(self, repair: bool = False) -> list[CacheProblem]:
        """Audit every entry; optionally delete the defective ones.

        Walks all entries and reports the ones a sweep could not (or
        should not) use — see :class:`CacheProblem` for the taxonomy,
        including artifact bundles orphaned by an earlier repair.
        Healthy entries are never touched.  With ``repair=True`` each
        problem entry is deleted *together with its artifact bundle*
        (a later sweep then recomputes exactly those cells); deletions
        are counted on the ``cache.repaired`` counter.
        """
        from .spec import SPEC_VERSION, job_from_params

        problems: list[CacheProblem] = []

        def flag(fingerprint: str, kind: str, detail: str,
                 path: Path | None = None) -> None:
            problems.append(CacheProblem(
                fingerprint=fingerprint,
                path=path if path is not None
                else self.backend.entry_path(fingerprint),
                kind=kind, detail=detail))

        fingerprints = self.fingerprints()
        for fingerprint in fingerprints:
            try:
                _, params = self.backend.load(fingerprint)
            except FileNotFoundError:
                continue  # raced with eviction
            except (ValueError, KeyError) as exc:
                self._corrupt(fingerprint, exc)
                flag(fingerprint, "unreadable",
                     f"{type(exc).__name__}: {exc}")
                continue
            if params.get("fingerprint") != fingerprint:
                flag(fingerprint, "mismatch",
                     f"entry names fingerprint "
                     f"{params.get('fingerprint')!r}")
                continue
            version = int(params.get("spec_version", 0))
            if version != SPEC_VERSION:
                flag(fingerprint, "stale",
                     f"spec_version {version} (current {SPEC_VERSION})")
                continue
            try:
                job = job_from_params(params)
            except (KeyError, TypeError, ValueError) as exc:
                flag(fingerprint, "unparseable",
                     f"{type(exc).__name__}: {exc}")
                continue
            if job.fingerprint != fingerprint:
                flag(fingerprint, "mismatch",
                     "params re-fingerprint to "
                     f"{job.fingerprint[:12]}…")
        # Artifact bundles whose metrics entry is gone: nothing can
        # address them, they only take up disk.
        stored = set(fingerprints)
        for fingerprint in self.backend.artifact_fingerprints():
            if fingerprint not in stored:
                flag(fingerprint, "orphaned",
                     "artifact bundle has no cache entry",
                     path=self.backend.artifact_dir(fingerprint))
        if repair:
            for problem in problems:
                if problem.kind == "orphaned":
                    shutil.rmtree(problem.path, ignore_errors=True)
                else:
                    self.backend.delete(problem.fingerprint)
                    artifact = self.backend.artifact_dir(
                        problem.fingerprint)
                    if artifact.exists():
                        shutil.rmtree(artifact, ignore_errors=True)
                obs.add("cache.repaired")
                obs.warning("cache.repaired", path=str(problem.path),
                            kind=problem.kind)
        return problems

    # ------------------------------------------------------------------
    # Maintenance: compaction and cross-host merge
    # ------------------------------------------------------------------
    def _logical_groups(self) -> dict[str, list[tuple]]:
        """Entries grouped by *reconstructed* job fingerprint: each
        group holds ``(spec_version, stored_fingerprint)`` pairs, so a
        cache that survived a ``SPEC_VERSION`` bump shows its logical
        duplicates (the stale entry plus its replacement)."""
        from .spec import job_from_params

        groups: dict[str, list[tuple]] = {}
        for fingerprint, _, params in self.entries():
            try:
                job = job_from_params(params)
            except (KeyError, TypeError, ValueError):
                continue
            version = int(params.get("spec_version", 0))
            groups.setdefault(job.fingerprint, []).append(
                (version, fingerprint))
        return groups

    def compact(self) -> CompactStats:
        """Fold stale spec-version duplicates and reclaim space.

        For every logical cell stored more than once (a cache that
        survived ``SPEC_VERSION`` bumps), keep the entry written under
        the newest spec version — preferring the one whose stored
        fingerprint matches the current protocol's — and delete the
        rest along with their artifact bundles.  Finishes with the
        backend's vacuum (``VACUUM`` for SQL stores, empty-shard
        cleanup for file stores), and counts removals on the
        ``store.compacted`` counter.
        """
        folded = 0
        for logical, entries in self._logical_groups().items():
            if len(entries) < 2:
                continue
            # Newest version wins; at equal versions prefer the entry
            # addressed by the current protocol, then the largest
            # fingerprint for determinism.
            entries.sort(key=lambda e: (e[0], e[1] == logical, e[1]))
            for _, fingerprint in entries[:-1]:
                self.backend.delete(fingerprint)
                artifact = self.backend.artifact_dir(fingerprint)
                if artifact.exists():
                    shutil.rmtree(artifact, ignore_errors=True)
                folded += 1
        if folded:
            obs.add("store.compacted", folded)
        self.backend.vacuum()
        return CompactStats(folded=folded, kept=len(self))

    def merge_from(self, src: "ResultCache | str | Path") -> MergeStats:
        """Merge another cache's cells into this one (cross-host
        sharding: run half the grid per machine, merge, report once).

        Insert-or-ignore on fingerprint — an entry this cache already
        holds is kept — except that a source entry carrying a *newer*
        ``spec_version`` for the same fingerprint replaces the local
        one (newest protocol wins).  Intact artifact bundles ride
        along; torn ones (no manifest) are skipped.  Merging is
        idempotent: a second merge of the same source changes nothing.
        Works across backends (file → sqlite and back); counts merged
        rows on the ``store.merged`` counter.
        """
        if not isinstance(src, ResultCache):
            src = ResultCache(src)
        merged = replaced = skipped = artifacts = 0
        mine = set(self.fingerprints())
        for fingerprint in src.fingerprints():
            try:
                result, params = src.backend.load(fingerprint)
            except (FileNotFoundError, ValueError, KeyError) as exc:
                src._corrupt(fingerprint, exc)
                skipped += 1
                continue
            if fingerprint in mine:
                try:
                    _, local = self.backend.load(fingerprint)
                    local_version = int(local.get("spec_version", 0))
                except (FileNotFoundError, ValueError, KeyError):
                    local_version = -1
                if int(params.get("spec_version", 0)) <= local_version:
                    skipped += 1
                    continue
                replaced += 1
            else:
                merged += 1
            self.backend.save(fingerprint, result, params)
            if src.get_artifact(fingerprint) is not None:
                target = self.backend.artifact_dir(fingerprint)
                if target.exists():
                    shutil.rmtree(target, ignore_errors=True)
                shutil.copytree(src.backend.artifact_dir(fingerprint),
                                target)
                artifacts += 1
        if merged or replaced:
            obs.add("store.merged", merged + replaced)
        return MergeStats(merged=merged, replaced=replaced,
                          skipped=skipped, artifacts=artifacts)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.fingerprints())

    def evict(self, job: Job) -> None:
        """Drop one cell, metrics and artifact payload both (no-op if
        absent)."""
        fingerprint = job.fingerprint
        self.backend.delete(fingerprint)
        artifact = self.artifact_path(fingerprint)
        if artifact.exists():
            shutil.rmtree(artifact, ignore_errors=True)

