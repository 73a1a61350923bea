"""Pluggable store backends: URIs, SQL round-trips, older stores."""

import dataclasses
import hashlib
import json
import sqlite3

import pytest

from repro.cli import main
from repro.engine import (FileBackend, Job, ResultCache, ScenarioGrid,
                          SqlBackend, execute_job, parse_store,
                          run_sweep)
from repro.engine.report import _axis_value
from repro.engine.spec import _JOB_AXES, SPEC_VERSION
from repro.pipeline import EvaluationResult, result_to_dict


def make_result(approach="LR", accuracy=0.7) -> EvaluationResult:
    return EvaluationResult(
        approach=approach, dataset="german", stage="baseline",
        accuracy=accuracy, precision=0.6, recall=0.8, f1=0.69,
        di_star=0.9, tprb=0.95, tnrb=0.92, id=0.88, te=0.91, nde=0.93,
        nie=0.97, raw={"di": 0.9}, fit_seconds=0.5)


JOB = Job(dataset="german", approach=None, rows=400, causal_samples=300)
OTHER = Job(dataset="german", approach="Hardt-eo", rows=400,
            causal_samples=300)


class TestParseStore:
    def test_bare_path_is_file_layout(self, tmp_path):
        backend = parse_store(str(tmp_path / "cache"))
        assert isinstance(backend, FileBackend)
        assert backend.root == tmp_path / "cache"
        assert isinstance(parse_store(tmp_path / "cache"), FileBackend)

    def test_file_uri(self, tmp_path):
        backend = parse_store(f"file:{tmp_path / 'cache'}")
        assert isinstance(backend, FileBackend)
        assert backend.root == tmp_path / "cache"

    def test_sqlite_uri(self, tmp_path):
        backend = parse_store(f"sqlite:{tmp_path / 'cells.db'}")
        assert isinstance(backend, SqlBackend)
        assert backend.path == tmp_path / "cells.db"

    def test_backend_instance_passes_through(self, tmp_path):
        backend = SqlBackend(tmp_path / "cells.db")
        assert parse_store(backend) is backend

    def test_uri_round_trips(self, tmp_path):
        for store in (f"sqlite:{tmp_path / 'cells.db'}",
                      f"file:{tmp_path / 'cache'}"):
            cache = ResultCache(store)
            again = ResultCache(cache.uri)
            assert again.uri == cache.uri
            assert type(again.backend) is type(cache.backend)

    def test_empty_uri_rejected(self):
        with pytest.raises(ValueError):
            parse_store("sqlite:")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            parse_store(42)

    def test_unknown_scheme_fails_by_name(self):
        for store in ("duckdb:x.db", "postgres://host/db",
                      "s3+zip:bucket/cache"):
            with pytest.raises(ValueError) as exc:
                parse_store(store)
            message = str(exc.value)
            assert "file:DIR" in message and "sqlite:PATH" in message
            assert repr(store.partition(":")[0]) in message

    def test_unknown_scheme_cli_exits_2(self, capsys):
        from repro.cli import main

        assert main(["report", "--store", "duckdb:x"]) == 2
        err = capsys.readouterr().err
        assert "unknown store scheme 'duckdb'" in err
        assert "file:DIR or sqlite:PATH" in err

    def test_windows_style_path_stays_file(self, tmp_path):
        # A single-letter scheme (drive letter) is not a known scheme.
        backend = parse_store("C:/tmp/cache")
        assert isinstance(backend, FileBackend)


class TestSqlRoundtrip:
    def cache(self, tmp_path) -> ResultCache:
        return ResultCache(f"sqlite:{tmp_path / 'cells.db'}")

    def test_miss_then_hit(self, tmp_path):
        cache = self.cache(tmp_path)
        assert cache.get(JOB) is None
        cache.put(JOB, make_result())
        assert JOB in cache
        assert result_to_dict(cache.get(JOB)) == result_to_dict(
            make_result())

    def test_put_overwrites(self, tmp_path):
        cache = self.cache(tmp_path)
        cache.put(JOB, make_result(accuracy=0.1))
        cache.put(JOB, make_result(accuracy=0.2))
        assert cache.get(JOB).accuracy == 0.2
        assert len(cache) == 1

    def test_distinct_jobs_distinct_rows(self, tmp_path):
        cache = self.cache(tmp_path)
        cache.put(JOB, make_result("LR"))
        cache.put(OTHER, make_result("Hardt", accuracy=0.65))
        assert cache.get(JOB).approach == "LR"
        assert cache.get(OTHER).approach == "Hardt"
        assert cache.fingerprints() == sorted([JOB.fingerprint,
                                               OTHER.fingerprint])

    def test_exists_only_after_first_write(self, tmp_path):
        cache = self.cache(tmp_path)
        assert not cache.exists()
        cache.put(JOB, make_result())
        assert cache.exists()
        assert cache.root.is_file()

    def test_attempts_column_left_at_default(self, tmp_path):
        # A cell's attempt history lives on its live outcome; the
        # column stays for stores that older versions still open.
        cache = self.cache(tmp_path)
        cache.put(JOB, make_result())
        assert cache.backend.connection().execute(
            "SELECT attempts FROM cells").fetchall() == [("[]",)]

    def test_evict(self, tmp_path):
        cache = self.cache(tmp_path)
        cache.put(JOB, make_result())
        cache.evict(JOB)
        assert cache.get(JOB) is None
        assert len(cache) == 0
        cache.evict(JOB)  # idempotent

    def test_corrupt_row_is_a_miss_and_repairable(self, tmp_path):
        cache = self.cache(tmp_path)
        cache.put(JOB, make_result())
        cache.put(OTHER, make_result("Hardt"))
        cache.chaos_corrupt(JOB)
        assert cache.get(JOB) is None  # miss, not a crash
        assert cache.get(OTHER) is not None
        problems = cache.verify()
        assert [p.kind for p in problems] == ["unreadable"]
        assert problems[0].fingerprint == JOB.fingerprint
        cache.verify(repair=True)
        assert len(cache) == 1
        assert cache.verify() == []

    def test_garbage_file_reports_value_error(self, tmp_path):
        path = tmp_path / "cells.db"
        path.write_bytes(b"this is not a database at all" * 30)
        cache = ResultCache(f"sqlite:{path}")
        assert cache.exists()
        with pytest.raises(ValueError, match="not a sqlite result store"):
            cache.fingerprints()

    def test_verify_flags_stale_spec_version(self, tmp_path):
        cache = self.cache(tmp_path)
        cache.put(JOB, make_result())
        params = {"fingerprint": JOB.fingerprint, **JOB.params()}
        params["spec_version"] = 1
        cache.backend.save(JOB.fingerprint, make_result(), params)
        assert [p.kind for p in cache.verify()] == ["stale"]


#: The schema SQL stores had under the same store_version while reports
#: compiled to SQL: two more ``cells`` columns, a per-metric side
#: table, and an index on each; and, before ``SPEC_VERSION`` 7, the
#: ``metric``, ``chunk_rows`` and ``block_size`` axis columns.
OLDER_DDL = """
PRAGMA journal_mode=WAL;
CREATE TABLE cells (
    fingerprint TEXT PRIMARY KEY,
    spec_version INTEGER NOT NULL,
    "dataset" TEXT, "approach" TEXT, "model" TEXT, "error" TEXT,
    "imputer" TEXT, "metric" TEXT, "seed" INTEGER, "rows" INTEGER,
    "n_features" INTEGER, "audit" TEXT, "chunk_rows" INTEGER,
    "block_size" INTEGER,
    grid_order TEXT,
    params TEXT NOT NULL,
    result TEXT NOT NULL,
    raw TEXT NOT NULL,
    attempts TEXT NOT NULL DEFAULT '[]',
    artifact TEXT
);
CREATE TABLE cell_values (
    fingerprint TEXT NOT NULL,
    key TEXT NOT NULL,
    value REAL,
    repr TEXT NOT NULL,
    PRIMARY KEY (fingerprint, key)
);
CREATE INDEX cell_values_key ON cell_values (key, fingerprint);
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);
INSERT INTO meta VALUES ('store_version', '1');
CREATE INDEX cells_grid_order ON cells (grid_order, fingerprint);
"""

#: The axis columns SQL stores had up to ``SPEC_VERSION`` 6 (those of
#: :data:`OLDER_DDL`), in table order: the current axes plus
#: ``metric``, ``chunk_rows`` and ``block_size``.
V6_AXES = ("dataset", "approach", "model", "error", "imputer", "metric",
           "seed", "rows", "n_features", "audit", "chunk_rows",
           "block_size")


class TestOlderStore:
    """A store written under :data:`OLDER_DDL` loads, takes puts,
    filters, merges both ways, verifies clean, and sheds the old
    report tables on compact."""

    JOBS = ScenarioGrid(datasets=["german", "compas"],
                        approaches=[None, "Hardt-eo", "Feld-dp"],
                        seeds=[0, 1], rows=[300],
                        causal_samples=200).expand()

    @staticmethod
    def result(job) -> EvaluationResult:
        return make_result(job.approach_label,
                           accuracy=0.5 + job.seed / 10 + job.rows / 1e4)

    def write_older(self, path, jobs) -> None:
        conn = sqlite3.connect(path)
        conn.executescript(OLDER_DDL)
        for order, job in enumerate(jobs):
            params = {"fingerprint": job.fingerprint, **job.params()}
            result = result_to_dict(self.result(job))
            # The removed axes (metric, chunk_rows, block_size) are NULL.
            axes = {axis: _axis_value(job, axis) for axis in _JOB_AXES}
            conn.execute(
                "INSERT INTO cells VALUES (" + ", ".join(["?"] * 20) + ")",
                (job.fingerprint, params["spec_version"],
                 *(axes.get(axis) for axis in V6_AXES),
                 f"{order:04d}", json.dumps(params, sort_keys=True),
                 json.dumps(result, sort_keys=True),
                 json.dumps(result["raw"], sort_keys=True), "[]", None))
            conn.executemany(
                "INSERT INTO cell_values VALUES (?, ?, ?, ?)",
                [(job.fingerprint, key, result[key], repr(result[key]))
                 for key in ("accuracy", "f1")])
        conn.commit()
        conn.close()

    @staticmethod
    def cells(cache, where=None) -> list:
        return [(o.job, o.result) for o in cache.outcomes(where=where)]

    def test_older_store_keeps_working(self, tmp_path):
        path = tmp_path / "older.db"
        self.write_older(path, self.JOBS[::2])
        older = ResultCache(f"sqlite:{path}")
        reference = ResultCache(tmp_path / "reference")
        for job in self.JOBS[::2]:
            reference.put(job, self.result(job))
        assert len(older) == 6
        assert self.cells(older) == self.cells(reference)

        for job in self.JOBS[1::2]:
            older.put(job, self.result(job))
            reference.put(job, self.result(job))
        assert len(older) == 12
        assert self.cells(older) == self.cells(reference)
        for where in ({"dataset": "compas"}, {"approach": "none"},
                      {"approach": "Hardt-eo", "seed": "1"}):
            assert self.cells(older, where) == \
                self.cells(reference, where), where

        copy = ResultCache(tmp_path / "copy")
        assert copy.merge_from(older).merged == 12
        assert self.cells(copy) == self.cells(reference)
        extra = ResultCache(tmp_path / "extra")
        job = Job(dataset="german", approach="Feld-dp", rows=600,
                  causal_samples=200)
        extra.put(job, self.result(job))
        assert older.merge_from(extra).merged == 1
        assert older.get(job) == self.result(job)
        assert older.verify() == [] and copy.verify() == []

        assert older.compact().kept == 13
        schema = {name for (name,) in sqlite3.connect(path).execute(
            "SELECT name FROM sqlite_master")}
        assert "cell_values" not in schema
        assert "cells_grid_order" not in schema
        older.evict(job)
        assert self.cells(older) == self.cells(reference)


#: The ``cells`` table SQL stores had at ``SPEC_VERSION`` 6.
V6_DDL = f"""
CREATE TABLE cells (
    fingerprint TEXT PRIMARY KEY,
    spec_version INTEGER NOT NULL,
    {", ".join(f'"{axis}"' for axis in V6_AXES)},
    params TEXT NOT NULL,
    result TEXT NOT NULL,
    raw TEXT NOT NULL,
    attempts TEXT NOT NULL DEFAULT '[]'
);
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);
INSERT INTO meta VALUES ('store_version', '1');
"""


class TestStoreBeforeSpecVersion7:
    """A store written under ``SPEC_VERSION`` 6 holds two entries of
    one cell that differed only in the since-removed metric axis: both
    verify as stale and report as one cell, a re-run at the current
    version supersedes them, and compact folds them."""

    JOB = Job(dataset="german", rows=300, causal_samples=200)

    def v6_entry(self, **removed) -> tuple[str, dict]:
        """The fingerprint and params block version 6 wrote."""
        params = {**self.JOB.params(), "spec_version": 6,
                  "metric": None, "metric_params": {},
                  "chunk_rows": None, "block_size": None, **removed}
        canonical = json.dumps(params, sort_keys=True,
                               separators=(",", ":"))
        fingerprint = hashlib.sha256(canonical.encode()).hexdigest()
        return fingerprint, {"fingerprint": fingerprint, **params}

    def write_v6(self, kind, path, result) -> str:
        plain = self.v6_entry()
        metric = self.v6_entry(metric="accuracy")
        entries = [(*plain, result),
                   (*metric, dataclasses.replace(result, raw={
                       **result.raw, "metric_value": result.accuracy}))]
        if kind == "file":
            backend = FileBackend(path)
            for fingerprint, params, stored in entries:
                backend.save(fingerprint, stored, params)
            return f"file:{path}"
        conn = sqlite3.connect(path)
        conn.executescript(V6_DDL)
        for fingerprint, params, stored in entries:
            payload = result_to_dict(stored)
            conn.execute(
                "INSERT INTO cells VALUES ("
                + ", ".join(["?"] * (len(V6_AXES) + 6)) + ")",
                (fingerprint, 6, *(params[axis] for axis in V6_AXES),
                 json.dumps(params, sort_keys=True),
                 json.dumps(payload, sort_keys=True),
                 json.dumps(payload["raw"], sort_keys=True), "[]"))
        conn.commit()
        conn.close()
        return f"sqlite:{path}"

    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_stale_cells_report_then_yield_to_a_rerun(self, kind,
                                                      tmp_path, capsys):
        # Wall-clock fit time tells the version-6 result from a rerun's.
        result = dataclasses.replace(execute_job(self.JOB),
                                     fit_seconds=123.0)
        uri = self.write_v6(kind, tmp_path / "store", result)
        assert main(["cache", "verify", "--store", uri]) == 1
        err = capsys.readouterr().err
        assert err.count("stale: ") == 2
        assert f"spec_version 6 (current {SPEC_VERSION})" in err
        assert main(["report", "--store", uri]) == 0
        assert capsys.readouterr().out.startswith("1 cached cells in ")

        cache = ResultCache(uri)
        assert run_sweep([self.JOB], cache=cache).computed_count == 1
        (outcome,) = cache.outcomes()
        assert outcome.job == self.JOB
        assert outcome.result.fit_seconds != 123.0
        assert main(["cache", "compact", "--store", uri]) == 0
        assert ("folded 2 stale duplicate(s), 1 entries kept"
                in capsys.readouterr().out)
        assert cache.fingerprints() == [self.JOB.fingerprint]
        assert main(["cache", "verify", "--store", uri]) == 0
        cache.close()


class TestFileBackendVacuum:
    def test_drops_empty_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, make_result())
        shard = cache.put(OTHER, make_result("Hardt")).parent
        cache.evict(OTHER)
        assert shard.exists() or True  # evict leaves the shard dir
        cache.backend.vacuum()
        remaining = {p.name for p in tmp_path.iterdir()}
        assert JOB.fingerprint[:2] in remaining
        if OTHER.fingerprint[:2] != JOB.fingerprint[:2]:
            assert OTHER.fingerprint[:2] not in remaining
