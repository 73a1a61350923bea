"""Golden parity: file and SQL backends render identical reports.

Both backends report through :meth:`ResultCache.outcomes` (the SQL
backend runs ``--where`` filters in its row scan); this suite fills a
file cache and a SQLite cache with the *same* deterministic results
and asserts every rendered table and export is byte-identical between
the two — the contract `repro report --store sqlite:…` depends on.
"""

import json

import pytest

from repro.engine import (Job, ResultCache, ScenarioGrid, export_csv,
                          export_json, format_pivot_table, grid_table)
from repro.pipeline import EvaluationResult


def synth_result(job: Job) -> EvaluationResult:
    """A deterministic result derived from the job's fingerprint, so
    both caches hold identical numbers without fitting anything."""
    seed = int(job.fingerprint[:12], 16)

    def v(shift: int) -> float:
        return ((seed >> shift) % 997) / 997.0

    return EvaluationResult(
        approach=job.approach_label, dataset=job.dataset, stage="test",
        accuracy=v(0), precision=v(3), recall=v(5), f1=v(7),
        di_star=v(9), tprb=v(11), tnrb=v(13), id=v(15), te=v(17),
        nde=v(19), nie=v(21),
        raw={"di": v(2), "metric_value": v(4)},
        fit_seconds=0.05 + v(6))


GRID = ScenarioGrid(datasets=["german"],
                    approaches=[None, "Hardt-eo", "Feld-dp"],
                    seeds=[0, 1], rows=[300, 600], causal_samples=200)


@pytest.fixture(scope="module")
def jobs():
    return GRID.expand()


@pytest.fixture(scope="module")
def file_cache(tmp_path_factory, jobs):
    cache = ResultCache(tmp_path_factory.mktemp("file-cache"))
    for job in jobs:
        cache.put(job, synth_result(job))
    return cache


@pytest.fixture(scope="module")
def sql_cache(tmp_path_factory, jobs):
    root = tmp_path_factory.mktemp("sql-cache")
    cache = ResultCache(f"sqlite:{root / 'cells.db'}")
    for job in jobs:
        cache.put(job, synth_result(job))
    return cache


class TestOutcomeParity:
    def test_same_cells_same_order(self, file_cache, sql_cache):
        fo = file_cache.outcomes()
        so = sql_cache.outcomes()
        assert [o.job for o in fo] == [o.job for o in so]
        assert [o.result for o in fo] == [o.result for o in so]

    def test_where_pushdown_matches(self, file_cache, sql_cache):
        for where in ({"approach": "none"}, {"seed": "1"},
                      {"rows": 300}, {"approach": "Hardt-eo"},
                      {"approach": "Feld-dp", "rows": "600"},
                      {"error": "none"}):
            fo = file_cache.outcomes(where=where)
            so = sql_cache.outcomes(where=where)
            assert [o.job for o in fo] == [o.job for o in so], where

    def test_unknown_axis_raises_on_both(self, file_cache, sql_cache):
        for cache in (file_cache, sql_cache):
            with pytest.raises(KeyError, match="unknown report axis"):
                cache.outcomes(where={"bogus": "x"})


class TestReportParity:
    def test_pivot_tables_identical(self, file_cache, sql_cache):
        for index, columns, value in (
                ("approach", "rows", "accuracy"),
                ("approach", "seed", "di_star"),
                ("rows", "approach", "fit_seconds"),
                ("approach", "rows", "di"),  # raw key
                ("seed", "dataset", "f1")):
            ft = file_cache.pivot(index=index, columns=columns,
                                  value=value)
            st = sql_cache.pivot(index=index, columns=columns,
                                 value=value)
            assert ft == st, (index, columns, value)  # exact floats
            assert list(ft) == list(st)  # row order
            for row in ft:
                assert list(ft[row]) == list(st[row])  # column order
            assert format_pivot_table(ft, index, columns, value) == \
                format_pivot_table(st, index, columns, value)

    def test_pivot_with_where_identical(self, file_cache, sql_cache):
        for where in ({"seed": 0}, {"rows": "600"},
                      {"approach": "none"}):
            ft = file_cache.pivot(index="approach", columns="rows",
                                  value="accuracy", where=where)
            st = sql_cache.pivot(index="approach", columns="rows",
                                 value="accuracy", where=where)
            assert ft == st, where

    def test_grid_tables_identical(self, file_cache, sql_cache):
        assert grid_table(file_cache.outcomes(), dataset="german") == \
            grid_table(sql_cache.outcomes(), dataset="german")

    def test_overhead_series_identical(self, file_cache, sql_cache):
        fs = file_cache.overhead_series(sweep="rows")
        ss = sql_cache.overhead_series(sweep="rows")
        assert fs == ss
        assert list(fs) == list(ss)

    def test_exports_byte_identical(self, file_cache, sql_cache,
                                    tmp_path):
        fj = export_json(file_cache.outcomes(), tmp_path / "f.json")
        sj = export_json(sql_cache.outcomes(), tmp_path / "s.json")
        assert fj.read_bytes() == sj.read_bytes()
        fc = export_csv(file_cache.outcomes(), tmp_path / "f.csv")
        sc = export_csv(sql_cache.outcomes(), tmp_path / "s.csv")
        assert fc.read_bytes() == sc.read_bytes()

    def test_unknown_metric_raises_identically(self, file_cache,
                                               sql_cache):
        with pytest.raises(KeyError) as file_exc:
            file_cache.pivot(index="approach", columns="rows",
                             value="nope")
        with pytest.raises(KeyError) as sql_exc:
            sql_cache.pivot(index="approach", columns="rows",
                            value="nope")
        assert file_exc.value.args == sql_exc.value.args

    def test_unknown_pivot_axis_raises_identically(self, file_cache,
                                                   sql_cache):
        messages = []
        for cache in (file_cache, sql_cache):
            with pytest.raises(KeyError, match="'bogus'") as exc:
                cache.pivot(index="bogus", columns="rows",
                            value="accuracy")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_missing_baseline_raises_identically(self, tmp_path):
        grid = ScenarioGrid(datasets=["german"],
                            approaches=["Hardt-eo"], seeds=[0],
                            rows=[300], causal_samples=200)
        stores = (str(tmp_path / "file"),
                  f"sqlite:{tmp_path / 'cells.db'}")
        messages = []
        for store in stores:
            cache = ResultCache(store)
            for job in grid.expand():
                cache.put(job, synth_result(job))
            with pytest.raises(ValueError) as exc:
                cache.overhead_series(sweep="rows")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestMixedVersionFallback:
    def inject_stale(self, cache: ResultCache) -> None:
        """Store a stale-spec-version duplicate of the first cell
        under a fabricated fingerprint (what a cache that survived a
        SPEC_VERSION bump looks like)."""
        fingerprint = cache.fingerprints()[0]
        result, params = cache.backend.load(fingerprint)
        stale = "f" * 64
        params = dict(params)
        params["fingerprint"] = stale
        params["spec_version"] = int(params["spec_version"]) - 1
        cache.backend.save(stale, result, params)

    def test_falls_back_and_collapses(self, tmp_path, jobs):
        cache = ResultCache(f"sqlite:{tmp_path / 'cells.db'}")
        for job in jobs:
            cache.put(job, synth_result(job))
        reference = cache.pivot(index="approach", columns="rows",
                                value="accuracy")
        self.inject_stale(cache)
        assert len(cache.outcomes()) == len(jobs)  # dup collapsed
        assert cache.pivot(index="approach", columns="rows",
                           value="accuracy") == reference

    def test_compact_restores_sql_path(self, tmp_path, jobs):
        cache = ResultCache(f"sqlite:{tmp_path / 'cells.db'}")
        for job in jobs:
            cache.put(job, synth_result(job))
        self.inject_stale(cache)
        stats = cache.compact()
        assert stats.folded == 1
        assert stats.kept == len(jobs)


class TestCliParity:
    def test_report_renders_identically(self, file_cache, sql_cache,
                                        tmp_path, capsys):
        from repro.cli import main

        argv_tail = ["--pivot", "approach", "rows", "accuracy",
                     "--overhead", "rows"]
        outputs = []
        for target in (str(file_cache.root), sql_cache.uri):
            assert main(["report", "--store", target, *argv_tail]) == 0
            lines = capsys.readouterr().out.splitlines()
            # The first line names the store; everything after must
            # match byte-for-byte.
            outputs.append("\n".join(lines[1:]))
        assert outputs[0] == outputs[1]

    def test_export_files_byte_identical(self, file_cache, sql_cache,
                                         tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--store", str(file_cache.root),
                     "--no-tables", "--export-csv",
                     str(tmp_path / "f.csv"), "--export-json",
                     str(tmp_path / "f.json")]) == 0
        assert main(["report", "--store", sql_cache.uri,
                     "--no-tables", "--export-csv",
                     str(tmp_path / "s.csv"), "--export-json",
                     str(tmp_path / "s.json")]) == 0
        assert (tmp_path / "f.csv").read_bytes() == \
            (tmp_path / "s.csv").read_bytes()
        assert (tmp_path / "f.json").read_bytes() == \
            (tmp_path / "s.json").read_bytes()
        records = json.loads((tmp_path / "s.json").read_text())
        assert len(records) == 12
