"""`repro report` path: cached sweeps load back as queryable outcomes."""

import csv
import json

import pytest

from repro import api
from repro.cli import main
from repro.engine import (ResultCache, ScenarioGrid, filter_outcomes,
                          grid_table, job_from_params, pivot, run_sweep)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """A finished smoke sweep: 2 approaches × 2 imputers × 2 seeds."""
    root = tmp_path_factory.mktemp("sweep-cache")
    grid = ScenarioGrid(datasets=["german"],
                        approaches=[None, "Hardt-eo"],
                        errors=["missing"], imputers=["mean", "knn"],
                        seeds=[0, 1], rows=[300], causal_samples=200)
    report = run_sweep(grid.expand(), cache=ResultCache(root))
    assert not report.failures
    return root


@pytest.fixture(scope="module")
def audit_cache_dir(tmp_path_factory):
    """A finished audited sweep (rung-3 counterfactual per cell)."""
    root = tmp_path_factory.mktemp("audit-cache")
    grid = ScenarioGrid(datasets=["german"], approaches=[None],
                        seeds=[0], rows=[300], causal_samples=200,
                        audit="counterfactual",
                        audit_params={"n_particles": 5, "max_rows": 10})
    report = run_sweep(grid.expand(), cache=ResultCache(root))
    assert not report.failures
    return root


class TestJobReconstruction:
    def test_round_trips_the_fingerprint(self, cache_dir):
        cache = ResultCache(cache_dir)
        for fingerprint, _, params in cache.entries():
            assert job_from_params(params).fingerprint == fingerprint

    def test_stale_spec_version_duplicates_collapse(self, cache_dir,
                                                    tmp_path):
        # A cache surviving a SPEC_VERSION bump holds the same logical
        # cell under the old and new fingerprints; report must keep
        # only the newest, not average the old protocol's numbers in.
        import shutil

        root = tmp_path / "cache"
        shutil.copytree(cache_dir, root)
        cache = ResultCache(root)
        fingerprint = cache.fingerprints()[0]
        path = root / fingerprint[:2] / f"{fingerprint}.json"
        payload = json.loads(path.read_text())
        stale = "f" * 64
        payload["run"] = stale
        payload["params"]["fingerprint"] = stale
        payload["params"]["spec_version"] = 2
        payload["results"][0]["accuracy"] = 0.123
        (root / stale[:2]).mkdir(exist_ok=True)
        (root / stale[:2] / f"{stale}.json").write_text(
            json.dumps(payload))
        outcomes = cache.outcomes()
        assert len(outcomes) == 8  # not 9
        assert 0.123 not in {o.result.accuracy for o in outcomes}

    def test_outcomes_are_cached_and_baseline_first(self, cache_dir):
        outcomes = ResultCache(cache_dir).outcomes()
        assert len(outcomes) == 8
        assert all(o.cached and o.ok for o in outcomes)
        # Grid-like order within each imputer block: baseline rows
        # before approach rows.
        knn_block = [o for o in outcomes if o.job.imputer == "knn"]
        assert [o.job.approach for o in knn_block] == \
            [None, None, "Hardt-eo", "Hardt-eo"]


class TestApiReport:
    def test_loads_without_reexecution(self, cache_dir, monkeypatch):
        import repro.engine.executor as executor_module

        def boom(job):
            raise AssertionError("report must not execute jobs")

        monkeypatch.setattr(executor_module, "execute_job", boom)
        report = api.report(cache_dir)
        assert len(report.outcomes) == 8
        assert report.cached_count == 8

    def test_grid_table_matches_live_sweep_shape(self, cache_dir):
        report = api.report(cache_dir, where={"imputer": "mean"})
        table = grid_table(report.outcomes, dataset="german")
        assert "LR" in table and "Hardt" in table

    def test_where_filters_by_any_axis(self, cache_dir):
        assert len(api.report(cache_dir,
                              where={"imputer": "knn"}).outcomes) == 4
        assert len(api.report(cache_dir, where={"seed": "1"}).outcomes) \
            == 4
        assert len(api.report(cache_dir, where={
            "imputer": "knn", "approach": "Hardt-eo"}).outcomes) == 2
        assert api.report(cache_dir,
                          where={"error": "none"}).outcomes == []

    def test_unknown_axis_rejected(self, cache_dir):
        with pytest.raises(KeyError):
            api.report(cache_dir, where={"bogus": "x"})

    def test_missing_cache_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            api.report(tmp_path / "nope")

    def test_audit_metric_pivot(self, audit_cache_dir):
        report = api.report(audit_cache_dir)
        table = pivot(report.outcomes, index="approach",
                      columns="dataset", value="cf_mean_gap")
        assert isinstance(table[None]["german"], float)


class TestFilterOutcomes:
    def test_parameter_restating_default_matches_bare_key(self,
                                                          cache_dir):
        outcomes = ResultCache(cache_dir).outcomes()
        # tau=0.8 restates Celis-pp's declared default, so canonically
        # it is the bare key; here no Celis cells exist, so both forms
        # simply filter to nothing rather than erroring.
        assert filter_outcomes(outcomes,
                               {"approach": "Celis-pp(tau=0.8)"}) == \
            filter_outcomes(outcomes, {"approach": "Celis-pp"})

    def test_baseline_aliases_select_baseline(self, cache_dir):
        outcomes = ResultCache(cache_dir).outcomes()
        assert len(filter_outcomes(outcomes, {"approach": "baseline"})) \
            == 4
        assert len(filter_outcomes(outcomes, {"approach": "none"})) == 4


class TestGridSlices:
    def test_varying_axes_split_into_labelled_tables(self, cache_dir):
        from repro.engine import grid_slices

        outcomes = ResultCache(cache_dir).outcomes()
        slices = dict(grid_slices(outcomes))
        # Only the imputer axis varies in this cache.
        assert set(slices) == {"imputer=mean", "imputer=knn"}
        assert all(len(cells) == 4 for cells in slices.values())

    def test_single_slice_has_empty_label(self, cache_dir):
        from repro.engine import filter_outcomes, grid_slices

        outcomes = filter_outcomes(ResultCache(cache_dir).outcomes(),
                                   {"imputer": "mean"})
        assert grid_slices(outcomes) == [("", outcomes)]


class TestCli:
    def test_report_renders_tables_per_slice(self, cache_dir, capsys):
        assert main(["report", "--store", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "8 cached cells" in out
        assert "german" in out and "Hardt" in out
        # The varying imputer axis gets one unambiguous table each.
        assert "imputer=mean," in out and "imputer=knn," in out

    def test_report_bad_overhead_axis_fails_cleanly(self, cache_dir,
                                                    capsys):
        assert main(["report", "--store", str(cache_dir),
                     "--overhead", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--pivot", "nosuch", "seed", "accuracy"],
         "unknown report axis(es) ['nosuch']; choose from"),
        (["--overhead", "nosuch"],
         "unknown report axis(es) ['nosuch']; choose from"),
        (["--where", "seed=abc"], "seed must be an integer, got 'abc'"),
        (["--where", "rows=x"], "rows must be an integer, got 'x'"),
        (["--where", "n_features=1.5"],
         "n_features must be an integer, got '1.5'"),
    ], ids=["pivot", "overhead", "where-seed", "where-rows",
            "where-n_features"])
    def test_report_bad_axis_is_named_error(self, cache_dir, argv,
                                            message, capsys):
        assert main(["report", "--store", str(cache_dir),
                     "--no-tables", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1  # one line, no traceback

    def test_report_bad_pivot_metric_prints_no_table(self, cache_dir,
                                                     capsys):
        # Every pivot resolves before anything renders, so a typo in
        # the metric costs no report.
        assert main(["report", "--store", str(cache_dir),
                     "--pivot", "approach", "seed", "accuracy",
                     "--pivot", "approach", "seed", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown metric 'nosuch'")

    def test_report_pivot_and_where(self, cache_dir, capsys):
        code = main(["report", "--store", str(cache_dir),
                     "--where", "imputer=knn",
                     "--pivot", "approach", "imputer", "accuracy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cached cells" in out
        assert "accuracy by approach × imputer" in out

    def test_report_exports(self, cache_dir, tmp_path, capsys):
        json_path = tmp_path / "out" / "report.json"
        csv_path = tmp_path / "out" / "report.csv"
        code = main(["report", "--store", str(cache_dir),
                     "--no-tables",
                     "--export-json", str(json_path),
                     "--export-csv", str(csv_path)])
        assert code == 0
        records = json.loads(json_path.read_text())
        assert len(records) == 8
        assert {r["imputer"] for r in records} == {"mean", "knn"}
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 8
        assert {row["error"] for row in rows} == {"missing"}

    @pytest.mark.parametrize("flag", ["--export-json", "--export-csv"])
    def test_report_export_to_directory_is_named_error(self, cache_dir,
                                                       tmp_path, flag,
                                                       capsys):
        # Writing the export used to end in an IsADirectoryError
        # traceback after the tables had printed.
        assert main(["report", "--store", str(cache_dir),
                     flag, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag} must name a file, but "
                                f"{str(tmp_path)!r} is a directory\n")

    def test_report_empty_cache_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["report", "--store",
                     str(tmp_path / "empty")]) == 2
        err = capsys.readouterr().err
        assert "is empty" in err and "repro sweep" in err

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--store",
                     str(tmp_path / "nope")]) == 2

    def test_report_bad_where_fails(self, cache_dir, capsys):
        assert main(["report", "--store", str(cache_dir),
                     "--where", "bogus=1"]) == 2
        assert main(["report", "--store", str(cache_dir),
                     "--where", "no-equals-sign"]) == 2
