"""The declarative experiment API: specs, configs, and round trips."""

import dataclasses
import json
import re

import pytest

from repro.api import (ExperimentSpec, SweepSpec, load_config, run_spec,
                       sweep)
from repro.cli import main
from repro.engine import ScenarioGrid

SMALL_SWEEP = {
    "sweep": {
        "datasets": ["german"],
        "approaches": ["baseline", "Hardt-eo"],
        "seeds": [0, 1],
        "rows": [400],
        "causal_samples": 300,
    },
    "engine": {"jobs": 1, "store": None, "resume": True},
}


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.dataset == "compas"
        assert spec.approach is None and spec.model == "lr"

    def test_canonicalises_specs(self):
        spec = ExperimentSpec(dataset="german", approach="baseline",
                              model={"key": "knn", "params": {"k": 7}})
        assert spec.approach is None
        assert spec.model == "knn(k=7)"

    def test_config_round_trip_is_identity(self):
        spec = ExperimentSpec(dataset="german",
                              approach="Celis-pp(tau=0.9)",
                              model="knn(k=7)", error="t1", seed=3,
                              rows=500, causal_samples=400,
                              audit="counterfactual",
                              audit_params={"n_particles": 5})
        assert ExperimentSpec.from_config(spec.to_config()) == spec

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            ExperimentSpec(approach="FairGAN")
        with pytest.raises(ValueError):
            ExperimentSpec(approach="Celis-pp(bogus=1)")

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="typo_field"):
            ExperimentSpec.from_config({"dataset": "german",
                                        "typo_field": 1})

    def test_to_job_carries_params(self):
        job = ExperimentSpec(dataset="german",
                             approach="Celis-pp(tau=0.9)",
                             model="knn(k=7)").to_job()
        assert job.approach == "Celis-pp"
        assert job.approach_params == {"tau": 0.9}
        assert job.model_params == {"k": 7}

    def test_run_matches_run_experiment(self, german_small):
        # The facade must reproduce the long-standing library path.
        from repro.datasets import train_test_split
        from repro.pipeline import run_experiment
        from repro.registry import DATASETS

        spec = ExperimentSpec(dataset="german", approach="Hardt-eo",
                              rows=400, seed=0, causal_samples=300)
        via_api = spec.run()

        dataset = DATASETS.build("german", n=400, seed=0)
        split = train_test_split(dataset, test_fraction=0.3, seed=0)
        direct = run_experiment("Hardt-eo", split.train, split.test,
                                seed=0, causal_samples=300)
        assert via_api.accuracy == direct.accuracy
        assert via_api.fairness_scores() == direct.fairness_scores()

    def test_run_spec_accepts_mapping(self):
        result = run_spec({"dataset": "german", "rows": 300,
                           "causal_samples": 200})
        assert result.approach == "LR"


class TestSweepSpec:
    def test_from_config_round_trip_is_identity(self):
        spec = SweepSpec.from_config(SMALL_SWEEP)
        assert SweepSpec.from_config(spec.to_config()) == spec

    def test_seeds_as_count(self):
        spec = SweepSpec.from_config(
            {"datasets": ["german"], "seeds": 3})
        assert spec.seeds == (0, 1, 2)
        with pytest.raises(ValueError):
            SweepSpec.from_config({"datasets": ["german"], "seeds": 0})
        with pytest.raises(ValueError, match="seeds count must be an "
                                             "integer >= 1, got True"):
            SweepSpec.from_config({"datasets": ["german"], "seeds": True})

    def test_flat_mapping_accepted(self):
        flat = {"datasets": ["german"], "approaches": ["Hardt-eo"],
                "jobs": 2}
        spec = SweepSpec.from_config(flat)
        assert spec.jobs == 2
        assert spec.approaches == ("Hardt-eo",)

    def test_field_in_two_sections_rejected(self):
        with pytest.raises(ValueError, match="both"):
            SweepSpec.from_config({"sweep": {"datasets": ["german"],
                                             "jobs": 1},
                                   "engine": {"jobs": 2}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="typo"):
            SweepSpec.from_config({"datasets": ["german"], "typo": 1})

    def test_threads_field_is_gone(self):
        with pytest.raises(ValueError, match="'threads'"):
            SweepSpec.from_config({"sweep": {"datasets": ["german"],
                                             "threads": 2}})

    @pytest.mark.parametrize("field, value", [
        ("metrics", ["accuracy"]), ("chunk_rows", 256),
        ("block_size", 64), ("cache_dir", ".sweep-cache")])
    def test_removed_fields_are_gone(self, field, value, tmp_path,
                                     capsys):
        with pytest.raises(ValueError, match=f"'{field}'"):
            SweepSpec.from_config({"sweep": {"datasets": ["german"],
                                             field: value}})
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"datasets": ["german"],
                                      field: value}))
        assert main(["sweep", "--config", str(config),
                     "--store", "none"]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "Traceback" not in err
        single = "metric" if field == "metrics" else field
        with pytest.raises(ValueError, match=f"'{single}'"):
            ExperimentSpec.from_config({"dataset": "german",
                                        single: value})

    def test_cache_dir_flag_is_gone(self, tmp_path, capsys):
        # --store is the one way to name a result store.
        for command in (["sweep"], ["report"], ["cache", "verify"],
                        ["pack", "--out", str(tmp_path / "bundle")]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--cache-dir", str(tmp_path)])
            assert exc.value.code == 2
            assert ("unrecognized arguments: --cache-dir"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("field, value", [
        ("rows", 300), ("datasets", "german"), ("approaches", "Hardt-eo")])
    def test_scalar_grid_dimension_names_the_field(self, field, value,
                                                   tmp_path, capsys):
        fields = {"datasets": ["german"], field: value}
        message = f"{field} must be a list of values, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec.from_config({"sweep": fields})
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioGrid(**fields)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(fields))
        assert main(["sweep", "--config", str(config),
                     "--store", "none"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_fields_assigned_after_construction_checked_at_run(self):
        # A spec and its grid are frozen: a field cannot be assigned
        # past the checks, and a replaced field is checked anew.
        spec = SweepSpec(datasets=["german"])
        grid = ScenarioGrid(datasets=["german"])
        for target, name, value in ((spec, "rows", [0]),
                                    (spec, "jobs", 0),
                                    (grid, "rows", [0]),
                                    (grid, "approaches",
                                     ["NoSuchApproach"])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, value)
        assert spec.rows == grid.rows == (4000,) and spec.jobs == 1
        with pytest.raises(ValueError, match="rows entries must be an "
                                             "integer >= 1, got 0"):
            dataclasses.replace(spec, rows=[0])
        with pytest.raises(ValueError, match="jobs must be an integer "
                                             ">= 1, got 0"):
            dataclasses.replace(spec, jobs=0)

    def test_grid_matches_direct_scenario_grid(self):
        spec = SweepSpec.from_config(SMALL_SWEEP)
        direct = ScenarioGrid(datasets=["german"],
                              approaches=[None, "Hardt-eo"],
                              seeds=[0, 1], rows=[400],
                              causal_samples=300)
        assert ([j.fingerprint for j in spec.expand()]
                == [j.fingerprint for j in direct.expand()])

    def test_param_override_changes_fingerprints(self):
        base = SweepSpec.from_config(
            {"datasets": ["german"], "approaches": ["Celis-pp"]})
        tuned = SweepSpec.from_config(
            {"datasets": ["german"],
             "approaches": ["Celis-pp(tau=0.9)"]})
        assert (base.expand()[0].fingerprint
                != tuned.expand()[0].fingerprint)

    def test_json_and_yaml_configs_load(self, tmp_path):
        json_path = tmp_path / "sweep.json"
        json_path.write_text(json.dumps(SMALL_SWEEP))
        from_json = SweepSpec.from_config(json_path)

        yaml = pytest.importorskip("yaml")
        yaml_path = tmp_path / "sweep.yaml"
        yaml_path.write_text(yaml.safe_dump(SMALL_SWEEP))
        assert SweepSpec.from_config(yaml_path) == from_json
        assert load_config(yaml_path) == json.loads(json_path.read_text())

    def test_repo_example_config_expands(self):
        import pathlib

        path = (pathlib.Path(__file__).parents[2] / "examples"
                / "sweep.yaml")
        spec = SweepSpec.from_config(path)
        # (baseline + 2) × 2 errors × 1 imputer × 2 seeds
        assert spec.size == 12
        assert spec.imputers == ("knn",)
        assert spec.jobs == 2

    def test_sweep_runs_end_to_end(self):
        report = sweep(SMALL_SWEEP)
        assert len(report.outcomes) == 4
        assert not report.failures

    @pytest.mark.parametrize("entry", ["run", "sweep"])
    def test_trace_file_rejected_before_any_cell(self, entry, tmp_path):
        # The whole sweep used to run, then the trace was lost in a
        # FileExistsError.
        trace = tmp_path / "trace"
        trace.write_text("")
        spec = SweepSpec(datasets=["german"], rows=[300],
                         causal_samples=200, store=str(tmp_path / "store"))
        with pytest.raises(ValueError, match=re.escape(
                f"trace must name a directory, but {str(trace)!r} is "
                "a file")):
            if entry == "run":
                spec.run(trace=trace)
            else:
                sweep(spec, trace=str(trace))
        assert not (tmp_path / "store").exists()


class TestConfigEqualsLegacyFlags:
    def test_config_sweep_hits_legacy_flag_cache(self, tmp_path, capsys):
        """A --config sweep and the equivalent flag-driven sweep are
        cell-for-cell identical: the second run is 100% cache hits."""
        cache = tmp_path / "cache"
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(SMALL_SWEEP))

        assert main(["sweep", "--config", str(config_path),
                     "--store", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "4 cells, 4 computed, 0 cached" in out

        assert main(["sweep", "--dataset", "german", "--approach",
                     "Hardt-eo", "--rows", "400", "--seeds", "2",
                     "--causal-samples", "300",
                     "--store", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "4 cells, 0 computed, 4 cached" in out

    def test_config_excludes_grid_flags(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(SMALL_SWEEP))
        code = main(["sweep", "--config", str(config_path),
                     "--dataset", "german"])
        assert code == 2
        assert "--config" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/no/such/file.yaml"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_yaml_config_is_clean_error(self, tmp_path,
                                                  capsys):
        pytest.importorskip("yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("sweep: [unclosed\n  datasets: {")
        assert main(["sweep", "--config", str(bad)]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_config_without_cache_dir_still_caches(self, tmp_path,
                                                   capsys, monkeypatch):
        # The CLI promises a .sweep-cache default; a config omitting
        # engine.store must not silently disable caching.
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "sweep.json"
        config = {"sweep": dict(SMALL_SWEEP["sweep"])}
        config["sweep"]["approaches"] = ["baseline"]
        config["sweep"]["seeds"] = [0]
        config_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "cache at .sweep-cache" in out
        assert (tmp_path / ".sweep-cache").is_dir()


class TestAuditThreading:
    CONFIG = {
        "sweep": {
            "datasets": ["german"],
            "approaches": ["baseline"],
            "rows": [300],
            "causal_samples": 200,
            "audit": "counterfactual",
            "audit_params": {"n_particles": 8, "max_rows": 10,
                             "n_samples": 300},
        },
    }

    def test_audit_results_merged_into_raw(self):
        report = sweep(self.CONFIG)
        assert not report.failures
        raw = report.results[0].raw
        for key in ("cf_mean_gap", "cf_max_gap", "cf_unfair_fraction",
                    "ctf_de", "ctf_ie", "ctf_se", "ctf_tv",
                    "cf_fpr_gap", "cf_fnr_gap"):
            assert key in raw

    def test_audit_and_chunk_rows_feed_fingerprint(self):
        spec = SweepSpec.from_config(self.CONFIG)
        plain = SweepSpec.from_config(
            {"datasets": ["german"], "approaches": ["baseline"],
             "rows": [300], "causal_samples": 200})
        assert (spec.expand()[0].fingerprint
                != plain.expand()[0].fingerprint)

    def test_audit_cell_cached_like_any_other(self, tmp_path):
        spec = dataclasses.replace(SweepSpec.from_config(self.CONFIG),
                                   store=str(tmp_path / "cache"))
        first = spec.run()
        again = spec.run()
        assert first.computed_count == 1
        assert again.cached_count == 1
        assert (again.results[0].raw["cf_mean_gap"]
                == first.results[0].raw["cf_mean_gap"])

    def test_unknown_audit_rejected(self):
        with pytest.raises(ValueError, match="audit"):
            SweepSpec.from_config({"datasets": ["german"],
                                   "audit": "quantum"})

    @pytest.mark.parametrize("params", [
        {"n_bins": 1}, {"n_particles": 0}, {"max_rows": 0},
        {"n_samples": -5}, {"n_bins": "four"}, {"n_particles": 2.5}])
    def test_bad_audit_param_values_rejected(self, params, tmp_path,
                                             capsys):
        # Each used to build its grid and then fail every cell inside
        # the worker.
        name = next(iter(params))
        match = f"audit parameter {name} must be an integer"
        with pytest.raises(ValueError, match=match):
            ScenarioGrid(datasets=["german"], audit="counterfactual",
                         audit_params=params)
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(dataset="german", audit="counterfactual",
                           audit_params=params)
        with pytest.raises(ValueError, match=match):
            SweepSpec(datasets=["german"], audit="counterfactual",
                      audit_params=params)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {"datasets": ["german"], "audit": "counterfactual",
             "audit_params": params}))
        assert main(["sweep", "--config", str(config),
                     "--store", "none"]) == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err


class TestProtocolValues:
    @pytest.mark.parametrize("field, value, match", [
        ("feature_counts", [-1], "feature_counts entries must be an "
                                 "integer >= 1, got -1"),
        ("feature_counts", [0], "feature_counts entries must be an "
                                "integer >= 1, got 0"),
        ("feature_counts", [2.5], "feature_counts entries must be an "
                                  "integer >= 1, got 2.5"),
        ("causal_samples", 0, "causal_samples must be an integer >= 1, "
                              "got 0"),
        ("causal_samples", -5, "causal_samples must be an integer >= 1, "
                               "got -5"),
        ("test_fraction", 1.5, "test_fraction must lie strictly between "
                               "0 and 1, got 1.5"),
        ("test_fraction", 0, "test_fraction must lie strictly between "
                             "0 and 1, got 0"),
        ("rows", [300.9], "rows entries must be an integer >= 1, "
                          "got 300.9"),
        ("rows", [0], "rows entries must be an integer >= 1, got 0"),
        ("rows", [True], "rows entries must be an integer >= 1, "
                         "got True"),
        ("seeds", [1.7], "seeds entries must be an integer >= 0, "
                         "got 1.7"),
        ("seeds", [-1], "seeds entries must be an integer >= 0, "
                        "got -1"),
    ], ids=["features-negative", "features-zero", "features-fractional",
            "samples-zero", "samples-negative", "fraction-above-one",
            "fraction-zero", "rows-fractional", "rows-zero", "rows-bool",
            "seeds-fractional", "seeds-negative"])
    def test_bad_values_rejected_at_construction(self, field, value,
                                                 match, tmp_path, capsys):
        # Each used to build its grid and then misbehave per cell: drop
        # or add features silently, return NaN effects, fail inside
        # the worker, or truncate a fractional row count or seed.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"datasets": ["german"],
                                      field: value}))
        assert main(["sweep", "--config", str(config),
                     "--store", "none"]) == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err
        with pytest.raises(ValueError, match=match):
            ScenarioGrid(datasets=["german"], **{field: value})
        with pytest.raises(ValueError, match=match):
            SweepSpec(datasets=["german"], **{field: value})
        single = {"feature_counts": "n_features", "rows": "rows",
                  "seeds": "seed"}
        if field in single:
            match = match.replace(f"{field} entries", single[field])
            field, value = single[field], value[0]
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(dataset="german", **{field: value})

    @pytest.mark.parametrize("field, value, least", [
        ("jobs", 2.9, 1), ("jobs", True, 1), ("jobs", 0, 1),
        ("retry", 2.5, 1), ("retry", 0, 1),
        ("max_failures", 1.5, 0), ("max_failures", -1, 0),
    ], ids=["jobs-fractional", "jobs-bool", "jobs-zero",
            "retry-fractional", "retry-zero", "max_failures-fractional",
            "max_failures-negative"])
    def test_bad_engine_counts_rejected(self, field, value, least,
                                        tmp_path, capsys):
        # Each used to be truncated (2.9 workers ran as 2, True as 1)
        # or, for max_failures, kept as a fraction.
        match = re.escape(f"{field} must be an integer >= {least}, "
                          f"got {value!r}")
        with pytest.raises(ValueError, match=match):
            SweepSpec(datasets=["german"], **{field: value})
        with pytest.raises(ValueError, match=match):
            SweepSpec.from_config({"sweep": {"datasets": ["german"]},
                                   "engine": {field: value}})
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"datasets": ["german"],
                                      field: value}))
        assert main(["sweep", "--config", str(config),
                     "--store", "none"]) == 2
        err = capsys.readouterr().err
        assert re.search(match, err) and "Traceback" not in err

    @pytest.mark.parametrize("field, bound", [("timeout", "> 0"),
                                              ("backoff", ">= 0")],
                             ids=["timeout", "backoff"])
    @pytest.mark.parametrize("value", ["5", True, -1, float("inf"),
                                       float("nan")],
                             ids=["string", "bool", "negative", "inf",
                                  "nan"])
    def test_bad_retry_seconds_rejected(self, field, bound, value,
                                        tmp_path, capsys):
        # A string used to fail later with a TypeError naming no field,
        # True was accepted as one second, an infinite backoff crashed
        # or hung the first retry, and --timeout nan ran with no
        # deadline.
        match = re.escape(f"{field} must be a number of seconds {bound}, "
                          f"got {value!r}")
        with pytest.raises(ValueError, match=match):
            SweepSpec.from_config({"sweep": {"datasets": ["german"]},
                                   "engine": {field: value}})
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"datasets": ["german"],
                                      field: value}))
        assert main(["sweep", "--config", str(config),
                     "--store", "none"]) == 2
        err = capsys.readouterr().err
        assert re.search(match, err) and "Traceback" not in err
        if isinstance(value, float):
            assert main(["sweep", "--dataset", "german", "--no-baseline",
                         "--approach", "baseline", "--rows", "300",
                         "--store", "none", f"--{field}", str(value)]) == 2
            assert capsys.readouterr().err == (
                f"error: {field} must be a number of seconds {bound}, "
                f"got {value!r}\n")

    def test_numpy_integers_accepted(self):
        import numpy as np

        (job,) = ScenarioGrid(datasets=["german"], rows=[np.int64(300)],
                              seeds=[np.int64(2)]).expand()
        assert (job.rows, job.seed) == (300, 2)
        assert type(job.rows) is int and type(job.seed) is int
        spec = ExperimentSpec(dataset="german", rows=np.int64(300),
                              seed=np.int64(2))
        assert spec.to_job().fingerprint == job.fingerprint


class TestParameterizedReporting:
    def test_distinct_params_get_distinct_rows(self):
        """Two tau settings of one approach must not be blended into a
        single averaged table row."""
        report = sweep({
            "datasets": ["german"],
            "approaches": ["Celis-pp(tau=0.6)", "Celis-pp(tau=0.9)"],
            "rows": [300], "causal_samples": 200})
        from repro.engine import aggregate_over_seeds, grid_table

        aggregated = aggregate_over_seeds(report.outcomes)
        assert len(aggregated) == 2
        labels = {r.approach for r in aggregated}
        assert labels == {"Celis-pp(tau=0.6)", "Celis-pp(tau=0.9)"}
        table = grid_table(report.outcomes, dataset="german")
        assert "tau=0.6" in table and "tau=0.9" in table

    def test_pivot_separates_params(self):
        from repro.engine import pivot

        report = sweep({
            "datasets": ["german"],
            "approaches": [None, "Celis-pp(tau=0.6)",
                           "Celis-pp(tau=0.9)"],
            "rows": [300], "causal_samples": 200})
        fit = pivot(report.outcomes, index="approach", columns="rows",
                    value="fit_seconds")
        assert set(fit) == {None, "Celis-pp(tau=0.6)",
                            "Celis-pp(tau=0.9)"}

    def test_config_causal_samples_override(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(SMALL_SWEEP))
        assert main(["sweep", "--config", str(config_path),
                     "--causal-samples", "200",
                     "--store", "none"]) == 0
        capsys.readouterr()
        # The override must change the cells' fingerprints.
        spec = dataclasses.replace(SweepSpec.from_config(SMALL_SWEEP),
                                   causal_samples=200)
        base = SweepSpec.from_config(SMALL_SWEEP)
        assert (spec.expand()[0].fingerprint
                != base.expand()[0].fingerprint)
