"""Grid expansion and job fingerprinting."""

import dataclasses
import json
import re
import subprocess
import sys

import pytest

from repro.engine import Job, ScenarioGrid


def small_grid(**overrides):
    params = dict(datasets=["german"], approaches=[None, "Hardt-eo"],
                  seeds=[0, 1], rows=[400], causal_samples=300)
    params.update(overrides)
    return ScenarioGrid(**params)


class TestExpansion:
    def test_full_cross_product(self):
        grid = small_grid(models=["lr", "nb"], errors=[None, "t1"])
        jobs = grid.expand()
        assert len(jobs) == 2 * 2 * 2 * 2  # approach×model×error×seed
        assert grid.size == len(jobs)

    def test_deterministic(self):
        assert small_grid().expand() == small_grid().expand()

    def test_order_is_declaration_order(self):
        jobs = small_grid().expand()
        assert [(j.approach, j.seed) for j in jobs] == [
            (None, 0), (None, 1), ("Hardt-eo", 0), ("Hardt-eo", 1)]
        # Every dimension varies: the nesting, outermost first, is
        # datasets, rows, feature_counts, errors, imputers, models,
        # approaches, seeds.
        dims = {"datasets": ["german", "compas"], "rows": [400, 300],
                "feature_counts": [None, 3], "errors": [None, "t1"],
                "imputers": [None, "knn(k=7)"], "models": ["lr", "nb"],
                "approaches": [None, "Celis-pp(tau=0.9)"],
                "seeds": [1, 0]}
        jobs = ScenarioGrid(causal_samples=300, **dims).expand()
        assert len(jobs) == 2 ** 8
        assert [(j.dataset, j.rows, j.n_features, j.error, j.imputer,
                 j.imputer_params, j.model, j.approach, j.approach_params,
                 j.seed) for j in jobs] == [
            (dataset, rows, n_features, error, *imputer, model,
             *approach, seed)
            for dataset in ["german", "compas"]
            for rows in [400, 300]
            for n_features in [None, 3]
            for error in [None, "t1"]
            for imputer in [(None, {}), ("knn", {"k": 7})]
            for model in ["lr", "nb"]
            for approach in [(None, {}), ("Celis-pp", {"tau": 0.9})]
            for seed in [1, 0]]

    def test_duplicates_collapse_to_first_position(self):
        grid = small_grid(
            approaches=["baseline", None, "LR", "Hardt-eo", "Hardt-eo"])
        jobs = grid.expand()
        assert [j.approach for j in jobs] == [None, None, "Hardt-eo",
                                              "Hardt-eo"]
        assert len({j.fingerprint for j in jobs}) == len(jobs)

    def test_baseline_aliases_normalised(self):
        grid = small_grid(approaches=["baseline", "none", "LR", ""])
        assert grid.approaches == (None, None, None, None)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"datasets": ["klingon"]},
        {"approaches": ["FairGAN"]},
        {"models": ["transformer"]},
        {"errors": ["t9"]},
    ])
    def test_unknown_names_rejected(self, kwargs):
        with pytest.raises(KeyError):
            small_grid(**kwargs)

    def test_empty_datasets_rejected(self, tmp_path, capsys):
        # An empty dimension used to expand to 0 cells and exit 0; every
        # route now names it.
        from repro.api import SweepSpec
        from repro.cli import main

        for name in ("datasets", "approaches", "models", "errors",
                     "imputers", "seeds", "rows", "feature_counts"):
            fields = {"datasets": ["german"], name: []}
            message = f"{name} must list at least one value, got []"
            with pytest.raises(ValueError, match=re.escape(message)):
                ScenarioGrid(**fields)
            with pytest.raises(ValueError, match=re.escape(message)):
                SweepSpec.from_config({"sweep": fields})
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(fields))
            assert main(["sweep", "--config", str(config),
                         "--store", "none"]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("kwargs", [{"seeds": [-1]}, {"rows": [0]}])
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            small_grid(**kwargs)


class TestFingerprint:
    JOB = Job(dataset="compas", approach="KamCal-dp", model="lr",
              error="t1", seed=3, rows=1234, n_features=5,
              causal_samples=777, test_fraction=0.3)

    def test_stable_within_process(self):
        assert self.JOB.fingerprint == dataclasses.replace(
            self.JOB).fingerprint

    def test_stable_across_processes(self):
        # sha256 over canonical JSON must not depend on the process
        # (PYTHONHASHSEED, import order, platform dict ordering).
        code = (
            "from repro.engine import Job;"
            "print(Job(dataset='compas', approach='KamCal-dp',"
            " model='lr', error='t1', seed=3, rows=1234, n_features=5,"
            " causal_samples=777, test_fraction=0.3).fingerprint)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == self.JOB.fingerprint

    @pytest.mark.parametrize("field,value", [
        ("dataset", "adult"), ("approach", None), ("model", "nb"),
        ("error", None), ("seed", 4), ("rows", 1235), ("n_features", 6),
        ("causal_samples", 778), ("test_fraction", 0.2)])
    def test_every_field_feeds_the_hash(self, field, value):
        changed = dataclasses.replace(self.JOB, **{field: value})
        assert changed.fingerprint != self.JOB.fingerprint

    def test_shape(self):
        assert len(self.JOB.fingerprint) == 64
        assert set(self.JOB.fingerprint) <= set("0123456789abcdef")

    def test_label_mentions_the_cell(self):
        label = self.JOB.label()
        assert "compas" in label and "KamCal-dp" in label
        assert "seed=3" in label

    @pytest.mark.parametrize("field,value", [
        ("approach_params", {"tau": 0.9}),
        ("model_params", {"k": 7}),
        ("error_params", {"unprivileged_rate": 0.3}),
        ("dataset_params", {"n": 100}),
        ("audit", "counterfactual"),
        ("n_features", 4),
        ("audit_params", {"n_particles": 5})])
    def test_registry_params_feed_the_hash(self, field, value):
        changed = dataclasses.replace(self.JOB, **{field: value})
        assert changed.fingerprint != self.JOB.fingerprint

    def test_param_order_does_not_change_the_hash(self):
        a = dataclasses.replace(self.JOB,
                                approach_params={"a": 1, "b": 2})
        b = dataclasses.replace(self.JOB,
                                approach_params={"b": 2, "a": 1})
        assert a.fingerprint == b.fingerprint

    def test_jobs_are_hashable_by_fingerprint(self):
        job = dataclasses.replace(self.JOB,
                                  approach_params={"tau": 0.9})
        assert hash(job) == hash(dataclasses.replace(job))
        assert len({job, dataclasses.replace(job)}) == 1


class TestParameterizedGrid:
    def test_spec_strings_become_job_params(self):
        grid = small_grid(approaches=[None, "Hardt-eo"],
                          models=["knn(k=7)"])
        jobs = grid.expand()
        assert all(j.model == "knn" and j.model_params == {"k": 7}
                   for j in jobs)

    def test_nested_dict_specs_accepted(self):
        grid = small_grid(
            approaches=[{"key": "Celis-pp", "params": {"tau": 0.9}}])
        job = grid.expand()[0]
        assert job.approach == "Celis-pp"
        assert job.approach_params == {"tau": 0.9}

    def test_equivalent_spellings_share_fingerprints(self):
        as_string = small_grid(approaches=["Celis-pp(tau=0.9)"])
        as_dict = small_grid(
            approaches=[{"Celis-pp": {"tau": 0.9}}])
        assert ([j.fingerprint for j in as_string.expand()]
                == [j.fingerprint for j in as_dict.expand()])

    def test_explicit_default_equals_bare_key(self):
        # "Celis-pp(tau=0.8)" restates the declared default: same
        # component, so same canonical spec, fingerprint, and cache
        # entry as the bare key.
        bare = small_grid(approaches=["Celis-pp"])
        explicit = small_grid(approaches=["Celis-pp(tau=0.8)"])
        assert explicit.approaches == bare.approaches == ("Celis-pp",)
        assert ([j.fingerprint for j in bare.expand()]
                == [j.fingerprint for j in explicit.expand()])

    def test_hand_built_jobs_resolve_defaults_too(self):
        bare = Job(dataset="german", approach="Celis-pp", rows=400)
        explicit = dataclasses.replace(
            bare, approach_params={"tau": 0.8})
        assert bare.fingerprint == explicit.fingerprint

    def test_audit_param_names_validated(self):
        with pytest.raises(ValueError, match="n_paritcles"):
            small_grid(audit="counterfactual",
                       audit_params={"n_paritcles": 5})
        with pytest.raises(ValueError, match="seed"):
            small_grid(audit="counterfactual",
                       audit_params={"seed": 1})
        with pytest.raises(ValueError, match="without an audit"):
            small_grid(audit_params={"n_particles": 5})

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            small_grid(approaches=["Hardt-eo(bogus=1)"])

    def test_open_signature_params_still_validated(self):
        # Zafar-dp-acc forwards **kwargs to the base constructor;
        # its parameter contract is the MRO union, not "anything".
        with pytest.raises(ValueError, match="bogus"):
            small_grid(approaches=["Zafar-dp-acc(bogus=1)"])
        grid = small_grid(
            approaches=["Zafar-dp-acc(covariance_bound=0.01)"])
        assert grid.expand()[0].approach_params == {
            "covariance_bound": 0.01}

    def test_non_json_literal_params_rejected_at_construction(self):
        # A set is a fine Python literal but cannot be fingerprinted.
        with pytest.raises(ValueError, match="JSON"):
            small_grid(approaches=["Celis-pp(tau={1, 2})"])

    def test_protocol_owned_params_rejected(self):
        # n/seed belong to the rows/seeds dimensions; letting a spec
        # set them too would crash (or silently shadow) execution.
        with pytest.raises(ValueError, match="rows"):
            small_grid(datasets=["german(n=100)"])
        with pytest.raises(ValueError, match="seeds"):
            small_grid(datasets=["german(seed=1)"])
        with pytest.raises(ValueError, match="seeds"):
            small_grid(approaches=["ZhaLe-eo(seed=1)"])

    def test_extended_error_recipes_valid_dimensions(self):
        grid = small_grid(errors=[None, "t4"])
        assert grid.size == 8
