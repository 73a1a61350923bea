"""The unified component registry: keys, specs, params, stochasticity."""

import importlib

import pytest

from repro import registry
from repro.fairness.base import FairApproach, Stage
from repro.registry import (APPROACHES, DATASETS, ERRORS, IMPUTERS, METRICS,
                            MODELS, REGISTRIES, Registry, build, format_spec,
                            get_registry, parse_spec, register)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec,expected", [
        ("lr", ("lr", {})),
        ("Celis-pp", ("Celis-pp", {})),
        ("Celis-pp(tau=0.9)", ("Celis-pp", {"tau": 0.9})),
        ("knn(k=7, block_size=64)", ("knn", {"k": 7, "block_size": 64})),
        ("x(name='abc', flag=True, none=None)",
         ("x", {"name": "abc", "flag": True, "none": None})),
        ("spaced( a = 1 )", ("spaced", {"a": 1})),
        ("empty()", ("empty", {})),
        ({"key": "Celis-pp", "params": {"tau": 0.9}},
         ("Celis-pp", {"tau": 0.9})),
        ({"key": "Celis-pp"}, ("Celis-pp", {})),
        ({"Celis-pp": {"tau": 0.9}}, ("Celis-pp", {"tau": 0.9})),
        (("Celis-pp", {"tau": 0.9}), ("Celis-pp", {"tau": 0.9})),
    ])
    def test_parse(self, spec, expected):
        assert parse_spec(spec) == expected

    @pytest.mark.parametrize("bad", [
        "Celis-pp(tau=0.9",       # unbalanced
        "Celis-pp)",              # stray close
        "f(0.9)",                 # positional
        "f(tau=undefined_name)",  # not a literal
        "f(**kw)",                # expansion
        {"key": "x", "params": {}, "extra": 1},
        {"a": {}, "b": {}},       # ambiguous two-key mapping
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_non_spec_type_rejected(self):
        with pytest.raises(TypeError):
            parse_spec(42)

    def test_format_round_trip(self):
        for key, params in (("lr", {}), ("Celis-pp", {"tau": 0.9}),
                            ("m", {"b": 2, "a": "s", "c": True})):
            assert parse_spec(format_spec(key, params)) == (key, params)

    def test_format_is_canonical(self):
        assert (format_spec("m", {"b": 2, "a": 1})
                == format_spec("m", {"a": 1, "b": 2}))


class TestFamilies:
    def test_expected_families(self):
        assert set(REGISTRIES) == {"dataset", "model", "approach",
                                   "error", "imputer", "metric"}

    def test_expected_counts(self):
        assert len(DATASETS) == 3
        assert len(MODELS) == 7
        assert len(APPROACHES) == 24
        assert len(ERRORS) == 7       # t1-t3 paper + t4-t6/missing ext.
        assert len(IMPUTERS) == 6
        assert len(METRICS) == 11     # 4 correctness + 7 fairness

    def test_get_registry_accepts_plural(self):
        assert get_registry("models") is MODELS
        assert get_registry("approaches") is APPROACHES
        with pytest.raises(KeyError):
            get_registry("widgets")

    def test_every_registered_key_builds(self):
        # Datasets need a tiny n; everything else builds bare.
        for key in DATASETS:
            dataset = DATASETS.build(key, n=50, seed=0)
            assert dataset.n_rows == 50
        for key in MODELS:
            assert hasattr(MODELS.build(key), "fit")
        for key in APPROACHES:
            approach = APPROACHES.build(key, seed=1)
            assert isinstance(approach, FairApproach)
        for key in ERRORS:
            injector = ERRORS.build(key)
            assert callable(injector)
        for key in IMPUTERS:
            assert callable(IMPUTERS.build(key))
        for key in METRICS:
            metric = METRICS.build(key)
            assert metric.kind in ("correctness", "fairness")

    def test_unknown_key_lists_choices(self):
        with pytest.raises(KeyError, match="Celis-pp"):
            APPROACHES.get("FairGAN")

    def test_keys_filter_by_metadata(self):
        assert len(APPROACHES.keys(group="main")) == 18
        assert len(APPROACHES.keys(group="additional")) == 3
        assert len(APPROACHES.keys(group="extension")) == 3
        pre = APPROACHES.keys(stage=Stage.PRE)
        assert "KamCal-dp" in pre and "Hardt-eo" not in pre


class TestParamValidation:
    def test_spec_params_reach_the_component(self):
        assert APPROACHES.build("Celis-pp(tau=0.9)").tau == 0.9
        assert MODELS.build("knn", k=7).k == 7

    def test_defaults_apply(self):
        assert APPROACHES.build("Celis-pp").tau == 0.8
        assert APPROACHES.build("Kearns-pe").gamma == 0.005

    def test_unknown_param_is_value_error(self):
        with pytest.raises(ValueError, match="bogus"):
            APPROACHES.build("Celis-pp(bogus=1)")
        with pytest.raises(ValueError, match="accepted"):
            MODELS.build("lr", learning_rate=0.1)

    def test_unknown_param_fails_before_building(self):
        with pytest.raises(ValueError):
            APPROACHES.canonical("Celis-pp(bogus=1)")

    @pytest.mark.parametrize("key", ["Feld-dp", "Zafar-dp-fair",
                                     "Kearns-pe", "Celis-pp", "Hardt-eo"])
    def test_deterministic_component_rejects_seed_param(self, key):
        # The old lambda factories swallowed seed= silently; the
        # registry makes it a loud error.
        with pytest.raises(ValueError, match="seed"):
            APPROACHES.build(f"{key}(seed=3)")


class TestStochasticity:
    def test_declared_flags(self):
        stochastic = {key for key in APPROACHES
                      if APPROACHES.get(key).stochastic}
        assert {"KamCal-dp", "Calmon-dp", "ZhaWu-psf", "ZhaWu-dce",
                "Salimi-jf-maxsat", "Salimi-jf-matfac", "ZhaLe-eo",
                "Thomas-dp", "Thomas-eo", "Madras-dp"} == stochastic

    def test_seed_reaches_stochastic_components(self):
        assert APPROACHES.build("KamCal-dp", seed=5).seed == 5

    def test_seed_ignored_by_deterministic_components(self):
        # build(seed=...) is the engine's uniform call; deterministic
        # factories simply never see it.
        approach = APPROACHES.build("Celis-pp", seed=5)
        assert not hasattr(approach, "seed")

    def test_models_not_reseeded_by_engine(self):
        assert not any(MODELS.get(key).stochastic for key in MODELS)


class TestRegistration:
    def test_decorator_registration(self):
        reg = Registry("widget")

        @reg.register("w1", defaults={"size": 2}, color="red")
        def make_widget(size, seed=0):
            return ("widget", size, seed)

        assert "w1" in reg
        assert reg.get("w1").stochastic  # seed in signature
        assert reg.build("w1", seed=4) == ("widget", 2, 4)
        assert reg.keys(color="red") == ["w1"]

    def test_duplicate_key_rejected(self):
        reg = Registry("widget")
        reg.register("w", lambda: None, stochastic=False)
        with pytest.raises(ValueError, match="duplicate"):
            reg.register("w", lambda: None, stochastic=False)

    def test_bad_defaults_rejected_at_registration(self):
        reg = Registry("widget")
        with pytest.raises(ValueError, match="nope"):
            reg.register("w", lambda size=1: size,
                         defaults={"nope": 2})

    def test_constructor_bugs_not_misreported_as_bad_params(self):
        # A TypeError raised *inside* a closed-signature factory is a
        # real bug and must propagate, not be rebranded "invalid
        # parameters".
        reg = Registry("widget")

        def broken(size=1):
            raise TypeError("internal constructor bug")

        reg.register("w", broken, stochastic=False)
        with pytest.raises(TypeError, match="internal constructor"):
            reg.build("w")

    def test_open_signature_component_accepts_any_param(self):
        reg = Registry("widget")
        reg.register("w", lambda **options: options, stochastic=False)
        assert reg.build("w", anything=1) == {"anything": 1}

    def test_top_level_register_and_build(self):
        # The module-level helpers dispatch by family name.
        assert build("model", "knn(k=9)").k == 9
        with pytest.raises(ValueError):
            register("approach", "Celis-pp", lambda: None)  # duplicate


class TestErrorInjectors:
    def test_injector_applies_recipe(self, german_small):
        injector = ERRORS.build("t1")
        corrupted = injector(german_small, seed=0)
        assert corrupted.n_rows == german_small.n_rows

    def test_extended_recipes_registered(self, german_small):
        flipped = ERRORS.build("t4")(german_small, seed=1)
        assert (flipped.y != german_small.y).any()

    def test_rate_params_validated(self):
        with pytest.raises(ValueError, match="nope"):
            ERRORS.build("t1(nope=0.4)")


class TestImputers:
    def test_parameterised_imputer(self):
        import numpy as np

        impute = IMPUTERS.build("constant", fill_value=-1.0)
        out = impute(np.array([1.0, np.nan, 3.0]))
        assert out[1] == -1.0


class TestMetrics:
    def test_metric_reads_result_field(self):
        from repro.pipeline.experiment import EvaluationResult

        result = EvaluationResult(
            approach="x", dataset="d", stage="pre", accuracy=0.9,
            precision=0.8, recall=0.7, f1=0.75, di_star=0.95, tprb=0.9,
            tnrb=0.85, id=1.0, te=0.9, nde=0.9, nie=0.9)
        assert METRICS.build("accuracy").of(result) == 0.9
        assert METRICS.build("di_star").of(result) == 0.95

    def test_kinds_partition(self):
        kinds = {key: METRICS.build(key).kind for key in METRICS}
        assert sum(1 for k in kinds.values() if k == "correctness") == 4
        assert sum(1 for k in kinds.values() if k == "fairness") == 7



#: Names and modules deleted because a second implementation of their
#: behaviour remained (the registries) or nothing but their own tests
#: called them; ``None`` means the whole module is gone.
GONE = [
    ("repro", "make_approach"), ("repro", "load"),
    ("repro.datasets", "load"), ("repro.datasets", "LOADERS"),
    ("repro.datasets", "load_dataset"),
    ("repro.models", "make_model"), ("repro.models", "MODEL_FAMILIES"),
    ("repro.fairness", "make_approach"),
    ("repro.fairness", "approaches_by_stage"),
    ("repro.errors", "corrupt"), ("repro.errors", "RECIPES"),
    ("repro.errors", "corrupt_extended"),
    ("repro.errors", "EXTENDED_RECIPES"),
    ("repro.errors", "CorruptionPipeline"),
    ("repro.metrics", "normalized_euclidean"),
    ("repro.metrics.pairwise", "topk_dense"),
    ("repro.metrics.pairwise", "sq_distances"),
    ("repro.fairness.registry", None), ("repro.causal.pc", None),
    ("repro.pipeline.plots", None), ("repro.pipeline.stats", None),
    ("repro.models.selection", None),
]


@pytest.mark.parametrize(
    "module, name", GONE,
    ids=[module if name is None else f"{module}.{name}"
         for module, name in GONE])
def test_deleted_name_is_gone(module, name):
    if name is None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    else:
        assert not hasattr(importlib.import_module(module), name)
