"""Mechanism-level tests for the in-processing approaches."""

import ast
import pathlib

import numpy as np
import pytest
from scipy import optimize

import repro
from repro.datasets import load_compas, train_test_split
from repro.datasets.encoding import FeatureEncoder
from repro.fairness.inprocessing import (AgarwalDP, AgarwalEO, Celis,
                                         Kearns, ThomasDP, ThomasEO,
                                         ZafarDPAcc, ZafarDPFair,
                                         ZafarEOFair, ZhaLe)
from repro.metrics import (disparate_impact, true_positive_rate_balance)
from repro.models import LogisticRegression
from repro.models.base import add_intercept, sigmoid
from repro.registry import DATASETS


@pytest.fixture(scope="module")
def setting():
    ds = load_compas(3000, seed=13)
    split = train_test_split(ds, seed=1)
    enc = FeatureEncoder().fit(split.train)
    return {
        "train": split.train, "test": split.test,
        "Xtr": enc.transform(split.train),
        "Xte": enc.transform(split.test),
    }


@pytest.fixture(scope="module")
def baseline(setting):
    lr = LogisticRegression().fit(
        np.column_stack([setting["Xtr"], setting["train"].s]),
        setting["train"].y)
    y_hat = lr.predict(np.column_stack([setting["Xte"],
                                        setting["test"].s]))
    return {
        "di": disparate_impact(y_hat, setting["test"].s),
        "tprb": true_positive_rate_balance(setting["test"].y, y_hat,
                                           setting["test"].s),
        "accuracy": float(np.mean(y_hat == setting["test"].y)),
    }


def fit_and_predict(approach, setting):
    approach.fit(setting["train"], setting["Xtr"])
    return approach.predict(setting["Xte"], setting["test"].s)


class TestZafar:
    def test_dp_fair_improves_di(self, setting, baseline):
        y_hat = fit_and_predict(ZafarDPFair(), setting)
        di = disparate_impact(y_hat, setting["test"].s)
        assert min(di, 1 / di) > min(baseline["di"], 1 / baseline["di"])

    def test_dp_acc_bounds_accuracy_drop(self, setting, baseline):
        y_hat = fit_and_predict(ZafarDPAcc(gamma=0.05), setting)
        acc = float(np.mean(y_hat == setting["test"].y))
        assert acc > baseline["accuracy"] - 0.08

    def test_eo_fair_improves_tprb(self, setting, baseline):
        y_hat = fit_and_predict(ZafarEOFair(), setting)
        tprb = true_positive_rate_balance(setting["test"].y, y_hat,
                                          setting["test"].s)
        assert abs(tprb) < abs(baseline["tprb"]) + 0.03

    def test_id_trivially_satisfied(self, setting):
        """Zafar discards S: flipping it cannot change predictions."""
        approach = ZafarDPFair()
        approach.fit(setting["train"], setting["Xtr"])
        a = approach.predict(setting["Xte"], setting["test"].s)
        b = approach.predict(setting["Xte"], 1 - setting["test"].s)
        np.testing.assert_array_equal(a, b)

    def test_predict_before_fit(self, setting):
        with pytest.raises(RuntimeError):
            ZafarDPFair().predict(setting["Xte"], setting["test"].s)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            ZafarDPAcc(gamma=-1)


class TestZhaLe:
    def test_improves_equalized_odds(self, setting, baseline):
        y_hat = fit_and_predict(ZhaLe(seed=0, epochs=40), setting)
        tprb = true_positive_rate_balance(setting["test"].y, y_hat,
                                          setting["test"].s)
        assert abs(tprb) < abs(baseline["tprb"]) + 0.05

    def test_uses_sensitive_feature(self, setting):
        approach = ZhaLe(seed=0, epochs=10)
        approach.fit(setting["train"], setting["Xtr"])
        a = approach.predict(setting["Xte"], setting["test"].s)
        b = approach.predict(setting["Xte"], 1 - setting["test"].s)
        assert (a != b).any()  # f(X, S) genuinely consumes S

    def test_proba_bounded(self, setting):
        approach = ZhaLe(seed=0, epochs=5)
        approach.fit(setting["train"], setting["Xtr"])
        p = approach.predict_proba(setting["Xte"], setting["test"].s)
        assert (p >= 0).all() and (p <= 1).all()


class TestKearns:
    def test_fpr_gap_bounded(self, setting):
        approach = Kearns(gamma=0.005, n_rounds=20)
        y_hat = fit_and_predict(approach, setting)
        y, s = setting["test"].y, setting["test"].s
        fpr = [y_hat[(s == g) & (y == 0)].mean() for g in (0, 1)]
        assert abs(fpr[1] - fpr[0]) < 0.12

    def test_accuracy_not_destroyed(self, setting, baseline):
        y_hat = fit_and_predict(Kearns(), setting)
        acc = float(np.mean(y_hat == setting["test"].y))
        assert acc > baseline["accuracy"] - 0.1

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            Kearns(gamma=-0.1)


class TestCelis:
    def test_fdr_parity_enforced(self, setting):
        approach = Celis(tau=0.8)
        y_hat = fit_and_predict(approach, setting)
        y, s = setting["test"].y, setting["test"].s
        rates = []
        for g in (0, 1):
            positives = (s == g) & (y_hat == 1)
            if positives.any():
                rates.append(1 - float(np.mean(y[positives] == 0)))
        if len(rates) == 2 and max(rates) > 0:
            assert min(rates) / max(rates) > 0.6  # trained at tau=0.8

    def test_group_thresholds_learned(self, setting):
        approach = Celis(tau=0.8)
        approach.fit(setting["train"], setting["Xtr"])
        assert approach.thresholds_ is not None
        t0, t1 = approach.thresholds_
        assert 0 < t0 < 1 and 0 < t1 < 1

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            Celis(tau=0.0)


class TestThomas:
    def test_dp_certifies_or_abstains(self, setting):
        approach = ThomasDP(seed=0)
        y_hat = fit_and_predict(approach, setting)
        s = setting["test"].s
        if not approach.no_solution_:
            rates = [y_hat[s == g].mean() for g in (0, 1)]
            hi = max(rates)
            if hi > 0:
                assert min(rates) / hi > 0.55  # certified at 0.8 on train
        else:
            # Fallback is a constant classifier: zero disparity.
            assert len(np.unique(y_hat)) == 1

    def test_eo_fallback_is_constant(self, setting):
        approach = ThomasEO(threshold=1e-6, seed=0)  # impossible bound
        y_hat = fit_and_predict(approach, setting)
        assert approach.no_solution_
        assert len(np.unique(y_hat)) == 1

    def test_loose_threshold_finds_solution(self, setting):
        approach = ThomasDP(threshold=5.0, seed=0)
        approach.fit(setting["train"], setting["Xtr"])
        assert not approach.no_solution_

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ThomasDP(candidate_fraction=1.0)


class TestThomasGradient:
    """The candidate-selection objective returns its exact gradient:
    it matches finite differences with the barrier off and on."""

    @pytest.mark.parametrize("active", [False, True],
                             ids=["barrier-off", "barrier-on"])
    @pytest.mark.parametrize("cls", [ThomasDP, ThomasEO])
    @pytest.mark.parametrize("dataset", ["adult", "compas", "german"])
    def test_matches_finite_differences(self, dataset, cls, active):
        ds = DATASETS.build(dataset, n=800, seed=0)
        X = add_intercept(FeatureEncoder().fit(ds).transform(ds))
        y = ds.y.astype(float)
        approach = cls()
        groups = approach._groups(y, ds.s)
        theta = np.random.default_rng(0).normal(0, 0.3, X.shape[1])
        violation, _ = approach._soft_violation(sigmoid(8 * X @ theta),
                                                groups)
        assert violation > 0
        # Put the predicted bound 0.05 above or below the threshold.
        inflated = approach.threshold - violation + (0.05 if active
                                                     else -0.05)
        args = (X, y, groups, inflated)
        value, grad = approach._objective(theta, *args)
        loss, _ = cls(barrier=0.0)._objective(theta, *args)
        assert (value > loss) is active
        numeric = optimize.approx_fprime(
            theta, lambda t: approach._objective(t, *args)[0])
        assert (np.linalg.norm(grad - numeric)
                <= 1e-5 * np.linalg.norm(grad))

    def test_every_minimize_call_has_a_gradient(self):
        """No optimiser in ``src/`` falls back to finite differences."""
        calls = 0
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "minimize"):
                    calls += 1
                    keywords = {k.arg for k in node.keywords}
                    assert "jac" in keywords, f"{path}:{node.lineno}"
        assert calls >= 2


class TestAgarwal:
    def test_dp_improves_di(self, setting, baseline):
        y_hat = fit_and_predict(AgarwalDP(n_rounds=8), setting)
        di = disparate_impact(y_hat, setting["test"].s)
        assert min(di, 1 / di) > min(baseline["di"], 1 / baseline["di"])

    def test_eo_improves_tprb(self, setting, baseline):
        y_hat = fit_and_predict(AgarwalEO(n_rounds=8), setting)
        tprb = true_positive_rate_balance(setting["test"].y, y_hat,
                                          setting["test"].s)
        assert abs(tprb) < abs(baseline["tprb"]) + 0.03

    def test_randomised_classifier_is_ensemble(self, setting):
        approach = AgarwalDP(n_rounds=5)
        approach.fit(setting["train"], setting["Xtr"])
        assert len(approach.models_) == 5

    def test_predict_before_fit(self, setting):
        with pytest.raises(RuntimeError):
            AgarwalDP().predict_proba(setting["Xte"], setting["test"].s)
