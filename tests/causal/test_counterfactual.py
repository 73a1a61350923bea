"""Tests for the discrete counterfactual SCM (abduction–action–prediction)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import CausalGraph, CounterfactualSCM, DiscreteCPT

RNG = np.random.default_rng


def chain_scm() -> CounterfactualSCM:
    """S → Z → Y with a direct S → Y edge, all binary."""
    graph = CausalGraph([("S", "Z"), ("Z", "Y"), ("S", "Y")])
    dom = np.array([0.0, 1.0])
    cpts = {
        "S": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])}),
        "Z": DiscreteCPT(("S",), dom, {
            (0.0,): np.array([0.8, 0.2]),
            (1.0,): np.array([0.3, 0.7]),
        }),
        "Y": DiscreteCPT(("S", "Z"), dom, {
            (0.0, 0.0): np.array([0.9, 0.1]),
            (0.0, 1.0): np.array([0.6, 0.4]),
            (1.0, 0.0): np.array([0.5, 0.5]),
            (1.0, 1.0): np.array([0.2, 0.8]),
        }),
    }
    return CounterfactualSCM(graph, cpts)


# ----------------------------------------------------------------------
# DiscreteCPT
# ----------------------------------------------------------------------
class TestDiscreteCPT:
    def test_domain_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscreteCPT((), np.array([1.0, 0.0]), {(): np.array([0.5, 0.5])})

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            DiscreteCPT((), np.array([0.0, 1.0]), {(): np.array([0.5, 0.6])})

    def test_wrong_vector_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            DiscreteCPT((), np.array([0.0, 1.0]), {(): np.array([1.0])})

    def test_apply_is_monotone_in_noise(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        u = np.linspace(0, 0.999, 200)
        values = cpt.apply({}, u)
        assert np.all(np.diff(values) >= 0)

    def test_apply_matches_cdf_boundaries(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        values = cpt.apply({}, np.array([0.0, 0.19, 0.2, 0.69, 0.7, 0.99]))
        assert list(values) == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]

    def test_fallback_for_unseen_parent_combo(self):
        dom = np.array([0.0, 1.0])
        cpt = DiscreteCPT(("P",), dom, {(0.0,): np.array([1.0, 0.0])})
        vals = cpt.apply({"P": np.array([9.0, 9.0])}, np.array([0.1, 0.9]))
        # Uniform fallback: u < .5 → 0, u >= .5 → 1.
        assert list(vals) == [0.0, 1.0]

    def test_abduct_noise_reproduces_observation(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        observed = np.array([0.0, 1.0, 2.0, 1.0])
        u = cpt.abduct({}, observed, RNG(0))
        assert np.array_equal(cpt.apply({}, u), observed)

    def test_abduct_rejects_out_of_domain(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0]),
                          {(): np.array([0.5, 0.5])})
        with pytest.raises(ValueError, match="outside domain"):
            cpt.abduct({}, np.array([5.0]), RNG(0))

    def test_abduct_rejects_zero_probability_evidence(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0]),
                          {(): np.array([1.0, 0.0])})
        with pytest.raises(ValueError, match="zero probability"):
            cpt.abduct({}, np.array([1.0]), RNG(0))

    def test_sample_roundtrip(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0]),
                          {(): np.array([0.3, 0.7])})
        values, noise = cpt.sample({}, 500, RNG(1))
        assert np.array_equal(cpt.apply({}, noise), values)
        assert 0.55 < values.mean() < 0.85

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_abduct_then_apply_identity_property(self, weights):
        """For any distribution, apply(abduct(x)) == x (monotone repr)."""
        probs = np.asarray(weights) / np.sum(weights)
        domain = np.arange(len(weights), dtype=float)
        cpt = DiscreteCPT((), domain, {(): probs})
        rng = RNG(7)
        observed = rng.choice(domain, size=50)
        u = cpt.abduct({}, observed, rng)
        assert np.array_equal(cpt.apply({}, u), observed)


# ----------------------------------------------------------------------
# CounterfactualSCM
# ----------------------------------------------------------------------
class TestCounterfactualSCM:
    def test_missing_cpt_rejected(self):
        graph = CausalGraph([("A", "B")])
        dom = np.array([0.0, 1.0])
        cpts = {"A": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])})}
        with pytest.raises(ValueError, match="no CPT"):
            CounterfactualSCM(graph, cpts)

    def test_parent_mismatch_rejected(self):
        graph = CausalGraph([("A", "B")])
        dom = np.array([0.0, 1.0])
        cpts = {
            "A": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])}),
            "B": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])}),
        }
        with pytest.raises(ValueError, match="do not match"):
            CounterfactualSCM(graph, cpts)

    def test_sample_respects_intervention(self):
        scm = chain_scm()
        values = scm.sample(200, RNG(0), interventions={"S": 1})
        assert np.all(values["S"] == 1.0)

    def test_intervention_shifts_mediator(self):
        scm = chain_scm()
        z1 = scm.sample(4000, RNG(0), interventions={"S": 1})["Z"].mean()
        z0 = scm.sample(4000, RNG(1), interventions={"S": 0})["Z"].mean()
        assert z1 > z0 + 0.3  # 0.7 vs 0.2 in the CPT

    def test_evaluate_rejects_unknown_intervention(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(0))
        with pytest.raises(ValueError, match="unknown nodes"):
            scm.evaluate(noise, {"Q": 1})

    def test_evaluate_rejects_misaligned_noise(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(0))
        noise["Z"] = noise["Z"][:5]
        with pytest.raises(ValueError, match="differing lengths"):
            scm.evaluate(noise)

    def test_abduction_is_consistent_with_evidence(self):
        """Re-running the factual world on abducted noise recovers the row."""
        scm = chain_scm()
        evidence = {"S": 0.0, "Z": 1.0, "Y": 0.0}
        noise = scm.abduct(evidence, 300, RNG(3))
        replay = scm.evaluate(noise)
        for node, val in evidence.items():
            assert np.all(replay[node] == val), node

    def test_abduct_requires_full_evidence(self):
        scm = chain_scm()
        with pytest.raises(ValueError, match="full evidence"):
            scm.abduct({"S": 0.0}, 10, RNG(0))

    def test_counterfactual_respects_intervention(self):
        scm = chain_scm()
        cf = scm.counterfactual({"S": 0.0, "Z": 0.0, "Y": 0.0},
                                {"S": 1}, 500, RNG(5))
        assert np.all(cf["S"] == 1.0)

    def test_null_counterfactual_is_factual(self):
        """Intervening with the observed value must return the evidence."""
        scm = chain_scm()
        evidence = {"S": 1.0, "Z": 1.0, "Y": 1.0}
        cf = scm.counterfactual(evidence, {"S": 1}, 400, RNG(9))
        for node, val in evidence.items():
            assert np.all(cf[node] == val), node

    def test_counterfactual_mean_in_unit_interval(self):
        scm = chain_scm()
        m = scm.counterfactual_mean({"S": 0.0, "Z": 0.0, "Y": 0.0},
                                    {"S": 1}, "Y", 400, RNG(2))
        assert 0.0 <= m <= 1.0

    def test_counterfactual_monotone_model_raises_outcome(self):
        """In the chain SCM, flipping S to 1 weakly raises P(Y=1)."""
        scm = chain_scm()
        rng = RNG(11)
        for z in (0.0, 1.0):
            ev = {"S": 0.0, "Z": z, "Y": 0.0}
            m1 = scm.counterfactual_mean(ev, {"S": 1}, "Y", 2000, rng)
            m0 = scm.counterfactual_mean(ev, {"S": 0}, "Y", 2000, rng)
            assert m1 >= m0 - 0.05

    def test_abduct_partial_matches_evidence(self):
        scm = chain_scm()
        noise = scm.abduct_partial({"S": 1.0, "Y": 1.0}, 100, RNG(4))
        replay = scm.evaluate(noise)
        assert np.all(replay["S"] == 1.0)
        assert np.all(replay["Y"] == 1.0)
        # The unobserved mediator must retain posterior variability.
        assert len(np.unique(replay["Z"])) == 2

    def test_abduct_partial_full_evidence_delegates(self):
        scm = chain_scm()
        noise = scm.abduct_partial({"S": 0.0, "Z": 1.0, "Y": 1.0}, 50, RNG(6))
        replay = scm.evaluate(noise)
        assert np.all(replay["Z"] == 1.0)

    def test_abduct_partial_impossible_evidence_raises(self):
        """No sample ever shows S=0.5; the error says how many of the
        requested samples were found and in how many batches."""
        scm = chain_scm()
        with pytest.raises(RuntimeError,
                           match=r"found only 0/10 .* in 3 batches of 256"):
            scm.abduct_partial({"S": 0.5, "Y": 1.0}, 10, RNG(7),
                               max_tries=3)


class TestFitFromData:
    def test_fit_recovers_marginals(self):
        rng = RNG(0)
        graph = CausalGraph([("S", "Y")])
        s = rng.integers(0, 2, 5000).astype(float)
        y = ((rng.random(5000) < np.where(s == 1, 0.8, 0.3))
             .astype(float))
        scm = CounterfactualSCM.fit({"S": s, "Y": y}, graph)
        sample = scm.sample(20000, RNG(1))
        p1 = sample["Y"][sample["S"] == 1].mean()
        p0 = sample["Y"][sample["S"] == 0].mean()
        assert p1 == pytest.approx(0.8, abs=0.05)
        assert p0 == pytest.approx(0.3, abs=0.05)

    def test_fit_requires_all_columns(self):
        graph = CausalGraph([("A", "B")])
        with pytest.raises(ValueError, match="missing"):
            CounterfactualSCM.fit({"A": np.zeros(5)}, graph)

    def test_fit_rejects_nonpositive_laplace(self):
        graph = CausalGraph([], nodes=["A"])
        with pytest.raises(ValueError, match="laplace"):
            CounterfactualSCM.fit({"A": np.zeros(5)}, graph, laplace=0.0)

    def test_fit_smoothing_prevents_zero_probability_abduction(self):
        """Even values never seen under a parent combo stay abducible."""
        graph = CausalGraph([("S", "Y")])
        s = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])  # Y==S always in the data
        scm = CounterfactualSCM.fit({"S": s, "Y": y}, graph, laplace=1.0)
        # Evidence contradicting the observed pattern is still abducible.
        noise = scm.abduct({"S": 0.0, "Y": 1.0}, 20, RNG(0))
        replay = scm.evaluate(noise)
        assert np.all(replay["Y"] == 1.0)

    def test_fit_on_dataset_generator_columns(self, compas_small):
        """The fitted SCM reproduces COMPAS's group-conditional label gap."""
        cols = {name: compas_small.table[name].astype(float)
                for name in compas_small.causal_graph.nodes}
        scm = CounterfactualSCM.fit(cols, compas_small.causal_graph)
        sample = scm.sample(8000, RNG(3))
        s, y = sample["race"], sample["risk"]
        gap = y[s == 1].mean() - y[s == 0].mean()
        data_gap = (cols["risk"][cols["race"] == 1].mean()
                    - cols["risk"][cols["race"] == 0].mean())
        assert gap == pytest.approx(data_gap, abs=0.08)


# ----------------------------------------------------------------------
# Parity of the compiled fast paths against the loop reference
# ----------------------------------------------------------------------
class TestCompiledCptParity:
    """The compiled CPT form must reproduce the loop reference exactly:
    probabilities/apply are deterministic, and abduct consumes the RNG
    in the same order (one draw batch per call)."""

    def make_cpt(self, seed=0, n_parents=2, domain_size=3):
        rng = RNG(seed)
        domain = np.arange(domain_size, dtype=float)
        parents = tuple(f"P{i}" for i in range(n_parents))
        table = {}
        for combo in np.ndindex(*(2 for _ in parents)):
            probs = rng.random(domain_size) + 0.05
            table[tuple(float(c) for c in combo)] = probs / probs.sum()
        return DiscreteCPT(parents, domain, table)

    def make_queries(self, seed=1, n=257):
        # Parent values 0/1 from the table plus 9.0, an unseen combo
        # that must resolve to the fallback distribution.
        rng = RNG(seed)
        return {
            "P0": rng.choice([0.0, 1.0, 9.0], size=n, p=[0.45, 0.45, 0.1]),
            "P1": rng.choice([0.0, 1.0], size=n),
        }

    def test_probabilities_match_loop_exactly(self):
        from repro.causal.reference import cpt_probabilities_loop

        cpt = self.make_cpt()
        queries = self.make_queries()
        n = queries["P0"].shape[0]
        assert np.array_equal(cpt.probabilities(queries, n),
                              cpt_probabilities_loop(cpt, queries, n))

    def test_root_probabilities_match_loop_exactly(self):
        from repro.causal.reference import cpt_probabilities_loop

        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        assert np.array_equal(cpt.probabilities({}, 31),
                              cpt_probabilities_loop(cpt, {}, 31))

    def test_apply_matches_loop_exactly(self):
        from repro.causal.reference import cpt_apply_loop

        cpt = self.make_cpt(seed=2)
        queries = self.make_queries(seed=3)
        noise = RNG(4).random(queries["P0"].shape[0])
        assert np.array_equal(cpt.apply(queries, noise),
                              cpt_apply_loop(cpt, queries, noise))

    def test_abduct_bit_identical_to_loop(self):
        from repro.causal.reference import cpt_abduct_loop

        cpt = self.make_cpt(seed=5)
        queries = self.make_queries(seed=6)
        n = queries["P0"].shape[0]
        observed = RNG(7).choice(cpt.domain, size=n)
        fast = cpt.abduct(queries, observed, RNG(8))
        loop = cpt_abduct_loop(cpt, queries, observed, RNG(8))
        assert np.array_equal(fast, loop)

    def test_scm_abduct_bit_identical_to_loop(self):
        from repro.causal.reference import scm_abduct_loop

        scm = chain_scm()
        evidence = {"S": 1.0, "Z": 0.0, "Y": 1.0}
        fast = scm.abduct(evidence, 100, RNG(9))
        loop = scm_abduct_loop(scm, evidence, 100, RNG(9))
        for node in scm.graph.nodes:
            assert np.array_equal(fast[node], loop[node]), node

    def test_fit_matches_loop_counts_exactly(self):
        from repro.causal.reference import fit_tables_loop

        rng = RNG(10)
        graph = CausalGraph([("S", "Z"), ("Z", "Y"), ("S", "Y")])
        cols = {
            "S": rng.integers(0, 2, 700).astype(float),
            "Z": rng.integers(0, 3, 700).astype(float),
            "Y": rng.integers(0, 2, 700).astype(float),
        }
        scm = CounterfactualSCM.fit(cols, graph, laplace=0.5)
        for node, (domain, table) in fit_tables_loop(cols, graph).items():
            cpt = scm.cpt(node)
            assert np.array_equal(cpt.domain, domain)
            assert set(cpt.table) == set(table)
            for key, vec in table.items():
                assert np.allclose(cpt.table[key], vec, atol=1e-15), (
                    node, key)


class TestRowLookup:
    """Batches above 128 rows look parent combinations up in the
    compiled tables; every row must get the matrix row the memoised
    dict walk of small batches gives it."""

    @staticmethod
    def memo_rows(cpt, queries, n):
        return np.concatenate([
            cpt._rows({p: col[i:i + 100] for p, col in queries.items()},
                      min(100, n - i))
            for i in range(0, n, 100)])

    def make_cpt(self, n_parents, n_keys, n_values, seed=0):
        rng = RNG(seed)
        domain = np.array([0.0, 1.0, 2.0])
        parents = tuple(f"P{i}" for i in range(n_parents))
        keys = rng.integers(0, n_values, (n_keys, n_parents)) * 1.5
        table = {tuple(key): rng.dirichlet(np.ones(3)) for key in keys}
        return DiscreteCPT(parents, domain, table), keys

    @pytest.mark.parametrize("n_parents,n_keys,n_values",
                             [(1, 4, 6), (2, 9, 4), (3, 30, 5),
                              (20, 60, 12)])
    def test_large_batches_match_memo_path(self, n_parents, n_keys,
                                           n_values):
        cpt, keys = self.make_cpt(n_parents, n_keys, n_values)
        rng = RNG(1)
        n = 600
        present = keys[rng.integers(0, len(keys), n)]
        # Per parent, values its keys take, recombined: mostly absent
        # combinations once there are several parents.
        mixed = keys[rng.integers(0, len(keys), (n, n_parents)),
                     np.arange(n_parents)]
        # Values no key takes, below, between and above the key values.
        outside = rng.choice([-3.0, 0.75, 99.0], (n, n_parents))
        pick = rng.integers(0, 3, (n, 1))
        values = np.where(pick == 0, present,
                          np.where(pick == 1, mixed, outside))
        values[::7, -1] = outside[::7, -1]
        queries = {p: values[:, i] for i, p in enumerate(cpt.parents)}
        rows = cpt._rows(queries, n)
        assert np.array_equal(rows, self.memo_rows(cpt, queries, n))
        fallback = len(cpt.table)
        assert (rows[pick[:, 0] == 0][: n // 10] != fallback).any()
        assert (rows == fallback).any()

    def test_radix_product_beyond_int64(self):
        """Forty parents of four values: the product of the value counts
        (4**40) overflows int64.  Wrapped mixed-radix codes would drop
        the first parent (its weight, 4**39, is a multiple of 2**64),
        so a key with that value changed would pass for the key."""
        cpt, keys = self.make_cpt(40, 60, 4, seed=2)
        counts = [np.unique(column).size for column in keys.T]
        assert np.prod(np.array(counts, dtype=float)) > 2.0 ** 63
        rng = RNG(3)
        n = 300
        values = keys[rng.integers(0, len(keys), n)]
        changed = values.copy()
        changed[:, 0] = (changed[:, 0] + 1.5) % 6.0
        present = {tuple(key) for key in keys}
        assert not any(tuple(row) in present for row in changed)
        values[::2] = changed[::2]
        queries = {p: values[:, i] for i, p in enumerate(cpt.parents)}
        rows = cpt._rows(queries, n)
        assert np.array_equal(rows, self.memo_rows(cpt, queries, n))
        assert (rows[::2] == len(cpt.table)).all()
        assert (rows[1::2] != len(cpt.table)).all()


class TestAbductRows:
    def test_replay_recovers_every_row(self):
        scm = chain_scm()
        sample = scm.sample(300, RNG(0))
        noise = scm.abduct_rows(sample, RNG(1))
        replay = scm.evaluate(noise)
        for node in scm.graph.nodes:
            assert np.array_equal(replay[node], sample[node]), node

    def test_missing_column_rejected(self):
        scm = chain_scm()
        with pytest.raises(ValueError, match="full evidence"):
            scm.abduct_rows({"S": np.zeros(3)}, RNG(0))

    def test_misaligned_columns_rejected(self):
        scm = chain_scm()
        cols = {"S": np.zeros(3), "Z": np.zeros(3), "Y": np.zeros(2)}
        with pytest.raises(ValueError, match="differing lengths"):
            scm.abduct_rows(cols, RNG(0))

    def test_repeated_rows_match_per_row_abduction_statistically(self):
        """Batching rows × particles must give the same posterior as
        per-row abduction (draw order differs, distribution must not)."""
        scm = chain_scm()
        evidence = {"S": 0.0, "Z": 1.0, "Y": 0.0}
        n = 4000
        batched = scm.abduct_rows(
            {k: np.full(n, v) for k, v in evidence.items()}, RNG(2))
        per_row = scm.abduct(evidence, n, RNG(3))
        for node in scm.graph.nodes:
            assert abs(batched[node].mean() - per_row[node].mean()) < 0.02
            assert abs(batched[node].std() - per_row[node].std()) < 0.02


class TestEvaluateBase:
    def test_base_reuse_is_exact(self):
        """Sharing unaffected nodes from a base world must equal a full
        re-evaluation: the model is deterministic given noise."""
        scm = chain_scm()
        noise = scm.sample_noise(500, RNG(0))
        factual = scm.evaluate(noise)
        for interventions in ({"S": 1.0}, {"Z": 0.0}, {"Y": 1.0}):
            full = scm.evaluate(noise, interventions)
            shared = scm.evaluate(noise, interventions, base=factual)
            for node in scm.graph.nodes:
                assert np.array_equal(full[node], shared[node]), (
                    interventions, node)

    def test_base_with_overrides_is_exact(self):
        scm = chain_scm()
        noise = scm.sample_noise(400, RNG(1))
        factual = scm.evaluate(noise)
        z0 = scm.evaluate(noise, {"S": 0.0}, base=factual)["Z"]
        full = scm.evaluate(noise, {"S": 1.0}, overrides={"Z": z0})
        shared = scm.evaluate(noise, {"S": 1.0}, overrides={"Z": z0},
                              base=factual)
        for node in scm.graph.nodes:
            assert np.array_equal(full[node], shared[node]), node

    def test_bad_base_shape_rejected(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(2))
        factual = scm.evaluate(noise)
        bad = dict(factual, S=factual["S"][:5])
        with pytest.raises(ValueError, match="base value"):
            scm.evaluate(noise, {"Y": 1.0}, base=bad)

    def test_partial_base_rejected(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(3))
        factual = scm.evaluate(noise)
        partial = {"Z": factual["Z"]}  # S is unaffected but missing
        with pytest.raises(ValueError, match="base is missing"):
            scm.evaluate(noise, {"Y": 1.0}, base=partial)
