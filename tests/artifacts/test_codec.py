"""State codec: JSON tree + npz sidecar, allowlisted objects only."""

import numpy as np
import pytest

from repro.artifacts import StateCodecError, decode, encode
from repro.causal import CausalGraph
from repro.causal.counterfactual import DiscreteCPT
from repro.datasets.encoding import StandardScaler
from repro.metrics.individual import prepare_situation_reference


def roundtrip(value):
    arrays = {}
    tree = encode(value, arrays)
    return decode(tree, arrays)


class TestScalars:
    def test_json_primitives_pass_through(self):
        for value in (None, True, False, 3, 2.5, "text"):
            assert roundtrip(value) == value
            assert type(roundtrip(value)) is type(value)

    def test_numpy_scalars_keep_dtype(self):
        for value in (np.float64(2.5), np.int64(7), np.bool_(True),
                      np.float32(1.25)):
            back = roundtrip(value)
            assert back == value
            assert back.dtype == value.dtype

    def test_bool_is_not_confused_with_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1
        assert type(roundtrip(1)) is int


class TestContainers:
    def test_nested_tree(self):
        value = {"a": [1, (2.0, None)], "b": {"c": [True, "x"]}}
        assert roundtrip(value) == value

    def test_tuples_come_back_as_tuples(self):
        back = roundtrip((1, (2, 3), [4]))
        assert back == (1, (2, 3), [4])
        assert isinstance(back, tuple)
        assert isinstance(back[1], tuple)

    def test_arrays_land_in_sidecar(self):
        arrays = {}
        matrix = np.arange(6.0).reshape(2, 3)
        tree = encode({"w": matrix}, arrays)
        assert tree == {"w": {"__ndarray__": "a0"}}
        back = decode(tree, arrays)
        np.testing.assert_array_equal(back["w"], matrix)

    def test_tuple_keyed_dict(self):
        value = {(1.0, 2.0): np.array([0.5, 0.5]), (0.0,): "x"}
        back = roundtrip(value)
        assert set(back) == set(value)
        np.testing.assert_array_equal(back[(1.0, 2.0)], value[(1.0, 2.0)])

    def test_dunder_string_keys_use_explicit_pairs(self):
        value = {"__weights__": 1.0}
        arrays = {}
        tree = encode(value, arrays)
        assert "__dict__" in tree
        assert decode(tree, arrays) == value

    def test_insertion_order_preserved(self):
        value = {(2.0,): "b", (1.0,): "a"}
        assert list(roundtrip(value)) == [(2.0,), (1.0,)]


class TestObjects:
    def test_frozen_dataclass_roundtrip(self):
        cpt = DiscreteCPT(parents=("p",), domain=np.array([0.0, 1.0]),
                          table={(0.0,): np.array([0.7, 0.3]),
                                 (1.0,): np.array([0.2, 0.8])})
        back = roundtrip(cpt)
        assert isinstance(back, DiscreteCPT)
        np.testing.assert_array_equal(back.domain, cpt.domain)
        assert back.parents == cpt.parents
        np.testing.assert_array_equal(back._cdf, cpt._cdf)

    def test_plain_object_roundtrip(self):
        scaler = StandardScaler().fit(np.array([[1.0], [3.0]]))
        back = roundtrip(scaler)
        assert isinstance(back, StandardScaler)
        np.testing.assert_array_equal(back.mean_, scaler.mean_)

    def test_graph_roundtrip(self):
        graph = CausalGraph([("a", "b"), ("b", "c")])
        back = roundtrip(graph)
        assert back.edges == graph.edges
        assert back.nodes == graph.nodes


class TestSituationReferenceState:
    """A prepared reference's state is its points, ``B``; bundles packed
    while it also kept ``mu``, ``BT_32`` and ``b_sq_32`` must load and
    serve the same verdicts."""

    def make_reference(self):
        rng = np.random.default_rng(0)
        pool = rng.integers(0, 3, (30, 4)).astype(float)
        X = pool[rng.integers(0, 30, 400)]
        s = (rng.random(400) < 0.5).astype(int)
        y_hat = (rng.random(400) < 0.5).astype(float)
        return (prepare_situation_reference(X, s, y_hat, k=6),
                rng.integers(0, 3, (50, 4)).astype(float))

    def test_older_field_set_serves_same_verdicts(self):
        reference, queries = self.make_reference()
        arrays = {}
        tree = encode(reference, arrays)
        for pool in ("priv", "unpriv"):
            state = tree["state"][pool]["state"]
            assert set(state) == {"B"}
            B = arrays[state["B"]["__ndarray__"]]
            mu = B.mean(axis=0)
            BT_32 = np.ascontiguousarray((B - mu).T, dtype=np.float32)
            for name, value in (("mu", mu), ("BT_32", BT_32),
                                ("b_sq_32", np.einsum(
                                    "ij,ij->i", BT_32.T, BT_32.T,
                                    dtype=np.float32))):
                key = f"{pool}_{name}"
                arrays[key] = value
                state[name] = {"__ndarray__": key}
        restored = decode(tree, arrays)
        want = reference.audit_rows(queries)
        got = restored.audit_rows(queries)
        for name, values in want.items():
            np.testing.assert_array_equal(got[name], values)


class TestRejections:
    def test_lambda_rejected_with_path(self):
        with pytest.raises(StateCodecError, match=r"at \$\.fn"):
            encode({"fn": lambda x: x}, {})

    def test_foreign_class_rejected(self):
        class Foreign:
            pass

        with pytest.raises(StateCodecError, match="cannot serialize"):
            encode({"obj": Foreign()}, {})

    def test_object_dtype_array_rejected(self):
        with pytest.raises(StateCodecError, match="object-dtype"):
            encode(np.array([{}, {}], dtype=object), {})

    def test_decode_refuses_non_repro_class(self):
        tree = {"__object__": "os:system", "state": {}}
        with pytest.raises(StateCodecError, match="refusing"):
            decode(tree, {})

    def test_decode_refuses_unknown_repro_class(self):
        tree = {"__object__": "repro.nonexistent:Thing", "state": {}}
        with pytest.raises(StateCodecError, match="unknown class"):
            decode(tree, {})

    def test_missing_sidecar_array(self):
        with pytest.raises(StateCodecError, match="missing array"):
            decode({"__ndarray__": "a9"}, {})
