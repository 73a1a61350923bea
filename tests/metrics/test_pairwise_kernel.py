"""Property-based tests for the shared block-matmul pairwise kernel.

The kernel's contract, locked in here over randomized shapes, block
sizes, and data:

* explicit pair distances equal the one-shot dense reference;
* blockwise top-k equals a full-sort float64 reference on tie-free
  data, for every tiling — ``block_size`` is a pure performance knob;
* top-k is equivariant under query-row permutation;
* masked (partially observed) distances equal a per-row loop, and
  pairs with no shared observed feature are incomparable (``inf``);
* empty inputs and a block size below 1 fail by name.

Hypothesis drives shapes/blocks/seeds; the data itself comes from
seeded generators (tie-free continuous draws), matching the rest of
the suite's style.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import impute_knn
from repro.metrics import pairwise

RNG = np.random.default_rng


def dense_sq_reference(A, B):
    """One-shot squared distances by direct difference — the float64
    ground truth the Gram-trick kernel must reproduce."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("abd,abd->ab", diff, diff)


def topk_reference(A, B, k, exclude=None):
    """Full stable sort per query row: ascending (distance, index)."""
    d2 = dense_sq_reference(A, B)
    if exclude is not None:
        rows = np.flatnonzero(np.asarray(exclude) >= 0)
        d2[rows, np.asarray(exclude)[rows]] = np.inf
    kk = min(k, B.shape[0])
    order = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    return order, np.take_along_axis(d2, order, axis=1)


shapes = st.tuples(st.integers(1, 28), st.integers(1, 24),
                   st.integers(1, 5))
blocks = st.integers(1, 32)
seeds = st.integers(0, 10_000)


class TestDenseDistances:
    """Pair distances against the one-shot dense reference."""

    @given(st.integers(2, 40), seeds)
    @settings(max_examples=25, deadline=None)
    def test_pair_distances_match_dense(self, n, seed):
        rng = RNG(seed)
        Z = rng.normal(size=(n, 4))
        a = rng.integers(0, n, 15)
        b = rng.integers(0, n, 15)
        dense = np.sqrt(dense_sq_reference(Z, Z))
        assert np.allclose(pairwise.pair_distances(Z, a, b),
                           dense[a, b], atol=1e-9)


class TestTopK:
    @given(shapes, blocks, st.integers(1, 12), seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sort_reference(self, shape, block, k, seed):
        n, m, d = shape
        rng = RNG(seed)
        A, B = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        idx, d2 = pairwise.topk(A, B, k, block_size=block)
        ref_idx, ref_d2 = topk_reference(A, B, k)
        assert np.array_equal(idx, ref_idx)
        assert np.allclose(d2, ref_d2, atol=1e-9)

    @given(st.integers(4, 30), st.integers(1, 8), seeds)
    @settings(max_examples=40, deadline=None)
    def test_block_size_invariance(self, n, k, seed):
        """The tiling must never change the selection — including
        one-row blocks and blocks around the query-count boundary."""
        rng = RNG(seed)
        A, B = rng.normal(size=(n, 3)), rng.normal(size=(n + 3, 3))
        baseline, _ = pairwise.topk(A, B, k, block_size=10_000)
        for block in (1, n - 1, n, n + 7):
            idx, _ = pairwise.topk(A, B, k, block_size=block)
            assert np.array_equal(idx, baseline)

    @given(st.integers(3, 25), seeds)
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_equivariance(self, n, seed):
        rng = RNG(seed)
        A, B = rng.normal(size=(n, 3)), rng.normal(size=(20, 3))
        perm = rng.permutation(n)
        idx, d2 = pairwise.topk(A, B, 4, block_size=5)
        pidx, pd2 = pairwise.topk(A[perm], B, 4, block_size=5)
        assert np.array_equal(pidx, idx[perm])
        assert np.allclose(pd2, d2[perm], atol=1e-12)

    @given(st.integers(3, 20), blocks, seeds)
    @settings(max_examples=40, deadline=None)
    def test_self_exclusion(self, n, block, seed):
        """Querying a set against itself with self-exclusion must
        never return the query row, and must match the reference with
        the same mask."""
        Z = RNG(seed).normal(size=(n, 3))
        exclude = np.arange(n)
        idx, d2 = pairwise.topk(Z, Z, 3, block_size=block,
                                exclude=exclude)
        usable = np.isfinite(d2)
        assert (idx[usable] != np.broadcast_to(
            exclude[:, None], idx.shape)[usable]).all()
        ref_idx, ref_d2 = topk_reference(Z, Z, 3, exclude=exclude)
        assert np.array_equal(idx, ref_idx)

    @given(st.sampled_from([1e3, 1e4, 1e6]), seeds)
    @settings(max_examples=25, deadline=None)
    def test_large_common_offset_does_not_misrank(self, offset, seed):
        """Squared distances are translation-invariant but the Gram
        expansion is not: on data with a big common offset (raw
        timestamps, IDs) an uncentred float32 screen cancels
        catastrophically.  The centred screen must keep the exact
        top-k."""
        rng = RNG(seed)
        A = rng.normal(size=(40, 4)) + offset
        B = rng.normal(size=(60, 4)) + offset
        idx, d2 = pairwise.topk(A, B, 5, block_size=16)
        ref_idx, ref_d2 = topk_reference(A, B, 5)
        assert np.array_equal(idx, ref_idx)
        assert np.allclose(d2, ref_d2, atol=1e-6)

    @given(st.integers(4, 25), blocks, seeds)
    @settings(max_examples=30, deadline=None)
    def test_prepared_reference_matches_direct(self, n, block, seed):
        """Passing a PreparedReference (as the k-NN model does after
        fit) must be indistinguishable from passing the raw points."""
        rng = RNG(seed)
        A, B = rng.normal(size=(n, 3)), rng.normal(size=(n + 4, 3))
        prepared = pairwise.prepare_reference(B)
        direct = pairwise.topk(A, B, 4, block_size=block)
        reused = pairwise.topk(A, prepared, 4, block_size=block)
        again = pairwise.topk(A, prepared, 4, block_size=block)
        assert np.array_equal(direct[0], reused[0])
        assert np.array_equal(reused[0], again[0])
        assert np.allclose(direct[1], reused[1], atol=1e-12)

    def test_k_clamped_to_reference_size(self):
        rng = RNG(0)
        A, B = rng.normal(size=(5, 2)), rng.normal(size=(3, 2))
        idx, d2 = pairwise.topk(A, B, 10)
        assert idx.shape == d2.shape == (5, 3)

    def test_empty_reference_or_queries(self):
        A = RNG(0).normal(size=(4, 2))
        idx, d2 = pairwise.topk(A, np.empty((0, 2)), 3)
        assert idx.shape == (4, 0)
        idx, d2 = pairwise.topk(np.empty((0, 2)), A, 3)
        assert idx.shape == (0, 3)

    def test_invalid_inputs_rejected(self):
        A = RNG(0).normal(size=(4, 2))
        with pytest.raises(ValueError, match="k must be"):
            pairwise.topk(A, A, 0)
        with pytest.raises(ValueError, match="block_size"):
            pairwise.topk(A, A, 2, block_size=0)
        with pytest.raises(ValueError, match="matching feature"):
            pairwise.topk(A, RNG(1).normal(size=(4, 3)), 2)
        with pytest.raises(ValueError, match="exclude"):
            pairwise.topk(A, A, 2, exclude=np.arange(3))


class TestDistinctRows:
    """Each distinct query row is searched once: byte-equal rows must
    get identical answers, and the search must stay the reference's."""

    @given(st.integers(2, 60), st.integers(1, 30), st.integers(1, 4),
           blocks, seeds)
    @settings(max_examples=60, deadline=None)
    def test_byte_equal_rows_get_identical_answers(self, n, m, d, block,
                                                   seed):
        # Integer coordinates: repeated queries and tied distances.
        rng = RNG(seed)
        A = rng.integers(0, 3, (n, d)).astype(float)
        B = rng.integers(0, 3, (m, d)).astype(float)
        idx, d2 = pairwise.topk(A, B, 5, block_size=block)
        first, inverse = pairwise.distinct_rows(A)
        assert np.array_equal(idx, idx[first][inverse])
        assert np.array_equal(d2, d2[first][inverse])

    @given(st.integers(3, 20), blocks, seeds)
    @settings(max_examples=40, deadline=None)
    def test_repeated_rows_match_reference(self, n, block, seed):
        """Repeated rows, queried against themselves with and without
        self-exclusion: the ``exclude`` entry is part of a row's key,
        so no row gets its duplicate's mask."""
        rng = RNG(seed)
        Z = rng.normal(size=(n, 3))[rng.integers(0, n, 2 * n)]
        for exclude in (None, np.arange(2 * n)):
            idx, d2 = pairwise.topk(Z, Z, 3, block_size=block,
                                    exclude=exclude)
            ref_idx, ref_d2 = topk_reference(Z, Z, 3, exclude=exclude)
            assert np.array_equal(idx, ref_idx)
            assert np.allclose(d2, ref_d2, atol=1e-9)

    @given(st.integers(0, 40), st.integers(1, 4), seeds)
    @settings(max_examples=40, deadline=None)
    def test_first_and_inverse_rebuild_input(self, n, d, seed):
        A = RNG(seed).integers(0, 2, (n, d)).astype(float)
        first, inverse = pairwise.distinct_rows(A)
        assert np.array_equal(A[first][inverse], A)
        assert np.array_equal(first, np.sort(first))
        assert len({row.tobytes() for row in A}) == first.size
        for position, row in enumerate(first):
            assert not (A[:row] == A[row]).all(axis=1).any()
            assert inverse[row] == position

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows(self, n):
        first, inverse = pairwise.distinct_rows(np.ones((n, 3)))
        assert np.array_equal(first, np.arange(n))
        assert np.array_equal(inverse, np.arange(n))

    def test_signed_zeros_stay_apart(self):
        A = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        first, inverse = pairwise.distinct_rows(A)
        assert np.array_equal(first, [0, 1])
        assert np.array_equal(inverse, [0, 1, 0])

    def test_blocks_count_distinct_rows(self):
        A = RNG(0).normal(size=(10, 3))[np.arange(300) % 10]
        with obs.recording() as rec:
            pairwise.topk(A, RNG(1).normal(size=(50, 3)), 4, block_size=8)
        counters = rec.snapshot()["counters"]
        assert counters["pairwise.blocks"] == 2
        assert counters["pairwise.candidates"] == 10 * 12


class TestMaskedBlocks:
    @given(st.integers(2, 25), blocks, seeds)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_row_loop(self, n, block, seed):
        rng = RNG(seed)
        Z = rng.normal(size=(n, 4))
        observed = rng.random((n, 4)) < 0.75
        Z = np.where(observed, Z, np.nan)
        rows = np.flatnonzero(rng.random(n) < 0.6)
        got_d2 = np.empty((rows.size, n))
        got_counts = np.empty((rows.size, n))
        for start, stop, d2, counts in pairwise.masked_sq_blocks(
                Z, observed, rows, block_size=block):
            got_d2[start:stop] = d2
            got_counts[start:stop] = counts
        for local, i in enumerate(rows):
            shared = observed[i] & observed
            diff = np.where(shared, np.nan_to_num(Z) - np.nan_to_num(Z[i]),
                            0.0)
            assert np.allclose(got_d2[local], (diff ** 2).sum(axis=1),
                               atol=1e-9)
            assert np.array_equal(got_counts[local],
                                  shared.sum(axis=1).astype(float))

    def test_mask_shape_mismatch_rejected(self):
        Z = RNG(0).normal(size=(4, 3))
        with pytest.raises(ValueError, match="mask shape"):
            next(pairwise.masked_sq_blocks(Z, np.ones((4, 2), bool),
                                           np.arange(4)))


class TestScalingAndDefaults:
    def test_constant_features_get_unit_span(self):
        """Zero-variance features must scale to a constant, not divide
        by zero."""
        X = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        Z = pairwise.minmax_scale(X)
        assert np.isfinite(Z).all()
        assert np.array_equal(Z[:, 1], np.zeros(5))

    def test_single_row_is_all_constant(self):
        Z = pairwise.minmax_scale(np.array([[2.0, -1.0, 7.0]]))
        assert np.array_equal(Z, np.zeros((1, 3)))

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            pairwise.resolve_block_size(0)


class TestEmptyInputs:
    def test_minmax_scale_zero_rows(self):
        with pytest.raises(ValueError, match="minmax_scale.*empty"):
            pairwise.minmax_scale(np.empty((0, 4)))


class TestZeroOverlap:
    def test_masked_mean_distances_guard(self):
        d2 = np.array([[4.0, 9.0], [1.0, 0.0]])
        counts = np.array([[4.0, 0.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = pairwise.masked_mean_distances(d2, counts)
        np.testing.assert_array_equal(
            dist, [[1.0, np.inf], [1.0, np.inf]])

    def test_impute_knn_disjoint_masks(self):
        """Two row groups with fully disjoint observation patterns:
        cross-group pairs are incomparable (infinite distance), donors
        come only from the comparable group, and a cell with no
        comparable donor falls back to the column mean — with no
        RuntimeWarnings anywhere."""
        X = np.array([
            [1.0, 10.0, np.nan, np.nan],
            [2.0, np.nan, np.nan, np.nan],
            [np.nan, np.nan, 3.0, 30.0],
            [np.nan, np.nan, 4.0, np.nan],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = impute_knn(X, k=2)
        assert out[1, 1] == 10.0       # donor: row 0 (same group)
        assert out[3, 3] == 30.0       # donor: row 2 (same group)
        # Row 1 shares no observed feature with rows 2/3, so columns
        # 2/3 have no comparable donor: column-mean fallback.
        assert out[1, 2] == pytest.approx(np.nanmean(X[:, 2]))
        assert out[1, 3] == pytest.approx(np.nanmean(X[:, 3]))
        assert not np.isnan(out).any()
