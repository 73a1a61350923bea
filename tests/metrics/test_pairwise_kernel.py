"""Property-based tests for the shared block-matmul pairwise kernel.

The kernel's contract, locked in here over randomized shapes, block
sizes, and data:

* explicit pair distances equal the one-shot dense reference;
* blockwise top-k equals a full-sort float64 reference on tie-free
  data, for every tiling (``DEFAULT_BLOCK_SIZE`` is patched, since it
  is read at call time);
* top-k is equivariant under query-row permutation, and self-exclusion
  leaves out each row's own index and nothing else;
* masked (partially observed) distances equal a per-row loop, and
  pairs with no shared observed feature are incomparable (``inf``);
* empty inputs and a malformed ``exclude`` fail by name.

Hypothesis drives shapes/blocks/seeds; the data itself comes from
seeded generators (tie-free continuous draws), matching the rest of
the suite's style.
"""

import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import impute_knn
from repro.metrics import pairwise

RNG = np.random.default_rng
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def dense_sq_reference(A, B):
    """One-shot squared distances by direct difference — the float64
    ground truth the Gram-trick kernel must reproduce."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("abd,abd->ab", diff, diff)


def topk_reference(A, B, k, exclude=None):
    """Full stable sort per query row: ascending (distance, index).
    With ``exclude``, each row's own index sorts last and the first
    ``min(k, len(B) − 1)`` columns are kept."""
    d2 = dense_sq_reference(A, B)
    kk = min(k, B.shape[0])
    if exclude is not None:
        d2[np.arange(A.shape[0]), exclude] = np.inf
        kk = min(k, B.shape[0] - 1)
    order = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    return order, np.take_along_axis(d2, order, axis=1)


def blocks_of(rows):
    """Tile the kernel's query rows ``rows`` at a time."""
    return mock.patch.object(pairwise, "DEFAULT_BLOCK_SIZE", rows)


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
        with blocks_of(block):
            idx, d2 = pairwise.topk(A, B, k)
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
        baseline, _ = pairwise.topk(A, B, k)
        for block in (1, n - 1, n, n + 7):
            with blocks_of(block):
                idx, _ = pairwise.topk(A, B, k)
            assert np.array_equal(idx, baseline)

    @given(st.integers(3, 25), seeds)
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_equivariance(self, n, seed):
        rng = RNG(seed)
        A, B = rng.normal(size=(n, 3)), rng.normal(size=(20, 3))
        perm = rng.permutation(n)
        with blocks_of(5):
            idx, d2 = pairwise.topk(A, B, 4)
            pidx, pd2 = pairwise.topk(A[perm], B, 4)
        assert np.array_equal(pidx, idx[perm])
        assert np.allclose(pd2, d2[perm], atol=1e-12)

    @given(st.integers(3, 20), blocks, seeds)
    @settings(max_examples=40, deadline=None)
    def test_self_exclusion(self, n, block, seed):
        """Querying a set against itself with self-exclusion must
        never return the query row, and must match the reference with
        the row left out."""
        Z = RNG(seed).normal(size=(n, 3))
        exclude = np.arange(n)
        with blocks_of(block):
            idx, d2 = pairwise.topk(Z, Z, 3, exclude=exclude)
        assert idx.shape == d2.shape == (n, min(3, n - 1))
        assert (idx != exclude[:, None]).all()
        ref_idx, ref_d2 = topk_reference(Z, Z, 3, exclude=exclude)
        assert np.array_equal(idx, ref_idx)
        assert np.allclose(d2, ref_d2, atol=1e-9)

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
        with blocks_of(16):
            idx, d2 = pairwise.topk(A, B, 5)
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
        with blocks_of(block):
            direct = pairwise.topk(A, B, 4)
            reused = pairwise.topk(A, prepared, 4)
            again = pairwise.topk(A, prepared, 4)
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
        idx, d2 = pairwise.topk(np.empty((0, 2)), A, 3,
                                exclude=np.empty(0, dtype=int))
        assert idx.shape == d2.shape == (0, 3)
        idx, d2 = pairwise.topk(A[:1], A[:1], 3, exclude=[0])
        assert idx.shape == d2.shape == (1, 0)

    def test_invalid_inputs_rejected(self):
        A = RNG(0).normal(size=(4, 2))
        with pytest.raises(ValueError, match="k must be"):
            pairwise.topk(A, A, 0)
        with pytest.raises(ValueError, match="matching feature"):
            pairwise.topk(A, RNG(1).normal(size=(4, 3)), 2)
        for exclude in (np.arange(3), [0, 1, 2, -1], [0, 1, 2, 4]):
            with pytest.raises(ValueError, match="exclude"):
                pairwise.topk(A, A, 2, exclude=exclude)


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
        with blocks_of(block):
            idx, d2 = pairwise.topk(A, B, 5)
        first, inverse = pairwise.distinct_rows(A)
        assert np.array_equal(idx, idx[first][inverse])
        assert np.array_equal(d2, d2[first][inverse])

    @given(st.integers(3, 20), blocks, seeds)
    @settings(max_examples=40, deadline=None)
    def test_repeated_rows_match_reference(self, n, block, seed):
        """Repeated rows, queried against themselves with and without
        self-exclusion: byte-equal rows share one search, and each
        then drops its own index, not its duplicate's."""
        rng = RNG(seed)
        Z = rng.normal(size=(n, 3))[rng.integers(0, n, 2 * n)]
        for exclude in (None, np.arange(2 * n)):
            with blocks_of(block):
                idx, d2 = pairwise.topk(Z, Z, 3, exclude=exclude)
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
        with obs.recording() as rec, blocks_of(8):
            pairwise.topk(A, RNG(1).normal(size=(50, 3)), 4)
        counters = rec.snapshot()["counters"]
        assert counters["pairwise.blocks"] == 2
        assert counters["pairwise.candidates"] == 10 * 12


class TestDistinctReferenceRows:
    """The screen and the re-rank run over distinct reference rows, and
    a query whose nearest distinct rows include a shared one gets their
    members; the result must be the full stable sort's, ties to the
    lowest index, however many rows repeat."""

    @given(st.integers(1, 30), st.integers(1, 12), st.integers(1, 60),
           st.integers(1, 5), blocks,
           st.sampled_from(["below", "distinct", "len", "above"]),
           st.booleans(), seeds)
    @settings(max_examples=120, deadline=None)
    def test_repeated_reference_rows_match_reference(
            self, n, pool, m, d, block, k_at, self_query, seed):
        # Integer coordinates from a small pool: reference rows repeat
        # and distances tie, between repeats and between distinct rows.
        rng = RNG(seed)
        B = rng.integers(0, 3, (pool, d)).astype(float)[
            rng.integers(0, pool, m)]
        n_distinct = pairwise.distinct_rows(B)[0].size
        k = {"below": int(rng.integers(1, n_distinct + 1)),
             "distinct": n_distinct + int(rng.integers(0, 3)),
             "len": m, "above": m + 5}[k_at]
        if self_query:
            A, exclude = B, np.arange(m)
        else:
            A, exclude = rng.integers(0, 4, (n, d)).astype(float), None
        with blocks_of(block):
            idx, d2 = pairwise.topk(A, B, k, exclude=exclude)
        ref_idx, ref_d2 = topk_reference(A, B, k, exclude=exclude)
        assert np.array_equal(idx, ref_idx)
        assert np.allclose(d2, ref_d2, atol=1e-9)

    def test_shared_rows_expand_in_index_order(self):
        """Two distinct rows at one distance interleave their members
        by index, and an excluded member leaves its twins in play."""
        B = np.array([[1.0], [-1.0], [-1.0], [1.0], [0.5], [1.0]])
        idx, d2 = pairwise.topk(np.zeros((1, 1)), B, 4)
        assert idx.tolist() == [[4, 0, 1, 2]]
        assert d2.tolist() == [[0.25, 1.0, 1.0, 1.0]]
        idx, d2 = pairwise.topk(B, B, 2, exclude=np.arange(6))
        assert idx[0].tolist() == [3, 5]
        assert idx[4].tolist() == [0, 3]

    def test_nan_distances_sort_last(self):
        """A NaN coordinate gives NaN distances, which the stable sort
        puts last; repeated rows around them must not break that."""
        B = np.array([[0.0, 1.0], [0.0, 1.0], [np.nan, 2.0], [3.0, 1.0]])
        for A in (np.zeros((1, 2)), np.array([[np.nan, 0.0]])):
            for k in (1, 2, 4):
                idx, d2 = pairwise.topk(A, B, k)
                ref_idx, ref_d2 = topk_reference(A, B, k)
                assert np.array_equal(idx, ref_idx)
                assert np.allclose(d2, ref_d2, equal_nan=True)

    def test_state_is_the_points_alone(self):
        """A prepared reference keeps only ``B`` in its state and
        rebuilds the rest, also from the older field set."""
        from repro.registry import extract_state, restore_instance

        B = RNG(0).integers(0, 3, (40, 3)).astype(float)
        prepared = pairwise.prepare_reference(B)
        assert set(extract_state(prepared)) == {"B"}
        mu = B.mean(axis=0)
        BT_32 = np.ascontiguousarray((B - mu).T, dtype=np.float32)
        older = {"B": B, "mu": mu, "BT_32": BT_32,
                 "b_sq_32": np.einsum("ij,ij->i", BT_32.T, BT_32.T)}
        for state in (extract_state(prepared), older):
            restored = restore_instance(pairwise.PreparedReference, state)
            for got, want in zip(pairwise.topk(B, restored, 7),
                                 pairwise.topk(B, prepared, 7)):
                assert np.array_equal(got, want)


class TestDispatchInvariance:
    """numpy picks its SIMD kernels by host (``argpartition`` among
    them), and a cached cell must not depend on the host that computed
    it: with the host's dispatch targets disabled, a tie-heavy top-k
    must come out the same."""

    SCRIPT = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.metrics import pairwise\n"
        "rng = np.random.default_rng(0)\n"
        "pool = rng.integers(0, 10, (1200, 5)).astype(float)\n"
        "B = pool[rng.integers(0, 1200, 14000)]\n"
        "A = pool[rng.integers(0, 1200, 1000)]"
        " + rng.integers(-1, 2, (1000, 5))\n"
        "idx, d2 = pairwise.topk(A, B, 33)\n"
        "np.save(sys.argv[1], idx)\n"
    )

    def test_topk_same_at_baseline_dispatch(self, tmp_path):
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath as umath
        active = [target for target in umath.__cpu_dispatch__
                  if umath.__cpu_features__.get(target)]
        if not active:
            pytest.skip("numpy dispatches no target beyond its baseline "
                        "on this host, so there is nothing to disable")
        runs = {}
        for name, disabled in (("default", ""),
                               ("baseline", " ".join(active))):
            out = tmp_path / f"{name}.npy"
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(out)],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin",
                     "NPY_DISABLE_CPU_FEATURES": disabled})
            assert proc.returncode == 0, proc.stderr
            runs[name] = np.load(out)
        assert np.array_equal(runs["default"], runs["baseline"])


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
        with blocks_of(block):
            for start, stop, d2, counts in pairwise.masked_sq_blocks(
                    Z, observed, rows):
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
