"""Threaded kernel parity: byte-identical results at any thread count.

The ``threads`` knob is execution-only: every kernel tile computes the
same float64 blocks in the same order whatever the schedule, so the
threaded paths must be *byte-identical* to the single-threaded ones —
which is also why ``threads`` is deliberately excluded from job
fingerprints.  This suite locks in both halves of that contract, plus
the bugfixes the threaded kernel exposed: the mutable module-global
block-size default (now a ContextVar), zero-row scaling crashes, and
zero-overlap masked distances.
"""

import threading
import time
import warnings
from contextlib import closing

import numpy as np
import pytest

from repro import obs
from repro.causal import CounterfactualSCM
from repro.datasets import discretize_dataset, load_compas
from repro.engine.spec import Job, ScenarioGrid
from repro.errors import impute_knn
from repro.metrics import pairwise
from repro.metrics.individual import (counterfactual_fairness,
                                      normalized_euclidean,
                                      situation_testing)

THREAD_COUNTS = (1, 2, 7)
ODD_BLOCKS = (1, 7, 13)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(42)
    return rng.normal(size=(67, 5)), rng.normal(size=(41, 5))


@pytest.fixture(scope="module")
def audit():
    """Small discretized dataset + fitted SCM + linear predictor."""
    ds = discretize_dataset(load_compas(n=240, seed=3), n_bins=4)
    nodes = ds.causal_graph.nodes
    cols = {n: ds.table[n].astype(float) for n in nodes}
    scm = CounterfactualSCM.fit(cols, ds.causal_graph)
    features = [n for n in nodes if n != ds.label]
    weights = np.random.default_rng(7).normal(size=len(features))

    def predict(values):
        score = np.zeros_like(np.asarray(values[features[0]], dtype=float))
        for w, name in zip(weights, features):
            score = score + w * np.asarray(values[name], dtype=float)
        return (score > 0).astype(float)

    return ds, scm, cols, predict


class TestKernelThreadParity:
    @pytest.mark.parametrize("block", ODD_BLOCKS)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_topk(self, points, block, threads):
        A, B = points
        base = pairwise.topk(A, B, 4, block_size=block, threads=1)
        out = pairwise.topk(A, B, 4, block_size=block, threads=threads)
        assert np.array_equal(base[0], out[0])
        assert np.array_equal(base[1], out[1])

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_topk_self_with_exclusion(self, points, threads):
        A, _ = points
        exclude = np.arange(A.shape[0])
        base = pairwise.topk(A, A, 3, block_size=9, threads=1,
                             exclude=exclude)
        out = pairwise.topk(A, A, 3, block_size=9, threads=threads,
                            exclude=exclude)
        assert np.array_equal(base[0], out[0])
        assert np.array_equal(base[1], out[1])

    @pytest.mark.parametrize("block", ODD_BLOCKS)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_sq_distances(self, points, block, threads):
        A, _ = points
        base = pairwise.sq_distances(A, block_size=block, threads=1)
        out = pairwise.sq_distances(A, block_size=block, threads=threads)
        assert np.array_equal(base, out)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_topk_dense(self, points, threads):
        A, _ = points
        D = pairwise.distances(A)
        base = pairwise.topk_dense(D, 5, block_size=11, threads=1)
        out = pairwise.topk_dense(D, 5, block_size=11, threads=threads)
        assert np.array_equal(base[0], out[0])
        assert np.array_equal(base[1], out[1])

    @pytest.mark.parametrize("block", ODD_BLOCKS)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_masked_sq_blocks(self, points, block, threads):
        A, _ = points
        observed = np.random.default_rng(5).random(A.shape) > 0.35
        rows = np.arange(0, A.shape[0], 2)
        base = list(pairwise.masked_sq_blocks(A, observed, rows,
                                              block_size=block, threads=1))
        out = list(pairwise.masked_sq_blocks(A, observed, rows,
                                             block_size=block,
                                             threads=threads))
        assert len(base) == len(out)
        for (s1, e1, d1, c1), (s2, e2, d2, c2) in zip(base, out):
            assert (s1, e1) == (s2, e2)
            assert np.array_equal(d1, d2)
            assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_situation_testing(self, audit, threads):
        ds, _, cols, predict = audit
        y_hat = predict(cols)
        base = situation_testing(ds.X, ds.s, y_hat, k=6, block_size=13,
                                 threads=1)
        out = situation_testing(ds.X, ds.s, y_hat, k=6, block_size=13,
                                threads=threads)
        assert base == out

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_impute_knn_under_thread_context(self, threads):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 4))
        X[rng.random(X.shape) < 0.2] = np.nan
        X[:, 0][np.isnan(X[:, 0])] = 0.0  # keep every column imputable
        base = impute_knn(X, k=3, block_size=7)
        with pairwise.default_threads(threads):
            out = impute_knn(X, k=3, block_size=7)
        assert np.array_equal(base, out)

    def test_threads_used_counter(self, points):
        A, B = points
        with obs.recording() as rec:
            pairwise.topk(A, B, 4, block_size=7, threads=3)
        counters = rec.snapshot()["counters"]
        assert counters.get("pairwise.threads_used", 0) == 3

    def test_run_tiles_early_close_stops_work(self):
        """A consumer abandoning iteration closes the generator; the
        pool shuts down eagerly and unsubmitted tiles never run."""
        gate = threading.Event()
        started = []

        def compute(start):
            started.append(start)
            if start:
                gate.wait(timeout=10)
            return start

        with closing(pairwise._run_tiles(compute, list(range(10)),
                                         threads=2)) as tiles:
            assert next(tiles) == 0
            gate.set()
        # close() returned => the pool is shut down; only the tiles in
        # the submission window (0..2) ever started, 3..9 are dropped.
        time.sleep(0.05)
        assert set(started) <= {0, 1, 2}


class TestAbductionThreadParity:
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_counterfactual_fairness(self, audit, threads):
        ds, scm, cols, predict = audit
        base = counterfactual_fairness(
            scm, cols, ds.sensitive, ds.label, predict,
            np.random.default_rng(1), n_particles=9, max_rows=None,
            chunk_rows=37, threads=1)
        out = counterfactual_fairness(
            scm, cols, ds.sensitive, ds.label, predict,
            np.random.default_rng(1), n_particles=9, max_rows=None,
            chunk_rows=37, threads=threads)
        # Dataclasses of floats: equality is byte-for-byte.
        assert base == out

    def test_chunk_counters_survive_threading(self, audit):
        ds, scm, cols, predict = audit
        with obs.recording() as rec:
            counterfactual_fairness(
                scm, cols, ds.sensitive, ds.label, predict,
                np.random.default_rng(1), n_particles=5, max_rows=100,
                chunk_rows=17, threads=4)
        counters = rec.snapshot()["counters"]
        assert counters["abduction.chunks"] == -(-100 // 17)
        assert counters["abduction.rows"] == 100

    def test_chunk_workers_inherit_context_and_pin_nested_threads(
            self, audit, monkeypatch):
        """Regression: abduction chunks were submitted without
        ``copy_context``, so engine-level ``default_block_size`` /
        ``default_threads`` overrides were silently lost inside the
        workers; and each worker re-read ``REPRO_THREADS``, stacking
        its own tile pool on top of the chunk pool (N² threads)."""
        ds, scm, cols, _ = audit
        monkeypatch.setenv("REPRO_THREADS", "4")
        seen = []

        def probe_predict(values):
            if threading.current_thread().name.startswith("repro-abduct"):
                seen.append((pairwise.resolve_block_size(None),
                             pairwise.resolve_threads(None)))
            first = np.asarray(values[next(iter(values))], dtype=float)
            return (first > 0).astype(float)

        with pairwise.default_block_size(19):
            counterfactual_fairness(
                scm, cols, ds.sensitive, ds.label, probe_predict,
                np.random.default_rng(2), n_particles=3, max_rows=80,
                chunk_rows=11, threads=4)
        assert seen  # predict really ran inside the chunk pool
        # Block-size override crossed into the workers...
        assert {block for block, _ in seen} == {19}
        # ...and nested kernel threading is pinned to 1 there.
        assert {nested for _, nested in seen} == {1}


class TestThreadDefaults:
    def test_resolve_validation(self):
        assert pairwise.resolve_threads(None) == 1
        assert pairwise.resolve_threads(4) == 4
        with pytest.raises(ValueError, match="threads"):
            pairwise.resolve_threads(0)

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "5")
        assert pairwise.resolve_threads(None) == 5
        monkeypatch.setenv("REPRO_THREADS", "zero")
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            pairwise.resolve_threads(None)

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "5")
        with pairwise.default_threads(2):
            assert pairwise.resolve_threads(None) == 2
        assert pairwise.resolve_threads(None) == 5

    def test_default_threads_none_is_noop(self):
        with pairwise.default_threads(None):
            assert pairwise.resolve_threads(None) == 1

    def test_two_thread_block_size_isolation(self):
        """Regression: the block-size default was a mutable module
        global, so two concurrent overrides raced and leaked into each
        other; as a ContextVar each thread sees exactly its own."""
        seen = {}
        barrier = threading.Barrier(2)

        def worker(value, key):
            with pairwise.default_block_size(value):
                barrier.wait(timeout=5)  # both overrides active at once
                time.sleep(0.02)
                seen[key] = pairwise.resolve_block_size(None)

        threads = [threading.Thread(target=worker, args=(17, "a")),
                   threading.Thread(target=worker, args=(23, "b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"a": 17, "b": 23}
        assert (pairwise.resolve_block_size(None)
                == pairwise.DEFAULT_BLOCK_SIZE)

    def test_kernel_tiles_inherit_context(self, points):
        """Worker tiles run under a copy of the submitting context, so
        a default_block_size override reaches them."""
        A, _ = points
        base = pairwise.sq_distances(A, block_size=7)
        with pairwise.default_block_size(7):
            out = pairwise.sq_distances(A, threads=3)
        assert np.array_equal(base, out)


class TestEmptyInputs:
    def test_minmax_scale_zero_rows(self):
        with pytest.raises(ValueError, match="minmax_scale.*empty"):
            pairwise.minmax_scale(np.empty((0, 4)))

    def test_normalized_euclidean_zero_rows(self):
        with pytest.raises(ValueError,
                           match="normalized_euclidean.*0 rows"):
            normalized_euclidean(np.empty((0, 4)))


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


class TestFingerprintInvariance:
    def test_threads_not_in_params(self):
        job = Job(dataset="compas", threads=6)
        assert "threads" not in job.params()

    def test_threads_do_not_alter_fingerprints(self):
        base = Job(dataset="compas", block_size=512)
        for threads in (None, 1, 2, 8):
            job = Job(dataset="compas", block_size=512, threads=threads)
            assert job.fingerprint == base.fingerprint

    def test_block_size_still_fingerprinted(self):
        assert (Job(dataset="compas", block_size=256).fingerprint
                != Job(dataset="compas", block_size=512).fingerprint)

    def test_grid_threads_reach_jobs_but_not_hashes(self):
        plain = ScenarioGrid(datasets=["compas"], seeds=[0, 1])
        threaded = ScenarioGrid(datasets=["compas"], seeds=[0, 1],
                                threads=4)
        jobs_plain, jobs_threaded = plain.expand(), threaded.expand()
        assert all(j.threads == 4 for j in jobs_threaded)
        assert ([j.fingerprint for j in jobs_plain]
                == [j.fingerprint for j in jobs_threaded])

    def test_grid_rejects_bad_threads(self):
        with pytest.raises(ValueError, match="threads"):
            ScenarioGrid(datasets=["compas"], threads=0)

    def test_api_specs_carry_threads(self):
        from repro import api
        spec = api.ExperimentSpec(dataset="compas", rows=200, threads=3)
        assert spec.to_job().threads == 3
        assert (spec.to_job().fingerprint
                == api.ExperimentSpec(dataset="compas",
                                      rows=200).to_job().fingerprint)
        roundtrip = api.ExperimentSpec.from_config(spec.to_config())
        assert roundtrip == spec
        sweep = api.SweepSpec(datasets=("compas",), rows=(200,),
                              threads=3)
        assert all(j.threads == 3 for j in sweep.to_grid().expand())
        with pytest.raises(ValueError, match="threads"):
            api.ExperimentSpec(dataset="compas", threads=0)
