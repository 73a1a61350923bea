"""Shared block-matmul pairwise-distance / top-k kernel.

Every individual-fairness metric in this repo ultimately needs one of
two primitives over a point set:

* the **k nearest rows** of a reference set for each query row
  (situation testing, the k-NN classifier, and k-NN donor imputation
  over partially observed rows), or
* distances for an **explicit list of index pairs** (awareness and
  multifairness pair sampling).

Neighbour search reduces to the Gram expansion ``‖a − b‖² = ‖a‖² +
‖b‖² − 2·a@bᵀ`` evaluated in row blocks, so this module is the single
home for that kernel: reference norms are precomputed once, query rows
are tiled in blocks of ``block_size``, and neighbour selection uses
:func:`np.argpartition` per block — the dense ``n × n`` matrix is
never materialised.  Pair distances come from the coordinate
differences of the requested pairs alone.

Top-k selection runs a two-stage **screen / re-rank** scheme: the
screening pass evaluates the Gram blocks in float32 (on memory-bound
hardware this roughly halves the time of the dominant matmul +
selection sweep) and keeps a candidate margin beyond ``k``; the exact
float64 distances of the surviving candidates are then recomputed
directly from the coordinate differences and re-ranked with a stable
``(distance, index)`` order.  On tie-free data the result is exactly
the float64 top-k (the true k-th neighbour would have to be buried
behind a full candidate margin of float32-indistinguishable
distances to be missed); on heavily tied data the stable re-rank
picks the lowest reference indices among the ties the screen
surfaced, mirroring the loop references' stable ``argsort``.

Query rows repeat in practice (encoded categorical data: a 6,000-row
compas test split holds under a thousand distinct rows), so
:func:`topk` searches each distinct query row once and copies its
answer to the row's duplicates (:func:`distinct_rows`; byte-equal rows
are one row), and :func:`repro.errors.impute_knn` does the same for
its rows needing repair.  To a duplicate this is only a change of
tiling, so results stay the same under the caveat below, which is
unchanged.

``block_size`` is a performance keyword: each query row always sees
every reference row whatever the tiling, so selection is
tiling-independent wherever distances are distinct (the property
suite in ``tests/metrics/test_pairwise_kernel.py`` locks this in).
BLAS may still reassociate the float32 screen arithmetic differently
under different tilings, which could in principle break *exact ties*
differently.  Callers that take an optional ``block_size`` pass it
through :func:`resolve_block_size`; omitted, it is
:data:`DEFAULT_BLOCK_SIZE`.

Blocks run one after another in the calling thread; parallelism
inside a block is BLAS's own (the sweep executor sizes it to the
CPUs its worker processes leave free, see :mod:`repro.blas`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "resolve_block_size",
    "minmax_scale",
    "pair_distances",
    "PreparedReference",
    "prepare_reference",
    "distinct_rows",
    "topk",
    "masked_sq_blocks",
    "masked_mean_distances",
]

#: Query rows per Gram block.  Big enough that the BLAS calls and the
#: per-block ``argpartition`` sweeps amortise their setup, small enough
#: that one ``block_size × n`` block stays cache-friendly on the large
#: audits (1024 × 20k float32 ≈ 80 MB of streamed, not resident, data).
DEFAULT_BLOCK_SIZE = 1024

#: Extra float32-screen candidates kept beyond ``k`` before the exact
#: float64 re-rank.  Missing a true neighbour requires at least this
#: many reference points within float32 resolution of the k-th
#: distance — pathological even for discretised data.
_SCREEN_MARGIN = 8


def resolve_block_size(block_size: int | None) -> int:
    """Validate an optional block size (``None`` is
    :data:`DEFAULT_BLOCK_SIZE`)."""
    if block_size is None:
        return DEFAULT_BLOCK_SIZE
    block_size = int(block_size)
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, "
                         f"got {block_size}")
    return block_size


# ----------------------------------------------------------------------
# Scaling and pair distances
# ----------------------------------------------------------------------
def minmax_scale(X: np.ndarray) -> np.ndarray:
    """Rescale every feature to ``[0, 1]``.

    The scale vector is precomputed per feature; zero-variance
    (constant) features get a unit span so they contribute zero to
    every distance instead of dividing by zero — a single-row input is
    the all-constant corner of the same rule.

    Raises
    ------
    ValueError
        On an empty (zero-row) input — there is no feature range to
        scale by (numpy would otherwise fail with an opaque
        zero-size-reduction error).
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValueError(
            "minmax_scale: cannot scale an empty input "
            f"(shape {X.shape}); pass at least one row")
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0] = 1.0
    return (X - lo) / span


def pair_distances(Z: np.ndarray, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Euclidean distances for explicit index pairs only —
    ``O(len(a))`` memory, never a matrix."""
    Z = np.asarray(Z, dtype=float)
    diff = Z[a] - Z[b]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


# ----------------------------------------------------------------------
# Blockwise top-k
# ----------------------------------------------------------------------
def distinct_rows(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Byte-equal rows of ``A`` as one: ``(first, inverse)``.

    ``first`` holds the index of each distinct row's first occurrence,
    ascending, and ``inverse`` maps every row to its position in
    ``first``, so ``A[first][inverse]`` equals ``A``.  Rows compare by
    their bytes (each row viewed as one ``np.void``), so ``-0.0`` and
    ``0.0`` stay apart and NaNs in the same places with the same bits
    match.  When every row is distinct, ``first`` is ``arange(len(A))``;
    so it is, at once, for fewer than two rows or rows of no width.
    """
    A = np.ascontiguousarray(A)
    n = A.shape[0]
    if n < 2 or A.size == 0:
        return np.arange(n), np.arange(n)
    keys = A.reshape(n, -1).view(np.dtype((np.void, A[0].nbytes)))
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    # np.unique orders by key bytes; renumber by first occurrence, so
    # an input without repeats keeps its own order (and tiling).
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.ravel()]


def _stable_smallest(cand: np.ndarray, d2: np.ndarray, kk: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the ``kk`` candidates with smallest exact distance,
    stable on ties by reference index (mirroring the loop references'
    stable ``argsort``)."""
    rows = np.arange(cand.shape[0])[:, None]
    order = np.lexsort((cand, d2), axis=1)[:, :kk]
    return cand[rows, order], d2[rows, order]


@dataclass(frozen=True)
class PreparedReference:
    """Reference-side :func:`topk` operands, computed once.

    Callers that query the same reference set repeatedly (the k-NN
    classifier predicts many times against one training set) build
    this at fit time via :func:`prepare_reference` and pass it in
    place of ``B``, skipping the per-call cast/transpose/norm sweep.

    ``mu`` is the reference column mean: the float32 screen runs on
    *centred* coordinates, because squared distances are
    translation-invariant but the Gram expansion is not — on data
    with a large common offset (raw timestamps, IDs) the uncentred
    ``‖b‖² − 2·a@bᵀ`` cancels catastrophically in float32 and would
    misrank neighbours beyond the re-rank margin.
    """

    B: np.ndarray        # original float64 points, for the exact re-rank
    mu: np.ndarray       # column means used to centre the screen
    BT_32: np.ndarray    # centred float32 reference, transposed
    b_sq_32: np.ndarray  # centred float32 squared norms


def prepare_reference(B: np.ndarray) -> PreparedReference:
    """Precompute the screen operands for a :func:`topk` reference
    set."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError(f"B must be 2-D, got shape {B.shape}")
    mu = (B.mean(axis=0) if B.shape[0]
          else np.zeros(B.shape[1]))
    BT_32 = np.ascontiguousarray((B - mu).T, dtype=np.float32)
    b_sq_32 = np.einsum("ij,ij->i", BT_32.T, BT_32.T,
                        dtype=np.float32)
    return PreparedReference(B=B, mu=mu, BT_32=BT_32, b_sq_32=b_sq_32)


def topk(A: np.ndarray, B: np.ndarray | PreparedReference, k: int, *,
         block_size: int | None = None,
         exclude: np.ndarray | None = None,
         ) -> tuple[np.ndarray, np.ndarray]:
    """k nearest rows of ``B`` for every row of ``A``, blockwise.

    Returns ``(idx, d2)`` of shape ``(len(A), kk)`` with
    ``kk = min(k, len(B))``: for each query row, the indices of its
    ``kk`` nearest reference rows in ascending ``(distance, index)``
    order, and their exact float64 squared distances.  The dense
    ``len(A) × len(B)`` matrix is only ever held one float32 screen
    block at a time.  Each distinct query row (with its ``exclude``
    entry, when given; see :func:`distinct_rows`) is searched once and
    its answer copied to its duplicates.

    Parameters
    ----------
    A, B:
        Query and reference points (``B`` may be ``A`` itself, or a
        :class:`PreparedReference` built once via
        :func:`prepare_reference`).
    k:
        Neighbours per query row (clipped to ``len(B)``).
    block_size:
        Query rows per screen block (``None`` = the kernel default).
    exclude:
        Optional per-query index into ``B`` to mask out (``-1`` =
        nothing), for self-exclusion when the query point is a member
        of the reference set.  A masked entry can still be *returned*
        when ``kk`` spans the whole reference set — it carries
        ``d2 = inf``, so callers filter with ``np.isfinite``.
    """
    A = np.asarray(A, dtype=float)
    ref = (B if isinstance(B, PreparedReference)
           else prepare_reference(B))
    B = ref.B
    if A.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(
            f"A and B must be 2-D with matching feature counts, got "
            f"{A.shape} and {B.shape}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    block = resolve_block_size(block_size)
    m = B.shape[0]
    kk = min(k, m)
    n_q = A.shape[0]
    if m == 0 or n_q == 0:
        return (np.empty((n_q, kk), dtype=np.intp),
                np.empty((n_q, kk)))
    if exclude is not None:
        exclude = np.asarray(exclude)
        if exclude.shape != (n_q,):
            raise ValueError(
                f"exclude must have one entry per query row, got shape "
                f"{exclude.shape} for {n_q} rows")
    first, inverse = distinct_rows(
        A if exclude is None else np.column_stack([A, exclude]))
    A = A[first]
    if exclude is not None:
        exclude = exclude[first]
    n_q = first.size

    # float32 screen operands on centred coordinates (see
    # PreparedReference); ‖a‖² is a per-row constant under
    # argpartition, so the screen key is just ‖b‖² − 2·a@bᵀ.
    A2_32 = np.ascontiguousarray((A - ref.mu) * -2.0, dtype=np.float32)
    n_cand = min(m, kk + max(_SCREEN_MARGIN, kk))

    idx = np.empty((n_q, kk), dtype=np.intp)
    d2 = np.empty((n_q, kk))
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        rows = slice(start, stop)
        G = A2_32[rows] @ ref.BT_32
        G += ref.b_sq_32
        excl = None
        if exclude is not None:
            excl = exclude[rows]
            member = excl >= 0
            G[np.flatnonzero(member), excl[member]] = np.inf
        if n_cand < m:
            cand = np.argpartition(G, n_cand - 1, axis=1)[:, :n_cand]
        else:
            cand = np.broadcast_to(np.arange(m), (stop - start, m))
        # Exact float64 re-rank of the surviving candidates, from the
        # coordinate differences directly (no Gram cancellation).
        diff = A[rows][:, None, :] - B[cand]
        exact = np.einsum("rcd,rcd->rc", diff, diff)
        if excl is not None:
            exact[cand == excl[:, None]] = np.inf
        idx[rows], d2[rows] = _stable_smallest(cand, exact, kk)
        obs.add("pairwise.blocks")
    obs.add("pairwise.candidates", n_q * n_cand)
    return idx[inverse], d2[inverse]


# ----------------------------------------------------------------------
# Masked distances (k-NN imputation)
# ----------------------------------------------------------------------
def masked_sq_blocks(Z: np.ndarray, observed: np.ndarray,
                     rows: np.ndarray, *,
                     block_size: int | None = None,
                     ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Blockwise masked squared distances and overlap counts.

    For partially observed data, the distance between rows *i* and *j*
    only uses features observed in **both**; with ``M`` the observed
    mask and ``Z̃ = Z·M`` (missing coordinates zeroed), the masked
    Gram expansion is three matmuls::

        Σ_d M_id M_jd (Z_id − Z_jd)² = (Z̃²)_i·M_j − 2·Z̃_i·Z̃_j
                                        + M_i·(Z̃²)_j

    Yields ``(start, stop, d2, counts)`` over blocks of ``rows``
    (query-row indices into ``Z``): the masked squared-difference sums
    (clipped at zero) against **every** row of ``Z``, and the shared
    observed-feature counts — both exact in float64.  Consumers must
    treat zero overlap as *incomparable*, not divide by it —
    :func:`masked_mean_distances` is the canonical guard.
    """
    Z = np.asarray(Z, dtype=float)
    rows = np.asarray(rows)
    block = resolve_block_size(block_size)
    M = np.asarray(observed, dtype=float)
    if M.shape != Z.shape:
        raise ValueError(
            f"observed mask shape {M.shape} must match Z {Z.shape}")
    ZM = np.where(observed, Z, 0.0)
    ZM_sq = ZM * ZM
    MT, ZMT, ZM_sqT = M.T, ZM.T, ZM_sq.T
    for start in range(0, rows.size, block):
        stop = min(start + block, rows.size)
        take = rows[start:stop]
        d2 = ZM[take] @ ZMT
        d2 *= -2.0
        d2 += ZM_sq[take] @ MT
        d2 += M[take] @ ZM_sqT
        np.maximum(d2, 0.0, out=d2)
        counts = M[take] @ MT
        obs.add("pairwise.blocks")
        yield start, stop, d2, counts


def masked_mean_distances(d2: np.ndarray, counts: np.ndarray
                          ) -> np.ndarray:
    """Per-pair RMS distance over the shared-observed features.

    The canonical consumer-side guard for :func:`masked_sq_blocks`
    output: pairs with **zero** shared observed features are
    incomparable and get an explicit ``inf`` (so stable argsorts push
    them last and ``np.isfinite`` filters them), with no division by
    zero and no ``RuntimeWarning`` — fully disjoint observation
    patterns are a legitimate input, not a numerics accident.
    Comparable pairs get exactly ``sqrt(d2 / counts)``.
    """
    d2 = np.asarray(d2, dtype=float)
    counts = np.asarray(counts, dtype=float)
    dist = np.full(d2.shape, np.inf)
    np.divide(d2, counts, out=dist, where=counts > 0)
    return np.sqrt(dist, out=dist)
