"""Shared block-matmul pairwise-distance / top-k kernel.

Every individual-fairness metric in this repo ultimately needs one of
two primitives over a point set:

* the **k nearest rows** of a reference set for each query row
  (situation testing, k-NN consistency, the k-NN classifier, and k-NN
  donor imputation over partially observed rows), or
* distances for an **explicit list of index pairs** (awareness and
  multifairness pair sampling).

Neighbour search reduces to the Gram expansion ``‖a − b‖² = ‖a‖² +
‖b‖² − 2·a@bᵀ`` evaluated in row blocks, so this module is the single
home for that kernel: reference norms are precomputed once, query rows
are tiled in blocks of :data:`DEFAULT_BLOCK_SIZE`, and neighbour
selection uses :func:`np.argpartition` per block — the dense ``n × n``
matrix is never materialised.  Pair distances come from the coordinate
differences of the requested pairs alone.

Top-k selection runs a two-stage **screen / re-rank** scheme over the
*distinct* reference rows (:func:`distinct_rows`; byte-equal rows are
one row): the screening pass evaluates the Gram blocks in float32 (on
memory-bound hardware this roughly halves the time of the dominant
matmul + selection sweep) and keeps a candidate margin beyond ``k``;
the exact float64 distances of the surviving candidates are then
recomputed directly from the coordinate differences and re-ranked
with a stable ``(distance, index)`` order.  A query row whose ``k``
nearest distinct rows include a repeated one then takes the members
of its candidates, again in ``(distance, index)`` order.  The result
is the float64 top-k with ties to the lowest index, as the loop
references' stable ``argsort`` has it, on every host: repeats cannot
use up the margin, so the tie order of numpy's SIMD-dispatched
``argpartition`` never picks a neighbour.  A true neighbour could
only be missed behind a full candidate margin of *distinct* rows
within float32 resolution of the k-th distance.

Query rows repeat in practice (encoded categorical data: a 6,000-row
compas test split holds under a thousand distinct rows, its 14,000
training rows about 1,200), so :func:`topk` also searches each
distinct query row once and copies its answer to the row's
duplicates, and :func:`repro.errors.impute_knn` does the same for its
rows needing repair.

Self-exclusion (situation testing's own-group pool, k-NN consistency)
is not a second search mode: :func:`topk` with ``exclude`` runs the
plain search for one neighbour more and drops each row's own index
afterwards, so byte-equal rows share one search whatever they exclude.

The block size is a constant, read at call time: each query row
always sees every reference row whatever the tiling, so selection is
tiling-independent wherever distances are distinct (the property
suite in ``tests/metrics/test_pairwise_kernel.py`` patches
:data:`DEFAULT_BLOCK_SIZE` to lock this in).  BLAS may still
reassociate the float32 screen arithmetic, or the masked Gram of
:func:`masked_sq_blocks`, differently under different tilings, which
could in principle break *exact ties* differently.

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
#: that one block stays cache-friendly on the large audits
#: (1024 × 20k float32 ≈ 80 MB of streamed, not resident, data).
DEFAULT_BLOCK_SIZE = 1024

#: Extra float32-screen candidates kept beyond ``k`` before the exact
#: float64 re-rank.  Missing a true neighbour requires at least this
#: many reference points within float32 resolution of the k-th
#: distance — pathological even for discretised data.
_SCREEN_MARGIN = 8


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


def _stable_order(cand: np.ndarray, d2: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the candidates in ascending ``(distance, index)``
    order, with their exact distances (the loop references' stable
    ``argsort``)."""
    rows = np.arange(cand.shape[0])[:, None]
    order = np.lexsort((cand, d2), axis=1)
    return cand[rows, order], d2[rows, order]


@dataclass(frozen=True)
class PreparedReference:
    """Reference-side :func:`topk` operands, computed once.

    Callers that query the same reference set repeatedly (the k-NN
    classifier predicts many times against one training set) build
    this at fit time via :func:`prepare_reference` and pass it in
    place of ``B``, skipping the per-call cast/transpose/norm sweep.

    Byte-equal reference rows are one *distinct row*
    (:func:`distinct_rows`): distinct row ``g`` is ``B[first[g]]``, and
    its members, the indices of ``B`` holding it, are
    ``members[offsets[g]:offsets[g + 1]]`` in ascending order.  The
    screen operands cover the distinct rows only.

    ``mu`` is the reference column mean: the float32 screen runs on
    *centred* coordinates, because squared distances are
    translation-invariant but the Gram expansion is not — on data
    with a large common offset (raw timestamps, IDs) the uncentred
    ``‖b‖² − 2·a@bᵀ`` cancels catastrophically in float32 and would
    misrank neighbours beyond the re-rank margin.

    Everything derives from ``B``, so the state a bundle keeps is ``B``
    alone, and a state that carries more fields (older bundles) still
    restores.
    """

    B: np.ndarray        # original float64 points, for the exact re-rank
    mu: np.ndarray       # column means used to centre the screen
    first: np.ndarray    # first index of each distinct row, ascending
    members: np.ndarray  # indices of B by distinct row, ascending in each
    offsets: np.ndarray  # distinct row g's members start at offsets[g]
    BT_32: np.ndarray    # centred float32 distinct rows, transposed
    b_sq_32: np.ndarray  # their centred float32 squared norms

    def get_state(self) -> dict:
        return {"B": self.B}

    def set_state(self, state: dict) -> None:
        for name, value in vars(prepare_reference(state["B"])).items():
            object.__setattr__(self, name, value)


def prepare_reference(B: np.ndarray) -> PreparedReference:
    """Precompute the screen operands for a :func:`topk` reference
    set."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError(f"B must be 2-D, got shape {B.shape}")
    mu = (B.mean(axis=0) if B.shape[0]
          else np.zeros(B.shape[1]))
    first, group = distinct_rows(B)
    offsets = np.zeros(first.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(group, minlength=first.size), out=offsets[1:])
    BT_32 = np.ascontiguousarray((B[first] - mu).T, dtype=np.float32)
    b_sq_32 = np.einsum("ij,ij->i", BT_32.T, BT_32.T,
                        dtype=np.float32)
    return PreparedReference(B=B, mu=mu, first=first,
                             members=np.argsort(group, kind="stable"),
                             offsets=offsets, BT_32=BT_32,
                             b_sq_32=b_sq_32)


def _expand(ref: PreparedReference, sizes: np.ndarray, gs: np.ndarray,
            d2s: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``kk`` nearest reference *indices* of query rows whose
    nearest distinct rows include a shared one.

    ``gs``/``d2s`` are each row's candidate distinct rows in ascending
    ``(distance, index)`` order.  Members of distinct rows nearer than
    the ``kk``-th member all come first; at its distance, members
    compete by index, so every candidate there is expanded.  No
    distinct row gives more than ``kk`` members.
    """
    reached = sizes[gs].cumsum(axis=1) >= kk
    bound = np.where(reached, d2s, np.inf).min(axis=1, keepdims=True)
    # A NaN distance (from a NaN coordinate) sorts last and makes the
    # bound NaN: such a row keeps every candidate.
    rr, cc = (~(d2s > bound)).nonzero()
    g = gs[rr, cc]
    count = np.minimum(sizes[g], kk)
    end = count.cumsum()
    member = ref.members[np.arange(end[-1])
                         + (ref.offsets[g] - end + count).repeat(count)]
    row = rr.repeat(count)
    dist = d2s[rr, cc].repeat(count)
    order = np.lexsort((member, dist, row))
    per_row = np.bincount(row, minlength=gs.shape[0])
    pick = order[(per_row.cumsum() - per_row)[:, None] + np.arange(kk)]
    return member[pick], dist[pick]


def topk(A: np.ndarray, B: np.ndarray | PreparedReference, k: int, *,
         exclude: np.ndarray | None = None,
         ) -> tuple[np.ndarray, np.ndarray]:
    """k nearest rows of ``B`` for every row of ``A``, blockwise.

    Returns ``(idx, d2)`` of shape ``(len(A), kk)`` with
    ``kk = min(k, len(B))``: for each query row, the indices of its
    ``kk`` nearest reference rows in ascending ``(distance, index)``
    order — ties go to the lowest index — and their exact float64
    squared distances.  The dense ``len(A) × len(B)`` matrix is only
    ever held one float32 screen block of :data:`DEFAULT_BLOCK_SIZE`
    query rows at a time.  Each distinct query row (see
    :func:`distinct_rows`) is searched once and its answer copied to
    its duplicates.  The screen and the re-rank run over the distinct
    reference rows; a query row whose ``kk`` nearest distinct rows
    include a shared one then gets the members of its candidates in
    ``(distance, index)`` order, and every other row gets its distinct
    rows' indices directly.

    Parameters
    ----------
    A, B:
        Query and reference points (``B`` may be ``A`` itself, or a
        :class:`PreparedReference` built once via
        :func:`prepare_reference`).
    k:
        Neighbours per query row (clipped to ``len(B)``).
    exclude:
        Optional index into ``B`` per query row, left out of that
        row's neighbours (self-exclusion, when the query rows are
        members of the reference set).  The rows are searched for one
        neighbour more, exactly as without ``exclude``, and each then
        drops its own index, or its farthest neighbour when its own is
        not among them; so ``kk = min(k, len(B) − 1)``.
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
    m = B.shape[0]
    n_rows = A.shape[0]
    if exclude is not None:
        exclude = np.asarray(exclude)
        if (exclude.shape != (n_rows,)
                or not ((exclude >= 0) & (exclude < m)).all()):
            raise ValueError(
                f"exclude must hold one index into B ({m} rows) per "
                f"query row ({n_rows}), got shape {exclude.shape}")
        k += 1
    kk = min(k, m)
    if m == 0 or n_rows == 0:
        idx, d2 = (np.empty((n_rows, kk), dtype=np.intp),
                   np.empty((n_rows, kk)))
    else:
        first, inverse = distinct_rows(A)
        idx, d2 = _search(A[first], ref, kk)
        idx, d2 = idx[inverse], d2[inverse]
    if exclude is None or kk == 0:
        return idx, d2
    # Each row's own index, or else its farthest neighbour, goes: the
    # kk - 1 nearest of the other reference rows remain, in order.
    drop = idx == exclude[:, None]
    drop[~drop.any(axis=1), -1] = True
    keep = ~drop
    return (idx[keep].reshape(n_rows, kk - 1),
            d2[keep].reshape(n_rows, kk - 1))


def _search(A: np.ndarray, ref: PreparedReference, kk: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """The ``kk`` nearest reference rows of distinct query rows ``A``,
    block by block (both sides non-empty; see :func:`topk`)."""
    B = ref.B
    n_q = A.shape[0]
    sizes = ref.offsets[1:] - ref.offsets[:-1]
    shared = sizes > 1
    # float32 screen operands on centred coordinates (see
    # PreparedReference); ‖a‖² is a per-row constant under
    # argpartition, so the screen key is just ‖b‖² − 2·a@bᵀ.
    A2_32 = np.ascontiguousarray((A - ref.mu) * -2.0, dtype=np.float32)
    n_d = sizes.size
    n_cand = min(n_d, kk + max(_SCREEN_MARGIN, kk))

    idx = np.empty((n_q, kk), dtype=np.intp)
    d2 = np.empty((n_q, kk))
    block = DEFAULT_BLOCK_SIZE
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        rows = slice(start, stop)
        G = A2_32[rows] @ ref.BT_32
        G += ref.b_sq_32
        if n_cand < n_d:
            cand = np.argpartition(G, n_cand - 1, axis=1)[:, :n_cand]
        else:
            cand = np.broadcast_to(np.arange(n_d), (stop - start, n_d))
        # Exact float64 re-rank of the surviving candidates, from the
        # coordinate differences directly (no Gram cancellation).
        diff = A[rows][:, None, :] - B[ref.first[cand]]
        exact = np.einsum("rcd,rcd->rc", diff, diff)
        gs, d2s = _stable_order(cand, exact)
        if n_cand < kk:  # fewer distinct rows than kk: all expand
            wide = np.arange(stop - start)
        else:
            top = gs[:, :kk]
            idx[rows], d2[rows] = ref.first[top], d2s[:, :kk]
            wide = np.logical_or.reduce(shared[top], axis=1).nonzero()[0]
        if wide.size:
            idx[start + wide], d2[start + wide] = _expand(
                ref, sizes, gs[wide], d2s[wide], kk)
        obs.add("pairwise.blocks")
    obs.add("pairwise.candidates", n_q * n_cand)
    return idx, d2


# ----------------------------------------------------------------------
# Masked distances (k-NN imputation)
# ----------------------------------------------------------------------
def masked_sq_blocks(Z: np.ndarray, observed: np.ndarray,
                     rows: np.ndarray,
                     ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Blockwise masked squared distances and overlap counts.

    For partially observed data, the distance between rows *i* and *j*
    only uses features observed in **both**; with ``M`` the observed
    mask and ``Z̃ = Z·M`` (missing coordinates zeroed), the masked
    Gram expansion is three matmuls::

        Σ_d M_id M_jd (Z_id − Z_jd)² = (Z̃²)_i·M_j − 2·Z̃_i·Z̃_j
                                        + M_i·(Z̃²)_j

    Yields ``(start, stop, d2, counts)`` over blocks of
    :data:`DEFAULT_BLOCK_SIZE` ``rows`` (query-row indices into
    ``Z``): the masked squared-difference sums
    (clipped at zero) against **every** row of ``Z``, and the shared
    observed-feature counts — both exact in float64.  Consumers must
    treat zero overlap as *incomparable*, not divide by it —
    :func:`masked_mean_distances` is the canonical guard.
    """
    Z = np.asarray(Z, dtype=float)
    rows = np.asarray(rows)
    block = DEFAULT_BLOCK_SIZE
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
