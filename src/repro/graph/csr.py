"""CSR adjacency kernels for the information network.

:class:`~repro.graph.network.InformationNetwork` stores its
adjacency as two compressed-sparse-row arrays — ``indptr``/``indices``
over successors (followers: the direction information flows) and a
transposed copy over predecessors (followees) — so neighbour lists are
zero-copy ``int32`` slices and single-source BFS is a handful of numpy
gathers per level instead of a Python ``deque`` walk.

Everything here works in *row* space (``0..n-1``), which is also the
user-id space.  Kernels are exact: BFS hop counts equal a plain
per-node BFS for every source, which the graph oracle tests pin.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_csr", "bfs_distances", "bfs_distances_overlay", "bfs_hops_to"]


def build_csr(
    src: np.ndarray, dst: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` int32 CSR over ``(src -> dst)`` edge arrays.

    The stable argsort keeps each row's neighbours in *emission order*,
    which downstream RNG-driven consumers (cascade simulation) depend on
    for bit-identical worlds.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    counts = np.bincount(src, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    indices = dst[order].astype(np.int32)
    return indptr, indices


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbours of the frontier rows, concatenated (with duplicates)."""
    starts = indptr[frontier].astype(np.int64)
    counts = (indptr[frontier + 1] - indptr[frontier]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    cum = np.cumsum(counts)
    # Position k of the flat output belongs to frontier row r(k); its
    # offset inside r(k)'s slice is k - (cum[r(k)] - counts[r(k)]).
    flat = np.repeat(starts - (cum - counts), counts) + np.arange(total)
    return indices[flat]


def bfs_distances(
    indptr: np.ndarray, indices: np.ndarray, source: int, cutoff: int
) -> np.ndarray:
    """Hop counts from ``source`` to every row, frontier level by level.

    Returns an ``int16`` array of length ``n`` where unreached rows (and
    rows beyond ``cutoff``) hold ``cutoff + 1`` — the finite "far away"
    value the feature path uses.
    """
    n = len(indptr) - 1
    far = cutoff + 1
    dist = np.full(n, far, dtype=np.int16)
    if not 0 <= source < n:
        return dist
    dist[source] = 0
    frontier = np.array([source], dtype=np.int32)
    for d in range(1, cutoff + 1):
        nbrs = _gather_neighbors(indptr, indices, frontier)
        if len(nbrs) == 0:
            break
        fresh = nbrs[dist[nbrs] == far]
        if len(fresh) == 0:
            break
        dist[fresh] = d
        frontier = np.unique(fresh).astype(np.int32)
    return dist


def bfs_distances_overlay(
    indptr: np.ndarray,
    indices: np.ndarray,
    extra: dict,
    source: int,
    cutoff: int,
) -> np.ndarray:
    """:func:`bfs_distances` over the CSR *plus* an adjacency overlay.

    ``extra`` maps row -> sequence of extra neighbour rows (edges added
    after construction by live follow ingest).  Each level's gather is
    the base CSR gather with the frontier's overlay lists appended; BFS
    hop counts are neighbour-order independent, so the result is
    bit-identical to rebuilding the CSR with the combined edge set.
    """
    n = len(indptr) - 1
    far = cutoff + 1
    dist = np.full(n, far, dtype=np.int16)
    if not 0 <= source < n:
        return dist
    dist[source] = 0
    frontier = np.array([source], dtype=np.int32)
    for d in range(1, cutoff + 1):
        nbrs = _gather_neighbors(indptr, indices, frontier)
        extras = [extra[r] for r in frontier.tolist() if r in extra]
        if extras:
            nbrs = np.concatenate(
                [nbrs] + [np.asarray(e, dtype=indices.dtype) for e in extras]
            )
        if len(nbrs) == 0:
            break
        fresh = nbrs[dist[nbrs] == far]
        if len(fresh) == 0:
            break
        dist[fresh] = d
        frontier = np.unique(fresh).astype(np.int32)
    return dist


def bfs_hops_to(
    indptr: np.ndarray, indices: np.ndarray, source: int, target: int, cutoff: int
) -> int:
    """Hops from ``source`` to ``target``; ``cutoff + 1`` when unreachable.

    Same levels as :func:`bfs_distances` but stops as soon as the target
    enters a frontier.
    """
    n = len(indptr) - 1
    far = cutoff + 1
    if not (0 <= source < n and 0 <= target < n):
        return far
    if source == target:
        return 0
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int32)
    for d in range(1, cutoff + 1):
        nbrs = _gather_neighbors(indptr, indices, frontier)
        if len(nbrs) == 0:
            return far
        fresh = nbrs[~seen[nbrs]]
        if len(fresh) == 0:
            return far
        if (fresh == target).any():
            return d
        seen[fresh] = True
        frontier = np.unique(fresh).astype(np.int32)
    return far
