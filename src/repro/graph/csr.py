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

__all__ = [
    "build_csr",
    "csr_edges",
    "bfs_distances",
    "bfs_distances_overlay",
    "bfs_hops_to",
]


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


def csr_edges(
    indptr: np.ndarray,
    indices: np.ndarray,
    tindptr: np.ndarray,
    tindices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` edge arrays from which :func:`build_csr` rebuilds both
    the CSR and its transpose exactly, neighbour order included.

    Row order alone is not enough: it fixes each row's successors but
    sorts each row's predecessors by source.  So the edges are emitted
    in an order that keeps both: an edge goes out once it is next in its
    source row *and* next in its target's transposed row.  The original
    emission order is one such order, so one always exists for a graph
    that ``build_csr`` made; each edge is examined a constant number of
    times.
    """
    n = len(indptr) - 1
    ptr, end = indptr[:-1].tolist(), indptr[1:].tolist()
    tptr, tend = tindptr[:-1].tolist(), tindptr[1:].tolist()
    succ, pred = indices.tolist(), tindices.tolist()

    def ready(row: int) -> bool:
        # Row's next edge (row -> d) is also next among d's predecessors.
        if ptr[row] == end[row]:
            return False
        d = succ[ptr[row]]
        return tptr[d] < tend[d] and pred[tptr[d]] == row

    src: list[int] = []
    dst: list[int] = []
    stack = [row for row in range(n) if ready(row)]
    while stack:
        row = stack.pop()
        d = succ[ptr[row]]
        src.append(row)
        dst.append(d)
        ptr[row] += 1
        tptr[d] += 1
        if ready(row):
            stack.append(row)
        if tptr[d] < tend[d]:
            # d's next predecessor is ready if its own next edge is to d.
            other = pred[tptr[d]]
            if ptr[other] < end[other] and succ[ptr[other]] == d:
                stack.append(other)
    if len(src) != len(succ):
        raise ValueError("the CSR and its transpose admit no common edge order")
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


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
