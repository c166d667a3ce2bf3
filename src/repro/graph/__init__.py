"""Information-network substrate (the paper's follower graph G = {U, E}).

:class:`InformationNetwork` is one CSR (compressed sparse row) adjacency
built from ``(followee, follower)`` edge arrays, with user ids as rows;
live ingest adds follows through a small overlay.
:mod:`repro.graph.csr` holds the raw kernels (CSR build, frontier BFS)
and :mod:`repro.graph.generators` the chunked :class:`FollowerEdgeStream`
that every world's edges come from.
"""

from repro.graph.csr import bfs_distances, bfs_hops_to, build_csr
from repro.graph.network import InformationNetwork
from repro.graph.generators import (
    FollowerEdgeStream,
    community_follower_edges,
    community_follower_graph,
    dedupe_edges,
)

__all__ = [
    "InformationNetwork",
    "FollowerEdgeStream",
    "community_follower_edges",
    "community_follower_graph",
    "dedupe_edges",
    "build_csr",
    "bfs_distances",
    "bfs_hops_to",
]
