"""Block-structured row assembly for the serving forward pass.

A RETINA candidate row is ``[peer | history | endogenous | tweet]`` where the
last two blocks are identical for every candidate of a cascade.  Serving
builds the per-candidate block ``[peer | history]`` as an ``(n, d_cand)``
matrix per request and the shared per-cascade block once as a
``(d_shared,)`` vector; full rows exist only transiently, assembled here
for exactly the rows a forward pass needs.  Training samples
(:class:`~repro.core.retina.features.RetinaSample`) go one step further:
the history rows of all samples built together live in one shared matrix,
and each sample assembles its rows from an index into it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assemble_rows"]


def assemble_rows(
    cand_block: np.ndarray, shared_block: np.ndarray, idx=None
) -> np.ndarray:
    """Materialise full feature rows ``[cand_block[i] | shared_block]``.

    Parameters
    ----------
    cand_block:
        (n, d_cand) per-row features.
    shared_block:
        (d_shared,) features tiled into every row.
    idx:
        Optional row selection (any numpy fancy index); ``None`` assembles
        all rows.

    Returns a fresh ``(len(idx), d_cand + d_shared)`` array whose values are
    bit-identical to concatenating the blocks row by row.
    """
    block = np.asarray(cand_block) if idx is None else np.asarray(cand_block)[idx]
    shared = np.asarray(shared_block)
    n, d_cand = block.shape
    out = np.empty((n, d_cand + shared.shape[0]), dtype=np.result_type(block, shared))
    out[:, :d_cand] = block
    out[:, d_cand:] = shared
    return out
