"""Fused tape nodes for the hot compute path.

Each function here collapses a chain of primitive :class:`~repro.nn.tensor.Tensor`
ops (the seed implementation, frozen in :mod:`repro.nn.reference`) into a
single tape node.  The forward data and the backward gradients are computed
with the *exact same numpy expressions, in the exact same order*, as the
primitive chain produced — so models trained through the fused path end up
with bit-identical weights while paying one node of tape overhead instead
of ten to twenty.

Two invariants make bit-identity possible and are relied on throughout:

1. Within one fused node, gradient contributions into a shared tensor are
   issued via separate ``_accumulate`` calls in the order the reversed-topo
   walk of the primitive chain issued them (verified by instrumenting the
   seed tape; ``tests/nn/test_fused.py`` locks every node to the primitive
   chain bit-for-bit).
2. Across nodes, accumulation order is inherited from the surrounding graph
   (e.g. recurrent steps chained through the hidden state always backprop
   in reverse-chronological order, and the per-interval output heads in
   ascending interval order — same as the unfused graph).

The recurrent cells additionally expose a *precomputed input projection*
entry point: when the same input feeds every unrolled step (RETINA-D feeds
``joint`` to all 7 intervals), ``x @ W_*`` is computed once and reused,
removing ``3 * (T - 1)`` forward matmuls while the backward still issues the
per-step ``x.T @ g`` contributions the seed tape produced.

Implementation note: the backward closures special-case 2-D operands (every
RETINA tensor) with plain ``.T`` views and ``sum(axis=0)`` bias reductions;
stacked 3-D operands (diffusion baselines) take the generic
``_unbroadcast``/``swapaxes`` route.  Both compute identical values.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast

__all__ = [
    "affine",
    "layer_norm",
    "scaled_dot_attention",
    "bce_with_logits_fused",
    "GRUProjection",
    "gru_project",
    "gru_step",
    "RNNProjection",
    "rnn_project",
    "rnn_step",
    "LSTMProjection",
    "lstm_project",
    "lstm_step",
    "sigmoid_data",
    "relu_data",
    "exp_data",
]


# ------------------------------------------------------------ data helpers
def sigmoid_data(z: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid, bitwise-identical to ``Tensor.sigmoid``.

    With ``e = exp(-|z|)`` the seed's two masked branches are
    ``1 / (1 + e)`` for ``z >= 0`` and ``e / (1 + e)`` otherwise: one
    exp (which never overflows) and one division serve both.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def relu_data(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(relu(z), mask), bitwise-identical to ``Tensor.relu``."""
    mask = z > 0
    return z * mask, mask


def exp_data(z: np.ndarray) -> np.ndarray:
    """Clipped exp, bitwise-identical to ``Tensor.exp``."""
    return np.exp(np.clip(z, -700, 700))


def _matmul_back_left(grad: np.ndarray, right: np.ndarray, shape) -> np.ndarray:
    """d(a @ b)/da contribution, exactly as ``Tensor.matmul`` computes it."""
    if grad.ndim == 2 and right.ndim == 2:
        out = grad @ right.T
        return out if out.shape == shape else _unbroadcast(out, shape)
    return _unbroadcast(grad @ right.swapaxes(-1, -2), shape)


def _matmul_back_right(left: np.ndarray, grad: np.ndarray, shape) -> np.ndarray:
    """d(a @ b)/db contribution, exactly as ``Tensor.matmul`` computes it."""
    if grad.ndim == 2 and left.ndim == 2:
        out = left.T @ grad
        return out if out.shape == shape else _unbroadcast(out, shape)
    return _unbroadcast(left.swapaxes(-1, -2) @ grad, shape)


# ----------------------------------------------------------------- affine
def affine(x: Tensor, W: Tensor, b: Tensor | None = None, activation: str | None = None) -> Tensor:
    """One node for ``activation(x @ W + b)`` (the Dense forward).

    Replaces the matmul -> add -> activation chain; gradient order into the
    leaves (b, x, W) matches the chain's reversed-topo order.
    """
    xd = x.data
    pre = xd @ W.data
    if b is not None:
        pre = pre + b.data
    mask = None
    if activation is None:
        out_data = pre
    elif activation == "relu":
        mask = pre > 0
        out_data = pre * mask
    elif activation == "tanh":
        out_data = np.tanh(pre)
    elif activation == "sigmoid":
        out_data = sigmoid_data(pre)
    else:  # pragma: no cover - guarded by Dense.__init__
        raise ValueError(f"unknown activation {activation!r}")

    parents = (x, W) if b is None else (x, W, b)

    def backward(grad):
        if activation == "relu":
            g = grad * mask
        elif activation == "tanh":
            g = grad * (1.0 - out_data**2)
        elif activation == "sigmoid":
            g = grad * out_data * (1.0 - out_data)
        else:
            g = grad
        if b is not None and b.requires_grad:
            if g.ndim == 2 and b.data.ndim == 1:
                b._accumulate_owned(g.sum(axis=0))
            else:
                # _unbroadcast may return g itself (same-shape fast path),
                # which must not be stored by reference.
                b._accumulate(_unbroadcast(g, b.shape))
        if x.requires_grad:
            x._accumulate_owned(_matmul_back_left(g, W.data, x.shape))
        if W.requires_grad:
            W._accumulate_owned(_matmul_back_right(xd, g, W.shape))

    return Tensor._result(out_data, parents, f"affine[{activation}]", backward)


# -------------------------------------------------------------- layer norm
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """One node for layer normalisation over the last axis.

    Mirrors the seed chain ``(x - mean) * (var + eps)^-0.5 * gamma + beta``
    where mean/var are built from ``sum * (1/d)`` (not ``np.mean``), and the
    input receives its two gradient contributions (centering, re-mean) as
    two accumulate calls in chain order.
    """
    xd = x.data
    d = xd.shape[-1]
    inv_d = 1.0 / d
    mu = xd.sum(axis=-1, keepdims=True) * inv_d
    centered = xd - mu
    sq = centered * centered
    var = sq.sum(axis=-1, keepdims=True) * inv_d
    veps = var + eps
    rstd = veps**-0.5
    normed = centered * rstd
    out_data = normed * gamma.data + beta.data

    def backward(grad):
        if beta.requires_grad:
            if grad.ndim == 2 and beta.data.ndim == 1:
                beta._accumulate_owned(grad.sum(axis=0))
            else:
                # _unbroadcast may return grad itself (same-shape fast
                # path), which must not be stored by reference.
                beta._accumulate(_unbroadcast(grad, beta.shape))
        if gamma.requires_grad:
            gn_full = grad * normed
            gamma._accumulate_owned(
                gn_full.sum(axis=0) if gn_full.ndim == 2 and gamma.data.ndim == 1 else _unbroadcast(gn_full, gamma.shape)
            )
        if x.requires_grad:
            # The whole centering/variance chain is live only when the input
            # needs a gradient (on the seed tape those nodes simply did not
            # require grad and were never walked).
            g_n = grad * gamma.data
            gc = g_n * rstd
            g_rstd = (g_n * centered).sum(axis=-1, keepdims=True)
            g_veps = g_rstd * -0.5 * veps**-1.5
            g_sq = np.broadcast_to(g_veps * inv_d, sq.shape)
            gc = gc + g_sq * centered
            gc = gc + g_sq * centered
            x._accumulate_owned(gc)
            g_s1 = _unbroadcast(gc, mu.shape) * -1.0 * inv_d
            x._accumulate(np.broadcast_to(g_s1, xd.shape))

    return Tensor._result(out_data, (x, gamma, beta), "layer_norm", backward)


# -------------------------------------------------------------- attention
def scaled_dot_attention(
    tweet: Tensor, news: Tensor, WQ: Tensor, WK: Tensor, WV: Tensor, hdim: int
):
    """One node for the exogenous attention (projections + softmax + pool).

    Returns ``(attended, weights_data)`` where ``weights_data`` is the raw
    ``(batch, k)`` softmax array (callers that need the weights wrap it in a
    constant tensor — gradients flow through the attended output only, as
    in the seed graph).

    RETINA always attends one cascade at a time, so the ``batch == 1`` case
    runs entirely on 2-D arrays (bitwise-identical per element; stacked
    numpy matmuls equal their 2-D slices) and skips the 3-D broadcast
    machinery.
    """
    if news.data.shape[0] == 1:
        return _scaled_dot_attention_b1(tweet, news, WQ, WK, WV, hdim)
    scale = hdim**-0.5
    q = tweet.data @ WQ.data  # (B, hd)
    k = news.data @ WK.data  # (B, K, hd)
    v = news.data @ WV.data  # (B, K, hd)
    B = q.shape[0]
    qr = q.reshape(B, 1, hdim)
    prod = qr * k
    s0 = prod.sum(axis=-1)  # (B, K)
    scores = s0 * scale
    m = scores.max(axis=-1, keepdims=True)
    shifted = scores - m
    e = exp_data(shifted)
    se = e.sum(axis=-1, keepdims=True)
    inv = se**-1.0
    w = e * inv  # (B, K)
    wr = w.reshape(B, -1, 1)
    wv = wr * v
    att = wv.sum(axis=1)  # (B, hd)

    def backward(grad):
        g_wv = np.broadcast_to(np.expand_dims(grad, 1), wv.shape)
        g_wr = (g_wv * v).sum(axis=-1, keepdims=True)
        g_v = g_wv * wr
        g_w = g_wr.reshape(w.shape)
        g_e = g_w * inv
        g_inv = (g_w * e).sum(axis=-1, keepdims=True)
        g_se = g_inv * -1.0 * se**-2.0
        g_e = g_e + np.broadcast_to(g_se, e.shape)
        g_shifted = g_e * e
        g_s0 = g_shifted * scale
        g_prod = np.broadcast_to(np.expand_dims(g_s0, -1), prod.shape)
        g_qr = (g_prod * k).sum(axis=1, keepdims=True)
        g_k = g_prod * qr
        g_q = g_qr.reshape(q.shape)
        if tweet.requires_grad:
            tweet._accumulate_owned(_matmul_back_left(g_q, WQ.data, tweet.shape))
        if WQ.requires_grad:
            WQ._accumulate_owned(_matmul_back_right(tweet.data, g_q, WQ.shape))
        if news.requires_grad:
            news._accumulate_owned(_matmul_back_left(g_k, WK.data, news.shape))
        if WK.requires_grad:
            WK._accumulate_owned(_matmul_back_right(news.data, g_k, WK.shape))
        if news.requires_grad:
            news._accumulate_owned(_matmul_back_left(g_v, WV.data, news.shape))
        if WV.requires_grad:
            WV._accumulate_owned(_matmul_back_right(news.data, g_v, WV.shape))

    out = Tensor._result(att, (tweet, news, WQ, WK, WV), "attention", backward)
    return out, w


def _scaled_dot_attention_b1(
    tweet: Tensor, news: Tensor, WQ: Tensor, WK: Tensor, WV: Tensor, hdim: int
):
    """Batch-1 attention on 2-D arrays; values bitwise-equal to the general
    path (every (1, ...) numpy op equals its squeezed 2-D counterpart)."""
    scale = hdim**-0.5
    nv2 = news.data[0]  # (K, nd)
    q = tweet.data @ WQ.data  # (1, hd)
    k = nv2 @ WK.data  # (K, hd)
    v = nv2 @ WV.data
    prod = q * k  # q broadcasts over rows, same elementwise products
    scores = prod.sum(axis=-1) * scale  # (K,)
    m = scores.max()
    e = exp_data(scores - m)
    # Keep the softmax denominator a 1-element *array*: scalar ``**`` goes
    # through libm pow, the seed's array ``**`` through numpy's loop, and
    # the two can differ by an ulp.
    se = e.sum(axis=-1, keepdims=True)
    inv = se**-1.0
    w = e * inv  # (K,)
    att = (w[:, None] * v).sum(axis=0).reshape(1, hdim)

    def backward(grad):
        g2 = grad.reshape(hdim)
        g_wv = np.broadcast_to(g2, v.shape)
        g_wr = (g_wv * v).sum(axis=-1)  # (K,)
        g_v = g_wv * w[:, None]
        g_e = g_wr * inv
        g_inv = (g_wr * e).sum(axis=-1, keepdims=True)
        g_se = g_inv * -1.0 * se**-2.0
        g_e = g_e + g_se
        g_s0 = g_e * e * scale
        g_prod = np.broadcast_to((g_s0)[:, None], prod.shape)
        g_qr = (g_prod * k).sum(axis=0)
        g_k = g_prod * q
        g_q = g_qr.reshape(1, hdim)
        if tweet.requires_grad:
            tweet._accumulate_owned(g_q @ WQ.data.T)
        if WQ.requires_grad:
            WQ._accumulate_owned(tweet.data.T @ g_q)
        if news.requires_grad:
            news._accumulate_owned((g_k @ WK.data.T).reshape(news.shape))
        if WK.requires_grad:
            WK._accumulate_owned(nv2.T @ g_k)
        if news.requires_grad:
            news._accumulate((g_v @ WV.data.T).reshape(news.shape))
        if WV.requires_grad:
            WV._accumulate_owned(nv2.T @ g_v)

    out = Tensor._result(att, (tweet, news, WQ, WK, WV), "attention", backward)
    return out, w.reshape(1, -1)


# ------------------------------------------------------------------ losses
def _softplus_parts(x: np.ndarray, neg_x: np.ndarray):
    """Forward intermediates of the seed ``softplus(x)`` chain.

    ``neg_x`` must be the exact negation of ``x`` (callers reuse arrays so
    that ``softplus(-L)`` and ``softplus(L)`` share both buffers).
    Returns ``(value, aux)`` with everything the backward needs.
    """
    a1, mask = relu_data(x)  # x.relu(); mask reused by abs_'s second relu
    neg_mask = neg_x > 0
    a3 = neg_x * neg_mask  # (-x).relu()
    ab = a1 + a3  # abs_(x) = relu(x) + relu(-x); a2 == a1 bitwise
    e = exp_data(ab * -1.0)
    e1 = e + 1.0
    value = a1 + np.log(e1)
    return value, (mask, neg_mask, e, e1)


def _softplus_grad(g_sp: np.ndarray, aux, acc: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the seed softplus chain wrt its input.

    The three contributions (direct relu, abs_ relu, abs_ negated relu) are
    added one at a time onto ``acc`` — the same left-associated elementwise
    sums the seed tape's separate ``_accumulate`` calls produced.
    """
    mask, neg_mask, e, e1 = aux
    first = g_sp * mask
    acc = first if acc is None else acc + first
    g_ab = g_sp / e1 * e * -1.0
    acc = acc + g_ab * mask
    acc = acc + g_ab * neg_mask * -1.0
    return acc


def bce_with_logits_fused(logits: Tensor, targets: np.ndarray, pos_weight: float | None) -> Tensor:
    """One node for (weighted) binary cross-entropy on logits.

    ``pos_weight=None`` reproduces ``bce_with_logits``; a float reproduces
    the paper's Eq. 6 weighted variant.  The logits gradient is assembled
    from its four seed contributions (softplus(-L) chain first, then the
    three softplus(L) consumers) in reversed-topo order.
    """
    L = logits.data
    negL = L * -1.0
    spn, aux_n = _softplus_parts(negL, L)  # -log p
    spp, aux_p = _softplus_parts(L, negL)  # -log (1 - p)
    t1 = targets if pos_weight is None else targets * pos_weight
    t3 = 1.0 - targets
    S = t1 * spn + t3 * spp
    n = S.size
    out_data = S.sum() * (1.0 / n)

    def backward(grad):
        if not logits.requires_grad:
            return
        g_S = np.broadcast_to(np.asarray(grad * (1.0 / n)), S.shape)
        g_negL = _softplus_grad(g_S * t1, aux_n)
        gL = g_negL * -1.0
        gL = _softplus_grad(g_S * t3, aux_p, acc=gL)
        logits._accumulate_owned(gL)

    return Tensor._result(out_data, (logits,), "bce_with_logits", backward)


# -------------------------------------------------------- recurrent cells
class GRUProjection:
    """Precomputed ``x @ W_{z,r,n}`` for a GRU unrolled over a fixed input."""

    __slots__ = ("x", "xz", "xr", "xn")

    def __init__(self, x: Tensor, xz: np.ndarray, xr: np.ndarray, xn: np.ndarray):
        self.x = x
        self.xz = xz
        self.xr = xr
        self.xn = xn


def gru_project(cell, x: Tensor) -> GRUProjection:
    """Hoist the input projections out of the interval unroll."""
    xd = x.data
    return GRUProjection(x, xd @ cell.Wz.data, xd @ cell.Wr.data, xd @ cell.Wn.data)


def gru_step(cell, proj: GRUProjection, h: Tensor) -> Tensor:
    """One fused GRU step ``h' = (1-z) n + z h`` on a precomputed projection.

    Backward accumulation order (locked to the seed tape): n-gate chain,
    r-gate chain, z·h term, z-gate chain; ``h`` receives its four
    contributions as (r·h, Ur, z·h, Uz) and ``x`` its three as (Wn, Wr, Wz).
    """
    x = proj.x
    Wz, Uz, bz = cell.Wz, cell.Uz, cell.bz
    Wr, Ur, br = cell.Wr, cell.Ur, cell.br
    Wn, Un, bn = cell.Wn, cell.Un, cell.bn
    h_data = h.data
    z = sigmoid_data(proj.xz + h_data @ Uz.data + bz.data)
    r = sigmoid_data(proj.xr + h_data @ Ur.data + br.data)
    rh = r * h_data
    n = np.tanh(proj.xn + rh @ Un.data + bn.data)
    sub = 1.0 - z
    out_data = sub * n + z * h_data

    x_grad = x.requires_grad
    h_grad = h.requires_grad
    xd = x.data

    def backward(gH):
        # --- n-gate chain (the seed tape walks tanh(n) first) -------------
        g_n = gH * sub
        g_z = gH * n * -1.0  # (1 - z) path; the z·h term joins below
        g_npre = g_n * (1.0 - n**2)
        if bn.requires_grad:
            bn._accumulate_owned(g_npre.sum(axis=0))
        if x_grad:
            x._accumulate_owned(g_npre @ Wn.data.T)
        if Wn.requires_grad:
            Wn._accumulate_owned(xd.T @ g_npre)
        g_rh = g_npre @ Un.data.T
        if Un.requires_grad:
            Un._accumulate_owned(rh.T @ g_npre)
        g_r = g_rh * h_data
        if h_grad:
            h._accumulate_owned(g_rh * r)
        # --- r-gate chain -------------------------------------------------
        g_rpre = g_r * r * (1.0 - r)
        if br.requires_grad:
            br._accumulate_owned(g_rpre.sum(axis=0))
        if x_grad:
            x._accumulate_owned(g_rpre @ Wr.data.T)
        if Wr.requires_grad:
            Wr._accumulate_owned(xd.T @ g_rpre)
        if h_grad:
            h._accumulate_owned(g_rpre @ Ur.data.T)
        if Ur.requires_grad:
            Ur._accumulate_owned(h_data.T @ g_rpre)
        # --- z·h term, then z-gate chain ----------------------------------
        g_z = g_z + gH * h_data
        if h_grad:
            h._accumulate_owned(gH * z)
        g_zpre = g_z * z * (1.0 - z)
        if bz.requires_grad:
            bz._accumulate_owned(g_zpre.sum(axis=0))
        if x_grad:
            x._accumulate_owned(g_zpre @ Wz.data.T)
        if Wz.requires_grad:
            Wz._accumulate_owned(xd.T @ g_zpre)
        if h_grad:
            h._accumulate_owned(g_zpre @ Uz.data.T)
        if Uz.requires_grad:
            Uz._accumulate_owned(h_data.T @ g_zpre)

    parents = (x, h, Wz, Uz, bz, Wr, Ur, br, Wn, Un, bn)
    return Tensor._result(out_data, parents, "gru_step", backward)


def gru_unroll(cell, proj: GRUProjection, head_W: Tensor, head_b: Tensor, n_intervals: int) -> Tensor:
    """The whole RETINA-D recurrent tail as one node: ``n_intervals`` GRU
    steps from a zero state on a precomputed input projection, a linear
    head per interval, stacked to ``(B, n_intervals)`` logits.

    The backward replays the seed tape's schedule exactly — head
    contributions in ascending interval order first, then a
    reverse-chronological sweep through the steps — but hoists every
    cross-step weight gradient into one stacked matmul followed by a
    sequential (left-associated, same order) reduction, which is
    bit-identical to the per-step accumulates and an order of magnitude
    fewer BLAS calls.
    """
    x = proj.x
    Wz, Uz, bz = cell.Wz, cell.Uz, cell.bz
    Wr, Ur, br = cell.Wr, cell.Ur, cell.br
    Wn, Un, bn = cell.Wn, cell.Un, cell.bn
    xd = x.data
    B = xd.shape[0]
    T = n_intervals
    h_prev = np.zeros((B, cell.hidden_size))
    hs_prev, zs, rs, rhs, ns, subs, hs = [], [], [], [], [], [], []
    for _ in range(T):
        z = sigmoid_data(proj.xz + h_prev @ Uz.data + bz.data)
        r = sigmoid_data(proj.xr + h_prev @ Ur.data + br.data)
        rh = r * h_prev
        n = np.tanh(proj.xn + rh @ Un.data + bn.data)
        sub = 1.0 - z
        h = sub * n + z * h_prev
        hs_prev.append(h_prev)
        zs.append(z)
        rs.append(r)
        rhs.append(rh)
        ns.append(n)
        subs.append(sub)
        hs.append(h)
        h_prev = h
    H = np.stack(hs)  # (T, B, hd)
    # Interval heads, batched: per-slice identical to h_t @ W + b.
    logits = (H @ head_W.data + head_b.data)[:, :, 0].T.copy()  # (B, T)

    def backward(grad):
        # Phase 1: head backward in ascending interval order (the stack
        # node's children sit first in the seed's reversed topo walk).
        G2 = np.ascontiguousarray(grad.T).reshape(T, B, 1)
        if head_b.requires_grad:
            head_b._accumulate_owned(np.add.reduce(G2.sum(axis=1)))
        h_grads = G2 @ head_W.data.T  # (T, B, hd); per-slice == g2 @ W.T
        if head_W.requires_grad:
            head_W._accumulate_owned(np.add.reduce(H.transpose(0, 2, 1) @ G2))
        # Phase 2: reverse-chronological sweep.  Only the hidden-state
        # recursion is sequential; per-step gate grads are stashed (in
        # processing order, i.e. last interval first) for phase 3.
        Gz, Gr, Gn = [], [], []
        UzT, UrT, UnT = Uz.data.T, Ur.data.T, Un.data.T
        gH = h_grads[T - 1]
        for t in range(T - 1, -1, -1):
            z, r, n, sub, hp = zs[t], rs[t], ns[t], subs[t], hs_prev[t]
            g_n = gH * sub
            g_z = gH * n * -1.0
            g_npre = g_n * (1.0 - n**2)
            g_rh = g_npre @ UnT
            g_rpre = g_rh * hp * r * (1.0 - r)
            g_z = g_z + gH * hp
            g_zpre = g_z * z * (1.0 - z)
            Gn.append(g_npre)
            Gr.append(g_rpre)
            Gz.append(g_zpre)
            if t > 0:
                # h_{t-1}'s contributions, in seed accumulation order:
                # head (phase 1), r·h, Ur, z·h, Uz.
                gH_next = h_grads[t - 1] + g_rh * r
                gH_next = gH_next + g_rpre @ UrT
                gH_next = gH_next + gH * z
                gH = gH_next + g_zpre @ UzT
        # Phase 3: cross-step reductions.  One stacked matmul per weight,
        # then a sequential sum over the step axis — np.add.reduce walks
        # axis 0 left-associated, exactly the order (and therefore the
        # bits) of the per-step accumulates on the seed tape.
        Gz_a, Gr_a, Gn_a = np.stack(Gz), np.stack(Gr), np.stack(Gn)
        xdT = xd.T
        if bn.requires_grad:
            bn._accumulate_owned(np.add.reduce(Gn_a.sum(axis=1)))
        if x.requires_grad:
            Jn = Gn_a @ Wn.data.T
            Jr = Gr_a @ Wr.data.T
            Jz = Gz_a @ Wz.data.T
            # Seed order into the joint input: per step (n, r, z), steps in
            # reverse-chronological (= processing) order.
            acc = Jn[0] + Jr[0]
            acc += Jz[0]
            for t in range(1, T):
                acc += Jn[t]
                acc += Jr[t]
                acc += Jz[t]
            x._accumulate_owned(acc)
        if Wn.requires_grad:
            Wn._accumulate_owned(np.add.reduce(xdT @ Gn_a))
        if Un.requires_grad:
            RH = np.stack(rhs[::-1])  # processing order
            Un._accumulate_owned(np.add.reduce(RH.transpose(0, 2, 1) @ Gn_a))
        if br.requires_grad:
            br._accumulate_owned(np.add.reduce(Gr_a.sum(axis=1)))
        if Wr.requires_grad:
            Wr._accumulate_owned(np.add.reduce(xdT @ Gr_a))
        HP = None
        if Ur.requires_grad or Uz.requires_grad:
            HP = np.stack(hs_prev[::-1]).transpose(0, 2, 1)  # processing order
        if Ur.requires_grad:
            Ur._accumulate_owned(np.add.reduce(HP @ Gr_a))
        if bz.requires_grad:
            bz._accumulate_owned(np.add.reduce(Gz_a.sum(axis=1)))
        if Wz.requires_grad:
            Wz._accumulate_owned(np.add.reduce(xdT @ Gz_a))
        if Uz.requires_grad:
            Uz._accumulate_owned(np.add.reduce(HP @ Gz_a))

    return Tensor._result(
        logits,
        (x, Wz, Uz, bz, Wr, Ur, br, Wn, Un, bn, head_W, head_b),
        "gru_unroll",
        backward,
    )


class RNNProjection:
    """Precomputed ``x @ W`` for an Elman RNN unrolled over a fixed input."""

    __slots__ = ("x", "xw")

    def __init__(self, x: Tensor, xw: np.ndarray):
        self.x = x
        self.xw = xw


def rnn_project(cell, x: Tensor) -> RNNProjection:
    return RNNProjection(x, x.data @ cell.W.data)


def rnn_step(cell, proj: RNNProjection, h: Tensor) -> Tensor:
    """One fused Elman step ``h' = tanh(x W + h U + b)``."""
    x = proj.x
    W, U, b = cell.W, cell.U, cell.b
    h_data = h.data
    out_data = np.tanh(proj.xw + h_data @ U.data + b.data)

    def backward(gH):
        g = gH * (1.0 - out_data**2)
        if b.requires_grad:
            b._accumulate_owned(g.sum(axis=0))
        if x.requires_grad:
            x._accumulate_owned(g @ W.data.T)
        if W.requires_grad:
            W._accumulate_owned(x.data.T @ g)
        if h.requires_grad:
            h._accumulate_owned(g @ U.data.T)
        if U.requires_grad:
            U._accumulate_owned(h_data.T @ g)

    return Tensor._result(out_data, (x, h, W, U, b), "rnn_step", backward)


class LSTMProjection:
    """Precomputed ``x @ Wi`` for an LSTM unrolled over a fixed input."""

    __slots__ = ("x", "xi")

    def __init__(self, x: Tensor, xi: np.ndarray):
        self.x = x
        self.xi = xi


def lstm_project(cell, x: Tensor) -> LSTMProjection:
    return LSTMProjection(x, x.data @ cell.Wi.data)


def lstm_step(cell, proj: LSTMProjection, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """One fused LSTM step; returns ``(h', c')`` as two tape tensors.

    The combined backward fires from ``h'`` (whose consumers always include
    the loss head); by the time the reversed-topo walk reaches ``h'``, every
    consumer of ``c'`` — only the next step — has already contributed, so
    ``c'.grad`` is final and ``c'`` itself carries no backward closure.
    """
    x = proj.x
    h, c = state
    Wi, Ui, bi = cell.Wi, cell.Ui, cell.bi
    hs = cell.hidden_size
    h_data, c_data = h.data, c.data
    gates = proj.xi + h_data @ Ui.data + bi.data
    i_g = sigmoid_data(gates[:, :hs])
    f_g = sigmoid_data(gates[:, hs : 2 * hs])
    g_g = np.tanh(gates[:, 2 * hs : 3 * hs])
    o_g = sigmoid_data(gates[:, 3 * hs :])
    c_new = f_g * c_data + i_g * g_g
    tc = np.tanh(c_new)
    h_new = o_g * tc

    parents = (x, h, c, Wi, Ui, bi)
    requires = any(p.requires_grad for p in parents)
    c_out = Tensor(c_new, requires_grad=requires, _prev=parents if requires else (), _op="lstm_step_c")

    def backward(gH):
        g_o = gH * tc
        g_tc = gH * o_g
        g_c = g_tc * (1.0 - tc**2)
        if c_out.grad is not None:  # next step's f·c contribution, first in seed order
            g_c = c_out.grad + g_c
        g_f = g_c * c_data
        if c.requires_grad:
            c._accumulate_owned(g_c * f_g)
        g_i = g_c * g_g
        g_gg = g_c * i_g
        g_gates = np.empty_like(gates)
        g_gates[:, :hs] = g_i * i_g * (1.0 - i_g)
        g_gates[:, hs : 2 * hs] = g_f * f_g * (1.0 - f_g)
        g_gates[:, 2 * hs : 3 * hs] = g_gg * (1.0 - g_g**2)
        g_gates[:, 3 * hs :] = g_o * o_g * (1.0 - o_g)
        if bi.requires_grad:
            bi._accumulate_owned(g_gates.sum(axis=0))
        if x.requires_grad:
            x._accumulate_owned(g_gates @ Wi.data.T)
        if Wi.requires_grad:
            Wi._accumulate_owned(x.data.T @ g_gates)
        if h.requires_grad:
            h._accumulate_owned(g_gates @ Ui.data.T)
        if Ui.requires_grad:
            Ui._accumulate_owned(h_data.T @ g_gates)

    h_out = Tensor._result(h_new, parents, "lstm_step", backward)
    return h_out, c_out
