"""The RETINA architecture (paper Fig. 4).

Static mode (Fig. 4b): per-candidate features are layer-normalised, passed
through a feed-forward layer, concatenated with the exogenous attention
output X_TN, and a final feed-forward layer with sigmoid produces the
retweet probability P_{u_i}.

Dynamic mode (Fig. 4c): the last feed-forward layer is replaced by a GRU
unrolled over successive time intervals, producing P^j_{u_i} per interval.

The dagger variants (RETINA-S† / RETINA-D†, Table VI) disable the
exogenous attention component.
"""

from __future__ import annotations

import numpy as np

from repro.features import assemble_rows
from repro.nn import fused
from repro.nn.fused import exp_data, sigmoid_data
from repro.nn import (
    Dense,
    GRUCell,
    LayerNorm,
    LSTMCell,
    Module,
    RNNCell,
    ScaledDotProductAttention,
    Tensor,
)
from repro.utils.rng import ensure_rng

__all__ = ["RETINA", "DYNAMIC_INTERVAL_EDGES_MIN", "interval_edges_hours"]

#: Fig. 8's time-window boundaries, in minutes after the root tweet.
DYNAMIC_INTERVAL_EDGES_MIN = (0.0, 5.0, 15.0, 45.0, 105.0, 225.0, 1665.0, 11745.0)


def interval_edges_hours() -> np.ndarray:
    """The dynamic-mode interval edges converted to hours."""
    return np.asarray(DYNAMIC_INTERVAL_EDGES_MIN) / 60.0


class RETINA(Module):
    """Retweeter Identifier Network with Exogenous Attention.

    Parameters
    ----------
    user_dim / tweet_dim / news_dim:
        Input feature dimensionalities.
    hdim:
        Width of all hidden layers and the attention projections (paper: 64).
    mode:
        ``'static'`` or ``'dynamic'``.
    use_exogenous:
        ``False`` builds the dagger ablation without news attention.
    n_intervals:
        Number of prediction intervals in dynamic mode (paper Fig. 8: 7).
    recurrent_cell:
        ``'gru'`` (paper's choice), ``'rnn'`` or ``'lstm'`` (its ablation:
        RNN degrades, LSTM no gain).
    """

    def __init__(
        self,
        user_dim: int,
        tweet_dim: int,
        news_dim: int,
        hdim: int = 64,
        mode: str = "static",
        use_exogenous: bool = True,
        n_intervals: int = 7,
        recurrent_cell: str = "gru",
        random_state=None,
    ):
        if mode not in ("static", "dynamic"):
            raise ValueError(f"mode must be 'static' or 'dynamic', got {mode!r}")
        if recurrent_cell not in ("gru", "rnn", "lstm"):
            raise ValueError(f"unknown recurrent_cell {recurrent_cell!r}")
        if n_intervals < 1:
            raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
        rng = ensure_rng(random_state)
        self.mode = mode
        self.use_exogenous = use_exogenous
        self.n_intervals = n_intervals
        self.hdim = hdim
        self.recurrent_cell = recurrent_cell

        self.norm = LayerNorm(user_dim)
        self.user_ff = Dense(user_dim, hdim, activation="relu", random_state=rng)
        if use_exogenous:
            self.attention = ScaledDotProductAttention(
                tweet_dim, news_dim, hdim=hdim, random_state=rng
            )
            joint_dim = 2 * hdim
        else:
            self.attention = None
            joint_dim = hdim

        if mode == "static":
            self.hidden_ff = Dense(joint_dim, hdim, activation="relu", random_state=rng)
            self.out = Dense(hdim, 1, random_state=rng)
        else:
            if recurrent_cell == "gru":
                self.cell = GRUCell(joint_dim, hdim, random_state=rng)
            elif recurrent_cell == "rnn":
                self.cell = RNNCell(joint_dim, hdim, random_state=rng)
            else:
                self.cell = LSTMCell(joint_dim, hdim, random_state=rng)
            self.out = Dense(hdim, 1, random_state=rng)

    # -------------------------------------------------------------- forward
    def _joint(self, user_features: Tensor, tweet_vec: Tensor, news_vecs: Tensor) -> Tensor:
        """Normalise + project user features; concat attended exogenous X_TN."""
        h_user = self.user_ff(self.norm(user_features))  # (B, hdim)
        if not self.use_exogenous:
            return h_user
        B = user_features.shape[0]
        # One tweet and one news sequence shared by the whole candidate batch.
        attended = self.attention(tweet_vec.reshape(1, -1), news_vecs.reshape(1, *news_vecs.shape))
        ones = Tensor(np.ones((B, 1)))
        x_tn = ones @ attended  # broadcast (1, hdim) -> (B, hdim)
        return Tensor.concat([h_user, x_tn], axis=1)

    def forward(
        self, user_features: Tensor, tweet_vec: Tensor, news_vecs: Tensor
    ) -> Tensor:
        """Logits: (B,) in static mode, (B, n_intervals) in dynamic mode."""
        joint = self._joint(user_features, tweet_vec, news_vecs)
        if self.mode == "static":
            return self.out(self.hidden_ff(joint)).reshape(joint.shape[0])
        B = joint.shape[0]
        # The same joint input feeds every interval: project it through the
        # cell's input weights once and unroll fused steps on the projection.
        proj = self.cell.project_input(joint)
        if self.recurrent_cell == "gru":
            # The paper's cell gets the fully fused unroll: steps, interval
            # heads, and stacking collapse into a single tape node.
            return fused.gru_unroll(self.cell, proj, self.out.W, self.out.b, self.n_intervals)
        h = Tensor(np.zeros((B, self.hdim)))
        state = (h, Tensor(np.zeros((B, self.hdim)))) if self.recurrent_cell == "lstm" else h
        logits = []
        for _ in range(self.n_intervals):
            if self.recurrent_cell == "lstm":
                h, c = self.cell.step(proj, state)
                state = (h, c)
            else:
                h = self.cell.step(proj, state)
                state = h
            logits.append(self.out(h).reshape(B))
        return Tensor.stack(logits, axis=1)  # (B, n_intervals)

    def predict_proba(self, user_features, tweet_vec, news_vecs) -> np.ndarray:
        """Sigmoid probabilities; dynamic mode returns (B, n_intervals)."""
        logits = self.forward(
            Tensor(np.asarray(user_features, dtype=np.float64)),
            Tensor(np.asarray(tweet_vec, dtype=np.float64)),
            Tensor(np.asarray(news_vecs, dtype=np.float64)),
        )
        return logits.sigmoid().numpy()

    def predict_proba_blocks(
        self, cand_features, shared_features, tweet_vec, news_vecs
    ) -> np.ndarray:
        """:meth:`predict_proba` on a block-structured candidate batch.

        Full rows — the (B, d_cand) per-candidate block with the (d_shared,)
        per-cascade block appended — exist only transiently for this forward
        pass; callers keep the blocks, not the tiled matrix.
        """
        X = assemble_rows(
            np.asarray(cand_features, dtype=np.float64),
            np.asarray(shared_features, dtype=np.float64),
        )
        return self.predict_proba(X, tweet_vec, news_vecs)

    def predict_proba_packed(self, packs: list[tuple]) -> list[np.ndarray]:
        """One packed forward over several cascades' candidate batches.

        ``packs`` is a list of ``(cand_features, shared_features, tweet_vec,
        news_vecs)`` tuples, one per cascade.  All candidate rows are stacked
        into a single matrix and pushed through a pure-numpy inference path
        (no tape); the exogenous attention runs mask-aware over the padded
        per-cascade news sequences.

        Every expression mirrors the tape forward, so a *single-cascade*
        pack is bit-identical to :meth:`predict_proba_blocks` (identical
        BLAS call shapes; the serving parity tests rely on this).  Packing
        several cascades changes the gemm row counts, whose internal
        blocking changes the rounding: on one OpenBLAS build, a cascade's
        scores in a multi-cascade pack differed from the same cascade
        alone by up to 43 ulp (static) and 64 ulp (dynamic).  The tape
        forward has the same sensitivity within one request: a user's
        score changes with the other candidates in the request.
        """
        if not packs:
            return []
        sizes = [np.asarray(p[0]).shape[0] for p in packs]
        X = np.concatenate(
            [
                assemble_rows(
                    np.asarray(cand, dtype=np.float64),
                    np.asarray(shared, dtype=np.float64),
                )
                for cand, shared, _, _ in packs
            ]
        )
        # LayerNorm + user feed-forward, row-wise (rows are independent).
        d = X.shape[-1]
        inv_d = 1.0 / d
        mu = X.sum(axis=-1, keepdims=True) * inv_d
        centered = X - mu
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
        normed = centered * (var + self.norm.eps) ** -0.5
        xn = normed * self.norm.gamma.data + self.norm.beta.data
        pre = xn @ self.user_ff.W.data + self.user_ff.b.data
        h_user = pre * (pre > 0)

        if self.use_exogenous:
            att = self._attend_packed(packs)
            x_tn = np.repeat(att, sizes, axis=0)
            joint = np.concatenate([h_user, x_tn], axis=1)
        else:
            joint = h_user

        if self.mode == "static":
            pre = joint @ self.hidden_ff.W.data + self.hidden_ff.b.data
            hidden = pre * (pre > 0)
            logits = (hidden @ self.out.W.data + self.out.b.data).reshape(len(joint))
        else:
            logits = self._unroll_packed(joint)
        proba = sigmoid_data(logits)
        return np.split(proba, np.cumsum(sizes)[:-1])

    def _attend_packed(self, packs: list[tuple]) -> np.ndarray:
        """Mask-aware exogenous attention over padded news sequences.

        Padding rows are zero vectors appended after each cascade's real
        news; their scores are forced to ``-inf`` before the softmax, so
        padding contributes exact zeros to the trailing end of every
        (sequential, numpy-side) reduction.  Any residual difference vs the
        per-cascade computation comes from the stacked gemms' row counts,
        not from the masking — see :meth:`predict_proba_packed`.
        """
        attn = self.attention
        C = len(packs)
        tweets = np.stack([np.asarray(p[2], dtype=np.float64) for p in packs])
        news_list = [np.asarray(p[3], dtype=np.float64) for p in packs]
        K = max(n.shape[0] for n in news_list)
        nd = news_list[0].shape[1]
        news = np.zeros((C, K, nd))
        kmask = np.zeros((C, K), dtype=bool)
        for c, n in enumerate(news_list):
            news[c, : n.shape[0]] = n
            kmask[c, : n.shape[0]] = True
        q = tweets @ attn.WQ.data
        k = news @ attn.WK.data
        v = news @ attn.WV.data
        scores = (q[:, None, :] * k).sum(axis=-1) * (attn.hdim**-0.5)
        m = np.where(kmask, scores, -np.inf).max(axis=-1, keepdims=True)
        e = exp_data(scores - m)
        e[~kmask] = 0.0
        w = e * e.sum(axis=-1, keepdims=True) ** -1.0
        return (w[:, :, None] * v).sum(axis=1)

    def _unroll_packed(self, joint: np.ndarray) -> np.ndarray:
        """Numpy unroll of the recurrent head on a packed candidate batch."""
        cell = self.cell
        B = joint.shape[0]
        h = np.zeros((B, self.hdim))
        if self.recurrent_cell == "lstm":
            c = np.zeros((B, self.hdim))
            xi = joint @ cell.Wi.data
            hs = cell.hidden_size
        elif self.recurrent_cell == "rnn":
            xw = joint @ cell.W.data
        else:
            xz = joint @ cell.Wz.data
            xr = joint @ cell.Wr.data
            xn = joint @ cell.Wn.data
        logits = []
        for _ in range(self.n_intervals):
            if self.recurrent_cell == "lstm":
                gates = xi + h @ cell.Ui.data + cell.bi.data
                i_g = sigmoid_data(gates[:, :hs])
                f_g = sigmoid_data(gates[:, hs : 2 * hs])
                g_g = np.tanh(gates[:, 2 * hs : 3 * hs])
                o_g = sigmoid_data(gates[:, 3 * hs :])
                c = f_g * c + i_g * g_g
                h = o_g * np.tanh(c)
            elif self.recurrent_cell == "rnn":
                h = np.tanh(xw + h @ cell.U.data + cell.b.data)
            else:
                z = sigmoid_data(xz + h @ cell.Uz.data + cell.bz.data)
                r = sigmoid_data(xr + h @ cell.Ur.data + cell.br.data)
                n = np.tanh(xn + (r * h) @ cell.Un.data + cell.bn.data)
                h = (1.0 - z) * n + z * h
            logits.append((h @ self.out.W.data + self.out.b.data).reshape(B))
        return np.stack(logits, axis=1)

    @staticmethod
    def static_score_from_dynamic(interval_proba: np.ndarray) -> np.ndarray:
        """P(ever retweets) = 1 - prod_j (1 - P^j) over intervals."""
        return 1.0 - np.prod(1.0 - np.clip(interval_proba, 0.0, 1.0), axis=1)
