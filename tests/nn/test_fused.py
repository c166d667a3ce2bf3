"""Fused tape nodes: bitwise parity with the frozen seed chains + gradcheck.

Every fused node in :mod:`repro.nn.fused` must reproduce the primitive-op
chain it replaced (frozen verbatim in :mod:`repro.nn.reference`)
**bit-for-bit** — forward data, every parameter gradient, and every input
gradient — and must independently pass central-difference gradient checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (
    Dense,
    GRUCell,
    LayerNorm,
    LSTMCell,
    RNNCell,
    ScaledDotProductAttention,
    Tensor,
)
from repro.nn import reference as ref
from repro.nn.fused import gru_unroll, sigmoid_data
from repro.nn.gradcheck import check_gradient, check_parameter_gradients
from repro.nn.losses import bce_with_logits, weighted_bce_with_logits

rng = np.random.default_rng(42)


def _assert_bitwise(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape, what
    np.testing.assert_array_equal(a, b, err_msg=what)


def _grads(module):
    return {k: t.grad.copy() for k, t in module._named_parameters().items() if t.grad is not None}


# ----------------------------------------------------------------- bitwise
class TestBitwiseParity:
    @pytest.mark.parametrize("activation", [None, "relu", "tanh", "sigmoid"])
    def test_dense(self, activation):
        layer = Dense(6, 4, activation=activation, random_state=1)
        x = rng.normal(size=(5, 6))
        outs = {}
        for name, fwd in (("fused", layer.forward), ("ref", lambda t: ref.dense_forward(layer, t))):
            t = Tensor(x.copy(), requires_grad=True)
            out = fwd(t)
            layer.zero_grad()
            ((out * out).sum()).backward()
            outs[name] = (out.numpy(), t.grad, _grads(layer))
        _assert_bitwise(outs["fused"][0], outs["ref"][0], "dense forward")
        _assert_bitwise(outs["fused"][1], outs["ref"][1], "dense input grad")
        for k in outs["ref"][2]:
            _assert_bitwise(outs["fused"][2][k], outs["ref"][2][k], f"dense grad {k}")

    def test_dense_stacked_3d(self):
        layer = Dense(5, 3, activation="tanh", random_state=2)
        x = rng.normal(size=(2, 4, 5))
        outs = {}
        for name, fwd in (("fused", layer.forward), ("ref", lambda t: ref.dense_forward(layer, t))):
            t = Tensor(x.copy(), requires_grad=True)
            layer.zero_grad()
            (fwd(t) * 2.0).sum().backward()
            outs[name] = (t.grad, _grads(layer))
        _assert_bitwise(outs["fused"][0], outs["ref"][0], "3d input grad")
        for k in outs["ref"][1]:
            _assert_bitwise(outs["fused"][1][k], outs["ref"][1][k], f"3d grad {k}")

    def test_layer_norm(self):
        layer = LayerNorm(9)
        x = rng.normal(size=(4, 9))
        w = rng.normal(size=(4, 9))
        outs = {}
        for name, fwd in (("fused", layer.forward), ("ref", lambda t: ref.layer_norm_forward(layer, t))):
            t = Tensor(x.copy(), requires_grad=True)
            layer.zero_grad()
            out = fwd(t)
            ((out * Tensor(w)).sum()).backward()
            outs[name] = (out.numpy(), t.grad, _grads(layer))
        _assert_bitwise(outs["fused"][0], outs["ref"][0], "layernorm forward")
        _assert_bitwise(outs["fused"][1], outs["ref"][1], "layernorm input grad")
        for k in outs["ref"][2]:
            _assert_bitwise(outs["fused"][2][k], outs["ref"][2][k], f"layernorm grad {k}")

    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_attention(self, k):
        att = ScaledDotProductAttention(5, 6, hdim=8, random_state=3)
        tw = rng.normal(size=(1, 5))
        nv = rng.normal(size=(1, k, 6))
        outs = {}
        for name, fwd in (("fused", att.forward), ("ref", lambda a, b: ref.attention_forward(att, a, b))):
            ta = Tensor(tw.copy(), requires_grad=True)
            tb = Tensor(nv.copy(), requires_grad=True)
            att.zero_grad()
            out = fwd(ta, tb)
            ((out * out).sum()).backward()
            outs[name] = (out.numpy(), ta.grad, tb.grad, _grads(att))
        for i, what in enumerate(["forward", "tweet grad", "news grad"]):
            _assert_bitwise(outs["fused"][i], outs["ref"][i], f"attention {what} (k={k})")
        for key in outs["ref"][3]:
            _assert_bitwise(outs["fused"][3][key], outs["ref"][3][key], f"attention grad {key}")

    def test_attention_multi_batch(self):
        att = ScaledDotProductAttention(5, 6, hdim=8, random_state=3)
        tw = rng.normal(size=(3, 5))
        nv = rng.normal(size=(3, 7, 6))
        outs = {}
        for name, fwd in (("fused", att.forward), ("ref", lambda a, b: ref.attention_forward(att, a, b))):
            ta = Tensor(tw.copy(), requires_grad=True)
            tb = Tensor(nv.copy(), requires_grad=True)
            att.zero_grad()
            ((fwd(ta, tb) * 0.5).sum()).backward()
            outs[name] = (ta.grad, tb.grad, _grads(att))
        _assert_bitwise(outs["fused"][0], outs["ref"][0], "batched tweet grad")
        _assert_bitwise(outs["fused"][1], outs["ref"][1], "batched news grad")
        for key in outs["ref"][2]:
            _assert_bitwise(outs["fused"][2][key], outs["ref"][2][key], f"batched grad {key}")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bce_losses(self, weighted):
        logits = rng.normal(size=(6, 3)) * 4
        targets = (rng.random((6, 3)) < 0.4).astype(float)
        outs = {}
        for name, fn in (
            ("fused", weighted_bce_with_logits if weighted else bce_with_logits),
            ("ref", ref.weighted_bce_with_logits_reference if weighted else ref.bce_with_logits_reference),
        ):
            t = Tensor(logits.copy(), requires_grad=True)
            loss = fn(t, targets, 2.3) if weighted else fn(t, targets)
            loss.backward()
            outs[name] = (loss.numpy(), t.grad)
        _assert_bitwise(outs["fused"][0], outs["ref"][0], "loss value")
        _assert_bitwise(outs["fused"][1], outs["ref"][1], "logits grad")

    @pytest.mark.parametrize("cell_kind", ["gru", "rnn", "lstm"])
    def test_recurrent_unroll(self, cell_kind):
        """Multi-step unroll over a shared input: the cross-step gradient
        accumulation order must match the seed tape exactly."""
        cls = {"gru": GRUCell, "rnn": RNNCell, "lstm": LSTMCell}[cell_kind]
        cell = cls(5, 4, random_state=4)
        head = Dense(4, 1, random_state=5)
        x0 = rng.normal(size=(6, 5))
        outs = {}
        for name in ("fused", "ref"):
            x = Tensor(x0.copy(), requires_grad=True)
            if cell_kind == "lstm":
                state = (Tensor(np.zeros((6, 4))), Tensor(np.zeros((6, 4))))
            else:
                state = Tensor(np.zeros((6, 4)))
            proj = cell.project_input(x) if name == "fused" else None
            logits = []
            for _ in range(5):
                if name == "fused":
                    out = cell.step(proj, state)
                elif cell_kind == "lstm":
                    out = ref.lstm_cell_forward(cell, x, state)
                elif cell_kind == "rnn":
                    out = ref.rnn_cell_forward(cell, x, state)
                else:
                    out = ref.gru_cell_forward(cell, x, state)
                if cell_kind == "lstm":
                    h, state = out[0], out
                else:
                    h = state = out
                logits.append(
                    (head(h) if name == "fused" else ref.dense_forward(head, h)).reshape(6)
                )
            cell.zero_grad()
            head.zero_grad()
            ((Tensor.stack(logits, axis=1) ** 2.0).mean()).backward()
            outs[name] = (x.grad, _grads(cell), _grads(head))
        _assert_bitwise(outs["fused"][0], outs["ref"][0], f"{cell_kind} input grad")
        for k in outs["ref"][1]:
            _assert_bitwise(outs["fused"][1][k], outs["ref"][1][k], f"{cell_kind} grad {k}")
        for k in outs["ref"][2]:
            _assert_bitwise(outs["fused"][2][k], outs["ref"][2][k], f"{cell_kind} head grad {k}")

    def test_gru_unroll_node_matches_per_step(self):
        """The single-node unroll (steps + heads + stack) equals the
        per-step fused path, which equals the seed chain."""
        cell = GRUCell(5, 4, random_state=6)
        head = Dense(4, 1, random_state=7)
        x0 = rng.normal(size=(6, 5))
        targets = (rng.random((6, 3)) < 0.3).astype(float)
        outs = {}
        for name in ("unroll", "steps"):
            x = Tensor(x0.copy(), requires_grad=True)
            proj = cell.project_input(x)
            if name == "unroll":
                logits = gru_unroll(cell, proj, head.W, head.b, 3)
            else:
                h = Tensor(np.zeros((6, 4)))
                parts = []
                for _ in range(3):
                    h = cell.step(proj, h)
                    parts.append(head(h).reshape(6))
                logits = Tensor.stack(parts, axis=1)
            cell.zero_grad()
            head.zero_grad()
            loss = weighted_bce_with_logits(logits, targets, 2.0)
            loss.backward()
            outs[name] = (logits.numpy(), x.grad, _grads(cell), _grads(head))
        _assert_bitwise(outs["unroll"][0], outs["steps"][0], "unroll logits")
        _assert_bitwise(outs["unroll"][1], outs["steps"][1], "unroll input grad")
        for k in outs["steps"][2]:
            _assert_bitwise(outs["unroll"][2][k], outs["steps"][2][k], f"unroll grad {k}")
        for k in outs["steps"][3]:
            _assert_bitwise(outs["unroll"][3][k], outs["steps"][3][k], f"unroll head grad {k}")


# --------------------------------------------------------------- gradcheck
class TestFusedGradcheck:
    @pytest.mark.parametrize("activation", [None, "relu", "tanh", "sigmoid"])
    def test_dense(self, activation):
        layer = Dense(4, 3, activation=activation, random_state=1)
        # Deterministic inputs; pre-activations stay clear of the relu kink
        # (finite-difference probes use eps=1e-6).
        x0 = rng.normal(size=(5, 4))
        check_gradient(lambda t: (layer(t) * 2.0).sum(), x0)
        x = Tensor(x0.copy())
        check_parameter_gradients(layer, lambda: (layer(x) * 0.7).sum())

    def test_layer_norm(self):
        layer = LayerNorm(7)
        layer.gamma.data = rng.normal(size=7)
        layer.beta.data = rng.normal(size=7)
        check_gradient(lambda t: (layer(t) ** 2.0).sum(), rng.normal(size=(3, 7)))
        x = Tensor(rng.normal(size=(3, 7)))
        check_parameter_gradients(layer, lambda: (layer(x) ** 2.0).sum())

    def test_attention_b1(self):
        att = ScaledDotProductAttention(4, 5, hdim=6, random_state=2)
        news = Tensor(rng.normal(size=(1, 6, 5)))
        check_gradient(lambda t: (att(t, news) ** 2.0).sum(), rng.normal(size=(1, 4)))
        tweet = Tensor(rng.normal(size=(1, 4)))
        check_gradient(lambda t: (att(tweet, t) ** 2.0).sum(), rng.normal(size=(1, 6, 5)))
        check_parameter_gradients(att, lambda: (att(tweet, news) * 1.3).sum())

    def test_attention_batched(self):
        att = ScaledDotProductAttention(4, 5, hdim=6, random_state=2)
        news = Tensor(rng.normal(size=(2, 4, 5)))
        check_gradient(lambda t: (att(t, news) ** 2.0).sum(), rng.normal(size=(2, 4)))
        tweet = Tensor(rng.normal(size=(2, 4)))
        check_gradient(lambda t: (att(tweet, t) ** 2.0).sum(), rng.normal(size=(2, 4, 5)))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bce(self, weighted):
        targets = (rng.random((5, 2)) < 0.5).astype(float)
        if weighted:
            check_gradient(
                lambda t: weighted_bce_with_logits(t, targets, 1.7), rng.normal(size=(5, 2)) * 2
            )
        else:
            check_gradient(lambda t: bce_with_logits(t, targets), rng.normal(size=(5, 2)) * 2)

    @pytest.mark.parametrize("cell_kind", ["gru", "rnn", "lstm"])
    def test_cells(self, cell_kind):
        cls = {"gru": GRUCell, "rnn": RNNCell, "lstm": LSTMCell}[cell_kind]
        cell = cls(4, 3, random_state=3)
        h0 = rng.normal(size=(5, 3))

        def run(x):
            if cell_kind == "lstm":
                h, _ = cell(x, (Tensor(h0), Tensor(np.zeros((5, 3)))))
            else:
                h = cell(x, Tensor(h0))
            return (h * h).sum()

        check_gradient(run, rng.normal(size=(5, 4)))
        x = Tensor(rng.normal(size=(5, 4)))
        check_parameter_gradients(cell, lambda: run(x))

    @pytest.mark.parametrize("cell_kind", ["gru", "rnn", "lstm"])
    def test_cell_hidden_state_grad(self, cell_kind):
        cls = {"gru": GRUCell, "rnn": RNNCell, "lstm": LSTMCell}[cell_kind]
        cell = cls(4, 3, random_state=3)
        x = Tensor(rng.normal(size=(5, 4)))

        def run(h):
            if cell_kind == "lstm":
                out, _ = cell(x, (h, Tensor(np.ones((5, 3)) * 0.3)))
            else:
                out = cell(x, h)
            return (out * 1.1).sum()

        check_gradient(run, rng.normal(size=(5, 3)))

    def test_lstm_cell_state_grad(self):
        cell = LSTMCell(4, 3, random_state=3)
        x = Tensor(rng.normal(size=(5, 4)))
        h = Tensor(rng.normal(size=(5, 3)))
        check_gradient(lambda c: (cell(x, (h, c))[0] ** 2.0).sum(), rng.normal(size=(5, 3)))

    def test_layer_norm_1d_input_no_grad_aliasing(self):
        """1-D inputs make the beta gradient the node grad itself through
        _unbroadcast's same-shape fast path; it must be accumulated as a
        copy — sharing the layer across two forwards must not let one
        accumulation corrupt the other node's grad."""
        layer = LayerNorm(6)
        layer.gamma.data = rng.normal(size=6)
        x1 = Tensor(rng.normal(size=6), requires_grad=True)
        x2 = Tensor(rng.normal(size=6), requires_grad=True)
        layer.zero_grad()
        ((layer(x1) * layer(x2)).sum()).backward()
        ref1 = LayerNorm(6)
        ref1.gamma.data = layer.gamma.data.copy()
        t1 = Tensor(x1.data.copy(), requires_grad=True)
        t2 = Tensor(x2.data.copy(), requires_grad=True)
        ref1.zero_grad()
        ((ref.layer_norm_forward(ref1, t1) * ref.layer_norm_forward(ref1, t2)).sum()).backward()
        np.testing.assert_array_equal(layer.beta.grad, ref1.beta.grad)
        np.testing.assert_array_equal(layer.gamma.grad, ref1.gamma.grad)
        np.testing.assert_allclose(x1.grad, t1.grad, rtol=1e-12)
        np.testing.assert_allclose(x2.grad, t2.grad, rtol=1e-12)

    def test_gru_unroll_node(self):
        cell = GRUCell(4, 3, random_state=8)
        head = Dense(3, 1, random_state=9)

        def run(x):
            return (gru_unroll(cell, cell.project_input(x), head.W, head.b, 4) ** 2.0).mean()

        check_gradient(run, rng.normal(size=(5, 4)))
        x = Tensor(rng.normal(size=(5, 4)))
        check_parameter_gradients(cell, lambda: run(x))
        check_parameter_gradients(head, lambda: run(x))


# ----------------------------------------------------------------- sigmoid
def _two_branch_sigmoid(z):
    """The dense two-branch form ``sigmoid_data`` had before one exp."""
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.exp(z)
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), ez / (1.0 + ez))


def _assert_same_bits(got, want):
    """Bitwise equality of float64 arrays; any NaN matches any NaN."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
     709.0, -709.0, 709.8, -709.8, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308]
)


class TestSigmoidData:
    def test_edge_values_match_two_branch_form(self):
        _assert_same_bits(sigmoid_data(_EDGES), _two_branch_sigmoid(_EDGES))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_random_scales_match_two_branch_form(self, scale):
        z = np.random.default_rng(int(scale * 1000)).normal(size=(46, 64)) * scale
        _assert_same_bits(sigmoid_data(z), _two_branch_sigmoid(z))

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=16),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        )
    )
    def test_matches_two_branch_form_and_tensor_sigmoid(self, z):
        got = sigmoid_data(z)
        _assert_same_bits(got, _two_branch_sigmoid(z))
        _assert_same_bits(got, Tensor(z).sigmoid().data)
