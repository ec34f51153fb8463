"""Numerics: op semantics, gradient correctness, determinism."""

import math
import weakref

import numpy as np
import pytest

from faultgen import autodiff as ad
from faultgen.autodiff import Parameter, Tensor
from faultgen.denoiser import Backbone, DenoiserConfig
from faultgen.errors import ContractError, NumericError

from helpers import (
    central_diff,
    composed_attention,
    composed_feed_forward,
    formula_gelu_grad,
    formula_layer_norm_input_grad,
    grad_check,
    rel_err,
    view_transpose,
)

RNG = np.random.default_rng(42)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ad.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_allclose(out.data, a.data)

    def test_hand_arithmetic(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose((a @ b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError, match="matmul inner dimensions disagree"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_is_ones_times_bt(self):
        # d/da sum(a @ b) = ones(m, n) @ b.T
        a = RNG.standard_normal((5, 4))
        b = RNG.standard_normal((4, 3))
        ta = Tensor(a, requires_grad=True)
        loss = (ta @ Tensor(b)).sum()
        loss.backward()
        expected = np.ones((5, 3)) @ b.T
        assert rel_err(ta.grad, expected) < 1e-12

    def test_batched_grads_match_fd(self):
        a = RNG.standard_normal((2, 3, 4))
        b = RNG.standard_normal((4, 3))
        err = grad_check(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])
        assert err < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor(np.zeros(3)), axis=-1)
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-7)

    def test_stabilized_no_overflow(self):
        out = ad.softmax(Tensor(np.array([1000.0, 0.0])), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_reference_values(self):
        # independent high-precision evaluation of softmax([1,2,3])
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        out = ad.softmax(Tensor(np.array([1.0, 2.0, 3.0])), axis=-1)
        assert rel_err(out.data, expected) < 1e-6

    def test_rows_sum_to_one(self):
        x = RNG.standard_normal((4, 7)).astype(np.float32)
        out = ad.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_grad(self):
        x = RNG.standard_normal((3, 5))
        w = RNG.standard_normal((3, 5))
        err = grad_check(lambda ts: (ad.softmax(ts[0], axis=-1) * Tensor(w)).sum(), [x])
        assert err < 1e-6


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = Tensor(np.full((2, 4), 3.5))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-6)

    def test_already_normalized(self):
        x = Tensor(np.array([1.0, -1.0]))
        out = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_grads_match_fd(self):
        x = RNG.standard_normal((3, 6))
        g = RNG.standard_normal(6)
        b = RNG.standard_normal(6)
        w = RNG.standard_normal((3, 6))
        err = grad_check(
            lambda ts: (ad.layer_norm(ts[0], ts[1], ts[2]) * Tensor(w)).sum(),
            [x, g, b],
        )
        assert err < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,offset", [((12, 24, 64), 0.0), ((12, 24, 64), 1e4),
                                              ((5, 7), -3e5), ((4, 129), 1e7), ((3, 1), 2.0)])
    def test_centred_once_equals_np_var_bitwise(self, dtype, shape, offset):
        rng = np.random.default_rng(len(shape) + shape[-1])
        x = (rng.standard_normal(shape) * rng.uniform(0.1, 10.0, shape[:-1] + (1,)) + offset).astype(dtype)
        gain = rng.standard_normal(shape[-1]).astype(dtype)
        bias = rng.standard_normal(shape[-1]).astype(dtype)
        out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        mu = np.mean(x, axis=-1, keepdims=True)
        var = np.var(x, axis=-1, keepdims=True)
        expected = gain * ((x - mu) * (1.0 / np.sqrt(var + 1e-5))) + bias
        assert out.dtype == dtype and np.array_equal(out, expected)


class TestTake:
    def test_repeated_index_gets_every_gradient(self):
        p = Parameter("p", np.arange(12.0).reshape(4, 3))
        ad.take(p, np.array([0, 0, 2])).sum().backward()
        np.testing.assert_array_equal(p.grad[:, 0], [2.0, 0.0, 1.0, 0.0])

    def test_repeated_indices_match_central_differences(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((5, 3))
        idx = np.array([1, 3, 1, 0, 3])
        assert grad_check(lambda ts: (ad.take(ts[0], idx) * Tensor(w)).sum(),
                          [rng.standard_normal((4, 3))]) < 1e-6


ATT_KEYS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def _attention_inputs(rng, b, sq, sk, dim, dtype=np.float64):
    x = rng.standard_normal((b, sq, dim))
    y = rng.standard_normal((b, sk, dim))
    params = [rng.standard_normal((dim, dim)) * 0.5 if k[0] == "w" else rng.standard_normal(dim) * 0.1
              for k in ATT_KEYS]
    return [a.astype(dtype) for a in [x, y] + params]


def _band(sq, sk, half):
    i, j = np.arange(sq)[:, None], np.arange(sk)[None, :]
    return np.where(np.abs(i - j) <= half, 0.0, -1e9)


ATT_CASES = {  # name: (shared input, sq, sk, mask)
    "self": (True, 5, 5, None),
    "self_band": (True, 5, 5, _band(5, 5, 1)),
    "cross": (False, 3, 6, None),
    "cross_band": (False, 3, 6, _band(3, 6, 2)),
}


class TestAttentionOp:
    """The fused op against the composed tape ops it replaces (`helpers.composed_attention`)."""

    @staticmethod
    def _both(ts, shared, heads, mask):
        x, y = ts[0], ts[0] if shared else ts[1]
        p = dict(zip(ATT_KEYS, ts[2:]))
        return (ad.attention(x, y, *(p[k] for k in ATT_KEYS), heads, mask),
                composed_attention(x, y, p, heads, mask))

    @pytest.mark.parametrize("case", list(ATT_CASES))
    def test_forward_is_bitwise_the_composed_ops(self, case):
        shared, sq, sk, mask = ATT_CASES[case]
        arrays = _attention_inputs(np.random.default_rng(1), 3, sq, sk, 8, np.float32)
        fused, composed = self._both([Tensor(a) for a in arrays], shared, 2, mask)
        assert fused.dtype == np.float32
        assert np.array_equal(fused.data, composed.data)

    @pytest.mark.parametrize("case", list(ATT_CASES))
    def test_gradients_match_central_differences(self, case):
        shared, sq, sk, mask = ATT_CASES[case]
        rng = np.random.default_rng(2)
        arrays = _attention_inputs(rng, 2, sq, sk, 4)
        w = rng.standard_normal((2, sq, 4))
        if shared:
            arrays = arrays[:1] + arrays[2:]

        def loss(ts):
            x, y = ts[0], ts[0] if shared else ts[1]
            params = ts[1:] if shared else ts[2:]
            return (ad.attention(x, y, *params, 2, mask) * Tensor(w)).sum()

        assert grad_check(loss, arrays) < 1e-6

    @pytest.mark.parametrize("case,frozen_kv", [(c, False) for c in ATT_CASES]
                             + [(c, True) for c in ATT_CASES if not ATT_CASES[c][0]])
    def test_float32_gradients_match_the_composed_ops(self, case, frozen_kv):
        shared, sq, sk, mask = ATT_CASES[case]
        rng = np.random.default_rng(3)
        arrays = _attention_inputs(rng, 3, sq, sk, 8, np.float32)
        w = Tensor(rng.standard_normal((3, sq, 8)).astype(np.float32))
        frozen = {1, 4, 5, 6, 7} if frozen_kv else set()  # kv input, wk, bk, wv, bv
        grads = []
        for pick in (0, 1):
            ts = [Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)]
            (self._both(ts, shared, 2, mask)[pick] * w).sum().backward()
            grads.append([t.grad for t in ts])
        largest = max(np.abs(g).max() for g in grads[1] if g is not None)
        for i, (got, ref) in enumerate(zip(*grads)):
            if shared and i == 1 or i in frozen:
                assert got is None and ref is None
            elif i == 5:  # the k bias shifts every score of a row equally: its gradient is 0 up to rounding
                assert max(np.abs(got).max(), np.abs(ref).max()) <= 1e-6 * largest
            else:  # float32 rounding of sums over up to B*S*D terms, scaled to the gradient's size
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max(),
                                           err_msg=f"input {i}")

    @pytest.mark.parametrize("where,layer", [("enc", "encoder layer 0"), ("dec", "decoder layer 1")])
    def test_nan_weight_ends_in_a_forward_error_naming_the_layer(self, where, layer):
        cfg = DenoiserConfig(tau=6, d=2, T=10, model_dim=8, enc_layers=1, dec_layers=2,
                             heads=2, ff_dim=16, fourier_terms=1, trend_degree=3)
        model = Backbone(cfg, seed=0)
        wk = model.params["backbone.enc0.attn.k.w" if where == "enc" else "backbone.dec1.cross.k.w"]
        wk.data[0, 0] = np.nan
        x = np.random.default_rng(0).standard_normal((2, 6, 2))
        with pytest.raises(NumericError, match=layer):
            model.forward(x, 3)

    def test_width_not_divisible_by_heads(self):
        arrays = _attention_inputs(np.random.default_rng(4), 1, 2, 2, 6)
        with pytest.raises(ContractError, match="not divisible by 4 heads"):
            ad.attention(*[Tensor(a) for a in arrays], 4)


    def test_row_max_keeps_the_bits_under_the_adapter_band_mask(self):
        # desk sizes: 12 series of 24 positions, 4 heads, window 5 (half-width 2)
        arrays = _attention_inputs(np.random.default_rng(5), 12, 24, 24, 64, np.float32)
        arrays[0] *= 8.0  # wide score rows, so the masked -1e9 entries sit far below the max
        fused, composed = self._both([Tensor(a) for a in arrays], True, 4, _band(24, 24, 2))
        assert np.array_equal(fused.data, composed.data)

    def test_a_nan_score_still_raises(self):
        arrays = _attention_inputs(np.random.default_rng(6), 2, 24, 24, 8, np.float32)
        arrays[1][1, 7, 3] = np.nan  # one key of one series: a NaN score column under the band
        with pytest.raises(NumericError, match="attention"):
            self._both([Tensor(a) for a in arrays], False, 2, _band(24, 24, 2))


FF_KEYS = ("w1", "b1", "w2", "b2")


def _ff_inputs(rng, b, s=24, dim=8, hidden=16, dtype=np.float64):
    x = rng.standard_normal((b, s, dim)) * 2.0  # wide enough to reach gelu's curved part
    params = [rng.standard_normal((dim, hidden)) * 0.5, rng.standard_normal(hidden) * 0.1,
              rng.standard_normal((hidden, dim)) * 0.5, rng.standard_normal(dim) * 0.1]
    return [a.astype(dtype) for a in [x] + params]


class TestFeedForwardOp:
    """The fused block against the composed tape ops it replaces (`helpers.composed_feed_forward`)."""

    @pytest.mark.parametrize("b", [1, 8, 12])
    def test_float32_forward_is_bitwise_the_composed_ops(self, b):
        x, *params = [Tensor(a) for a in _ff_inputs(np.random.default_rng(b), b, dim=64, hidden=128,
                                                    dtype=np.float32)]
        fused = ad.feed_forward(x, *params)
        assert fused.dtype == np.float32
        assert np.array_equal(fused.data, composed_feed_forward(x, dict(zip(FF_KEYS, params))).data)

    def test_no_grad_output_is_bitwise_the_recorded_one(self):
        arrays = _ff_inputs(np.random.default_rng(7), 12, dim=64, hidden=128, dtype=np.float32)
        recorded = ad.feed_forward(*[Tensor(a, requires_grad=True) for a in arrays])
        assert recorded.requires_grad
        with ad.no_grad():
            plain = ad.feed_forward(*[Tensor(a, requires_grad=True) for a in arrays])
        assert not plain.requires_grad
        assert np.array_equal(plain.data, recorded.data)

    def test_gradients_of_all_five_inputs_match_central_differences(self):
        rng = np.random.default_rng(8)
        arrays = _ff_inputs(rng, 2, s=3, dim=4, hidden=6)
        w = Tensor(rng.standard_normal((2, 3, 4)))
        assert grad_check(lambda ts: (ad.feed_forward(*ts) * w).sum(), arrays) < 1e-6

    def test_frozen_weights_pass_a_gradient_to_x_only(self):
        rng = np.random.default_rng(9)
        x, *params = _ff_inputs(rng, 2, s=3, dim=4, hidden=6)
        w = rng.standard_normal((2, 3, 4))
        frozen = [Parameter(k, a, trainable=False) for k, a in zip(FF_KEYS, params)]
        xt = Tensor(x, requires_grad=True)
        (ad.feed_forward(xt, *frozen) * Tensor(w)).sum().backward()
        assert all(not np.any(p.grad) for p in frozen)

        def f(xv):
            with ad.no_grad():
                return float((ad.feed_forward(Tensor(xv), *frozen) * Tensor(w)).sum().data)

        assert rel_err(xt.grad, central_diff(f, x)) < 1e-6

    def test_nan_in_w1_ends_in_a_forward_error_naming_the_layer(self):
        cfg = DenoiserConfig(tau=6, d=2, T=10, model_dim=8, enc_layers=1, dec_layers=2,
                             heads=2, ff_dim=16, fourier_terms=1, trend_degree=3)
        model = Backbone(cfg, seed=0)
        model.params["backbone.dec1.ff1.w"].data[2, 5] = np.nan
        x = np.random.default_rng(0).standard_normal((2, 6, 2))
        with pytest.raises(NumericError, match="decoder layer 1: feed_forward"):
            model.forward(x, 3)


def test_gelu_is_bitwise_its_plain_numpy_formula():
    x = np.concatenate([np.linspace(-20, 20, 4001),
                        np.random.default_rng(11).standard_normal(4096) * 3]).astype(np.float32)
    c, a = math.sqrt(2.0 / math.pi), 0.044715  # Python floats keep the arithmetic in float32
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + a * (x * x * x))))
    assert ref.dtype == np.float32
    assert np.array_equal(ad.gelu(Tensor(x)).data, ref)


KERNEL_CASES = [(dtype, b, width) for dtype in ("float32", "float64") for b in (1, 8, 12) for width in (64, 128)]


class TestRewrittenKernelsKeepTheirBits:
    """The in-place and contiguous backward kernels against the expressions they replaced.

    Series are 24 steps long, as on the desk. At 18 rows of width 64 or fewer, OpenBLAS multiplies
    by a view and by a copy with two different small-matrix kernels, which round differently.
    """

    @pytest.mark.parametrize("dtype,b,width", KERNEL_CASES)
    def test_gelu_grad_is_bitwise_its_one_expression(self, dtype, b, width):
        x = (np.random.default_rng(b + width).standard_normal((b, 24, width)) * 3.0).astype(dtype)
        t = ad.gelu_(x.copy())
        assert np.array_equal(ad._gelu_grad(x, t), formula_gelu_grad(x, t))

    @pytest.mark.parametrize("dtype,b,width", KERNEL_CASES)
    def test_layer_norm_input_gradient_is_bitwise_its_one_expression(self, dtype, b, width):
        rng = np.random.default_rng(b + width)
        x, g = (rng.standard_normal((2, b, 24, width)) * 2.0 + 0.5).astype(dtype)
        gain, bias = (rng.standard_normal((2, width)) * 0.1 + [[1.0], [0.0]]).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        (ad.layer_norm(xt, Tensor(gain), Tensor(bias)) * Tensor(g)).sum().backward()
        assert xt.grad.dtype == np.dtype(dtype)
        assert np.array_equal(xt.grad, formula_layer_norm_input_grad(x, gain, g))

    @pytest.mark.parametrize("dtype,b,width", KERNEL_CASES)
    def test_a_product_by_the_contiguous_transpose_is_bitwise_the_views(self, dtype, b, width):
        rng = np.random.default_rng(b + width)
        g = rng.standard_normal((b, 24, width)).astype(dtype)
        for rows in (64, 128):  # (64, 64), (64, 128) and (128, 64) are the desk's projection and feed-forward weights
            w = Tensor(rng.standard_normal((rows, width)).astype(dtype))
            assert np.array_equal(g @ ad._t(w), g @ view_transpose(w))

    @staticmethod
    def _fused_grads(dtype, b):
        rng = np.random.default_rng(b)
        att = _attention_inputs(rng, b, 24, 24, 64, dtype)
        cross = _attention_inputs(rng, b, 24, 24, 64, dtype)
        ff = _ff_inputs(rng, b, dim=64, hidden=128, dtype=dtype)
        ts = [Tensor(a, requires_grad=True) for a in att + cross + ff]
        h = ad.attention(ts[0], ts[0], *ts[2:10], 4, _band(24, 24, 2))
        h = h + ad.attention(ts[10], ts[11], *ts[12:20], 4)
        (ad.feed_forward(h * ts[20], *ts[21:]) * h).sum().backward()
        return [t.grad for t in ts]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("b", [1, 8, 12])
    def test_fused_backwards_give_the_gradients_of_the_view_products(self, dtype, b, monkeypatch):
        new = self._fused_grads(dtype, b)
        monkeypatch.setattr(ad, "_t", view_transpose)
        old = self._fused_grads(dtype, b)
        for i, (got, ref) in enumerate(zip(new, old)):
            assert (got is None) == (i == 1) == (ref is None)  # the shared self-attention input's second slot
            assert got is None or np.array_equal(got, ref), f"input {i}"


BINARY_OPS = {  # name: (op, a's shape, b's shape), b broadcast against a where the op allows
    "matmul": (ad.matmul, (3, 4, 5), (5, 6)),
    "add": (ad.add, (3, 4, 5), (5,)),
    "sub": (ad.sub, (3, 4, 5), (4, 1)),
    "mul": (ad.mul, (3, 4, 5), (4, 5)),
    "div": (ad.div, (3, 4, 5), (1, 5)),
}


@pytest.mark.parametrize("frozen", [0, 1])
@pytest.mark.parametrize("name", list(BINARY_OPS))
def test_a_frozen_parent_gets_no_gradient_and_the_other_keeps_its_bits(name, frozen):
    op, *shapes = BINARY_OPS[name]
    rng = np.random.default_rng(len(name) + frozen)
    arrays = [rng.standard_normal(shapes[0]), rng.uniform(0.5, 2.0, shapes[1])]  # b stays away from 0 for div
    w = Tensor(rng.standard_normal(op(*[Tensor(a) for a in arrays]).shape))
    grads = []
    for freeze in (None, frozen):
        ts = [Tensor(a, requires_grad=i != freeze) for i, a in enumerate(arrays)]
        (op(*ts) * w).sum().backward()
        grads.append([t.grad for t in ts])
    assert grads[1][frozen] is None
    assert np.array_equal(grads[1][1 - frozen], grads[0][1 - frozen])


def test_layer_norm_with_a_frozen_gain_and_bias_gives_x_the_same_bits():
    rng = np.random.default_rng(12)
    x, g = rng.standard_normal((2, 3, 4, 8))
    gain, bias = rng.standard_normal((2, 8))
    grads = []
    for trainable in (True, False):
        ts = [Tensor(x, requires_grad=True), Tensor(gain, requires_grad=trainable),
              Tensor(bias, requires_grad=trainable)]
        (ad.layer_norm(*ts) * Tensor(g)).sum().backward()
        grads.append([t.grad for t in ts])
    assert grads[1][1] is None and grads[1][2] is None
    assert np.array_equal(grads[1][0], grads[0][0])


class TestBackward:
    def test_sum_grad_is_ones(self):
        p = Parameter("p", np.array([1.0, 2.0, 3.0]))
        loss = p.sum()
        loss.backward()
        np.testing.assert_allclose(p.grad, np.ones(3))

    def test_detached_param_gets_no_grad(self):
        p = Parameter("p", np.ones(3))
        q = Parameter("q", np.ones(3))
        assert p.grad is None and q.grad is None  # no gradient array until one is accumulated
        loss = q.sum()
        loss.backward()
        assert p.grad is None

    def test_frozen_param_untouched(self):
        p = Parameter("p", np.array([1.0, 2.0]), trainable=False)
        loss = (p * 3.0).sum()
        loss.backward()
        assert p.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_reused_node_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = (x * x).sum()  # same tensor on both sides
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_a_second_backward_through_a_spent_graph_raises_and_keeps_the_first_gradients(self):
        x = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        w = Tensor(np.array([[1.0, 2.0], [3.0, 1.0]]), requires_grad=True)
        h = x @ w
        loss = (h * 2.0).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [[6.0, 8.0]])
        np.testing.assert_array_equal(w.grad, [[2.0, 2.0], [2.0, 2.0]])
        with pytest.raises(ContractError, match="consumed"):
            loss.backward()
        with pytest.raises(ContractError, match="consumed"):  # a new loss on a spent node, too
            (h * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [[6.0, 8.0]])
        np.testing.assert_array_equal(w.grad, [[2.0, 2.0], [2.0, 2.0]])

    def test_backward_frees_every_interior_array_while_the_loss_is_still_held(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        w = Parameter("w", RNG.standard_normal((4, 5)))
        h = ad.gelu(x @ w)
        refs = [weakref.ref(h.data), weakref.ref(h._parents[0].data)]
        loss = (h * h).mean()
        del h
        assert all(r() is not None for r in refs)
        loss.backward()
        assert all(r() is None for r in refs)
        assert loss._parents == () and loss.grad is None
        assert x.grad.shape == (3, 4) and w.grad.shape == (4, 5)  # leaves keep their gradients


@pytest.mark.parametrize("name,build,arrays", [
    ("add", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda ts: (ts[0] + ts[1]).sum(), [(2, 3, 4), (4,)]),
    ("sub", lambda ts: (ts[0] - ts[1]).sum(), [(3, 4), (3, 4)]),
    ("mul", lambda ts: (ts[0] * ts[1]).sum(), [(3, 4), (3, 4)]),
    ("mul_broadcast", lambda ts: (ts[0] * ts[1]).sum(), [(2, 3, 4), (3, 4)]),
    ("div", lambda ts: ad.div(ts[0], ts[1] * ts[1] + 1.0).sum(), [(3, 3), (3, 3)]),
    ("absolute", lambda ts: ad.absolute(ts[0]).sum(), [(4, 4)]),
    ("minimum", lambda ts: ad.minimum((ts[0] * ts[0]).sum() * 0.1, 0.4), [(3, 3)]),
    ("gelu", lambda ts: ad.gelu(ts[0]).sum(), [(4, 5)]),
    ("sum_axis", lambda ts: (ts[0].sum(axis=1) * ts[0].sum(axis=1)).sum(), [(3, 4)]),
    ("mean", lambda ts: (ts[0].mean(axis=-1).reshape((3, 1)) * ts[0]).sum(), [(3, 4)]),
    ("reshape", lambda ts: (ts[0].reshape((4, 3)) @ ts[0].reshape((3, 4))).sum(), [(2, 6)]),
    ("transpose", lambda ts: (ad.transpose(ts[0], (1, 0, 2)) * 2.0).sum(), [(2, 3, 4)]),
    ("transpose_matmul", lambda ts: (ad.transpose(ts[0], (1, 0)) @ ts[0]).sum(), [(3, 4)]),
    ("slice", lambda ts: (ad.take(ts[0], np.s_[:, 1:3]) * ad.take(ts[0], np.s_[:, 0:2])).sum(), [(3, 5)]),
    ("pad", lambda ts: (ad.take(ad.pad(ts[0], 1, 2, 2), np.s_[:, 1:4]) * 3.0).sum(), [(2, 4)]),
    ("concat", lambda ts: (ad.concat([ts[0], ts[1]], axis=1) * ad.concat([ts[1], ts[0]], axis=1)).sum(),
     [(2, 3), (2, 3)]),
    ("stack", lambda ts: (ad.stack([ts[0], ts[1]], axis=0) * ad.stack([ts[1], ts[0]], axis=0)).sum(),
     [(2, 3), (2, 3)]),
])
def test_op_gradients_match_central_differences(name, build, arrays):
    rng = np.random.default_rng(hash(name) % 2**32)
    vals = [rng.standard_normal(s) for s in arrays]
    assert grad_check(build, vals) < 1e-6, name


def test_gelu_float32_matches_float64_tanh_reference():
    x = np.concatenate([np.linspace(-1e3, 1e3, 20001),
                        np.random.default_rng(4).standard_normal(10000)]).astype(np.float32)
    out = ad.gelu(Tensor(x)).data
    assert out.dtype == np.float32
    x64 = x.astype(np.float64)
    ref = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * np.power(x64, 3))))
    # floored at 1: far in the negative tail float32 rounds 1 + tanh to exactly 0
    assert rel_err(out, ref) <= 1e-6


class TestInvariants:
    def test_non_finite_raises(self):
        big = Tensor(np.array([1e38], dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            big * 1e38  # overflows float32

    def test_determinism_same_seed_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
            out = ad.softmax(x @ w, axis=-1).sum()
            out.backward()
            return out.data.copy(), x.grad.copy()

        (o1, g1), (o2, g2) = run(), run()
        assert np.array_equal(o1, o2) and np.array_equal(g1, g2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_of_one_dtype_give_a_graph_and_gradients_of_that_dtype(self, dtype):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(dtype), requires_grad=True)
        w = Parameter("w", rng.standard_normal((4, 4)).astype(dtype))
        g, b = Parameter("g", np.ones(4, dtype)), Parameter("b", np.zeros(4, dtype))
        h = ad.layer_norm(x @ w, g, b)
        nodes = [h, ad.softmax(h), 2.0 * h - 1.0, ad.div(h, 3.0), ad.gelu(h), ad.take(h, np.s_[:, 1:]), h.mean(axis=1)]
        loss = sum((n.sum() for n in nodes[1:]), nodes[0].sum())
        assert all(n.dtype == dtype for n in nodes) and loss.dtype == dtype
        loss.backward()
        assert all(p.grad.dtype == dtype for p in (x, w, g, b))

    def test_other_data_becomes_float32(self):
        for data in (1.0, [1, 2], np.arange(3), np.ones(2, dtype=np.float16), True):
            assert Tensor(data).dtype == np.float32
        assert Tensor(np.float64(2.0)).dtype == np.float64  # a numpy scalar keeps its dtype, as an array does

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = x * 2.0
        assert y._backward is None and not y.requires_grad
