"""Backbone: output heads, basis matrices, timestep embedding, taps, gradients."""

import numpy as np
import pytest

from faultgen import adapter, denoiser
from faultgen import autodiff as ad
from faultgen.adapter import AdapterConfig, AdapterStack, attach
from faultgen.autodiff import Tensor
from faultgen.config import DESK, resolve_config
from faultgen.data import ADAPTER_STREAM, BACKBONE_STREAM, series_rng
from faultgen.denoiser import (
    Backbone,
    DenoiserConfig,
    fourier_basis,
    position_encoding,
    timestep_embed,
    trend_basis,
)
from faultgen.errors import ContractError
from faultgen.training import base_loss

from helpers import central_diff, composed_attention, composed_feed_forward, reference_forward, rel_err

TOY = DenoiserConfig(tau=4, d=2, T=10, model_dim=8, enc_layers=1, dec_layers=2,
                     heads=2, ff_dim=16, fourier_terms=1, trend_degree=3)


def _desk_models():
    """A desk-sized backbone and adapter stack, every weight perturbed (zero-init heads would hide every bit)."""
    backbone = Backbone(resolve_config("desk", "pretrain").denoiser_config(24, 2), seed=3)
    stack = AdapterStack(AdapterConfig(model_dim=backbone.cfg.model_dim, **DESK["adapter"]),
                         backbone.cfg.dec_layers, seed=4)
    rng = np.random.default_rng(5)
    for p in [*backbone.params.values(), *stack.params.values()]:
        p.data += rng.normal(0, 0.05, p.data.shape).astype(np.float32)
    return backbone, stack


def test_config_validation():
    with pytest.raises(ContractError):
        DenoiserConfig(tau=8, d=2, T=10, model_dim=10, enc_layers=3, dec_layers=4, heads=4, ff_dim=128,
                       fourier_terms=4, trend_degree=3)
    with pytest.raises(ContractError):
        DenoiserConfig(tau=8, d=2, T=10, model_dim=64, enc_layers=0, dec_layers=4, heads=4, ff_dim=128,
                       fourier_terms=4, trend_degree=3)


class TestForward:
    def test_zero_init_heads_give_zero_output(self):
        bb = Backbone(TOY, seed=1)
        x = np.random.default_rng(0).standard_normal((1, 4, 2)).astype(np.float32)
        eps_hat = bb.forward(x, 3)
        np.testing.assert_array_equal(eps_hat.data, np.zeros((1, 4, 2)))

    @pytest.mark.parametrize("tau", [4, 9, 24])
    def test_output_shape(self, tau):
        cfg = DenoiserConfig(tau=tau, d=3, T=10, model_dim=8, enc_layers=1,
                             dec_layers=1, heads=2, ff_dim=16, fourier_terms=1, trend_degree=3)
        bb = Backbone(cfg, seed=1)
        x = np.zeros((1, tau, 3), dtype=np.float32)
        assert bb.forward(x, 0).shape == (1, tau, 3)

    def test_batched_matches_config(self):
        bb = Backbone(TOY, seed=1)
        x = np.random.default_rng(0).standard_normal((3, 4, 2)).astype(np.float32)
        assert bb.forward(x, 2).shape == (3, 4, 2)

    def test_deterministic(self):
        bb = Backbone(TOY, seed=1)
        x = np.random.default_rng(0).standard_normal((1, 4, 2)).astype(np.float32)
        a = bb.forward(x, 3)
        b = bb.forward(x, 3)
        assert np.array_equal(a.data, b.data)

    def test_a_float64_array_runs_in_the_parameters_float32(self):
        bb = Backbone(TOY, seed=1)
        rng = np.random.default_rng(1)
        for p in bb.params.values():  # randomize the zero-init heads so the output is not all zeros
            if not np.any(p.data):
                p.data[...] = rng.normal(0, 0.05, p.data.shape)
        x = rng.standard_normal((2, 4, 2))
        out = bb.forward(x, 3)
        assert out.dtype == np.float32 and np.any(out.data)
        assert np.array_equal(out.data, bb.forward(x.astype(np.float32), 3).data)
        assert bb.predict_noise(x, 3).dtype == np.float32

    def test_t_out_of_range(self):
        bb = Backbone(TOY, seed=1)
        with pytest.raises(ContractError):
            bb.forward(np.zeros((1, 4, 2), dtype=np.float32), 10)

    def test_full_gradient_check_on_toy_input(self):
        # end-to-end: d(base_loss)/d(param) against central differences, 64-bit
        bb = Backbone(TOY, seed=2)
        rng = np.random.default_rng(3)
        for p in bb.params.values():  # in float64, with zero-init heads randomized so grads are informative
            p.data = rng.normal(0, 0.05, p.data.shape) if np.all(p.data == 0) else p.data.astype(np.float64)
        x = rng.standard_normal((1, 4, 2))
        eps = rng.standard_normal((1, 4, 2))

        eps_hat = bb.forward(x, 3)
        loss = base_loss(Tensor(eps), eps_hat)
        loss.backward()

        def loss_at(p, arr):
            old = p.data
            p.data = arr
            with ad.no_grad():
                eh = bb.forward(x, 3)
                val = float(base_loss(Tensor(eps), eh).data)
            p.data = old
            return val

        rng2 = np.random.default_rng(0)
        params = list(bb.params.values())
        worst = 0.0
        for p in params[:: max(1, len(params) // 12)]:
            numeric = central_diff(lambda a, p=p: loss_at(p, a), p.data)
            worst = max(worst, rel_err(p.grad, numeric))
        assert worst < 1e-6


class TestFusedOpsKeepTheComposedBits:
    """`generate` reads only `predict_noise`; the fused nodes must leave its bits where the composed ops put them."""

    @pytest.mark.parametrize("b", [1, 12])
    def test_predict_noise_is_bitwise_the_composed_reference(self, monkeypatch, b):
        backbone, stack = _desk_models()
        composed = attach(backbone, stack)
        x = np.random.default_rng(b).standard_normal((b, backbone.cfg.tau, backbone.cfg.d)).astype(np.float32)
        fused = [backbone.predict_noise(x, 37), composed.predict_noise(x, 37)]
        monkeypatch.setattr(denoiser, "feed_forward", composed_feed_forward)
        monkeypatch.setattr(denoiser, "multi_head_attention", composed_attention)
        monkeypatch.setattr(adapter, "multi_head_attention", composed_attention)
        reference = [backbone.predict_noise(x, 37), composed.predict_noise(x, 37)]
        assert np.any(reference[0] != reference[1])  # the adapter is live
        for got, ref in zip(fused, reference):
            assert np.array_equal(got, ref)


class TestWiring:
    """Every layer's wiring against `helpers.reference_forward`, the documented order spelled op by op."""

    @pytest.mark.parametrize("b", [1, 12])
    def test_predict_noise_and_a_recorded_forward_are_bitwise_the_reference(self, b):
        backbone, stack = _desk_models()
        x = np.random.default_rng(b).standard_normal((b, backbone.cfg.tau, backbone.cfg.d)).astype(np.float32)
        with ad.no_grad():
            refs = [reference_forward(backbone, x, 37).data, reference_forward(backbone, x, 37, stack).data]
        assert np.any(refs[0] != refs[1])  # the adapter is live
        for s, ref in ((None, refs[0]), (stack, refs[1])):
            model = backbone if s is None else attach(backbone, s)
            recorded = model.forward(x, 37)
            assert recorded.requires_grad
            assert np.array_equal(recorded.data, ref)
            assert np.array_equal(model.predict_noise(x, 37), ref)


def _linear(name, fan_in, fan_out, init="glorot"):
    return [(f"{name}.w", (fan_in, fan_out), init), (f"{name}.b", (fan_out,), "zeros")]


def _norm(name, dim=8):
    return [(f"{name}.g", (dim,), "ones"), (f"{name}.b", (dim,), "zeros")]


def _attention(name, last="glorot"):
    return _linear(f"{name}.q", 8, 8) + _linear(f"{name}.k", 8, 8) + _linear(f"{name}.v", 8, 8) \
        + _linear(f"{name}.o", 8, 8, last)


def _ff(name):
    return _linear(f"{name}.ff1", 8, 16) + _linear(f"{name}.ff2", 16, 8)


# TOY's parameters in registration order: (name, shape, init), where "glorot" is the next Glorot draw of the
# init stream, "drawn-zeroed" a draw that is then zeroed, and "zeros" and "ones" draw nothing
TOY_BACKBONE = (
    _linear("backbone.in_proj", 2, 8) + _linear("backbone.t_proj", 8, 8)
    + _norm("backbone.enc0.ln1") + _attention("backbone.enc0.attn") + _norm("backbone.enc0.ln2")
    + _ff("backbone.enc0")
    + _norm("backbone.enc_ln")
    + _norm("backbone.dec0.ln1") + _attention("backbone.dec0.self") + _norm("backbone.dec0.ln2")
    + _attention("backbone.dec0.cross") + _norm("backbone.dec0.ln3") + _ff("backbone.dec0")
    + _norm("backbone.dec1.ln1") + _attention("backbone.dec1.self") + _norm("backbone.dec1.ln2")
    + _attention("backbone.dec1.cross") + _norm("backbone.dec1.ln3") + _ff("backbone.dec1")
    + _norm("backbone.final_ln")
    + _linear("backbone.head.trend", 8, 8, "zeros") + _linear("backbone.head.seasonal", 8, 4, "zeros")
    + _linear("backbone.head.residual", 8, 2, "zeros")
)
TOY_ADAPTER = (_norm("adapter0.ln") + _attention("adapter0.attn", "drawn-zeroed")
               + _norm("adapter1.ln") + _attention("adapter1.attn", "drawn-zeroed"))


class TestParameterLayout:
    """Names, shapes, order and initial bits: what a checkpoint stores and every loss curve starts from."""

    @staticmethod
    def _assert_layout(params, expected, rng):
        assert [(name, p.shape) for name, p in params.items()] == [(name, shape) for name, shape, _ in expected]
        for name, shape, init in expected:
            if init in ("glorot", "drawn-zeroed"):
                want = rng.normal(0.0, np.sqrt(2.0 / sum(shape)), size=shape).astype(np.float32)
                want = np.zeros_like(want) if init == "drawn-zeroed" else want
            else:
                want = np.full(shape, 1.0 if init == "ones" else 0.0, dtype=np.float32)
            assert params[name].data.dtype == np.float32 and params[name].data.tobytes() == want.tobytes(), name

    def test_a_toy_backbone(self):
        self._assert_layout(Backbone(TOY, seed=6).params, TOY_BACKBONE, series_rng(6, BACKBONE_STREAM, 0))

    def test_a_toy_adapter_stack(self):
        stack = AdapterStack(AdapterConfig(window=3, heads=2, model_dim=8, alpha=1.0), TOY.dec_layers, seed=7)
        self._assert_layout(stack.params, TOY_ADAPTER, series_rng(7, ADAPTER_STREAM, 0))


class TestDecompose:
    def test_zero_heads_zero_parts(self):
        bb = Backbone(TOY, seed=1)
        h = np.random.default_rng(0).standard_normal((1, 4, 8)).astype(np.float32)
        trend, seasonal, residual = bb.decompose(Tensor(h))
        for part in (trend, seasonal, residual):
            np.testing.assert_array_equal(part.data, np.zeros((1, 4, 2)))

    def test_parts_sum_to_output(self):
        bb = Backbone(TOY, seed=1)
        rng = np.random.default_rng(5)
        for p in bb.params.values():
            if np.all(p.data == 0):
                p.data = rng.normal(0, 0.1, p.data.shape).astype(np.float32)
        x = rng.standard_normal((1, 4, 2)).astype(np.float32)
        layer_outputs = []
        run_layer = bb._layer
        bb._layer = lambda *args: layer_outputs.append(run_layer(*args)) or layer_outputs[-1]
        eps_hat = bb.forward(x, 1)
        assert len(layer_outputs) == TOY.enc_layers + TOY.dec_layers  # the decoder's layers run last
        # reconstruct H from the last decoder layer's output exactly as forward does
        H = ad.layer_norm(layer_outputs[-1], *bb.final_ln)
        t, s, r = bb.decompose(H)
        np.testing.assert_allclose((t + s + r).data, eps_hat.data, atol=1e-6)

    def test_basis_construction(self):
        p = trend_basis(24, 3)
        np.testing.assert_allclose(p[:, 0], np.ones(24))
        assert p.shape == (24, 4)
        f = fourier_basis(24, 4)
        assert f.shape == (24, 8)
        np.testing.assert_allclose(f.mean(axis=0), np.zeros(8), atol=1e-7)

    def test_trend_head_least_squares_oracle(self):
        # the fixed polynomial basis can reproduce a pure cubic via least squares
        tau = 24
        p = trend_basis(tau, 3).astype(np.float64)
        t = np.arange(tau) / (tau - 1)
        target = (0.3 - 1.2 * t + 0.5 * t**2 + 2.0 * t**3)[:, None]
        coef, *_ = np.linalg.lstsq(p, target, rcond=None)
        np.testing.assert_allclose(p @ coef, target, atol=1e-4)


class TestTimestepEmbed:
    def test_deterministic_and_distinct(self):
        a = timestep_embed(3, 16)
        b = timestep_embed(3, 16)
        assert np.array_equal(a, b)
        seen = {timestep_embed(t, 16).tobytes() for t in range(1000)}
        assert len(seen) == 1000

    def test_norm_bounded(self):
        for t in range(0, 10_000, 97):
            assert np.linalg.norm(timestep_embed(t, 64)) <= np.sqrt(64) + 1e-6

    def test_position_encoding_shape(self):
        pe = position_encoding(24, 64)
        assert pe.shape == (24, 64)
        assert np.all(np.abs(pe) <= 1.0 + 1e-6)
