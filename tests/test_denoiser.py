"""Backbone: output heads, basis matrices, timestep embedding, taps, gradients."""

import numpy as np
import pytest

from faultgen import autodiff as ad
from faultgen.autodiff import Tensor
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

from helpers import central_diff, rel_err

TOY = DenoiserConfig(tau=4, d=2, T=10, model_dim=8, enc_layers=1, dec_layers=2,
                     heads=2, ff_dim=16, fourier_terms=1)


def test_config_validation():
    with pytest.raises(ContractError):
        DenoiserConfig(tau=8, d=2, T=10, model_dim=10, heads=4)
    with pytest.raises(ContractError):
        DenoiserConfig(tau=8, d=2, T=10, enc_layers=0)


class TestForward:
    def test_zero_init_heads_give_zero_output(self):
        bb = Backbone(TOY, seed=1)
        x = np.random.default_rng(0).standard_normal((1, 4, 2)).astype(np.float32)
        eps_hat = bb.forward(x, 3)
        np.testing.assert_array_equal(eps_hat.data, np.zeros((1, 4, 2)))

    @pytest.mark.parametrize("tau", [4, 9, 24])
    def test_output_shape(self, tau):
        cfg = DenoiserConfig(tau=tau, d=3, T=10, model_dim=8, enc_layers=1,
                             dec_layers=1, heads=2, ff_dim=16, fourier_terms=1)
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

    def test_t_out_of_range(self):
        bb = Backbone(TOY, seed=1)
        with pytest.raises(ContractError):
            bb.forward(np.zeros((1, 4, 2), dtype=np.float32), 10)

    def test_full_gradient_check_on_toy_input(self):
        # end-to-end: d(base_loss)/d(param) against central differences, 64-bit
        with ad.precision("float64"):
            bb = Backbone(TOY, seed=2)
            rng = np.random.default_rng(3)
            for p in bb.parameters():  # randomize zero-init heads so grads are informative
                if np.all(p.data == 0):
                    p.data = rng.normal(0, 0.05, p.data.shape)
            x = rng.standard_normal((1, 4, 2))
            eps = rng.standard_normal((1, 4, 2))

            eps_hat = bb.forward(Tensor(x), 3)
            loss = base_loss(Tensor(eps), eps_hat)
            loss.backward()

            def loss_at(p, arr):
                old = p.data
                p.data = arr
                with ad.no_grad():
                    eh = bb.forward(Tensor(x), 3)
                    val = float(base_loss(Tensor(eps), eh).data)
                p.data = old
                return val

            rng2 = np.random.default_rng(0)
            params = bb.parameters()
            worst = 0.0
            for p in params[:: max(1, len(params) // 12)]:
                numeric = central_diff(lambda a, p=p: loss_at(p, a), p.data)
                worst = max(worst, rel_err(p.grad, numeric))
            assert worst < 1e-6


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
        for p in bb.parameters():
            if np.all(p.data == 0):
                p.data = rng.normal(0, 0.1, p.data.shape).astype(np.float32)
        x = rng.standard_normal((1, 4, 2)).astype(np.float32)
        layer_outputs = []
        dec_layer = bb._dec_layer
        bb._dec_layer = lambda *args: layer_outputs.append(dec_layer(*args)) or layer_outputs[-1]
        eps_hat = bb.forward(x, 1)
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
