"""Noise schedule tables, forward marginal, reverse step, and sampling."""

import numpy as np
import pytest

from faultgen.cli import main
from faultgen.config import RunConfig
from faultgen.data import fit_normalizer, generate_normal, load_corpus
from faultgen.denoiser import Backbone, DenoiserConfig
from faultgen.diffusion import X0_CLIP, forward_sample, make_schedule, reverse_step, sample
from faultgen.errors import ContractError
from faultgen.training import TrainConfig, load_checkpoint, restore, train

from helpers import staged_reverse_step


class TestSchedule:
    def test_hand_cumprod(self):
        s = make_schedule(2, "linear", 0.1, 0.2)
        np.testing.assert_allclose(s.beta, [0.1, 0.2])
        np.testing.assert_allclose(s.alpha_bar, [0.9, 0.72])

    def test_standard_preset_first_entry(self):
        s = make_schedule(1000, "linear", 1e-4, 0.02)
        assert abs(s.alpha_bar[0] - 0.9999) < 1e-12
        # independent cumulative-product oracle
        np.testing.assert_allclose(s.alpha_bar, np.cumprod(1 - np.linspace(1e-4, 0.02, 1000)))

    @pytest.mark.parametrize("kind,T,b0,b1", [
        ("linear", 100, 1e-3, 0.2),
        ("linear", 1000, 1e-4, 0.02),
        ("cosine", 100, 1e-5, 0.999),
    ])
    def test_monotone_and_terminal(self, kind, T, b0, b1):
        s = make_schedule(T, kind, b0, b1)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[-1] < 0.05
        assert np.all((s.beta > 0) & (s.beta < 1))

    def test_posterior_variance_formula(self):
        s = make_schedule(5, "linear", 0.1, 0.3)
        for t in range(1, 5):
            expected = s.beta[t] * (1 - s.alpha_bar[t - 1]) / (1 - s.alpha_bar[t])
            assert abs(s.posterior_var[t] - expected) < 1e-12
        assert s.posterior_var[0] == 0.0

    def test_invalid_range(self):
        with pytest.raises(ContractError):
            make_schedule(10, "linear", 0.5, 0.2)
        with pytest.raises(ContractError):
            make_schedule(1, "linear", 0.1, 0.2)


class TestForwardSample:
    def test_zero_noise(self):
        s = make_schedule(10, "linear", 0.05, 0.2)
        x0 = np.ones((4, 2), dtype=np.float32)
        out = forward_sample(x0, 3, np.zeros_like(x0), s)
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bar[3]), rtol=1e-6)

    def test_near_identity_at_t0(self):
        s = make_schedule(10, "linear", 1e-5, 1e-4)
        x0 = np.full((4, 2), 0.7, dtype=np.float32)
        eps = np.ones_like(x0)
        out = forward_sample(x0, 0, eps, s)
        np.testing.assert_allclose(out, x0, atol=0.01)

    def test_monte_carlo_moments(self):
        # seeded 10^4-draw check of mean and variance against the closed form
        s = make_schedule(100, "linear", 1e-3, 0.2)
        rng = np.random.default_rng(77)
        x0 = rng.standard_normal((4, 2)).astype(np.float32)
        t = 40
        n = 10_000
        draws = np.stack([forward_sample(x0, t, rng.standard_normal(x0.shape).astype(np.float32), s)
                          for _ in range(n)])
        ab = s.alpha_bar[t]
        mean_se = np.sqrt((1 - ab) / n)
        var_se = (1 - ab) * np.sqrt(2 / (n - 1))
        assert np.all(np.abs(draws.mean(axis=0) - np.sqrt(ab) * x0) < 3 * mean_se)
        assert np.all(np.abs(draws.var(axis=0) - (1 - ab)) < 3 * var_se)

    def test_shape_mismatch(self):
        s = make_schedule(10, "linear", 0.05, 0.2)
        with pytest.raises(ContractError):
            forward_sample(np.zeros((4, 2)), 1, np.zeros((4, 3)), s)


class TestReverseStep:
    def test_zero_inputs_reduce_to_scaling(self):
        s = make_schedule(10, "linear", 0.05, 0.2)
        x = np.random.default_rng(0).standard_normal((4, 2)).astype(np.float32)
        out = reverse_step(x, 3, np.zeros_like(x), np.zeros_like(x), s)
        np.testing.assert_allclose(out, x / np.sqrt(s.alpha[3]), rtol=1e-6)

    def test_single_step_chain_inverts_forward(self):
        s = make_schedule(2, "linear", 0.2, 0.2)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((6, 3))
        eps = rng.standard_normal((6, 3))
        x1 = forward_sample(x0, 0, eps, s)
        back = reverse_step(x1, 0, eps, np.zeros_like(x1), s)
        assert np.max(np.abs(back - x0)) < 1e-5

    def test_shape_preserved_and_t_checked(self):
        s = make_schedule(10, "linear", 0.05, 0.2)
        x = np.zeros((4, 2))
        assert reverse_step(x, 5, x, x, s).shape == x.shape
        with pytest.raises(ContractError):
            reverse_step(x, 10, x, x, s)
        with pytest.raises(ContractError):
            reverse_step(x, 0, x, np.ones_like(x), s)

    @pytest.mark.parametrize("kind,T,b0,b1", [
        ("linear", 100, 1e-3, 0.2),
        ("linear", 1000, 1e-4, 0.02),
        ("cosine", 100, 1e-5, 0.999),
    ])
    def test_matches_the_staged_clip_rederive_and_mean(self, kind, T, b0, b1):
        s = make_schedule(T, kind, b0, b1)
        rng = np.random.default_rng(11)
        for t in (T - 1, T // 2, 3, 1, 0):
            x0 = rng.uniform(-2 * X0_CLIP, 2 * X0_CLIP, (8, 24, 2))  # the clip binds on half the entries
            eps_hat = rng.standard_normal(x0.shape)
            x = np.sqrt(s.alpha_bar[t]) * x0 + np.sqrt(1.0 - s.alpha_bar[t]) * eps_hat
            z = rng.standard_normal(x.shape) if t > 0 else np.zeros_like(x)
            expected = staged_reverse_step(x, t, eps_hat, z, s, clip=X0_CLIP)
            got = reverse_step(x, t, eps_hat, z, s)
            assert np.max(np.abs(got - expected)) <= 1e-6 * np.max(np.abs(expected)), (kind, T, t)

    def test_t0_returns_the_clipped_clean_estimate(self):
        s = make_schedule(100, "linear", 1e-3, 0.2)
        rng = np.random.default_rng(12)
        x = 5.0 * rng.standard_normal((4, 24, 2))
        eps_hat = rng.standard_normal(x.shape)
        x0_hat = np.clip((x - np.sqrt(1.0 - s.alpha_bar[0]) * eps_hat) / np.sqrt(s.alpha_bar[0]),
                         -X0_CLIP, X0_CLIP)
        assert np.any(np.abs(x0_hat) == X0_CLIP)
        np.testing.assert_allclose(reverse_step(x, 0, eps_hat, np.zeros_like(x), s), x0_hat, rtol=1e-9)


class TestSample:
    @pytest.fixture(scope="class")
    def setup(self):
        cfg = DenoiserConfig(tau=12, d=2, T=20, model_dim=16, enc_layers=1,
                             dec_layers=1, heads=2, ff_dim=32, fourier_terms=2, trend_degree=3)
        model = Backbone(cfg, seed=0)
        sched = make_schedule(20, "linear", 1e-3, 0.2)
        return model, sched

    def test_deterministic(self, setup):
        model, sched = setup
        a = sample(model, sched, 3, (12, 2), seed=5)
        b = sample(model, sched, 3, (12, 2), seed=5)
        assert a.tobytes() == b.tobytes()

    def test_empty(self, setup):
        model, sched = setup
        out = sample(model, sched, 0, (12, 2), seed=5)
        assert out.shape == (0, 12, 2) and out.dtype == np.float32

    def test_untrained_model_finite_and_shaped(self, setup):
        model, sched = setup
        out = sample(model, sched, 2, (12, 2), seed=9)
        assert out.shape == (2, 12, 2) and out.dtype == np.float32
        assert np.all(np.isfinite(out))

    def test_a_series_keeps_its_bits_among_any_siblings_and_its_value_alone(self):
        # desk widths: at model_dim 64 BLAS multiplies a one-row head product with another kernel
        model = Backbone(RunConfig.from_preset("desk", "pretrain").denoiser_config(24, 2), seed=0)
        rng = np.random.default_rng(0)
        for head in (model.trend_w, model.seas_w, model.res_w):  # zero at init; a briefly trained head's scale
            head.data[...] = rng.normal(0.0, 0.01, head.data.shape)
        sched = make_schedule(20, "linear", 1e-3, 0.2)
        out = {n: sample(model, sched, n, (24, 2), seed=5) for n in (1, 2, 5, 12)}
        for n in (2, 5):
            assert out[n].tobytes() == out[12][:n].tobytes()
        np.testing.assert_allclose(out[1], out[12][:1], rtol=0, atol=1e-6)  # about 2 float32 ulps at X0_CLIP

    def test_denormalization_applied(self, setup, tmp_path, capsys):
        model, sched = setup
        ds = generate_normal(12, 2, 4, seed=3)
        train(ds, Backbone(model.cfg, seed=0), TrainConfig(steps=0, batch_size=2, learning_rate=1e-3,
                                                           warmup_steps=0, seed=0),
              sched, fit_normalizer(ds, "minmax"), checkpoint_dir=str(tmp_path))
        assert main(["generate", "--checkpoint", str(tmp_path / "final.ckpt"), "--n", "2", "--seed", "5",
                     "--out", str(tmp_path / "gen")]) == 0
        capsys.readouterr()
        back, back_sched, norm = restore(load_checkpoint(tmp_path / "final.ckpt"))
        raw = sample(back, back_sched, 2, (12, 2), seed=5)
        out = load_corpus(tmp_path / "gen").values
        assert out.dtype == np.float32 and not np.array_equal(out, raw)
        assert out.tobytes() == norm.unscale(raw).tobytes()
