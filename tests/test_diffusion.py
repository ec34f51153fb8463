"""Noise schedule tables, forward marginal, reverse step, and sampling."""

import dataclasses
import inspect
import multiprocessing
import os
import time

import numpy as np
import pytest

from faultgen import denoiser, diffusion
from faultgen.cli import main
from faultgen.config import resolve_config
from faultgen.data import MAX_DIM, MAX_SERIES, MAX_TAU, MAX_VALUES, fit_normalizer, generate_normal, load_corpus
from faultgen.denoiser import Backbone, DenoiserConfig
from faultgen.diffusion import (MAX_TIMESTEPS, X0_CLIP, NoiseSchedule, forward_sample, make_schedule, reverse_step,
                                sample)
from faultgen.errors import ContractError, NumericError
from faultgen.training import TrainConfig, load_checkpoint, restore, train

from helpers import staged_reverse_step

CLI_RAISES = {"over": "raise", "invalid": "raise", "divide": "raise"}  # the floating-point errors every command raises


class TestSchedule:
    def test_hand_cumprod(self):
        s = make_schedule(2, 0.1, 0.2)
        np.testing.assert_allclose(s.beta, [0.1, 0.2])
        np.testing.assert_allclose(s.alpha_bar, [0.9, 0.72])

    def test_standard_preset_first_entry(self):
        s = make_schedule(1000, 1e-4, 0.02)
        assert abs(s.alpha_bar[0] - 0.9999) < 1e-12
        # independent cumulative-product oracle
        np.testing.assert_allclose(s.alpha_bar, np.cumprod(1 - np.linspace(1e-4, 0.02, 1000)))

    @pytest.mark.parametrize("T,b0,b1", [(100, 1e-3, 0.2), (1000, 1e-4, 0.02)])
    def test_monotone_and_terminal(self, T, b0, b1):
        s = make_schedule(T, b0, b1)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[-1] < 0.05
        assert np.all((s.beta > 0) & (s.beta < 1))

    def test_posterior_variance_formula(self):
        s = make_schedule(5, 0.1, 0.3)
        for t in range(1, 5):
            expected = s.beta[t] * (1 - s.alpha_bar[t - 1]) / (1 - s.alpha_bar[t])
            assert abs(s.posterior_var[t] - expected) < 1e-12
        assert s.posterior_var[0] == 0.0

    def test_invalid_range(self):
        with pytest.raises(ContractError):
            make_schedule(10, 0.5, 0.2)
        with pytest.raises(ContractError):
            make_schedule(1, 0.1, 0.2)

    @pytest.mark.parametrize("b0", [1e-17, 2.0**-54])
    def test_a_beta_start_that_leaves_1_minus_beta_at_1_is_rejected_before_the_0_over_0(self, b0):
        # 1 - b0 rounds to 1.0, so alpha_bar[0] = 1 and posterior_var[0] would be 0 / 0
        assert 1.0 - b0 == 1.0
        with np.errstate(**CLI_RAISES), pytest.raises(ContractError, match="and 1 - beta_start < 1 in float64"):
            make_schedule(100, b0, 0.2)
        assert make_schedule(100, 2.0**-52, 0.2).alpha_bar[0] < 1.0

    def test_an_alpha_bar_that_underflows_is_rejected(self):
        with np.errstate(**CLI_RAISES), pytest.raises(ContractError, match="strictly decreasing and above 0"):
            make_schedule(3000, 0.5, 0.99)

    @pytest.mark.parametrize("T,b0,b1", [(2, 0.1, 0.2), (100, 1e-3, 0.2), (1000, 1e-4, 0.02), (10, 2.0**-52, 0.5)])
    def test_every_table_entry_is_finite_and_in_range(self, T, b0, b1):
        with np.errstate(**CLI_RAISES):
            s = make_schedule(T, b0, b1)
        assert s.T == T and s.beta[0] == b0 and s.beta[-1] == b1
        assert np.all((s.beta > 0) & (s.beta < 1)) and np.all((s.alpha_bar > 0) & (s.alpha_bar < 1))
        assert np.all(np.isfinite(s.posterior_var)) and np.all(s.posterior_var[1:] > 0)

    @pytest.mark.parametrize("T", [MAX_TIMESTEPS + 1, 10**30])
    def test_a_chain_longer_than_its_bound_is_refused_before_a_table_is_allocated(self, T):
        with pytest.raises(ContractError, match=f"^schedule needs 2 <= T <= {MAX_TIMESTEPS}, got {T}$"):
            make_schedule(T, 1e-4, 0.02)
        with np.errstate(**CLI_RAISES):
            assert make_schedule(MAX_TIMESTEPS, 1e-4, 0.02).T == MAX_TIMESTEPS

    def test_the_schedule_is_linear_only(self):
        assert list(inspect.signature(make_schedule).parameters) == ["timesteps", "beta_start", "beta_end"]
        assert [f.name for f in dataclasses.fields(NoiseSchedule)] == ["T", "beta", "alpha", "alpha_bar",
                                                                       "posterior_var"]


class TestForwardSample:
    def test_zero_noise(self):
        s = make_schedule(10, 0.05, 0.2)
        x0 = np.ones((4, 2), dtype=np.float32)
        out = forward_sample(x0, 3, np.zeros_like(x0), s)
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bar[3]), rtol=1e-6)

    def test_near_identity_at_t0(self):
        s = make_schedule(10, 1e-5, 1e-4)
        x0 = np.full((4, 2), 0.7, dtype=np.float32)
        eps = np.ones_like(x0)
        out = forward_sample(x0, 0, eps, s)
        np.testing.assert_allclose(out, x0, atol=0.01)

    def test_monte_carlo_moments(self):
        # seeded 10^4-draw check of mean and variance against the closed form
        s = make_schedule(100, 1e-3, 0.2)
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
        s = make_schedule(10, 0.05, 0.2)
        with pytest.raises(ContractError):
            forward_sample(np.zeros((4, 2)), 1, np.zeros((4, 3)), s)


class TestReverseStep:
    def test_zero_inputs_reduce_to_scaling(self):
        s = make_schedule(10, 0.05, 0.2)
        x = np.random.default_rng(0).standard_normal((4, 2)).astype(np.float32)
        out = reverse_step(x, 3, np.zeros_like(x), np.zeros_like(x), s)
        np.testing.assert_allclose(out, x / np.sqrt(s.alpha[3]), rtol=1e-6)

    def test_single_step_chain_inverts_forward(self):
        s = make_schedule(2, 0.2, 0.2)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((6, 3))
        eps = rng.standard_normal((6, 3))
        x1 = forward_sample(x0, 0, eps, s)
        back = reverse_step(x1, 0, eps, np.zeros_like(x1), s)
        assert np.max(np.abs(back - x0)) < 1e-5

    def test_shape_preserved_and_t_checked(self):
        s = make_schedule(10, 0.05, 0.2)
        x = np.zeros((4, 2))
        assert reverse_step(x, 5, x, x, s).shape == x.shape
        with pytest.raises(ContractError):
            reverse_step(x, 10, x, x, s)
        with pytest.raises(ContractError):
            reverse_step(x, 0, x, np.ones_like(x), s)

    @pytest.mark.parametrize("T,b0,b1", [(100, 1e-3, 0.2), (1000, 1e-4, 0.02)])
    def test_matches_the_staged_clip_rederive_and_mean(self, T, b0, b1):
        s = make_schedule(T, b0, b1)
        rng = np.random.default_rng(11)
        for t in (T - 1, T // 2, 3, 1, 0):
            x0 = rng.uniform(-2 * X0_CLIP, 2 * X0_CLIP, (8, 24, 2))  # the clip binds on half the entries
            eps_hat = rng.standard_normal(x0.shape)
            x = np.sqrt(s.alpha_bar[t]) * x0 + np.sqrt(1.0 - s.alpha_bar[t]) * eps_hat
            z = rng.standard_normal(x.shape) if t > 0 else np.zeros_like(x)
            expected = staged_reverse_step(x, t, eps_hat, z, s, clip=X0_CLIP)
            got = reverse_step(x, t, eps_hat, z, s)
            assert np.max(np.abs(got - expected)) <= 1e-6 * np.max(np.abs(expected)), (T, t)

    def test_t0_returns_the_clipped_clean_estimate(self):
        s = make_schedule(100, 1e-3, 0.2)
        rng = np.random.default_rng(12)
        x = 5.0 * rng.standard_normal((4, 24, 2))
        eps_hat = rng.standard_normal(x.shape)
        x0_hat = np.clip((x - np.sqrt(1.0 - s.alpha_bar[0]) * eps_hat) / np.sqrt(s.alpha_bar[0]),
                         -X0_CLIP, X0_CLIP)
        assert np.any(np.abs(x0_hat) == X0_CLIP)
        np.testing.assert_allclose(reverse_step(x, 0, eps_hat, np.zeros_like(x), s), x0_hat, rtol=1e-9)


class Spy:
    """A model that calls `see(x)` before each of its noise predictions."""

    def __init__(self, model, see):
        self.model, self.cfg, self.see = model, model.cfg, see

    def predict_noise(self, x, t):
        self.see(x)
        return self.model.predict_noise(x, t)


class TestSample:
    @pytest.fixture(scope="class")
    def setup(self):
        cfg = DenoiserConfig(tau=12, d=2, T=20, model_dim=16, enc_layers=1,
                             dec_layers=1, heads=2, ff_dim=32, fourier_terms=2, trend_degree=3)
        model = Backbone(cfg, seed=0)
        sched = make_schedule(20, 1e-3, 0.2)
        return model, sched

    def test_deterministic(self, setup):
        model, sched = setup
        a = sample(model, sched, 3, seed=5)
        b = sample(model, sched, 3, seed=5)
        assert a.tobytes() == b.tobytes()

    def test_empty(self, setup):
        model, sched = setup
        out = sample(model, sched, 0, seed=5)
        assert out.shape == (0, 12, 2) and out.dtype == np.float32

    def test_untrained_model_finite_and_shaped(self, setup):
        model, sched = setup
        out = sample(model, sched, 2, seed=9)
        assert out.shape == (2, 12, 2) and out.dtype == np.float32
        assert np.all(np.isfinite(out))

    def test_neighbouring_seeds_share_no_sample(self, setup):
        # under `default_rng(seed + i)`, sample i of seed 1 was sample i + 1 of seed 0: 63 of 64 shared
        model, sched = setup
        a, b = (sample(model, sched, 64, seed=s) for s in (0, 1))
        assert len({x.tobytes() for x in a} & {x.tobytes() for x in b}) == 0

    @pytest.fixture(scope="class")
    def desk(self):
        # desk widths: at model_dim 64 BLAS multiplies a one-row head product with another kernel
        model = Backbone(dataclasses.replace(resolve_config("desk", "pretrain").denoiser_config(24, 2), T=20), seed=0)
        rng = np.random.default_rng(0)
        for head in (model.trend_w, model.seas_w, model.res_w):  # zero at init; a briefly trained head's scale
            head.data[...] = rng.normal(0.0, 0.01, head.data.shape)
        return model, make_schedule(20, 1e-3, 0.2)

    def test_a_series_keeps_its_bits_among_any_siblings_and_its_value_alone(self, desk):
        model, sched = desk
        out = {n: sample(model, sched, n, seed=5) for n in (1, 2, 5, 12)}
        for n in (2, 5):
            assert out[n].tobytes() == out[12][:n].tobytes()
        np.testing.assert_allclose(out[1], out[12][:1], rtol=0, atol=1e-6)  # about 2 float32 ulps at X0_CLIP

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n", [4, 5, 13])
    def test_series_sharded_across_cpus_keep_the_bytes_of_a_one_cpu_run(self, desk, monkeypatch, n, cpus):
        model, sched = desk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = sample(model, sched, n, seed=5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert sample(model, sched, n, seed=5).tobytes() == alone.tobytes()

    def test_no_batch_exceeds_the_chunk_and_chunked_series_keep_the_bytes_of_one_batch(self, setup, monkeypatch):
        model, sched = setup
        n = 2 * diffusion.SAMPLE_CHUNK + 3
        rows = []
        spy = Spy(model, lambda x: rows.append(len(x)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        chunked = sample(spy, sched, n, seed=5)
        assert max(rows) <= diffusion.SAMPLE_CHUNK and min(rows) >= 2
        assert sum(rows) == n * sched.T
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert sample(model, sched, n, seed=5).tobytes() == chunked.tobytes()
        monkeypatch.setattr(diffusion, "SAMPLE_CHUNK", n)
        assert sample(model, sched, n, seed=5).tobytes() == chunked.tobytes()

    def test_a_nan_weight_in_the_workers_shard_raises_what_a_one_cpu_run_raises(self, setup, monkeypatch):
        model, sched = setup
        broken = Backbone(model.cfg, seed=0)
        broken.in_w.data[0, 0] = np.nan
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(NumericError) as alone:
            sample(broken, sched, 4, seed=5)
        home = os.getpid()

        def break_in_a_worker(x):
            if os.getpid() != home:  # a forked worker's copy of the model; this process's stays finite
                model_copy.in_w.data[0, 0] = np.nan

        model_copy = Backbone(model.cfg, seed=0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(NumericError) as sharded:
            sample(Spy(model_copy, break_in_a_worker), sched, 4, seed=5)
        assert str(sharded.value) == str(alone.value)
        assert np.isfinite(model_copy.in_w.data[0, 0])

    def test_of_several_failing_shards_the_lowest_ones_error_is_raised(self, setup, monkeypatch):
        model, sched = setup
        home = os.getpid()

        def fail_in_a_worker(x):
            if os.getpid() != home:
                raise ContractError(f"a shard of {len(x)}")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})  # shards of 3, 3 and 2
        with pytest.raises(ContractError, match="^a shard of 3$"):
            sample(Spy(model, fail_in_a_worker), sched, 8, seed=5)

    def test_a_failure_in_this_processs_shard_kills_and_reaps_the_workers(self, setup, monkeypatch):
        model, sched = setup
        home = os.getpid()

        def fail_here_and_stall_there(x):
            if os.getpid() == home:
                raise ContractError("this process's shard")
            time.sleep(60)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        start = time.monotonic()
        with pytest.raises(ContractError, match="^this process's shard$"):
            sample(Spy(model, fail_here_and_stall_there), sched, 4, seed=5)
        assert time.monotonic() - start < 30  # the conftest fixture checks that no worker is left

    def test_a_worker_that_exits_without_a_reply_raises_promptly(self, setup, monkeypatch):
        model, sched = setup
        home = os.getpid()

        def exit_in_a_worker(x):
            if os.getpid() != home:
                os._exit(3)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^a sampling worker ended without a reply"):
            sample(Spy(model, exit_in_a_worker), sched, 4, seed=5)
        assert time.monotonic() - start < 30  # the conftest fixture checks that no worker is left

    def test_a_daemonic_caller_samples_in_process_with_the_one_cpu_bytes(self, desk, monkeypatch):
        model, sched = desk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = sample(model, sched, 5, seed=5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fork = multiprocessing.get_context("fork")
        read, write = fork.Pipe(duplex=False)

        def run():  # a daemonic process may start no process of its own
            try:
                write.send(sample(model, sched, 5, seed=5).tobytes())
            except Exception as e:
                write.send(repr(e))

        proc = fork.Process(target=run, daemon=True)
        proc.start()
        write.close()
        try:
            assert read.poll(60), "the daemonic process sent nothing in 60 s"
            assert read.recv() == alone.tobytes()
        finally:
            proc.kill()  # a no-op once it has exited
            proc.join()
            read.close()

    def test_chunks_hold_at_most_the_series_whose_attention_scores_fit_the_bound(self, setup, monkeypatch):
        model, sched = setup
        n, per_series = 13, model.cfg.heads * model.cfg.tau ** 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        whole = sample(model, sched, n, seed=5)
        for fit, most in [(5, 5), (2, 3), (1, 3), (0, 3)]:  # never a chunk of one series among several
            rows = []
            monkeypatch.setattr(denoiser, "MAX_SCORES", fit * per_series + per_series - 1)
            assert sample(Spy(model, lambda x: rows.append(len(x))), sched, n, seed=5).tobytes() == whole.tobytes()
            assert max(rows) == most and min(rows) >= 2 and sum(rows) == n * sched.T

    def test_a_corpus_beyond_the_value_bound_is_refused_before_a_generator_is_made(self, monkeypatch):
        cfg = DenoiserConfig(tau=MAX_TAU, d=MAX_DIM, T=2, model_dim=8, enc_layers=1, dec_layers=1, heads=2,
                             ff_dim=8, fourier_terms=1, trend_degree=1)
        model, n = Backbone(cfg, seed=0), MAX_VALUES // (MAX_TAU * MAX_DIM) + 1
        monkeypatch.setattr(diffusion, "series_rng", None)  # a generator made first would be a TypeError
        with pytest.raises(ContractError, match=f"^{n} series of {MAX_TAU} steps and {MAX_DIM} channels hold "):
            sample(model, make_schedule(2, 1e-3, 0.2), n, seed=5)

    @pytest.mark.parametrize("n", [MAX_SERIES + 1, 10**8, -1])
    def test_a_series_count_beyond_its_bound_is_refused_before_a_generator_is_made(self, setup, monkeypatch, n):
        model, sched = setup
        monkeypatch.setattr(diffusion, "series_rng", None)  # a generator made first would be a TypeError
        with pytest.raises(ContractError, match=f"^sample needs 0 <= n <= {MAX_SERIES} series, got {n}$"):
            sample(model, sched, n, seed=5)

    @pytest.mark.parametrize("T", [19, 21])
    def test_a_schedule_of_another_T_than_the_models_is_refused(self, setup, T):
        model, _ = setup
        with pytest.raises(ContractError, match=f"schedule has {T} timesteps, but the model was built for 20"):
            sample(model, make_schedule(T, 1e-3, 0.2), 2, seed=5)

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
        raw = sample(back, back_sched, 2, seed=5)
        out = load_corpus(tmp_path / "gen").values
        assert out.dtype == np.float32 and not np.array_equal(out, raw)
        assert out.tobytes() == norm.unscale(raw).tobytes()
