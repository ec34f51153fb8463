"""The fused Adam, the checkpoint writer and loader, and what a checkpoint holds."""

import ctypes
import dataclasses
import hashlib
import json
import math
import os
import re
import resource
import struct
import tracemalloc

import numpy as np
import pytest

from faultgen import autodiff as ad
from faultgen import training
from faultgen.adapter import AdapterConfig, AdapterStack, attach
from faultgen.autodiff import Parameter
from faultgen.cli import main
from faultgen.config import resolve_config
from faultgen.data import fit_normalizer, generate_normal, load_corpus
from faultgen.denoiser import MAX_SCORES, Backbone, DenoiserConfig
from faultgen.diffusion import forward_sample, make_schedule
from faultgen.errors import CheckpointError, ContractError
from faultgen.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Adam,
    Checkpoint,
    LossConfig,
    TrainConfig,
    _write_loss_csv,
    diversity_loss,
    load_checkpoint,
    restore,
    save_checkpoint,
    train,
)

from helpers import fail_writes_midway, first_draws_of_streams, keyed_first_draw, loop_diversity_loss

SHAPES = [(3, 4), (4,), (2, 3, 5), (1,), (7, 2)]
TINY = DenoiserConfig(tau=8, d=2, T=10, model_dim=8, enc_layers=1, dec_layers=1,
                      heads=2, ff_dim=16, fourier_terms=1, trend_degree=3)


class LoopAdam:
    """Reference: the per-array update the fused step must reproduce bit for bit."""

    def __init__(self, arrays, lr, betas=(0.9, 0.999), eps=1e-8):
        self.data = [a.copy() for a in arrays]
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.lr, self.betas, self.eps, self.step_count = lr, betas, eps, 0

    def step(self, grads, lr_scale):
        b1, b2 = self.betas
        self.step_count += 1
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for i, g in enumerate(grads):
            m = self.m[i] = b1 * self.m[i] + (1 - b1) * g
            v = self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            self.data[i] = self.data[i] - (self.lr * lr_scale) * update.astype(self.data[i].dtype)


def _params(rng, dtype, shapes=SHAPES):
    return [Parameter(f"p{i}", rng.normal(0, 1, s).astype(dtype)) for i, s in enumerate(shapes)]


def _assert_bound(opt):
    for p in opt.params:
        assert np.shares_memory(p.data, opt._data)
        assert np.shares_memory(p.grad, opt._grad)


@pytest.mark.parametrize("shapes", [SHAPES, [*SHAPES, (3, 16391)]])  # 61, or 49,234 elements
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_adam_matches_per_array_loop_bitwise(dtype, shapes):
    rng = np.random.default_rng(0)
    params = _params(rng, dtype, shapes)
    assert all(p.data.dtype == np.dtype(dtype) for p in params)
    ref = LoopAdam([p.data for p in params], lr=1e-2)
    opt = Adam(params, lr=1e-2)
    for scale in (0.2, 0.4, 0.6, 0.8, 0.9):
        opt.zero_grad()
        grads = [(rng.normal(0, 3, p.data.shape) * (rng.random(p.data.shape) > 0.2)).astype(dtype)
                 for p in params]
        for p, g in zip(params, grads):
            p.grad += g
        opt.step(scale)
        ref.step(grads, scale)
    for i, p in enumerate(params):
        assert p.data.dtype == np.dtype(dtype)
        assert np.array_equal(p.data, ref.data[i])
    assert np.array_equal(opt._m, np.concatenate([m.ravel() for m in ref.m]))
    assert np.array_equal(opt._v, np.concatenate([v.ravel() for v in ref.v]))


def test_parameters_stay_views_into_the_optimizer_buffers():
    model = Backbone(TINY, seed=0)
    opt = Adam(model.params.values(), lr=1e-3)
    _assert_bound(opt)
    before = [p.data.copy() for p in opt.params]
    for p in opt.params:
        p.grad += 1.0
    opt.zero_grad()
    _assert_bound(opt)
    assert not np.any(opt._grad)
    for p in opt.params:
        p.grad += 1.0
    opt.step()
    assert all(not np.array_equal(p.data, b) for p, b in zip(opt.params, before))
    _assert_bound(opt)


def test_a_step_leaves_no_array_behind_beyond_the_four_flat_buffers():
    opt = Adam(Backbone(TINY, seed=0).params.values(), lr=1e-3)
    for p in opt.params:
        p.grad += 1.0
    opt.step()
    buffers = [opt._data, opt._grad, opt._m, opt._v]
    held = [a for a in vars(opt).values() if isinstance(a, np.ndarray)]
    assert len(held) == 4 and all(any(a is b for b in buffers) for a in held)
    views = [a for p in opt.params for a in (p.data, p.grad)]
    assert all(any(a.base is b for b in buffers) for a in views)  # scratch kept on a parameter would show here


def test_checkpoint_and_loss_curve_writes_that_fail_midway_leave_the_earlier_files_whole(tmp_path, monkeypatch):
    save_checkpoint(Checkpoint({"run": 1}, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}, step=1),
                    tmp_path / "step.ckpt")
    _write_loss_csv([(0, 1.5, 0.0, 1.5)], tmp_path / "loss_curve.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fail_writes_midway(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(Checkpoint({"run": 2}, {"w": np.ones((40, 40), np.float32)}, step=2),
                        tmp_path / "step.ckpt")
    with pytest.raises(OSError, match="No space"):
        _write_loss_csv([(0, 1.5, 0.0, 1.5), (1, 0.75, 0.0, 0.75)], tmp_path / "loss_curve.csv")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert load_checkpoint(tmp_path / "step.ckpt").step == 1


def _write_raw(path, header: bytes, data: bytes = b""):
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(header)))
        fh.write(header + data)


def _header(path) -> dict:
    raw = path.read_bytes()
    return json.loads(raw[10:10 + struct.unpack("<I", raw[6:10])[0]])


def _oracle_hash(config: dict) -> str:
    """The first 16 hex digits of the sha256 of `config` without its hash, as compact JSON with sorted keys."""
    rest = {key: value for key, value in config.items() if key != "config_hash"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


@pytest.mark.parametrize("mode", ["minmax", "zscore"])
def test_a_pretrain_checkpoint_holds_the_parameters_the_normalizer_and_the_config(tmp_path, mode):
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    norm = fit_normalizer(data, mode)
    model = Backbone(TINY, seed=0)
    names = list(model.params)
    train(data, model, TrainConfig(steps=2, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0),
          make_schedule(TINY.T, 1e-3, 0.2), norm, checkpoint_dir=str(tmp_path))
    path = tmp_path / "final.ckpt"
    assert os.listdir(tmp_path) == ["final.ckpt"]
    ckpt = load_checkpoint(path)
    assert list(ckpt.arrays) == names + ["norm.lo", "norm.hi"]
    header = _header(path)
    assert set(header) == {"format_version", "config", "step", "arrays"}
    assert header["step"] == 2 and "checkpoint_every" not in header["config"]["train"]
    _, _, back = restore(ckpt)
    corpus = {"label": "normal", "corpus_id": "normal-1", "channel_names": ["ch0", "ch1"]}
    assert header["config"]["config_hash"] == _oracle_hash(header["config"])
    assert header["config"]["data"] == {**corpus, "normalizer_mode": mode} and back.mode == mode
    assert back.lo.tobytes() == norm.lo.tobytes() and back.hi.tobytes() == norm.hi.tobytes()


def test_a_library_pretrain_records_the_schedule_it_was_given(tmp_path):
    sched = make_schedule(50, 2e-3, 0.1)
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    train(data, Backbone(dataclasses.replace(TINY, T=50), seed=0),
          TrainConfig(steps=1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0), sched,
          fit_normalizer(data, "minmax"), checkpoint_dir=str(tmp_path))
    ckpt = load_checkpoint(tmp_path / "final.ckpt")
    assert ckpt.config["diffusion"] == {"timesteps": 50, "beta_start": 2e-3, "beta_end": 0.1}
    assert restore(ckpt)[1].beta.tobytes() == sched.beta.tobytes()


def test_train_rejects_a_schedule_of_another_T_than_its_models_before_writing(tmp_path):
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    for T in (TINY.T - 2, TINY.T + 2):
        with pytest.raises(ContractError, match=f"^the schedule has {T} timesteps, but the model was built for 10$"):
            train(data, Backbone(TINY, seed=0),
                  TrainConfig(steps=1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0),
                  make_schedule(T, 1e-3, 0.2), fit_normalizer(data, "minmax"), checkpoint_dir=str(tmp_path / "c"))
    assert not (tmp_path / "c").exists()


def test_train_refuses_a_batch_beyond_the_attention_bound_at_the_most_heads_of_backbone_or_adapter(tmp_path):
    cfg = dataclasses.replace(TINY, tau=128, d=1, T=2)  # 2 backbone heads
    data, sched, tcfg = (generate_normal(128, 1, 2, seed=1), make_schedule(2, 1e-3, 0.2),
                         TrainConfig(steps=0, batch_size=257, learning_rate=1e-3, warmup_steps=0, seed=0))
    backbone = Backbone(cfg, seed=0)
    train(data, backbone, tcfg, sched, fit_normalizer(data, "minmax"))  # 257 x 2 x 128^2 scores fit the bound
    composed = attach(backbone, AdapterStack(AdapterConfig(window=3, heads=8, model_dim=8, alpha=1.0), 1))
    assert MAX_SCORES // (8 * 128**2) == 256
    with pytest.raises(ContractError, match="^batch_size must be at most 256 for series of tau 128, so that an "
                                            f"attention call holds at most {MAX_SCORES} scores, got 257$"):
        train(data, composed, tcfg, sched, fit_normalizer(data, "minmax"), checkpoint_dir=str(tmp_path / "c"))
    assert not (tmp_path / "c").exists()


@pytest.fixture(scope="module")
def tiny_checkpoint():
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    return train(data, Backbone(TINY, seed=0),
                 TrainConfig(steps=1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0),
                 make_schedule(TINY.T, 1e-3, 0.2), fit_normalizer(data, "minmax"))


def _with_diffusion(ckpt, **changes):
    return dataclasses.replace(ckpt, config={**ckpt.config, "diffusion": {**ckpt.config["diffusion"], **changes}})


def test_restore_reads_an_older_header_that_names_the_linear_schedule(tiny_checkpoint):
    # headers written while a cosine kind existed hold "schedule": "linear" beside the three keys
    assert set(tiny_checkpoint.config["diffusion"]) == {"timesteps", "beta_start", "beta_end"}
    older = _with_diffusion(tiny_checkpoint, schedule="linear")
    sched, older_sched = restore(tiny_checkpoint)[1], restore(older)[1]
    assert older_sched.T == sched.T == TINY.T
    for table in ("beta", "alpha", "alpha_bar", "posterior_var"):
        assert getattr(older_sched, table).tobytes() == getattr(sched, table).tobytes(), table


@pytest.mark.parametrize("kind", ["cosine", "bogus", None])
def test_restore_rejects_a_header_that_names_another_schedule(tiny_checkpoint, kind):
    with pytest.raises(CheckpointError, match=f"names a {kind!r} noise schedule"):
        restore(_with_diffusion(tiny_checkpoint, schedule=kind))


@pytest.mark.parametrize("timesteps", [TINY.T - 2, TINY.T + 2])
def test_restore_rejects_a_diffusion_section_of_another_T_than_the_models(tiny_checkpoint, timesteps):
    with pytest.raises(CheckpointError, match=f"schedule has {timesteps} timesteps, but its model was built for 10$"):
        restore(_with_diffusion(tiny_checkpoint, timesteps=timesteps))


def test_train_records_the_phase_of_the_model_it_trained(tmp_path):
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    cfg = TrainConfig(steps=1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0)
    sched, norm = make_schedule(TINY.T, 1e-3, 0.2), fit_normalizer(data, "minmax")
    backbone = Backbone(TINY, seed=0)
    pre = train(data, backbone, cfg, sched, norm)
    stack = AdapterStack(AdapterConfig(window=3, heads=2, model_dim=TINY.model_dim, alpha=1.0), TINY.dec_layers)
    fine = train(data, attach(backbone, stack), cfg, sched, norm,
                 loss_cfg=LossConfig(weight=0.1, margin=1.0, pair_count=2))
    assert pre.config["train"] == {"phase": "pretrain", **dataclasses.asdict(cfg)} and pre.config["adapter"] is None
    assert fine.config["train"] == {"phase": "finetune", **dataclasses.asdict(cfg)} and fine.config["adapter"]
    for config in (pre.config, fine.config):
        assert config["config_hash"] == _oracle_hash(config)


def test_a_models_init_and_its_training_draws_share_no_first_draw(monkeypatch):
    """Backbone init, adapter init, the loop's batches, timesteps and noise, and the diversity pairs take
    streams (seed, role, 0) of roles 3, 4, 5 and 6."""
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    sched, norm = make_schedule(TINY.T, 1e-3, 0.2), fit_normalizer(data, "minmax")

    def build():
        backbone = Backbone(TINY, seed=5)
        stack = AdapterStack(AdapterConfig(window=3, heads=2, model_dim=TINY.model_dim, alpha=1.0), TINY.dec_layers,
                             seed=5)
        train(data, attach(backbone, stack), TrainConfig(steps=1, batch_size=4, learning_rate=1e-3,
                                                          warmup_steps=0, seed=5),
              sched, norm, loss_cfg=LossConfig(weight=0.1, margin=1.0, pair_count=2))

    draws = first_draws_of_streams(monkeypatch, build)
    assert draws == [keyed_first_draw(5, role) for role in (3, 4, 5, 6)] and len(set(draws)) == 4


def test_the_diversity_weight_changes_no_batch_timestep_or_noise_of_a_fine_tune(monkeypatch):
    """The diversity pairs draw from their own stream, so a weight-0 and a weight-0.1 fine-tune noise the same
    batches at the same timesteps with the same noise, step for step."""
    data = generate_normal(TINY.tau, TINY.d, 6, seed=1)
    sched, norm = make_schedule(TINY.T, 1e-3, 0.2), fit_normalizer(data, "minmax")
    seen = []

    def spy(x0, t, eps, schedule):
        seen[-1].append((x0.tobytes(), t, eps.tobytes()))
        return forward_sample(x0, t, eps, schedule)

    monkeypatch.setattr(training, "forward_sample", spy)
    for weight in (0.0, 0.1):
        seen.append([])
        stack = AdapterStack(AdapterConfig(window=3, heads=2, model_dim=TINY.model_dim, alpha=1.0), TINY.dec_layers)
        train(data, attach(Backbone(TINY), stack),
              TrainConfig(steps=5, batch_size=4, learning_rate=1e-3, warmup_steps=0, seed=0),
              sched, norm, loss_cfg=LossConfig(weight=weight, margin=1.0, pair_count=2))
    assert len(seen[0]) == 5 and seen[0] == seen[1]


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(steps=-1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0),
    lambda: TrainConfig(steps=1, batch_size=0, learning_rate=1e-3, warmup_steps=0, seed=0),
    lambda: TrainConfig(steps=1, batch_size=2, learning_rate=0.0, warmup_steps=0, seed=0),
    lambda: TrainConfig(steps=1, batch_size=2, learning_rate=-math.inf, warmup_steps=0, seed=0),
    lambda: TrainConfig(steps=1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=-1),
    lambda: LossConfig(weight=-0.1, margin=1.0, pair_count=8),
    lambda: LossConfig(weight=math.inf, margin=1.0, pair_count=8),
    lambda: LossConfig(weight=0.1, margin=0.0, pair_count=8),
], ids=["negative-steps", "batch-size-0", "learning-rate-0", "learning-rate-minus-inf", "negative-seed",
        "negative-weight", "infinite-weight", "margin-0"])
def test_a_train_or_loss_setting_no_run_can_use_is_a_contract_error(make):
    with pytest.raises(ContractError, match="^(train|loss) needs "):
        make()


TINY_RUN = ["model.model_dim=8", "model.heads=2", "model.enc_layers=1", "model.dec_layers=1",
            "model.ff_dim=16", "model.fourier_terms=1", "diffusion.timesteps=10",
            "train.batch_size=2", "train.warmup_steps=1", "train.pretrain_steps=2"]


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """A tiny normal corpus and a checkpoint pretrained on it for two steps through the CLI."""
    root = tmp_path_factory.mktemp("pretrained")
    assert main(["make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", str(root / "normal")]) == 0
    overrides = [arg for ov in TINY_RUN for arg in ("--override", ov)]
    assert main(["pretrain", "--data", str(root / "normal"), "--out", str(root / "pre"), *overrides]) == 0
    return root


def test_library_pretrain_and_finetune_write_the_clis_checkpoint_bytes(tmp_path):
    normal, fault = str(tmp_path / "normal"), str(tmp_path / "fault")
    assert main(["make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal]) == 0
    assert main(["make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8", "--out", fault]) == 0
    fine_run = ["adapter.heads=2", "adapter.window=3", "train.batch_size=2", "train.warmup_steps=1",
                "train.finetune_steps=2"]
    assert main(["pretrain", "--data", normal, "--seed", "3", "--out", str(tmp_path / "pre"),
                 *[arg for ov in TINY_RUN for arg in ("--override", ov)]]) == 0
    assert main(["finetune", "--data", fault, "--checkpoint", str(tmp_path / "pre" / "checkpoints" / "final.ckpt"),
                 "--seed", "3", "--out", str(tmp_path / "fine"),
                 *[arg for ov in fine_run for arg in ("--override", ov)]]) == 0

    corpus = load_corpus(normal)
    pre = resolve_config("desk", "pretrain", TINY_RUN)
    backbone, sched = Backbone(pre.denoiser_config(corpus.tau, corpus.dim), seed=3), pre.schedule()
    norm = fit_normalizer(corpus, pre.get("data", "normalizer"))
    train(corpus, backbone, pre.train_config(3), sched, norm, checkpoint_dir=str(tmp_path / "lib_pre"))
    fine = resolve_config("desk", "finetune", fine_run)
    model = attach(backbone, AdapterStack(fine.adapter_config(backbone.cfg.model_dim), backbone.cfg.dec_layers, seed=3))
    train(load_corpus(fault), model, fine.train_config(3), sched, norm, fine.loss_config(),
          checkpoint_dir=str(tmp_path / "lib_fine"))
    for stage in ("pre", "fine"):
        cli = (tmp_path / stage / "checkpoints" / "final.ckpt").read_bytes()
        assert (tmp_path / f"lib_{stage}" / "final.ckpt").read_bytes() == cli, stage


def _in_the_older_layout(src, dst):
    """Rewrite `src` as the format-1 writer used to: Adam moments after the parameters, `opt_step`, `rng_state`."""
    ckpt = load_checkpoint(src)
    params = {k: a for k, a in ckpt.arrays.items() if not k.startswith("norm.")}
    moments = {f"opt.{which}.{k}": np.full_like(a, fill) for which, fill in (("m", 0.25), ("v", 0.5))
               for k, a in params.items()}
    norm = {k: a for k, a in ckpt.arrays.items() if k.startswith("norm.")}
    save_checkpoint(Checkpoint(ckpt.config, {**params, **moments, **norm}, step=ckpt.step), dst)
    raw = dst.read_bytes()
    header = _header(dst)
    header.update(opt_step=ckpt.step, rng_state=np.random.default_rng(3).bit_generator.state)
    _write_raw(dst, json.dumps(header, sort_keys=True, separators=(",", ":")).encode(),
               raw[10 + struct.unpack("<I", raw[6:10])[0]:])
    return dst


def test_a_checkpoint_in_the_older_layout_still_loads_and_generates_the_same_series(pretrained, tmp_path):
    current = pretrained / "pre" / "checkpoints" / "final.ckpt"
    older = _in_the_older_layout(current, tmp_path / "older.ckpt")
    assert {"opt_step", "rng_state"} <= set(_header(older))
    outs = [tmp_path / "gen_current", tmp_path / "gen_older"]
    for ckpt, out in zip((current, older), outs):
        assert main(["generate", "--checkpoint", str(ckpt), "--n", "3", "--seed", "4", "--out", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "sample_00002.csv" in names
    for name in names:
        if name != "generation_log.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    logs = [json.loads((out / "generation_log.json").read_text()) for out in outs]
    assert logs[0].pop("checkpoint_sha256") != logs[1].pop("checkpoint_sha256")
    assert logs[0] == logs[1]


def test_checkpoint_every_is_an_unknown_config_key(pretrained, tmp_path, capsys):
    out = tmp_path / "pre"
    assert main(["pretrain", "--data", str(pretrained / "normal"), "--out", str(out),
                 "--override", "train.checkpoint_every=3"]) == 2
    assert "unknown config key train.checkpoint_every" in capsys.readouterr().err
    assert not out.exists()


GOOD_HEADER = {"format_version": CHECKPOINT_VERSION, "config": {}, "step": 0,
               "opt_step": 0, "rng_state": None}


def test_header_that_is_not_an_object_is_a_checkpoint_error(tmp_path):
    _write_raw(tmp_path / "a.ckpt", b"[1, 2]")
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(tmp_path / "a.ckpt")


def test_header_without_arrays_is_a_checkpoint_error(tmp_path):
    _write_raw(tmp_path / "a.ckpt", json.dumps(GOOD_HEADER).encode())
    with pytest.raises(CheckpointError, match="malformed header: KeyError\\('arrays'\\)"):
        load_checkpoint(tmp_path / "a.ckpt")


def test_shape_disagreeing_with_nbytes_is_a_checkpoint_error(tmp_path):
    entry = {"name": "w", "shape": [3, 3], "offset": 0, "nbytes": 16}
    _write_raw(tmp_path / "a.ckpt", json.dumps({**GOOD_HEADER, "arrays": [entry]}).encode(),
               np.zeros(4, dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match="shape/size"):
        load_checkpoint(tmp_path / "a.ckpt")


@pytest.mark.parametrize("name", [["w"], {"w": 1}, 5, None])
def test_an_array_name_that_is_not_a_string_is_a_checkpoint_error(tmp_path, name):
    # a list or an object cannot key the table of arrays, and a number names no parameter
    entry = {"name": name, "shape": [2], "offset": 0, "nbytes": 8}
    _write_raw(tmp_path / "a.ckpt", json.dumps({**GOOD_HEADER, "arrays": [entry]}).encode(),
               np.zeros(2, dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match=re.escape(f"malformed header: array name {name!r} is not a string")):
        load_checkpoint(tmp_path / "a.ckpt")


@pytest.mark.parametrize("n,pair_count,margin", [(8, 8, 1.0), (8, 28, 1.0), (8, 100, 1.0),
                                                 (2, 8, 1.0), (12, 8, 0.3), (64, 8, 1.0)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_diversity_loss_matches_the_per_pair_loop(n, pair_count, margin, dtype):
    """Same sampled pairs, value and gradient as the loop over a Python list of pairs."""
    rng = np.random.default_rng(n + pair_count)
    preds = (rng.standard_normal((n, 6, 2)) * rng.uniform(0.2, 1.5, (n, 1, 1))).astype(dtype)
    out = []
    for loss_fn in (diversity_loss, loop_diversity_loss):
        p = ad.Tensor(preds, requires_grad=True)
        loss = loss_fn(p, pair_count, margin, np.random.default_rng(17))
        loss.backward()
        out.append((loss.data, p.grad))
    (value, grad), (ref_value, ref_grad) = out
    assert value.dtype == dtype
    tol = 4 * np.finfo(dtype).eps
    np.testing.assert_allclose(value, ref_value, rtol=tol, atol=tol)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=tol * max(np.abs(ref_grad).max(), 1e-3))
    assert np.any(grad != 0)


def test_a_training_step_holds_one_graph_so_five_steps_peak_as_high_as_one():
    """Backward consumes each step's tape, so no graph outlives its step into the next forward."""
    cfg = DenoiserConfig(tau=12, d=2, T=20, model_dim=16, enc_layers=1, dec_layers=2,
                         heads=4, ff_dim=32, fourier_terms=2, trend_degree=3)
    data = generate_normal(cfg.tau, cfg.d, 16, seed=3)
    sched, norm = make_schedule(cfg.T, 1e-3, 0.2), fit_normalizer(data, "minmax")
    peaks = []
    for steps in (1, 5):
        model = Backbone(cfg, seed=0)
        tracemalloc.start()
        try:
            train(data, model, TrainConfig(steps=steps, batch_size=8, learning_rate=1e-3, warmup_steps=0, seed=0),
                  sched, norm)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the libc has no mallopt")
def test_once_a_cli_command_has_run_a_training_step_faults_in_no_new_heap(tmp_path, capsys):
    """The CLI keeps freed heap in its process, so each step reuses the pages its predecessor's graph freed:
    20 more steps cost no more page faults, where a trimmed heap faults every step's graph back in."""
    assert main(["make-data", "--kind", "normal", "--n", "4", "--out", str(tmp_path / "normal")]) == 0
    capsys.readouterr()
    pre = resolve_config("desk", "pretrain")
    cfg = pre.denoiser_config(24, 2)
    data = generate_normal(cfg.tau, cfg.d, 16, seed=0)
    sched, norm = pre.schedule(), fit_normalizer(data, "minmax")
    faults = []
    for steps in (5, 25):
        model = Backbone(cfg, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(data, model, TrainConfig(steps=steps, batch_size=8, learning_rate=1e-3, warmup_steps=0, seed=0),
              sched, norm)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[1] - faults[0] < 1000, faults


def test_a_frozen_backbone_holds_no_gradient_array_while_its_adapter_trains():
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    backbone = Backbone(TINY, seed=0)
    stack = AdapterStack(AdapterConfig(window=3, heads=2, model_dim=TINY.model_dim, alpha=1.0), TINY.dec_layers)
    assert all(p.grad is None for p in [*backbone.params.values(), *stack.params.values()])
    opt = Adam(stack.params.values(), lr=1e-3)
    assert not np.any(opt._grad)  # a parameter with no gradient yet starts at zero in the flat buffer
    train(data, attach(backbone, stack), TrainConfig(steps=2, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0),
          make_schedule(TINY.T, 1e-3, 0.2), fit_normalizer(data, "minmax"),
          loss_cfg=LossConfig(weight=0.1, margin=1.0, pair_count=2))
    assert all(p.grad is None for p in backbone.params.values())
    assert all(p.grad is not None for p in stack.params.values())
