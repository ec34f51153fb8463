"""The fused Adam, the checkpoint writer and loader, and what a checkpoint holds."""

import dataclasses
import json
import math
import os
import struct

import numpy as np
import pytest

from faultgen import autodiff as ad
from faultgen.adapter import AdapterConfig, AdapterStack, attach
from faultgen.autodiff import Parameter
from faultgen.cli import main
from faultgen.config import resolve_config
from faultgen.data import fit_normalizer, generate_normal, load_corpus
from faultgen.denoiser import Backbone, DenoiserConfig
from faultgen.diffusion import make_schedule
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

from helpers import fail_writes_midway, loop_diversity_loss

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


def _params(rng):
    return [Parameter(f"p{i}", rng.normal(0, 1, s)) for i, s in enumerate(SHAPES)]


def _assert_bound(opt):
    for p in opt.params:
        assert np.shares_memory(p.data, opt._data)
        assert np.shares_memory(p.grad, opt._grad)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_adam_matches_per_array_loop_bitwise(dtype):
    rng = np.random.default_rng(0)
    with ad.precision(dtype):
        params = _params(rng)
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
    opt = Adam(model.parameters(), lr=1e-3)
    _assert_bound(opt)
    before = [p.data.copy() for p in opt.params]
    for p in opt.params:
        p.grad += 1.0
    opt.zero_grad()
    _assert_bound(opt)
    assert not np.any(opt._grad)
    opt.params[0].zero_grad()
    _assert_bound(opt)
    for p in opt.params:
        p.grad += 1.0
    opt.step()
    assert all(not np.array_equal(p.data, b) for p, b in zip(opt.params, before))
    _assert_bound(opt)


def test_a_step_leaves_no_array_behind_beyond_the_four_flat_buffers():
    opt = Adam(Backbone(TINY, seed=0).parameters(), lr=1e-3)
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


@pytest.mark.parametrize("mode", ["minmax", "zscore"])
def test_a_pretrain_checkpoint_holds_the_parameters_the_normalizer_and_the_config(tmp_path, mode):
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    norm = fit_normalizer(data, mode)
    model = Backbone(TINY, seed=0)
    names = list(model.params)
    train(data, model, TrainConfig(steps=2, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0),
          make_schedule(TINY.T, "linear", 1e-3, 0.2), norm, checkpoint_dir=str(tmp_path))
    path = tmp_path / "final.ckpt"
    assert os.listdir(tmp_path) == ["final.ckpt"]
    ckpt = load_checkpoint(path)
    assert list(ckpt.arrays) == names + ["norm.lo", "norm.hi"]
    header = _header(path)
    assert set(header) == {"format_version", "config", "step", "arrays"}
    assert header["step"] == 2 and "checkpoint_every" not in header["config"]["train"]
    _, _, back = restore(ckpt)
    corpus = {"label": "normal", "corpus_id": "normal-1", "channel_names": ["ch0", "ch1"]}
    assert header["config"]["config_hash"] == ""
    assert header["config"]["data"] == {**corpus, "normalizer_mode": mode} and back.mode == mode
    assert back.lo.tobytes() == norm.lo.tobytes() and back.hi.tobytes() == norm.hi.tobytes()


def test_a_library_pretrain_records_the_schedule_it_was_given(tmp_path):
    sched = make_schedule(50, "cosine", 1e-3, 0.2)
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    train(data, Backbone(dataclasses.replace(TINY, T=50), seed=0),
          TrainConfig(steps=1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0), sched,
          fit_normalizer(data, "minmax"), checkpoint_dir=str(tmp_path))
    ckpt = load_checkpoint(tmp_path / "final.ckpt")
    assert ckpt.config["diffusion"] == {"timesteps": 50, "schedule": "cosine", "beta_start": 1e-3, "beta_end": 0.2}
    assert restore(ckpt)[1].beta.tobytes() == sched.beta.tobytes()


def test_train_records_the_phase_of_the_model_it_trained(tmp_path):
    data = generate_normal(TINY.tau, TINY.d, 4, seed=1)
    cfg = TrainConfig(steps=1, batch_size=2, learning_rate=1e-3, warmup_steps=0, seed=0)
    sched, norm = make_schedule(TINY.T, "linear", 1e-3, 0.2), fit_normalizer(data, "minmax")
    backbone = Backbone(TINY, seed=0)
    pre = train(data, backbone, cfg, sched, norm)
    stack = AdapterStack(AdapterConfig(window=3, heads=2, model_dim=TINY.model_dim, alpha=1.0), TINY.dec_layers)
    fine = train(data, attach(backbone, stack), cfg, sched, norm,
                 loss_cfg=LossConfig(weight=0.1, margin=1.0, pair_count=2))
    assert pre.config["train"] == {"phase": "pretrain", **dataclasses.asdict(cfg)} and pre.config["adapter"] is None
    assert fine.config["train"] == {"phase": "finetune", **dataclasses.asdict(cfg)} and fine.config["adapter"]


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
    pre = resolve_config("desk", "pretrain", 3, None, TINY_RUN)
    backbone, sched = Backbone(pre.denoiser_config(corpus.tau, corpus.dim), seed=3), pre.schedule()
    norm = fit_normalizer(corpus, pre.get("data", "normalizer"))
    train(corpus, backbone, pre.train_config(), sched, norm,
          checkpoint_dir=str(tmp_path / "lib_pre"), config_hash=pre.hash())
    fine = resolve_config("desk", "finetune", 3, None, fine_run)
    fine.record("model", pre.sections["model"])  # what a finetune takes from its checkpoint
    fine.record("diffusion", sched.config())
    model = attach(backbone, AdapterStack(fine.adapter_config(), backbone.cfg.dec_layers, seed=3))
    train(load_corpus(fault), model, fine.train_config(), sched, norm, fine.loss_config(),
          checkpoint_dir=str(tmp_path / "lib_fine"), config_hash=fine.hash())
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


@pytest.mark.parametrize("n,pair_count,margin", [(8, 8, 1.0), (8, 28, 1.0), (8, 100, 1.0),
                                                 (2, 8, 1.0), (12, 8, 0.3), (64, 8, 1.0)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_diversity_loss_matches_the_per_pair_loop(n, pair_count, margin, dtype):
    """Same sampled pairs, value and gradient as the loop over a Python list of pairs."""
    rng = np.random.default_rng(n + pair_count)
    preds = (rng.standard_normal((n, 6, 2)) * rng.uniform(0.2, 1.5, (n, 1, 1))).astype(dtype)
    out = []
    with ad.precision(dtype):
        for loss_fn in (diversity_loss, loop_diversity_loss):
            p = ad.Tensor(preds, requires_grad=True)
            loss = loss_fn(p, pair_count, margin, seed=17)
            loss.backward()
            out.append((loss.data, p.grad))
    (value, grad), (ref_value, ref_grad) = out
    assert value.dtype == dtype
    tol = 4 * np.finfo(dtype).eps
    np.testing.assert_allclose(value, ref_value, rtol=tol, atol=tol)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=tol * max(np.abs(ref_grad).max(), 1e-3))
    assert np.any(grad != 0)
