"""Losses, optimizer, pretraining / fine-tuning loops, and checkpointing.

The fine-tuning objective is the L1 noise-prediction error plus a weighted
diversity term over pairs of in-batch predictions. As literally written, a
positive pairwise-distance term would be *minimized* and shrink diversity,
so the implementation negates it (and clamps each pair at `margin` to keep
the objective bounded).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .adapter import AdapterConfig, AdapterStack, attach
from .autodiff import Parameter, Tensor
from .data import Dataset, Normalizer
from .denoiser import Backbone, DenoiserConfig
from .diffusion import NoiseSchedule, forward_sample, make_schedule
from .errors import CheckpointError, ContractError, DivergenceError, NumericError

CHECKPOINT_MAGIC = b"FDCK"
CHECKPOINT_VERSION = 1


@dataclass
class LossConfig:
    weight: float = 0.1      # lambda in the combined objective
    margin: float = 1.0      # per-pair distance clamp
    pair_count: int = 8      # sampled prediction pairs per batch

    def __post_init__(self):
        if self.weight < 0:
            raise ContractError("diversity weight must be >= 0")
        if self.margin <= 0:
            raise ContractError("margin must be > 0")


@dataclass
class TrainConfig:
    phase: str
    steps: int
    batch_size: int
    learning_rate: float
    warmup_steps: int = 0
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.phase not in ("pretrain", "finetune"):
            raise ContractError("phase must be 'pretrain' or 'finetune'")
        if self.steps < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ContractError("steps >= 0, batch_size >= 1, learning_rate > 0 required")


# ----------------------------------------------------------------------
# losses


def base_loss(eps: Tensor, eps_hat: Tensor) -> Tensor:
    """Mean absolute error between true and predicted noise."""
    if eps.shape != eps_hat.shape:
        raise ContractError(f"eps/eps_hat shape mismatch: {eps.shape} vs {eps_hat.shape}")
    return ad.absolute(eps - eps_hat).mean()


def diversity_loss(preds: Tensor, pair_count: int, margin: float, seed: int) -> Tensor:
    """Negated mean clamped squared distance over sampled prediction pairs.

    Each pair contributes min(||s_i - s_j||^2 / num_entries, margin); the
    result is the negated mean, so minimizing it pushes predictions apart.
    Always lies in [-margin, 0].
    """
    n = preds.shape[0]
    if n < 2:
        raise ContractError("diversity loss needs a batch of >= 2 predictions")
    first, second = np.triu_indices(n, 1)  # pairs in i-major order
    if pair_count < first.size:
        order = np.random.default_rng(seed).permutation(first.size)[:pair_count]
        first, second = first[order], second[order]
    entries = int(np.prod(preds.shape[1:]))
    diff = ad.take(preds, first) - ad.take(preds, second)
    dist = (diff * diff).sum(axis=tuple(range(1, preds.ndim))) * (1.0 / entries)
    return -ad.minimum(dist, margin).mean()


def total_loss(eps: Tensor, preds: Tensor, cfg: LossConfig, seed: int = 0):
    """Combined objective base + weight * diversity; returns (total, base, diversity) tensors."""
    base = base_loss(eps, preds)
    div = diversity_loss(preds, cfg.pair_count, cfg.margin, seed)
    return base + cfg.weight * div, base, div


# ----------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment gradient descent over trainable parameters.

    Parameters, gradients and both moments live in four flat buffers: each
    trainable parameter's `data` and `grad`, and `m[name]` and `v[name]`, are
    views into them, so `step` is one elementwise update, bitwise equal to a
    per-array loop. Once an optimizer holds a parameter, these arrays may only
    be written in place: a rebound one silently stops training.
    """

    def __init__(self, params: list[Parameter], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        dtypes = {p.data.dtype for p in self.params} or {ad.default_dtype()}
        if len(dtypes) > 1:
            raise ContractError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        size, dtype = sum(p.data.size for p in self.params), dtypes.pop()
        self._data, self._grad, self._m, self._v = (np.zeros(size, dtype) for _ in range(4))
        self.m, self.v, lo = {}, {}, 0
        for p in self.params:
            hi, shape = lo + p.data.size, p.data.shape
            self._data[lo:hi] = p.data.ravel()
            self._grad[lo:hi] = p.grad.ravel()
            p.data = self._data[lo:hi].reshape(shape)
            p.grad = self._grad[lo:hi].reshape(shape)
            self.m[p.name] = self._m[lo:hi].reshape(shape)
            self.v[p.name] = self._v[lo:hi].reshape(shape)
            lo = hi

    def zero_grad(self) -> None:
        self._grad.fill(0)

    def step(self, lr_scale: float = 1.0) -> None:
        b1, b2 = self.betas
        self.step_count += 1
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        g, m, v = self._grad, self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = np.sqrt(v / c2)
        update += self.eps
        np.divide(m / c1, update, out=update)
        update *= self.lr * lr_scale
        self._data -= update


def _warmup_scale(step: int, warmup: int) -> float:
    if warmup <= 0:
        return 1.0
    return min(1.0, (step + 1) / warmup)


# ----------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    config: dict
    arrays: dict            # name -> float32 ndarray, insertion-ordered
    step: int = 0
    opt_step: int = 0
    rng_state: dict | None = None
    loss_rows: list = field(default_factory=list, repr=False, compare=False)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """magic FDCK | u16 version | u32 header length | JSON header | float32 LE blobs."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in ckpt.arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(a.shape),
                        "offset": offset, "nbytes": a.nbytes})
        blobs.append(a.tobytes())
        offset += a.nbytes
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": ckpt.config,
        "step": ckpt.step,
        "opt_step": ckpt.opt_step,
        "rng_state": ckpt.rng_state,
        "arrays": entries,
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", CHECKPOINT_VERSION, len(hbytes)))
        fh.write(hbytes)
        for b in blobs:
            fh.write(b)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < 10 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version, hlen = struct.unpack("<HI", raw[4:10])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if len(raw) < 10 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[10:10 + hlen].decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    try:
        entries = [(e["name"], int(e["offset"]), int(e["nbytes"]), tuple(int(n) for n in e["shape"]))
                   for e in header["arrays"]]
        ckpt = Checkpoint(config=header["config"], arrays={}, step=header["step"],
                          opt_step=header["opt_step"], rng_state=header["rng_state"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header: {e!r}") from e
    data = raw[10 + hlen:]
    for name, lo, nbytes, shape in entries:
        if min(shape, default=0) < 0 or 4 * math.prod(shape) != nbytes:
            raise CheckpointError(f"{path}: shape/size disagreement for {name!r}")
        if lo < 0 or lo + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated data for array {name!r}")
        ckpt.arrays[name] = np.frombuffer(data[lo:lo + nbytes], dtype="<f4").reshape(shape).copy()
    return ckpt


def _snapshot(model, opt: Adam, rng: np.random.Generator | None,
              config: dict, step: int, normalizer: Normalizer | None) -> Checkpoint:
    arrays = {name: p.data.astype(np.float32, copy=True) for name, p in model.params.items()}
    arrays.update({f"opt.m.{name}": m.astype(np.float32, copy=True) for name, m in opt.m.items()})
    arrays.update({f"opt.v.{name}": v.astype(np.float32, copy=True) for name, v in opt.v.items()})
    if normalizer is not None:
        arrays["norm.lo"] = normalizer.lo.astype(np.float32, copy=True)
        arrays["norm.hi"] = normalizer.hi.astype(np.float32, copy=True)
    state = None
    if rng is not None:
        state = json.loads(json.dumps(rng.bit_generator.state))
    return Checkpoint(config=config, arrays=arrays, step=step,
                      opt_step=opt.step_count, rng_state=state)


def _load_arrays(targets: dict, arrays: dict) -> None:
    """Copy each named checkpoint array into its target in place, keeping `Adam`'s views bound."""
    for name, dst in targets.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint missing array {name!r}")
        arr = arrays[name]
        if tuple(arr.shape) != dst.shape:
            raise CheckpointError(f"array {name!r} has shape {arr.shape}, model expects {dst.shape}")
        dst[...] = arr


def _restore(model, opt: Adam, ckpt: Checkpoint) -> np.random.Generator:
    targets = {name: p.data for name, p in model.params.items()}
    targets.update({f"opt.m.{name}": m for name, m in opt.m.items()})
    targets.update({f"opt.v.{name}": v for name, v in opt.v.items()})
    _load_arrays(targets, ckpt.arrays)
    opt.step_count = ckpt.opt_step
    rng = np.random.default_rng(0)
    if ckpt.rng_state is not None:
        rng.bit_generator.state = ckpt.rng_state
    return rng


def denoiser_config_from_checkpoint(ckpt: Checkpoint) -> DenoiserConfig:
    try:
        return DenoiserConfig(**ckpt.config["model"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint config lacks a valid model section: {e!r}") from e


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the model (backbone, or composed if adapter arrays are present)."""
    backbone = Backbone(denoiser_config_from_checkpoint(ckpt), seed=0)
    model = backbone
    if ckpt.config.get("adapter"):
        try:
            stack = AdapterStack(AdapterConfig(**ckpt.config["adapter"]), backbone.cfg.dec_layers, seed=0)
            model = attach(backbone, stack)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"checkpoint config has an invalid adapter section: {e!r}") from e
    _load_arrays({name: p.data for name, p in model.params.items()}, ckpt.arrays)
    return model


def normalizer_from_checkpoint(ckpt: Checkpoint) -> Normalizer | None:
    if "norm.lo" not in ckpt.arrays:
        return None
    mode = ckpt.config.get("data", {}).get("normalizer_mode", "minmax")
    try:
        return Normalizer(mode, ckpt.arrays["norm.lo"], ckpt.arrays["norm.hi"])
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"checkpoint holds no valid normalizer: {e!r}") from e


def schedule_from_config(diff: dict) -> NoiseSchedule:
    return make_schedule(int(diff["timesteps"]), diff["schedule"],
                         float(diff["beta_start"]), float(diff["beta_end"]))


def schedule_from_checkpoint(ckpt: Checkpoint) -> NoiseSchedule:
    try:
        return schedule_from_config(ckpt.config["diffusion"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint config lacks a valid diffusion section: {e!r}") from e


def _write_loss_csv(rows, path) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("step,loss_base,loss_div,loss_total\n")
        for step, lb, ld, lt in rows:
            fh.write(f"{step},{lb!r},{ld!r},{lt!r}\n")


# ----------------------------------------------------------------------
# training loops


def _run_loop(model, data: Dataset, cfg: TrainConfig, sched: NoiseSchedule,
              loss_cfg: LossConfig | None, config_echo: dict,
              normalizer: Normalizer | None, checkpoint_dir, log_path,
              resume: Checkpoint | None) -> Checkpoint:
    opt = Adam(model.parameters(), cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    start = 0
    if resume is not None:
        rng = _restore(model, opt, resume)
        start = resume.step
        if start > cfg.steps:
            raise CheckpointError(f"resume step {start} beyond configured steps {cfg.steps}")
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    arr = data.as_array()
    n = arr.shape[0]
    rows = []
    for step in range(start, cfg.steps):
        idx = rng.integers(0, n, cfg.batch_size)
        x0 = arr[idx]
        t = int(rng.integers(0, sched.T))
        eps = rng.standard_normal(x0.shape).astype(np.float32)
        x_t = forward_sample(x0, t, eps, sched)
        try:
            eps_hat = model.forward(Tensor(x_t), t)
            if loss_cfg is None or loss_cfg.weight == 0:
                loss = base = base_loss(Tensor(eps), eps_hat)
                div_val = 0.0
            else:
                pair_seed = int(rng.integers(0, 2**31 - 1))
                loss, base, div = total_loss(Tensor(eps), eps_hat, loss_cfg, pair_seed)
                div_val = div.item()
            lval = loss.item()
            if not np.isfinite(lval):
                raise NumericError("loss is non-finite")
            opt.zero_grad()
            loss.backward()
        except NumericError as e:
            raise DivergenceError(f"training diverged at step {step}: {e}") from e
        opt.step(_warmup_scale(step, cfg.warmup_steps))
        rows.append((step, base.item(), div_val, lval))
        if checkpoint_dir and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0 and (step + 1) < cfg.steps:
            snap = _snapshot(model, opt, rng, config_echo, step + 1, normalizer)
            save_checkpoint(snap, os.path.join(checkpoint_dir, f"step_{step + 1:06d}.ckpt"))
    final = _snapshot(model, opt, rng, config_echo, cfg.steps, normalizer)
    final.loss_rows = rows
    if checkpoint_dir:
        save_checkpoint(final, os.path.join(checkpoint_dir, "final.ckpt"))
    if log_path:
        _write_loss_csv(rows, log_path)
    return final


def pretrain(normal: Dataset, cfg: TrainConfig, model: Backbone, sched: NoiseSchedule,
             normalizer: Normalizer | None = None, config_echo: dict | None = None,
             checkpoint_dir=None, log_path=None, resume: Checkpoint | None = None) -> Checkpoint:
    """Train all backbone parameters on normal data with the base loss only."""
    if cfg.phase != "pretrain":
        raise ContractError("pretrain called with a non-pretrain config")
    echo = config_echo or {}
    echo = {**echo, "model": asdict(model.cfg), "train": asdict(cfg), "adapter": echo.get("adapter")}
    echo.setdefault("diffusion", {"timesteps": sched.T, "schedule": sched.kind,
                                  "beta_start": float(sched.beta[0]), "beta_end": float(sched.beta[-1])})
    return _run_loop(model, normal, cfg, sched, None, echo, normalizer,
                     checkpoint_dir, log_path, resume)


def finetune(fault: Dataset, base: Checkpoint, cfg: TrainConfig, loss_cfg: LossConfig,
             adapter_cfg: AdapterConfig, data_info: dict | None = None,
             checkpoint_dir=None, log_path=None, resume: Checkpoint | None = None,
             config_hash: str = "") -> Checkpoint:
    """Attach a fresh adapter stack to a frozen pretrained backbone and train it.

    Only adapter parameters receive updates; backbone arrays in the returned
    checkpoint are byte-identical to those in `base`. The checkpoint records
    `config_hash` (the fine-tuning run's own), never the pretrain run's.
    """
    if len(fault) < 2:
        raise ContractError("fine-tuning needs at least 2 fault samples")
    if cfg.phase != "finetune":
        raise ContractError("finetune called with a non-finetune config")
    if base.config.get("adapter"):
        raise CheckpointError("finetune expects a backbone-only (pretrain) checkpoint")
    backbone = model_from_checkpoint(base)
    model = attach(backbone, AdapterStack(adapter_cfg, backbone.cfg.dec_layers, seed=cfg.seed))
    sched = schedule_from_checkpoint(base)
    normalizer = normalizer_from_checkpoint(base)
    echo = dict(base.config)
    echo["config_hash"] = config_hash
    echo["adapter"] = asdict(adapter_cfg)
    echo["train"] = asdict(cfg)
    echo["loss"] = asdict(loss_cfg)
    if data_info:
        echo["data"] = {**echo.get("data", {}), **data_info}
    return _run_loop(model, fault, cfg, sched, loss_cfg, echo, normalizer,
                     checkpoint_dir, log_path, resume)
