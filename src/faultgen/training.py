"""Losses, optimizer, the training loop, and checkpointing.

Both phases run one loop, `train`, over the parameters the model leaves
trainable: a `Backbone` is pretrained whole, and a model from `attach` trains
only its adapter behind the frozen backbone. `train` scales the raw corpus by
the run's normalizer, trains, and writes the checkpoint whose config header
`_header` derives from what was trained, its phase from the model and its
`config_hash` from the rest. `restore` is the one reader that hands a checkpoint on.
`TrainConfig` and `LossConfig` declare no defaults, since a run's settings
live in the presets of `config.py`.

The fine-tuning objective is the L1 noise-prediction error plus a weighted diversity term over pairs of
in-batch predictions. As literally written, a positive pairwise-distance term would be *minimized* and
shrink diversity, so the implementation negates it (and clamps each pair at `margin` to keep the objective
bounded). The pairs come from the run's own stream, `series_rng(seed, PAIR_STREAM, 0)`, and the batches,
timesteps and noise from `TRAIN_STREAM`'s, so the loss weight moves no other draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .adapter import AdapterConfig, AdapterStack, attach
from .autodiff import Parameter, Tensor
from .data import PAIR_STREAM, TRAIN_STREAM, Dataset, Normalizer, csv_cell, series_rng, write_atomic
from .denoiser import MAX_SCORES, Backbone, DenoiserConfig, attention_batch
from .diffusion import NoiseSchedule, forward_sample, make_schedule
from .errors import CheckpointError, ContractError, DivergenceError, NumericError

CHECKPOINT_MAGIC = b"FDCK"
CHECKPOINT_VERSION = 1
ADAM_BETAS = (0.9, 0.999)  # decay rates of Adam's first and second moments
ADAM_EPS = 1e-8
MAX_BATCH = 1024  # 16 times the paper preset's 64; a desk step's tape over 512 series of tau 24 peaked at 630 MB


@dataclass
class LossConfig:
    weight: float      # lambda in the combined objective
    margin: float      # per-pair distance clamp
    pair_count: int    # sampled prediction pairs per batch

    def __post_init__(self):
        if not (0 <= self.weight < math.inf and 0 < self.margin < math.inf and self.pair_count >= 1):
            raise ContractError(f"loss needs a finite weight >= 0, a finite margin > 0 and pair_count >= 1, got {self}")


@dataclass
class TrainConfig:
    steps: int
    batch_size: int
    learning_rate: float
    warmup_steps: int
    seed: int

    def __post_init__(self):
        if (min(self.steps, self.warmup_steps, self.seed) < 0 or self.batch_size < 1
                or not 0 < self.learning_rate < math.inf):
            raise ContractError(f"train needs steps, warmup_steps and seed >= 0, batch_size >= 1 "
                                f"and a finite learning_rate > 0, got {self}")
        if self.batch_size > MAX_BATCH:
            raise ContractError(f"batch_size must be at most {MAX_BATCH}, got {self.batch_size}")


# ----------------------------------------------------------------------
# losses


def base_loss(eps: Tensor, eps_hat: Tensor) -> Tensor:
    """Mean absolute error between true and predicted noise."""
    if eps.shape != eps_hat.shape:
        raise ContractError(f"eps/eps_hat shape mismatch: {eps.shape} vs {eps_hat.shape}")
    return ad.absolute(eps - eps_hat).mean()


def diversity_loss(preds: Tensor, pair_count: int, margin: float, rng: np.random.Generator) -> Tensor:
    """Negated mean clamped squared distance over `pair_count` prediction pairs `rng` samples (all, if fewer).

    Each pair contributes min(||s_i - s_j||^2 / num_entries, margin); the
    result is the negated mean, so minimizing it pushes predictions apart.
    Always lies in [-margin, 0].
    """
    n = preds.shape[0]
    if n < 2:
        raise ContractError("diversity loss needs a batch of >= 2 predictions")
    first, second = np.triu_indices(n, 1)  # pairs in i-major order
    if pair_count < first.size:
        order = rng.permutation(first.size)[:pair_count]
        first, second = first[order], second[order]
    entries = int(np.prod(preds.shape[1:]))
    diff = ad.take(preds, first) - ad.take(preds, second)
    dist = (diff * diff).sum(axis=tuple(range(1, preds.ndim))) * (1.0 / entries)
    return -ad.minimum(dist, margin).mean()


def total_loss(eps: Tensor, preds: Tensor, cfg: LossConfig, rng: np.random.Generator):
    """Combined objective base + weight * diversity; returns (total, base, diversity) tensors."""
    base = base_loss(eps, preds)
    div = diversity_loss(preds, cfg.pair_count, cfg.margin, rng)
    return base + cfg.weight * div, base, div


# ----------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment gradient descent over trainable parameters.

    Parameters, gradients and both moments live in four flat buffers, and each
    trainable parameter's `data` and `grad` are views into the first two, so
    `step` is one elementwise update through two transient scratch buffers,
    bitwise equal to a per-array loop. Once an optimizer holds a parameter,
    these arrays may only be written in place: a rebound one silently stops training.
    """

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.step_count = 0
        dtypes = {p.data.dtype for p in self.params} or {np.dtype(np.float32)}
        if len(dtypes) > 1:
            raise ContractError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        size, dtype = sum(p.data.size for p in self.params), dtypes.pop()
        self._data, self._grad, self._m, self._v = (np.zeros(size, dtype) for _ in range(4))
        lo = 0
        for p in self.params:
            hi, shape = lo + p.data.size, p.data.shape
            self._data[lo:hi] = p.data.ravel()
            if p.grad is not None:  # a parameter allocates no gradient until one is accumulated
                self._grad[lo:hi] = p.grad.ravel()
            p.data = self._data[lo:hi].reshape(shape)
            p.grad = self._grad[lo:hi].reshape(shape)
            lo = hi

    def zero_grad(self) -> None:
        self._grad.fill(0)

    def step(self, lr_scale: float = 1.0) -> None:
        b1, b2 = ADAM_BETAS
        self.step_count += 1
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        g, m, v = self._grad, self._m, self._v
        s = np.multiply(g, 1 - b1)
        m *= b1
        m += s
        v *= b2
        v += np.multiply(np.multiply(g, 1 - b2, out=s), g, out=s)
        np.sqrt(np.divide(v, c2, out=s), out=s)
        s += ADAM_EPS
        np.divide(m / c1, s, out=s)
        s *= self.lr * lr_scale
        self._data -= s


def check_batch(model, batch_size: int) -> None:
    """Raise ContractError if a training step over `batch_size` series exceeds MAX_SCORES in an attention call."""
    if batch_size > attention_batch(model):
        raise ContractError(f"batch_size must be at most {attention_batch(model)} for series of tau {model.cfg.tau}, "
                            f"so that an attention call holds at most {MAX_SCORES} scores, got {batch_size}")


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
    loss_rows: list = field(default_factory=list, repr=False, compare=False)


def _compact_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """magic FDCK | u16 version | u32 header length | JSON header | float32 LE blobs."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in ckpt.arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(a.shape),
                        "offset": offset, "nbytes": a.nbytes})
        blobs.append(a)
        offset += a.nbytes
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": ckpt.config,
        "step": ckpt.step,
        "arrays": entries,
    }
    hbytes = _compact_json(header)
    prefix = CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(hbytes)) + hbytes
    write_atomic(path, b"".join([prefix, *blobs]))


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
        ckpt = Checkpoint(config=header["config"], arrays={}, step=header["step"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header: {e!r}") from e
    if not isinstance(ckpt.config, dict):
        raise CheckpointError(f"{path}: malformed header: config is a {type(ckpt.config).__name__}, not an object")
    data = raw[10 + hlen:]
    for name, lo, nbytes, shape in entries:
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: malformed header: array name {name!r} is not a string")
        if min(shape, default=0) < 0 or 4 * math.prod(shape) != nbytes:
            raise CheckpointError(f"{path}: shape/size disagreement for {name!r}")
        if lo < 0 or lo + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated data for array {name!r}")
        arr = ckpt.arrays[name] = np.frombuffer(data[lo:lo + nbytes], dtype="<f4").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name!r} holds a non-finite value")
    return ckpt


def _snapshot(model, config: dict, step: int, normalizer: Normalizer) -> Checkpoint:
    """What `restore` needs: the model's parameters, the normalizer and the config."""
    arrays = {name: p.data.astype(np.float32, copy=True) for name, p in model.params.items()}
    arrays["norm.lo"] = normalizer.lo.astype(np.float32, copy=True)
    arrays["norm.hi"] = normalizer.hi.astype(np.float32, copy=True)
    return Checkpoint(config=config, arrays=arrays, step=step)


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the model (backbone, or composed if adapter arrays are present)."""
    try:
        cfg = DenoiserConfig(**ckpt.config["model"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint config lacks a valid model section: {e!r}") from e
    model = backbone = Backbone(cfg)  # its arrays are overwritten below, so no seed matters
    if ckpt.config.get("adapter"):
        try:
            stack = AdapterStack(AdapterConfig(**ckpt.config["adapter"]), backbone.cfg.dec_layers)
            model = attach(backbone, stack)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"checkpoint config has an invalid adapter section: {e!r}") from e
    for name, p in model.params.items():
        if name not in ckpt.arrays:
            raise CheckpointError(f"checkpoint missing array {name!r}")
        arr = ckpt.arrays[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(f"array {name!r} has shape {arr.shape}, model expects {p.data.shape}")
        p.data[...] = arr
    return model


def restore(ckpt: Checkpoint):
    """The model, the noise schedule and the normalizer that a checkpoint hands on to the next step.

    Before it returns, it checks the `diffusion` section, a linear schedule of the model's T (an older header
    also names the kind, `linear`), and the run's record: a `data.normalizer_mode` with one `norm.lo` and
    `norm.hi` value per model channel, a `label` and one name per channel in `channel_names`, each a string
    that one CSV cell holds (`data.csv_cell`), and a string `config_hash`. `sample` returns series in the
    normalizer's scaled space; `normalizer.unscale` maps them back to the corpus's units.
    """
    model = model_from_checkpoint(ckpt)
    d = model.cfg.d
    try:
        section = dict(ckpt.config["diffusion"])
        if section.pop("schedule", "linear") != "linear":  # older headers name the kind, linear or a cosine one
            raise CheckpointError(f"checkpoint names a {ckpt.config['diffusion']['schedule']!r} noise schedule")
        sched = make_schedule(**section)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint config lacks a valid diffusion section: {e!r}") from e
    if sched.T != model.cfg.T:
        raise CheckpointError(f"checkpoint's schedule has {sched.T} timesteps, but its model was built for "
                              f"{model.cfg.T}")
    try:
        data = ckpt.config["data"]
        norm = Normalizer(data["normalizer_mode"], ckpt.arrays["norm.lo"], ckpt.arrays["norm.hi"])
        label, names, config_hash = data["label"], data["channel_names"], ckpt.config["config_hash"]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint lacks a valid normalizer or data section: {e!r}") from e
    if norm.lo.shape != (d,) or norm.hi.shape != (d,):
        raise CheckpointError(f"checkpoint normalizer holds lo {norm.lo.shape} and hi {norm.hi.shape}, "
                              f"but the model has {d} channels")
    if not (csv_cell(label) and isinstance(names, list) and len(names) == d and all(map(csv_cell, names))):
        raise CheckpointError(f"checkpoint data section needs a label and {d} channel names, "
                              f"got {label!r} and {names!r}")
    if not isinstance(config_hash, str):
        raise CheckpointError(f"checkpoint config_hash must be a string, got {config_hash!r}")
    return model, sched, norm


def _write_loss_csv(rows, path) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    lines = [f"{step},{lb!r},{ld!r},{lt!r}\n" for step, lb, ld, lt in rows]
    write_atomic(path, "".join(["step,loss_base,loss_div,loss_total\n", *lines]))


# ----------------------------------------------------------------------
# training loop


def _header(model, data: Dataset, cfg: TrainConfig, sched: NoiseSchedule, loss_cfg: LossConfig | None,
            normalizer: Normalizer) -> dict:
    """A checkpoint's config, derived from what the loop trained; `restore` rebuilds the run from it.
    `config_hash` is the first 16 hex digits of the sha256 of the rest, as `save_checkpoint` serializes it."""
    stack = getattr(model, "stack", None)
    header = {"model": asdict(model.cfg),
              "train": {"phase": "pretrain" if stack is None else "finetune", **asdict(cfg)},
              "adapter": asdict(stack.cfg) if stack is not None else None,
              "diffusion": dict(timesteps=sched.T, beta_start=sched.beta[0].item(), beta_end=sched.beta[-1].item()),
              "data": {"label": data.label, "corpus_id": data.id, "channel_names": list(data.channel_names),
                       "normalizer_mode": normalizer.mode}}
    if loss_cfg is not None:
        header["loss"] = asdict(loss_cfg)
    header["config_hash"] = hashlib.sha256(_compact_json(header)).hexdigest()[:16]
    return header


def train(data: Dataset, model, cfg: TrainConfig, sched: NoiseSchedule, normalizer: Normalizer,
          loss_cfg: LossConfig | None = None, checkpoint_dir=None, log_path=None) -> Checkpoint:
    """Train `model`'s trainable parameters on the raw corpus `data`, scaled by `normalizer`,
    then write the checkpoint and the loss curve.

    The loss is the base loss, plus `loss_cfg`'s weighted diversity term when one is given.
    A model from `attach` trains only its adapter; its backbone's arrays are left byte-identical.
    A step whose loss is non-finite, or whose arithmetic overflows, goes invalid or divides by zero,
    raises `DivergenceError` naming the step. The CLI raises those floating-point errors around every
    command already; this loop raises them itself so that a library caller, too, learns which step diverged.
    """
    if sched.T != model.cfg.T:  # `restore` would refuse the checkpoint
        raise ContractError(f"the schedule has {sched.T} timesteps, but the model was built for {model.cfg.T}")
    check_batch(model, cfg.batch_size)
    opt = Adam(model.params.values(), cfg.learning_rate)
    rng, pairs = series_rng(cfg.seed, TRAIN_STREAM, 0), series_rng(cfg.seed, PAIR_STREAM, 0)
    arr = normalizer.scale(data.values)
    rows = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # an overflowing step diverges, not warns
        for step in range(cfg.steps):
            idx = rng.integers(0, len(arr), cfg.batch_size)
            x0 = arr[idx]
            t = int(rng.integers(0, sched.T))
            eps = rng.standard_normal(x0.shape).astype(np.float32)
            x_t = forward_sample(x0, t, eps, sched)
            try:
                eps_hat = model.forward(x_t, t)
                if loss_cfg is None or loss_cfg.weight == 0:
                    loss = base = base_loss(Tensor(eps), eps_hat)
                    div_val = 0.0
                else:
                    loss, base, div = total_loss(Tensor(eps), eps_hat, loss_cfg, pairs)
                    div_val = div.item()
                lval = loss.item()
                opt.zero_grad()
                loss.backward()
                opt.step(_warmup_scale(step, cfg.warmup_steps))
            except (NumericError, FloatingPointError) as e:
                raise DivergenceError(f"training diverged at step {step}: {e}") from e
            rows.append((step, base.item(), div_val, lval))
    header = _header(model, data, cfg, sched, loss_cfg, normalizer)
    final = _snapshot(model, header, cfg.steps, normalizer)
    final.loss_rows = rows
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        save_checkpoint(final, os.path.join(checkpoint_dir, "final.ckpt"))
    if log_path:
        _write_loss_csv(rows, log_path)
    return final
