"""Difference adapter: per-decoder-layer sliding-window attention blocks.

Each block normalizes its input, runs multi-head attention restricted to a
symmetric local window (the shared attention under a band mask, so edge
positions see fewer keys), and projects back through a zero-initialized
output layer, so a fresh stack leaves the backbone's behavior untouched.
Block k receives the backbone tap plus the accumulated raw outputs of blocks
1..k-1, and the stream handed to the next decoder layer is
tap + alpha * block_output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .denoiser import Backbone, ParamGroup, multi_head_attention
from .errors import ContractError


@dataclass
class AdapterConfig:
    window: int = 5
    heads: int = 4
    model_dim: int = 64
    alpha: float = 1.0

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ContractError("window must be an odd positive integer")
        if self.model_dim % self.heads != 0:
            raise ContractError("model_dim must be divisible by heads")
        if not np.isfinite(self.alpha):
            raise ContractError("alpha must be finite")

    def to_dict(self) -> dict:
        return {"window": self.window, "heads": self.heads,
                "model_dim": self.model_dim, "alpha": self.alpha}


def sliding_window_attention(x: Tensor, window: int, heads: int, params: dict) -> Tensor:
    """Local attention over a centered window of width `window`; keeps sequence length.

    `x` is (B, S, D). Full multi-head attention runs under an additive band
    mask: position i attends to key j only where |i - j| <= window//2, so a
    window reaching past either end simply sees fewer keys. The (S, S) score
    matrix makes this O(S^2) rather than O(S * W); at S = 24 that is cheaper
    than gathering windows, but the crossover should be measured before S grows.
    """
    if window % 2 == 0 or window < 1:
        raise ContractError("window must be odd and >= 1")
    _, s, dim = x.shape
    if dim % heads != 0:
        raise ContractError("feature dim must be divisible by heads")
    pos = np.arange(s)
    band = np.where(np.abs(pos[:, None] - pos[None, :]) <= window // 2, 0.0, -1e9)
    return multi_head_attention(x, x, params, heads, mask=band)


class AdapterStack:
    """One adapter block per decoder layer (parameters phi)."""

    def __init__(self, cfg: AdapterConfig, n_blocks: int, seed: int = 0):
        if n_blocks < 1:
            raise ContractError("adapter needs at least one block")
        self.cfg = cfg
        self.alpha = cfg.alpha
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)
        dim = cfg.model_dim
        self.blocks = []
        for k in range(n_blocks):
            g = ParamGroup(self.params, f"adapter{k}")
            block = {"ln": g.norm("ln", dim)}
            for tag in ("q", "k", "v"):
                block[f"w{tag}"], block[f"b{tag}"] = g.linear(f"attn.{tag}", dim, dim, rng)
            block["wo"], block["bo"] = g.linear("attn.o", dim, dim, rng, zero=True)
            self.blocks.append(block)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def block_forward(self, k: int, x: Tensor) -> Tensor:
        blk = self.blocks[k]
        normed = ad.layer_norm(x, *blk["ln"])
        return sliding_window_attention(normed, self.cfg.window, self.cfg.heads, blk)


def adapter_forward(stack: AdapterStack, taps: list[Tensor]):
    """Run the stack over precomputed per-layer states.

    Block k sees taps[k] plus the sum of raw outputs of earlier blocks; the
    updated stream for layer k is taps[k] + alpha * output_k. Returns
    (block outputs, updated taps).
    """
    if len(taps) != len(stack.blocks):
        raise ContractError(f"expected {len(stack.blocks)} taps, got {len(taps)}")
    locals_, updated = [], []
    acc = None
    for k, tap in enumerate(taps):
        local_in = tap if acc is None else tap + acc
        local = stack.block_forward(k, local_in)
        locals_.append(local)
        acc = local if acc is None else acc + local
        updated.append(tap + stack.alpha * local)
    return locals_, updated


class ComposedModel:
    """Frozen backbone plus trainable adapter stack."""

    def __init__(self, backbone: Backbone, stack: AdapterStack):
        self.backbone = backbone
        self.stack = stack
        self.cfg = backbone.cfg

    def forward(self, x_t, t: int):
        return self.backbone.forward(x_t, t, adapter=self.stack)

    def predict_noise(self, x, t: int) -> np.ndarray:
        with ad.no_grad():
            eps_hat, _ = self.forward(x, t)
        return eps_hat.data

    def parameters(self) -> list[Parameter]:
        return self.backbone.parameters() + self.stack.parameters()

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.trainable]

    @property
    def params(self) -> dict[str, Parameter]:
        merged = dict(self.backbone.params)
        merged.update(self.stack.params)
        return merged


def attach(backbone: Backbone, stack: AdapterStack) -> ComposedModel:
    """Freeze the backbone and interleave the adapter after each decoder layer."""
    if stack.cfg.model_dim != backbone.cfg.model_dim:
        raise ContractError(
            f"adapter dim {stack.cfg.model_dim} != backbone dim {backbone.cfg.model_dim}")
    if len(stack.blocks) != backbone.cfg.dec_layers:
        raise ContractError(
            f"adapter has {len(stack.blocks)} blocks, backbone has {backbone.cfg.dec_layers} decoder layers")
    if stack.cfg.window > 2 * backbone.cfg.tau - 1:
        raise ContractError("adapter window exceeds 2*tau - 1")
    backbone.set_trainable(False)
    return ComposedModel(backbone, stack)
