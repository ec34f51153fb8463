"""Difference adapter: per-decoder-layer sliding-window attention blocks.

Each block normalizes its input, runs multi-head attention restricted to a
symmetric local window (the shared attention under a band mask, so edge
positions see fewer keys), and projects back through a zero-initialized
output layer, so a fresh stack leaves the backbone's behavior untouched.
`AdapterStack.interleave` runs block k after decoder layer k: the block reads
that layer's output plus the summed raw outputs of the blocks before it, and
the stream handed to the next decoder layer is layer_output + alpha * block_output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import ADAPTER_STREAM, series_rng
from .denoiser import Backbone, ParamGroup, multi_head_attention
from .errors import ContractError


@dataclass
class AdapterConfig:
    window: int
    heads: int
    model_dim: int
    alpha: float

    def __post_init__(self):
        if not all(type(v) is int for v in (self.window, self.heads, self.model_dim)):  # bool is an int subclass
            raise ContractError(f"window, heads and model_dim must each be an int, got {self}")
        if self.window < 1 or self.window % 2 == 0:
            raise ContractError("window must be an odd positive integer")
        if min(self.model_dim, self.heads) < 1:
            raise ContractError(f"need model_dim and heads >= 1, got {self}")
        if self.model_dim % self.heads != 0:
            raise ContractError("model_dim must be divisible by heads")
        if not np.isfinite(self.alpha):
            raise ContractError("alpha must be finite")


@lru_cache(maxsize=None)
def _band_mask(s: int, window: int, dtype) -> np.ndarray:
    """Additive (s, s) mask, built once per shape: 0 where |i - j| <= window//2, else -1e9."""
    return np.where(np.abs(np.arange(s)[:, None] - np.arange(s)) <= window // 2, 0.0, -1e9).astype(dtype)


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
    return multi_head_attention(x, x, params, heads, mask=_band_mask(x.shape[1], window, x.dtype))


class AdapterStack:
    """One adapter block per decoder layer (parameters phi)."""

    def __init__(self, cfg: AdapterConfig, n_blocks: int, seed: int = 0):
        if n_blocks < 1:
            raise ContractError("adapter needs at least one block")
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}
        rng = series_rng(seed, ADAPTER_STREAM, 0)
        dim = cfg.model_dim
        self.blocks = []
        for k in range(n_blocks):
            g = ParamGroup(self.params, f"adapter{k}")
            block = {"ln": g.norm("ln", dim), **g.attention("attn", dim, rng)}
            block["wo"].data.fill(0)  # a zero output projection: a fresh adapter adds exactly nothing
            self.blocks.append(block)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def block_forward(self, k: int, x: Tensor) -> Tensor:
        blk = self.blocks[k]
        normed = ad.layer_norm(x, *blk["ln"])
        return sliding_window_attention(normed, self.cfg.window, self.cfg.heads, blk)

    def interleave(self, k: int, h: Tensor, acc: Tensor | None) -> tuple[Tensor, Tensor]:
        """Run block k on decoder layer k's output `h`; returns (stream, acc).

        The block reads h + acc, where `acc` sums the raw outputs of blocks
        before k (None before the first block); the stream for the next decoder
        layer is h + alpha * output, and the returned acc includes this output.
        """
        local = self.block_forward(k, h if acc is None else h + acc)
        acc = local if acc is None else acc + local
        return h + self.cfg.alpha * local, acc


class ComposedModel:
    """Frozen backbone plus trainable adapter stack."""

    def __init__(self, backbone: Backbone, stack: AdapterStack):
        self.backbone = backbone
        self.stack = stack
        self.cfg = backbone.cfg

    def forward(self, x_t, t: int) -> Tensor:
        return self.backbone.forward(x_t, t, adapter=self.stack)

    predict_noise = Backbone.predict_noise

    def parameters(self) -> list[Parameter]:
        return self.backbone.parameters() + self.stack.parameters()

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
