"""Transformer encoder-decoder noise-prediction backbone.

Every layer adds the timestep vector, then runs a list of pre-norm sublayers,
each h = h + f(LN(h)) (Xiong et al., 2020): an encoder layer self-attends, then
feeds forward; a decoder layer also cross-attends to the encoder output between.
The decoder's final state feeds three heads whose outputs sum to the noise
estimate: a polynomial trend, a Fourier seasonal component, and a
per-position linear residual. All heads start at zero so a fresh model
predicts exactly zero noise. `forward` takes an optional adapter stack and
interleaves its blocks after the decoder layers, behind the frozen backbone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import BACKBONE_STREAM, MAX_DIM, MAX_TAU, series_rng
from .errors import ContractError, NumericError

# the widest model_dim and ff_dim: 16 times the presets' model_dim (64) and 8 times their ff_dim (128). A
# desk-depth model with both this wide holds 62M parameters, which Adam's four flat buffers make 1 GB.
MAX_WIDTH = 1024
# the deepest encoder or decoder stack: 8 times the presets' 4 decoder layers. A desk-width model this deep in both
# holds 2.7M parameters, and its training step over 8 series of tau 24 took 0.18 s, against 0.03 s at 4 and 4.
MAX_LAYERS = 32
MAX_SCORES = 1 << 25  # batch x heads x tau^2 of an attention call: a desk step over 8 series of MAX_TAU, 128 MiB


@dataclass
class DenoiserConfig:
    tau: int
    d: int
    T: int
    model_dim: int
    enc_layers: int
    dec_layers: int
    heads: int
    ff_dim: int
    fourier_terms: int
    trend_degree: int

    def __post_init__(self):
        if not all(type(v) is int for v in vars(self).values()):  # bool is an int subclass
            raise ContractError(f"every field must be an int, got {self}")
        if min(self.model_dim, self.heads, self.ff_dim, self.fourier_terms) < 1 or self.trend_degree < 0:
            raise ContractError(f"need model_dim, heads, ff_dim, fourier_terms >= 1 and trend_degree >= 0, got {self}")
        if self.model_dim % self.heads != 0:
            raise ContractError("model_dim must be divisible by heads")
        if not (1 <= self.enc_layers <= MAX_LAYERS and 1 <= self.dec_layers <= MAX_LAYERS):
            raise ContractError(f"enc_layers and dec_layers must be from 1 to {MAX_LAYERS}, "
                                f"got {self.enc_layers} and {self.dec_layers}")
        if not (2 <= self.tau <= MAX_TAU and 1 <= self.d <= MAX_DIM) or self.T < 1:
            raise ContractError(f"need 2 <= tau <= {MAX_TAU}, 1 <= d <= {MAX_DIM} and T >= 1, "
                                f"got {self.tau}, {self.d} and {self.T}")
        if max(self.model_dim, self.ff_dim) > MAX_WIDTH:
            raise ContractError(f"model_dim and ff_dim must be at most {MAX_WIDTH}, "
                                f"got {self.model_dim} and {self.ff_dim}")
        # on tau points, degree tau and up is a sum of lower degrees, and frequency k > tau/2 is frequency tau - k
        if self.trend_degree >= self.tau or self.fourier_terms > self.tau // 2:
            raise ContractError(f"need trend_degree < tau and fourier_terms <= tau // 2 for tau={self.tau}, "
                                f"got {self.trend_degree} and {self.fourier_terms}")


def timestep_embed(t: int, model_dim: int) -> np.ndarray:
    """Sinusoidal embedding of a diffusion step; norm is bounded by sqrt(model_dim)."""
    if t < 0:
        raise ContractError("timestep must be >= 0")
    half = model_dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    ang = t * freqs
    emb = np.concatenate([np.sin(ang), np.cos(ang)])
    if model_dim % 2:
        emb = np.concatenate([emb, [0.0]])
    return emb.astype(np.float32)


def position_encoding(tau: int, model_dim: int) -> np.ndarray:
    pos = np.arange(tau)[:, None]
    i = np.arange(model_dim)[None, :]
    ang = pos / np.power(10000.0, (2 * (i // 2)) / model_dim)
    pe = np.where(i % 2 == 0, np.sin(ang), np.cos(ang))
    return pe.astype(np.float32)


def trend_basis(tau: int, degree: int) -> np.ndarray:
    """(tau, degree+1) polynomial basis on normalized time in [0, 1]; column 0 is ones."""
    t = np.arange(tau) / max(tau - 1, 1)
    return np.stack([t**p for p in range(degree + 1)], axis=1).astype(np.float32)


def fourier_basis(tau: int, terms: int) -> np.ndarray:
    """(tau, 2*terms) basis of whole-period cosines and sines (zero column means)."""
    t = np.arange(tau) / tau
    cols = []
    for k in range(1, terms + 1):
        cols.append(np.cos(2.0 * np.pi * k * t))
        cols.append(np.sin(2.0 * np.pi * k * t))
    return np.stack(cols, axis=1).astype(np.float32)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out)).astype(np.float32)


class ParamGroup:
    """Registers named parameters into a shared ordered dict."""

    def __init__(self, registry: dict, prefix: str):
        self._registry = registry
        self._prefix = prefix

    def add(self, name: str, data) -> Parameter:
        full = f"{self._prefix}.{name}" if self._prefix else name
        p = Parameter(full, data)
        self._registry[full] = p
        return p

    def linear(self, name: str, fan_in: int, fan_out: int, rng, zero: bool = False):
        if zero:
            w = np.zeros((fan_in, fan_out), dtype=np.float32)
        else:
            w = _glorot(rng, fan_in, fan_out)
        b = np.zeros(fan_out, dtype=np.float32)
        return self.add(f"{name}.w", w), self.add(f"{name}.b", b)

    def norm(self, name: str, dim: int):
        g = self.add(f"{name}.g", np.ones(dim, dtype=np.float32))
        b = self.add(f"{name}.b", np.zeros(dim, dtype=np.float32))
        return g, b

    def attention(self, name: str, dim: int, rng):
        p = {}
        for tag in ("wq", "wk", "wv", "wo"):
            p[tag], p[tag.replace("w", "b")] = self.linear(f"{name}.{tag[1]}", dim, dim, rng)
        return p

    def pre_norm_layer(self, attentions: tuple[str, ...], dim: int, ff_dim: int, rng) -> list:
        """A layer's (norm, kind, params) sublayers: an attention per name, self then cross, then feed-forward.
        Each norm (ln1, ln2, ...) registers just before its sublayer, so names and draws follow the layer."""
        layer = [(self.norm(f"ln{i + 1}", dim), ("self", "cross")[i], self.attention(name, dim, rng))
                 for i, name in enumerate(attentions)]
        ln = self.norm(f"ln{len(attentions) + 1}", dim)
        ff = self.linear("ff1", dim, ff_dim, rng) + self.linear("ff2", ff_dim, dim, rng)
        return layer + [(ln, "ff", dict(zip(("w1", "b1", "w2", "b2"), ff)))]


def multi_head_attention(q_in: Tensor, kv_in: Tensor, p: dict, heads: int,
                         mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with q/k/v/output projections (`ad.attention`).

    `p` holds the projections as `wq, bq, wk, bk, wv, bv, wo, bo`; `mask` is
    an optional additive (sq, sk) array added to every head's scores before
    the softmax (0 keeps a key, a large negative drops it).
    """
    return ad.attention(q_in, kv_in, p["wq"], p["bq"], p["wk"], p["bk"], p["wv"], p["bv"],
                        p["wo"], p["bo"], heads, mask)


def attention_batch(model) -> int:
    """The most series one forward of `model` may run within MAX_SCORES, at its attentions' most heads."""
    heads = max(model.cfg.heads, model.stack.cfg.heads if hasattr(model, "stack") else 1)
    return MAX_SCORES // (heads * model.cfg.tau ** 2)


def feed_forward(x: Tensor, p: dict) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 as one tape node (`ad.feed_forward`)."""
    return ad.feed_forward(x, p["w1"], p["b1"], p["w2"], p["b2"])


class Backbone:
    """The pretrained noise-prediction network (parameters theta)."""

    def __init__(self, cfg: DenoiserConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}
        rng = series_rng(seed, BACKBONE_STREAM, 0)
        D = cfg.model_dim
        root = ParamGroup(self.params, "backbone")

        self.in_w, self.in_b = root.linear("in_proj", cfg.d, D, rng)
        self.t_w, self.t_b = root.linear("t_proj", D, D, rng)

        self.enc = [ParamGroup(self.params, f"backbone.enc{k}").pre_norm_layer(("attn",), D, cfg.ff_dim, rng)
                    for k in range(cfg.enc_layers)]
        self.enc_ln = root.norm("enc_ln", D)
        self.dec = [ParamGroup(self.params, f"backbone.dec{k}").pre_norm_layer(("self", "cross"), D, cfg.ff_dim, rng)
                    for k in range(cfg.dec_layers)]
        self.final_ln = root.norm("final_ln", D)

        n_trend = cfg.trend_degree + 1
        heads = ParamGroup(self.params, "backbone.head")
        self.trend_w, self.trend_b = heads.linear("trend", D, n_trend * cfg.d, rng, zero=True)
        self.seas_w, self.seas_b = heads.linear("seasonal", D, 2 * cfg.fourier_terms * cfg.d, rng, zero=True)
        self.res_w, self.res_b = heads.linear("residual", D, cfg.d, rng, zero=True)

        self._poly = Tensor(trend_basis(cfg.tau, cfg.trend_degree))
        self._fourier = Tensor(fourier_basis(cfg.tau, cfg.fourier_terms))
        self._pe = Tensor(position_encoding(cfg.tau, cfg.model_dim))

    # -- parameter access -----------------------------------------------
    def set_trainable(self, flag: bool) -> None:
        for p in self.params.values():
            p.requires_grad = flag

    # -- forward ----------------------------------------------------------
    def _timestep_vector(self, t: int) -> Tensor:
        emb = Tensor(timestep_embed(t, self.cfg.model_dim)[None, :])
        return (emb @ self.t_w + self.t_b).reshape((self.cfg.model_dim,))

    def _layer(self, h: Tensor, layer: list, te: Tensor, memory: Tensor | None = None) -> Tensor:
        """h + te, then h = h + f(LN(h)) for each sublayer; cross-attention reads `memory`."""
        h = h + te
        for norm, kind, p in layer:
            n = ad.layer_norm(h, *norm)
            if kind == "ff":
                h = h + feed_forward(n, p)
            else:
                h = h + multi_head_attention(n, n if kind == "self" else memory, p, self.cfg.heads)
        return h

    def forward(self, x_t, t: int, adapter=None) -> Tensor:
        """Noise prediction for a (batch, tau, d) array `x_t` at step `t`, cast to the parameters' dtype.

        An adapter stack, when given, runs after every decoder layer
        (`AdapterStack.interleave`).
        """
        cfg = self.cfg
        if not 0 <= t < cfg.T:
            raise ContractError(f"t={t} outside [0, {cfg.T})")
        x = Tensor(np.asarray(x_t, dtype=self.in_w.dtype))
        if x.ndim != 3 or x.shape[1] != cfg.tau or x.shape[2] != cfg.d:
            raise ContractError(f"expected (batch, {cfg.tau}, {cfg.d}) input, got {x.shape}")

        te = self._timestep_vector(t)
        base = x @ self.in_w + self.in_b + self._pe

        h = base
        for k, layer in enumerate(self.enc):
            try:
                h = self._layer(h, layer, te)
            except NumericError as e:
                raise NumericError(f"encoder layer {k}: {e}") from e
        enc_out = ad.layer_norm(h, *self.enc_ln)

        h = base
        acc = None
        for k, layer in enumerate(self.dec):
            try:
                h = self._layer(h, layer, te, enc_out)
                if adapter is not None:
                    h, acc = adapter.interleave(k, h, acc)
            except NumericError as e:
                raise NumericError(f"decoder layer {k}: {e}") from e

        H = ad.layer_norm(h, *self.final_ln)
        trend, seasonal, residual = self.decompose(H)
        return trend + seasonal + residual

    def decompose(self, h: Tensor):
        """Split a (batch, tau, model_dim) final decoder state into (trend, seasonal, residual) parts."""
        cfg = self.cfg
        b = h.shape[0]
        pooled = h.mean(axis=-2)  # (B, D)

        c_trend = (pooled @ self.trend_w + self.trend_b).reshape((b, cfg.trend_degree + 1, cfg.d))
        trend = self._poly @ c_trend
        c_seas = (pooled @ self.seas_w + self.seas_b).reshape((b, 2 * cfg.fourier_terms, cfg.d))
        seasonal = self._fourier @ c_seas
        residual = h @ self.res_w + self.res_b
        return trend, seasonal, residual

    def predict_noise(self, x, t: int) -> np.ndarray:
        """Inference-only noise prediction (no tape)."""
        with ad.no_grad():
            return self.forward(x, t).data
