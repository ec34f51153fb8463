"""Transformer encoder-decoder noise-prediction backbone.

The decoder's final state feeds three heads whose outputs sum to the noise
estimate: a degree-3 polynomial trend, a Fourier seasonal component, and a
per-position linear residual. All heads start at zero so a fresh model
predicts exactly zero noise. `forward` takes an optional adapter stack and
interleaves its blocks after the decoder layers, behind the frozen backbone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ContractError, ForwardError, NumericError


@dataclass
class DenoiserConfig:
    tau: int
    d: int
    T: int
    model_dim: int = 64
    enc_layers: int = 3
    dec_layers: int = 4
    heads: int = 4
    ff_dim: int = 128
    fourier_terms: int = 4
    trend_degree: int = 3

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ContractError("model_dim must be divisible by heads")
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ContractError("layer counts must be >= 1")
        if self.tau < 2 or self.d < 1 or self.T < 1:
            raise ContractError("need tau >= 2, d >= 1, T >= 1")


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
    return emb.astype(ad.default_dtype())


def position_encoding(tau: int, model_dim: int) -> np.ndarray:
    pos = np.arange(tau)[:, None]
    i = np.arange(model_dim)[None, :]
    ang = pos / np.power(10000.0, (2 * (i // 2)) / model_dim)
    pe = np.where(i % 2 == 0, np.sin(ang), np.cos(ang))
    return pe.astype(ad.default_dtype())


def trend_basis(tau: int, degree: int = 3) -> np.ndarray:
    """(tau, degree+1) polynomial basis on normalized time in [0, 1]; column 0 is ones."""
    t = np.arange(tau) / max(tau - 1, 1)
    return np.stack([t**p for p in range(degree + 1)], axis=1).astype(ad.default_dtype())


def fourier_basis(tau: int, terms: int) -> np.ndarray:
    """(tau, 2*terms) basis of whole-period cosines and sines (zero column means)."""
    t = np.arange(tau) / tau
    cols = []
    for k in range(1, terms + 1):
        cols.append(np.cos(2.0 * np.pi * k * t))
        cols.append(np.sin(2.0 * np.pi * k * t))
    return np.stack(cols, axis=1).astype(ad.default_dtype())


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out)).astype(ad.default_dtype())


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
            w = np.zeros((fan_in, fan_out), dtype=ad.default_dtype())
        else:
            w = _glorot(rng, fan_in, fan_out)
        b = np.zeros(fan_out, dtype=ad.default_dtype())
        return self.add(f"{name}.w", w), self.add(f"{name}.b", b)

    def norm(self, name: str, dim: int):
        g = self.add(f"{name}.g", np.ones(dim, dtype=ad.default_dtype()))
        b = self.add(f"{name}.b", np.zeros(dim, dtype=ad.default_dtype()))
        return g, b

    def attention(self, name: str, dim: int, rng):
        p = {}
        for tag in ("wq", "wk", "wv", "wo"):
            p[tag], p[tag.replace("w", "b")] = self.linear(f"{name}.{tag[1]}", dim, dim, rng)
        return p


def multi_head_attention(q_in: Tensor, kv_in: Tensor, p: dict, heads: int,
                         mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with q/k/v/output projections (`ad.attention`).

    `p` holds the projections as `wq, bq, wk, bk, wv, bv, wo, bo`; `mask` is
    an optional additive (sq, sk) array added to every head's scores before
    the softmax (0 keeps a key, a large negative drops it).
    """
    return ad.attention(q_in, kv_in, p["wq"], p["bq"], p["wk"], p["bk"], p["wv"], p["bv"],
                        p["wo"], p["bo"], heads, mask)


def feed_forward(x: Tensor, p: dict) -> Tensor:
    return ad.gelu(x @ p["w1"] + p["b1"]) @ p["w2"] + p["b2"]


class Backbone:
    """The pretrained noise-prediction network (parameters theta)."""

    def __init__(self, cfg: DenoiserConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)
        D = cfg.model_dim
        root = ParamGroup(self.params, "backbone")

        self.in_w, self.in_b = root.linear("in_proj", cfg.d, D, rng)
        self.t_w, self.t_b = root.linear("t_proj", D, D, rng)

        self.enc = []
        for k in range(cfg.enc_layers):
            g = ParamGroup(self.params, f"backbone.enc{k}")
            self.enc.append({
                "ln1": g.norm("ln1", D),
                "attn": g.attention("attn", D, rng),
                "ln2": g.norm("ln2", D),
                "ff": dict(zip(("w1", "b1", "w2", "b2"),
                               g.linear("ff1", D, cfg.ff_dim, rng) + g.linear("ff2", cfg.ff_dim, D, rng))),
            })
        self.enc_ln = root.norm("enc_ln", D)

        self.dec = []
        for k in range(cfg.dec_layers):
            g = ParamGroup(self.params, f"backbone.dec{k}")
            self.dec.append({
                "ln1": g.norm("ln1", D),
                "self": g.attention("self", D, rng),
                "ln2": g.norm("ln2", D),
                "cross": g.attention("cross", D, rng),
                "ln3": g.norm("ln3", D),
                "ff": dict(zip(("w1", "b1", "w2", "b2"),
                               g.linear("ff1", D, cfg.ff_dim, rng) + g.linear("ff2", cfg.ff_dim, D, rng))),
            })
        self.final_ln = root.norm("final_ln", D)

        n_trend = cfg.trend_degree + 1
        heads = ParamGroup(self.params, "backbone.head")
        self.trend_w, self.trend_b = heads.linear("trend", D, n_trend * cfg.d, rng, zero=True)
        self.seas_w, self.seas_b = heads.linear("seasonal", D, 2 * cfg.fourier_terms * cfg.d, rng, zero=True)
        self.res_w, self.res_b = heads.linear("residual", D, cfg.d, rng, zero=True)

        self._poly = trend_basis(cfg.tau, cfg.trend_degree)
        self._fourier = fourier_basis(cfg.tau, cfg.fourier_terms)

    # -- parameter access -----------------------------------------------
    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def set_trainable(self, flag: bool) -> None:
        for p in self.params.values():
            p.set_trainable(flag)

    # -- forward ----------------------------------------------------------
    def _timestep_vector(self, t: int) -> Tensor:
        emb = Tensor(timestep_embed(t, self.cfg.model_dim)[None, :])
        return (emb @ self.t_w + self.t_b).reshape((self.cfg.model_dim,))

    def _enc_layer(self, h: Tensor, layer: dict, te: Tensor) -> Tensor:
        h = h + te
        n1 = ad.layer_norm(h, *layer["ln1"])
        h = h + multi_head_attention(n1, n1, layer["attn"], self.cfg.heads)
        h = h + feed_forward(ad.layer_norm(h, *layer["ln2"]), layer["ff"])
        return h

    def _dec_layer(self, h: Tensor, enc_out: Tensor, layer: dict, te: Tensor) -> Tensor:
        h = h + te
        n1 = ad.layer_norm(h, *layer["ln1"])
        h = h + multi_head_attention(n1, n1, layer["self"], self.cfg.heads)
        h = h + multi_head_attention(ad.layer_norm(h, *layer["ln2"]), enc_out, layer["cross"], self.cfg.heads)
        h = h + feed_forward(ad.layer_norm(h, *layer["ln3"]), layer["ff"])
        return h

    def forward(self, x_t, t: int, adapter=None) -> Tensor:
        """Noise prediction for a (batch, tau, d) `x_t` at step `t`.

        An adapter stack, when given, runs after every decoder layer
        (`AdapterStack.interleave`).
        """
        cfg = self.cfg
        if not 0 <= t < cfg.T:
            raise ContractError(f"t={t} outside [0, {cfg.T})")
        x = x_t if isinstance(x_t, Tensor) else Tensor(np.asarray(x_t))
        if x.ndim != 3 or x.shape[1] != cfg.tau or x.shape[2] != cfg.d:
            raise ContractError(f"expected (batch, {cfg.tau}, {cfg.d}) input, got {x.shape}")

        pe = Tensor(position_encoding(cfg.tau, cfg.model_dim))
        te = self._timestep_vector(t)
        base = x @ self.in_w + self.in_b
        base = base + pe

        h = base
        for k, layer in enumerate(self.enc):
            try:
                h = self._enc_layer(h, layer, te)
            except NumericError as e:
                raise ForwardError(f"encoder layer {k}: {e}") from e
        enc_out = ad.layer_norm(h, *self.enc_ln)

        h = base
        acc = None
        for k, layer in enumerate(self.dec):
            try:
                h = self._dec_layer(h, enc_out, layer, te)
                if adapter is not None:
                    h, acc = adapter.interleave(k, h, acc)
            except NumericError as e:
                raise ForwardError(f"decoder layer {k}: {e}") from e

        H = ad.layer_norm(h, *self.final_ln)
        trend, seasonal, residual = self.decompose(H)
        return trend + seasonal + residual

    def decompose(self, h: Tensor):
        """Split a (batch, tau, model_dim) final decoder state into (trend, seasonal, residual) parts."""
        cfg = self.cfg
        b = h.shape[0]
        pooled = h.mean(axis=-2)  # (B, D)

        poly = Tensor(self._poly)
        four = Tensor(self._fourier)
        c_trend = (pooled @ self.trend_w + self.trend_b).reshape((b, cfg.trend_degree + 1, cfg.d))
        trend = poly @ c_trend
        c_seas = (pooled @ self.seas_w + self.seas_b).reshape((b, 2 * cfg.fourier_terms, cfg.d))
        seasonal = four @ c_seas
        residual = h @ self.res_w + self.res_b
        return trend, seasonal, residual

    def predict_noise(self, x, t: int) -> np.ndarray:
        """Inference-only noise prediction (no tape)."""
        with ad.no_grad():
            return self.forward(x, t).data
