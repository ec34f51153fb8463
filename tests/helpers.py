"""Shared test oracles: finite differences, full attention, reference math, a reference forward.

The composed attention and feed-forward block, the looped diversity loss, the
staged reverse step, the per-series corpus generator, the per-value corpus
writer, the one-expression gelu and layer_norm gradients, the transposed
weight view, the evaluation networks trained on the tape and the covariance or
Gram eigendecomposition PCA are the library's own earlier spellings, kept here
as references for the fused, vectorized, in-place, single-formula, closed-form
and SVD forms.

These stay independent of the library's own computation paths — they use
plain numpy, including numpy.linalg. The
reference forward is spelled from single `ad` ops over parameters looked up by
name, so it pins the backbone's wiring, not its arithmetic.
"""

import copy
import errno
import json
import math
import os

import numpy as np

from faultgen import autodiff as ad
from faultgen import data
from faultgen.autodiff import Tensor
from faultgen.denoiser import fourier_basis, position_encoding, timestep_embed, trend_basis
from faultgen.errors import ContractError
from faultgen.training import Adam


def first_draws_of_streams(monkeypatch, build):
    """Call `build()` and return, in order, the first draws of each generator it made through `default_rng`."""
    made, make = [], np.random.default_rng

    def recording(*args, **kwargs):
        rng = make(*args, **kwargs)
        made.append(copy.deepcopy(rng).integers(0, 2**63, size=4).tobytes())
        return rng

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording)
        build()
    return made


def keyed_first_draw(seed, role, i=0):
    """The first draws of stream (seed, role, i), spelled out from numpy's SeedSequence, not `data.series_rng`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, i))).integers(0, 2**63, 4).tobytes()


def rel_err(analytic, numeric, floor=1.0):
    """Max elementwise |a - n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of scalar f(x) by central differences, entry by entry."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def grad_check(build_loss, arrays, h: float = 1e-5):
    """Compare tape gradients against central differences on float64 leaves.

    `build_loss(tensors) -> scalar Tensor`; each of `arrays` is copied into a
    float64 leaf that requires a gradient. Returns worst rel_err.
    """
    leaves = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    loss = build_loss(leaves)
    loss.backward()
    worst = 0.0
    for idx, leaf in enumerate(leaves):
        def f(x, idx=idx):
            vals = [l.data for l in leaves]
            vals[idx] = x
            with ad.no_grad():
                return float(build_loss([Tensor(v) for v in vals]).data)

        numeric = central_diff(f, leaf.data, h)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        worst = max(worst, rel_err(analytic, numeric))
    return worst


def full_attention_oracle(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, band=None):
    """Plain-numpy multi-head attention with an optional band mask of half-width `band`."""
    b, s, d = x.shape
    e = d // heads
    q = (x @ wq + bq).reshape(b, s, heads, e).transpose(0, 2, 1, 3)
    k = (x @ wk + bk).reshape(b, s, heads, e).transpose(0, 2, 1, 3)
    v = (x @ wv + bv).reshape(b, s, heads, e).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(e)
    if band is not None:
        i = np.arange(s)[:, None]
        j = np.arange(s)[None, :]
        scores = np.where(np.abs(i - j) <= band, scores, -1e9)
    scores = scores - scores.max(axis=-1, keepdims=True)
    att = np.exp(scores)
    att = att / att.sum(axis=-1, keepdims=True)
    out = (att @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
    return out @ wo + bo


def eig_pca(x):
    """Top-two principal coordinates from the covariance eigendecomposition when the features are no more
    than the samples, else from the Gram one, under pca_2d's sign convention (largest-magnitude entry positive)."""
    n, q = x.shape
    xc = x - x.mean(axis=0)
    if q <= n:
        _, v = np.linalg.eigh(xc.T @ xc / max(n - 1, 1))
        coords = xc @ v[:, ::-1][:, :2]  # ascending -> the top two
    else:
        w, u = np.linalg.eigh(xc @ xc.T / max(n - 1, 1))
        w, u = w[::-1][:2], u[:, ::-1][:, :2]
        coords = u * np.sqrt(np.maximum(w, 1e-12) * max(n - 1, 1))
    for j in range(coords.shape[1]):
        if coords[np.argmax(np.abs(coords[:, j])), j] < 0:
            coords[:, j] = -coords[:, j]
    return coords


def mean_pairwise_distance(series_list):
    """Mean flattened-L2 distance over all unordered sample pairs."""
    x = np.stack([np.asarray(s.values if hasattr(s, "values") else s).reshape(-1)
                  for s in series_list])
    n = len(x)
    total = 0.0
    for i in range(n):
        total += float(np.sum(np.sqrt(np.sum((x[i + 1:] - x[i]) ** 2, axis=1))))
    return total / (n * (n - 1) / 2)


def ar2_stationary_variance(a1: float, a2: float, noise_std: float) -> float:
    """Closed-form stationary variance of x_t = a1 x_{t-1} + a2 x_{t-2} + N(0, s^2)."""
    s2 = noise_std**2
    return s2 * (1 - a2) / ((1 + a2) * ((1 - a2) ** 2 - a1**2))


def composed_attention(q_in, kv_in, p, heads, mask=None):
    """Multi-head attention built from single tape ops: projections, head split, softmax, merge."""
    b, sq, dim = q_in.shape
    sk = kv_in.shape[-2]
    e = dim // heads
    q = ad.transpose((q_in @ p["wq"] + p["bq"]).reshape((b, sq, heads, e)), (0, 2, 1, 3))
    k = ad.transpose((kv_in @ p["wk"] + p["bk"]).reshape((b, sk, heads, e)), (0, 2, 1, 3))
    v = ad.transpose((kv_in @ p["wv"] + p["bv"]).reshape((b, sk, heads, e)), (0, 2, 1, 3))
    scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(e))
    if mask is not None:
        scores = scores + mask  # lifted to the scores' dtype
    att = ad.softmax(scores, axis=-1)
    out = ad.transpose(att @ v, (0, 2, 1, 3)).reshape((b, sq, dim))
    return out @ p["wo"] + p["bo"]


def composed_feed_forward(x, p):
    """The transformer feed-forward block built from single tape ops: matmul, add, gelu, matmul, add."""
    return ad.gelu(x @ p["w1"] + p["b1"]) @ p["w2"] + p["b2"]


def reference_forward(backbone, x, t, stack=None):
    """A backbone's noise prediction, or with `stack` its composed model's, in the documented order:
    - in_proj + pe;
    - each encoder layer: + te, then ln1 -> self-attention, then ln2 -> feed-forward;
    - enc_ln;
    - each decoder layer: + te, then ln1 -> self-attention, ln2 -> cross-attention over the encoder
      output, ln3 -> feed-forward, then adapter block k;
    - final_ln, then the trend, seasonal and residual heads.
    Every sublayer adds its output to the stream it normalized."""
    cfg, P = backbone.cfg, dict(backbone.params)
    P.update({} if stack is None else stack.params)

    def linear(h, name):
        return h @ P[f"{name}.w"] + P[f"{name}.b"]

    def norm(h, name):
        return ad.layer_norm(h, P[f"{name}.g"], P[f"{name}.b"])

    def attention(q_in, kv_in, name, heads, mask=None):
        return ad.attention(q_in, kv_in, *[P[f"{name}.{c}.{wb}"] for c in "qkvo" for wb in "wb"], heads, mask)

    def feed_forward(h, name):
        return ad.feed_forward(h, P[f"{name}.ff1.w"], P[f"{name}.ff1.b"], P[f"{name}.ff2.w"], P[f"{name}.ff2.b"])

    D = cfg.model_dim
    te = linear(Tensor(timestep_embed(t, D)[None, :]), "backbone.t_proj").reshape((D,))
    base = linear(Tensor(np.asarray(x, dtype=np.float32)), "backbone.in_proj") + Tensor(position_encoding(cfg.tau, D))
    h = base
    for k in range(cfg.enc_layers):
        name = f"backbone.enc{k}"
        h = h + te
        n = norm(h, f"{name}.ln1")
        h = h + attention(n, n, f"{name}.attn", cfg.heads)
        h = h + feed_forward(norm(h, f"{name}.ln2"), name)
    enc_out = norm(h, "backbone.enc_ln")
    h, acc = base, None
    for k in range(cfg.dec_layers):
        name = f"backbone.dec{k}"
        h = h + te
        n = norm(h, f"{name}.ln1")
        h = h + attention(n, n, f"{name}.self", cfg.heads)
        h = h + attention(norm(h, f"{name}.ln2"), enc_out, f"{name}.cross", cfg.heads)
        h = h + feed_forward(norm(h, f"{name}.ln3"), name)
        if stack is not None:  # block k reads h plus the earlier blocks' summed outputs
            n = norm(h if acc is None else h + acc, f"adapter{k}.ln")
            i = np.arange(cfg.tau)
            band = np.where(np.abs(i[:, None] - i[None, :]) <= stack.cfg.window // 2, 0.0, -1e9).astype(np.float32)
            local = attention(n, n, f"adapter{k}.attn", stack.cfg.heads, band)
            acc = local if acc is None else acc + local
            h = h + stack.cfg.alpha * local
    H = norm(h, "backbone.final_ln")
    b, pooled = H.shape[0], H.mean(axis=-2)
    c_trend = linear(pooled, "backbone.head.trend").reshape((b, cfg.trend_degree + 1, cfg.d))
    c_seas = linear(pooled, "backbone.head.seasonal").reshape((b, 2 * cfg.fourier_terms, cfg.d))
    trend = Tensor(trend_basis(cfg.tau, cfg.trend_degree)) @ c_trend
    seasonal = Tensor(fourier_basis(cfg.tau, cfg.fourier_terms)) @ c_seas
    return trend + seasonal + linear(H, "backbone.head.residual")


def formula_gelu_grad(x, t):
    """gelu'(x) as one expression, for t = tanh(sqrt(2/pi) * (x + 0.044715 * x^3)); Python floats stay weak."""
    d_inner = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * (x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner


def formula_layer_norm_input_grad(x, gain, g, eps=1e-5):
    """d(sum(g * layer_norm(x)))/dx as one expression over the forward's centred values and inverse deviation."""
    def mean(a):
        return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]

    d = x - mean(x)
    inv = 1.0 / np.sqrt(mean(d * d) + eps)
    xhat = d * inv
    dxhat = g * gain
    return inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))


def view_transpose(w):
    """A weight's transpose as the strided view, a stand-in for `autodiff._t`'s C-contiguous copy."""
    return w.data.T


def loop_diversity_loss(preds, pair_count, margin, rng):
    """The diversity loss as one small graph per sampled pair (a Python list of all pairs)."""
    n = preds.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pair_count < len(pairs):
        order = rng.permutation(len(pairs))[:pair_count]
        pairs = [pairs[k] for k in order]
    entries = int(np.prod(preds.shape[1:]))
    terms = []
    for i, j in pairs:
        diff = ad.take(preds, i) - ad.take(preds, j)
        dist = (diff * diff).sum() * (1.0 / entries)
        terms.append(ad.minimum(dist, margin))
    return -ad.stack(terms).mean()


def staged_reverse_step(x_t, t, eps_hat, z, sched, clip):
    """The clipped reverse step in three stages: clip x0_hat, re-derive eps_hat, take the eps-form mean."""
    root_ab = np.sqrt(sched.alpha_bar[t])
    root_1mab = np.sqrt(1.0 - sched.alpha_bar[t])
    x0_hat = np.clip((x_t - root_1mab * eps_hat) / root_ab, -clip, clip)
    eps = (x_t - root_ab * x0_hat) / root_1mab
    mean = (x_t - sched.beta[t] / root_1mab * eps) / np.sqrt(sched.alpha[t])
    return mean + np.sqrt(sched.posterior_var[t]) * z


def loop_generate_normal(tau, dim, n_samples, seed, base_kind="sine_mixture", noise_std=0.05):
    """(n, tau, dim) float32 corpus values, one series and one scalar draw at a time: 2 to 4 sine
    components per channel, or an AR(2) with coefficients (0.5, -0.25) and innovations N(0, 0.3^2).
    Series i draws from the stream spawned under key (0, i), the base-series role, of `seed`."""
    out = []
    t = np.arange(tau)
    for i in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, i)))
        x = np.zeros((tau, dim), dtype=np.float64)
        if base_kind == "sine_mixture":
            for c in range(dim):
                n_comp = int(rng.integers(2, 5))
                for _ in range(n_comp):
                    cycles = rng.uniform(1.0, 4.0)
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    amp = rng.uniform(0.3, 1.0) / n_comp
                    x[:, c] += amp * np.sin(2.0 * np.pi * cycles * t / tau + phase)
                if noise_std > 0:
                    x[:, c] += rng.normal(0.0, noise_std, size=tau)
        else:
            a1, a2 = 0.5, -0.25
            burn = 128
            for c in range(dim):
                eta = rng.normal(0.0, 0.3, size=tau + burn)
                z = np.zeros(tau + burn)
                for k in range(2, tau + burn):
                    z[k] = a1 * z[k - 1] + a2 * z[k - 2] + eta[k]
                x[:, c] = z[burn:]
        out.append(x.astype(np.float32))
    return np.stack(out)


def value_save_corpus(ds, directory):
    """save_corpus with every cell formatted on its own by np.format_float_positional."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"id": ds.id, "label": ds.label, "tau": ds.tau, "dim": ds.dim, "n": len(ds),
                "seed": ds.seed, "channel_names": list(ds.channel_names)}
    if ds.fault_spec is not None:
        manifest["fault_spec"] = ds.fault_spec.to_dict()
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i, series in enumerate(ds.values):
        with open(os.path.join(directory, f"sample_{i:05d}.csv"), "w") as fh:
            fh.write(",".join(ds.channel_names) + "\n")
            for row in series:
                fh.write(",".join(np.format_float_positional(v, unique=True, trim="0") for v in row) + "\n")


def fail_writes_midway(monkeypatch):
    """Make each file write in faultgen.data put half its content on disk and then fail, as a full disk would."""
    def failing_open(path, mode="r"):
        fh = open(path, mode)
        real_write = fh.write

        def write(content):
            real_write(content[:len(content) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        fh.write = write
        return fh
    monkeypatch.setattr(data, "open", failing_open, raising=False)


def tape_cross_entropy(logits, labels):
    """Softmax cross-entropy of (..., B, C) logits and (B,) int labels as one tape node: each slice's mean, summed."""
    labels = np.asarray(labels)
    if logits.ndim < 2 or labels.shape != logits.shape[-2:-1]:
        raise ContractError(f"cross_entropy expects (..., B, C) logits and (B,) labels, "
                            f"got {logits.shape} / {labels.shape}")
    z = logits.data
    zmax = np.max(z, axis=-1, keepdims=True)
    logsum = zmax + np.log(np.sum(np.exp(z - zmax), axis=-1, keepdims=True))
    logp = z - logsum
    n = z.shape[-2]
    data = -np.sum(np.mean(logp[..., np.arange(n), labels], axis=-1))

    def bw(g):
        p = np.exp(logp)
        p[..., np.arange(n), labels] -= 1.0
        ad._accum(logits, g * p / n)

    return ad._node(np.asarray(data, dtype=z.dtype), "cross_entropy", (logits,), bw)


def tape_forward(net, x):
    """A metrics.FeedForwardNet's stacked forward on the tape: x @ w + b per layer, gelu between layers."""
    h = x
    for i, (w, b) in enumerate(net.layers):
        h = h @ w + b
        if i < len(net.layers) - 1:
            h = ad.gelu(h)
    return h


def tape_fit_predict(net, x_train, x_test, loss_fn, steps, lr):
    """metrics._fit_predict on the tape, over a given FeedForwardNet: standardize by the training rows, train
    with Adam on `loss_fn(training output tensor)`, a scalar tensor, and return the test outputs."""
    mu, sd = x_train.mean(axis=1, keepdims=True), x_train.std(axis=1, keepdims=True)
    sd = np.where(sd > 0, sd, 1.0)
    xt, xe = (Tensor(((x - mu) / sd).astype(np.float32)) for x in (x_train, x_test))
    opt = Adam(net.params, lr)
    for _ in range(steps):
        loss = loss_fn(tape_forward(net, xt))
        opt.zero_grad()
        loss.backward()
        opt.step()
    with ad.no_grad():
        return tape_forward(net, xe).data
