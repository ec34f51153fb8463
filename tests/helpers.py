"""Shared test oracles: finite differences, full attention, reference math.

The composed attention, the looped diversity loss and the staged reverse step
are the library's own earlier spellings, kept here as references for the
fused, vectorized and single-formula forms.

These stay independent of the library's own computation paths — they use
plain numpy (including numpy.linalg, which the library itself avoids).
"""

import numpy as np

from faultgen import autodiff as ad
from faultgen.autodiff import Tensor


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
    """Compare tape gradients against central differences in 64-bit mode.

    `build_loss(tensors) -> scalar Tensor`; `arrays` is a list of float64
    numpy arrays treated as differentiable leaves. Returns worst rel_err.
    """
    with ad.precision("float64"):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
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
    q = (q_in @ p["wq"] + p["bq"]).reshape((b, sq, heads, e)).transpose((0, 2, 1, 3))
    k = (kv_in @ p["wk"] + p["bk"]).reshape((b, sk, heads, e)).transpose((0, 2, 1, 3))
    v = (kv_in @ p["wv"] + p["bv"]).reshape((b, sk, heads, e)).transpose((0, 2, 1, 3))
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(e))
    if mask is not None:
        scores = scores + Tensor(mask)
    att = ad.softmax(scores, axis=-1)
    out = (att @ v).transpose((0, 2, 1, 3)).reshape((b, sq, dim))
    return out @ p["wo"] + p["bo"]


def loop_diversity_loss(preds, pair_count, margin, seed):
    """The diversity loss as one small graph per sampled pair (a Python list of all pairs)."""
    n = preds.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pair_count < len(pairs):
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(pairs))[:pair_count]
        pairs = [pairs[k] for k in order]
    entries = int(np.prod(preds.shape[1:]))
    terms = []
    for i, j in pairs:
        diff = preds[i] - preds[j]
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
