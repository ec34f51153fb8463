"""Generation-quality metrics and the downstream classification harness.

The discriminative and predictive scores use small fixed feed-forward
networks rather than recurrent models so that runs are fast, seeded, and
comparable: the architecture, training recipe, and the frozen contextual
encoder seed are all pinned by METRIC_VERSION.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import Dataset
from .eig import sqrt_psd, sym_eig
from .errors import ContractError, MetricError

METRIC_VERSION = "fg-metrics-1"
DEFAULT_ENCODER_SEED = 1234
EMBED_DIM = 16


# ----------------------------------------------------------------------
# evaluation networks


class FeedForwardNet:
    """Seeded MLP over flattened windows; gelu activations, linear output."""

    def __init__(self, in_dim: int, hidden: list[int], out_dim: int, seed: int):
        rng = np.random.default_rng(seed)
        self.params: list[Parameter] = []
        self.layers = []
        last = in_dim
        for i, h in enumerate(list(hidden) + [out_dim]):
            std = np.sqrt(2.0 / (last + h))
            w = Parameter(f"w{i}", rng.normal(0, std, (last, h)).astype(ad.default_dtype()))
            b = Parameter(f"b{i}", np.zeros(h, dtype=ad.default_dtype()))
            self.params += [w, b]
            self.layers.append((w, b))
            last = h

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for i, (w, b) in enumerate(self.layers):
            h = h @ w + b
            if i < len(self.layers) - 1:
                h = ad.gelu(h)
        return h


def _fit_predict(x_train: np.ndarray, x_test: np.ndarray, hidden: list[int], out_dim: int,
                 loss_fn, steps: int, lr: float, seed: int) -> np.ndarray:
    """Standardize both row sets by the training rows' column mean and std (a constant column is only
    centred), fit a seeded FeedForwardNet to `loss_fn(outputs on the training rows)` with Adam, and
    return its outputs on the test rows."""
    from .training import Adam

    mu, sd = x_train.mean(axis=0), x_train.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    xt, xe = (Tensor(((x - mu) / sd).astype(ad.default_dtype())) for x in (x_train, x_test))
    net = FeedForwardNet(x_train.shape[1], hidden, out_dim, seed)
    opt = Adam(net.params, lr)
    for _ in range(steps):
        loss = loss_fn(net.forward(xt))
        opt.zero_grad()
        loss.backward()
        opt.step()
    with ad.no_grad():
        return net.forward(xe).data


def _split(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 80/20 index split with at least one test element."""
    order = rng.permutation(n)
    n_test = max(1, int(round(0.2 * n)))
    return order[n_test:], order[:n_test]


# ----------------------------------------------------------------------
# discriminative / predictive


def discriminative_score(real: Dataset, synth: Dataset, seed: int) -> float:
    """|held-out accuracy - 0.5| of a real-vs-synthetic classifier; 0 = indistinguishable."""
    if (real.tau, real.dim) != (synth.tau, synth.dim):
        raise ContractError("real and synthetic corpora must share (tau, d)")
    rng = np.random.default_rng(seed)
    xr = real.as_array().reshape(len(real), -1)
    xs = synth.as_array().reshape(len(synth), -1)
    tr_r, te_r = _split(len(real), rng)
    tr_s, te_s = _split(len(synth), rng)
    x_train = np.concatenate([xr[tr_r], xs[tr_s]])
    y_train = np.concatenate([np.ones(len(tr_r), dtype=int), np.zeros(len(tr_s), dtype=int)])
    x_test = np.concatenate([xr[te_r], xs[te_s]])
    y_test = np.concatenate([np.ones(len(te_r), dtype=int), np.zeros(len(te_s), dtype=int)])

    logits = _fit_predict(x_train, x_test, [32, 32], 2, lambda out: ad.cross_entropy(out, y_train),
                          steps=300, lr=3e-3, seed=seed)
    acc = float(np.mean(np.argmax(logits, axis=1) == y_test))
    return abs(acc - 0.5)


def predictive_score(real: Dataset, synth: Dataset, seed: int) -> float:
    """Train-synthetic-test-real one-step-ahead MAE (lower is better)."""
    if real.tau < 3:
        raise ContractError("predictive score needs tau >= 3")
    if (real.tau, real.dim) != (synth.tau, synth.dim):
        raise ContractError("real and synthetic corpora must share (tau, d)")
    xs = synth.as_array()
    xr = real.as_array()
    x_train = xs[:, :-1, :].reshape(len(synth), -1)
    y_train = xs[:, -1, :]
    x_test = xr[:, :-1, :].reshape(len(real), -1)
    y_test = xr[:, -1, :]

    yt = Tensor(y_train)
    pred = _fit_predict(x_train, x_test, [32], real.dim, lambda out: ad.absolute(out - yt).mean(),
                        steps=400, lr=5e-3, seed=seed)
    return float(np.mean(np.abs(pred - y_test)))


# ----------------------------------------------------------------------
# contextual Frechet distance


class ContextEncoder:
    """Frozen, seeded random 1-D conv encoder mapping (..., tau, d) -> (..., EMBED_DIM) features."""

    def __init__(self, d: int, seed: int = DEFAULT_ENCODER_SEED, hidden: int = 32, kernel: int = 5):
        rng = np.random.default_rng(seed)
        self.w1 = rng.normal(0, 1.0 / np.sqrt(kernel * d), (kernel, d, hidden))
        self.b1 = rng.normal(0, 0.1, hidden)
        self.w2 = rng.normal(0, 1.0 / np.sqrt(kernel * hidden), (kernel, hidden, EMBED_DIM))
        self.b2 = rng.normal(0, 0.1, EMBED_DIM)

    @staticmethod
    def _conv(x, w, b):
        """Same-length convolution along the time axis (-2) of a (..., tau, d) array with (kernel, d, h) taps."""
        pad = len(w) // 2
        xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad), (0, 0)])
        tau = x.shape[-2]
        out = np.zeros(x.shape[:-1] + (w.shape[2],))
        for k, wk in enumerate(w):
            out += xp[..., k:k + tau, :] @ wk
        return out + b

    def embed(self, values: np.ndarray) -> np.ndarray:
        """Time-pooled features of one (tau, d) series, (EMBED_DIM,), or of a stack (n, tau, d), (n, EMBED_DIM)."""
        h = self._conv(values.astype(np.float64), self.w1, self.b1)
        ad.gelu_(h)
        h = self._conv(h, self.w2, self.b2)
        ad.gelu_(h)
        return h.mean(axis=-2)


def frechet_distance(emb_a: np.ndarray, emb_b: np.ndarray) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^(1/2)), eigendecomposition-based."""
    a = np.asarray(emb_a, dtype=np.float64)
    b = np.asarray(emb_b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ContractError("frechet distance needs >= 2 samples per side")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    ca = np.atleast_2d(np.cov(a, rowvar=False)) + 1e-6 * np.eye(a.shape[1])
    cb = np.atleast_2d(np.cov(b, rowvar=False)) + 1e-6 * np.eye(b.shape[1])
    root_a = sqrt_psd(ca)
    inner = root_a @ cb @ root_a
    w, _ = sym_eig((inner + inner.T) / 2.0)
    if np.min(w) < -1e-6:
        raise MetricError("degenerate covariance in frechet distance")
    trace_term = np.trace(ca) + np.trace(cb) - 2.0 * np.sum(np.sqrt(np.maximum(w, 0.0)))
    fid = float(np.sum((mu_a - mu_b) ** 2) + trace_term)
    if not np.isfinite(fid):
        raise MetricError("frechet distance is non-finite")
    return fid


def context_fid(real: Dataset, synth: Dataset, encoder_seed: int = DEFAULT_ENCODER_SEED) -> float:
    """Frechet distance between frozen-encoder embedding clouds of the two corpora."""
    if len(real) < 2 or len(synth) < 2:
        raise ContractError("context_fid needs >= 2 samples per corpus")
    if real.dim != synth.dim:
        raise ContractError("corpora must share the channel count")
    enc = ContextEncoder(real.dim, encoder_seed)
    return frechet_distance(enc.embed(real.as_array()), enc.embed(synth.as_array()))


# ----------------------------------------------------------------------
# correlational / diversity


def _corpus_correlation(ds: Dataset) -> tuple[np.ndarray, bool]:
    """Mean per-sample Pearson channel correlation; constant channels count as 0."""
    x = ds.as_array().astype(np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1)
    ok = sd > 0
    scale = np.where(ok, sd, 1.0)
    c = (xc.transpose(0, 2, 1) @ xc / x.shape[1]) / (scale[:, :, None] * scale[:, None, :])
    c = np.where(ok[:, :, None] & ok[:, None, :], c, 0.0)
    return c.mean(axis=0), not bool(np.all(ok))


def correlational_score(real: Dataset, synth: Dataset, warnings: list | None = None) -> float:
    """Entrywise L1 distance between mean cross-correlation matrices."""
    if real.dim < 2:
        raise ContractError("correlational score needs d >= 2")
    if real.dim != synth.dim:
        raise ContractError("corpora must share the channel count")
    cr, flag_r = _corpus_correlation(real)
    cs, flag_s = _corpus_correlation(synth)
    if warnings is not None and (flag_r or flag_s):
        warnings.append("correlational: constant channel treated as zero correlation")
    return float(np.sum(np.abs(cr - cs)))


def _acf_features(ds: Dataset, max_lag: int) -> np.ndarray:
    """Per-series autocorrelations at lags 1..lag, laid out lag-major: (n, lag * d)."""
    lag = min(max_lag, ds.tau - 2)
    x = ds.as_array().astype(np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    denom = np.sum(xc * xc, axis=1)
    ok = denom > 0
    safe = np.where(ok, denom, 1.0)
    return np.concatenate([np.where(ok, np.sum(xc[:, :-k] * xc[:, k:], axis=1) / safe, 0.0)
                           for k in range(1, lag + 1)], axis=1)


def _mean_pairwise_distance(x: np.ndarray) -> float:
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        total += float(np.sum(np.sqrt(np.sum((x[i + 1:] - x[i]) ** 2, axis=1))))
    return total / (n * (n - 1) / 2)


def diversity_score(real: Dataset, synth: Dataset, max_lag: int = 8) -> float:
    """Mean pairwise distance of synthetic autocorrelation features, relative to real."""
    if len(synth) < 2:
        raise ContractError("diversity score needs >= 2 synthetic samples")
    if len(real) < 2:
        raise ContractError("diversity score needs >= 2 real samples")
    if real.dim != synth.dim:
        raise ContractError("corpora must share the channel count")
    fr = _acf_features(real, max_lag)
    fs = _acf_features(synth, max_lag)
    denom = _mean_pairwise_distance(fr)
    if denom == 0:
        raise MetricError("real corpus has zero feature diversity; ratio undefined")
    return _mean_pairwise_distance(fs) / denom


# ----------------------------------------------------------------------
# downstream classification


def downstream_eval(train_real: list[Dataset], synth_per_class: list[Dataset],
                    test: list[Dataset], seed: int) -> dict:
    """Multi-class classification on real(+synthetic) training data, tested on real.

    Returns accuracy plus macro-averaged precision / recall / F1.
    """
    classes = list(dict.fromkeys(ds.label for ds in train_real))
    if len(classes) < 2:
        raise ContractError("downstream evaluation needs >= 2 classes")
    index = {label: i for i, label in enumerate(classes)}

    def collect(datasets):
        xs, ys = [], []
        for ds in datasets:
            if ds.label not in index:
                raise ContractError(f"label {ds.label!r} not among training classes")
            xs.append(ds.as_array().reshape(len(ds), -1))
            ys.append(np.full(len(ds), index[ds.label], dtype=int))
        return np.concatenate(xs), np.concatenate(ys)

    x_train, y_train = collect([*train_real, *synth_per_class])
    x_test, y_test = collect(test)
    present = set(np.unique(y_test).tolist())
    for label, i in index.items():
        if i not in present:
            raise ContractError(f"class {label!r} has no test samples")

    logits = _fit_predict(x_train, x_test, [64, 32], len(classes),
                          lambda out: ad.cross_entropy(out, y_train), steps=400, lr=3e-3, seed=seed)
    pred = np.argmax(logits, axis=1)
    acc = float(np.mean(pred == y_test))
    precisions, recalls, f1s = [], [], []
    for i in range(len(classes)):
        tp = float(np.sum((pred == i) & (y_test == i)))
        fp = float(np.sum((pred == i) & (y_test != i)))
        fn = float(np.sum((pred != i) & (y_test == i)))
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return {"accuracy": acc, "precision": float(np.mean(precisions)),
            "recall": float(np.mean(recalls)), "f1": float(np.mean(f1s))}


# ----------------------------------------------------------------------
# report assembly

METRIC_NAMES = ("context_fid", "correlational", "discriminative", "predictive", "diversity")
SEED_FREE_METRICS = ("context_fid", "correlational", "diversity")  # scored once per call


@dataclass
class MetricReport:
    values: dict                  # metric -> {str(seed): value}
    medians: dict                 # metric -> float
    metadata: dict
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["metric,value,seed,corpus_real,corpus_synth,metric_version"]
        real = self.metadata.get("corpus_real", "")
        synth = self.metadata.get("corpus_synth", "")
        for metric in sorted(self.values):
            for s in sorted(self.values[metric], key=int):
                lines.append(f"{metric},{self.values[metric][s]!r},{s},{real},{synth},{METRIC_VERSION}")
        for metric in sorted(self.medians):
            lines.append(f"{metric}_median,{self.medians[metric]!r},,{real},{synth},{METRIC_VERSION}")
        return "\n".join(lines) + "\n"


def evaluate_corpora(real: Dataset, synth: Dataset, metrics=("all",), seeds=(0,),
                     encoder_seed: int = DEFAULT_ENCODER_SEED, max_lag: int = 8,
                     config_hash: str = "") -> MetricReport:
    """Run the selected metrics for every seed and report per-seed values plus medians.

    Only `discriminative` and `predictive` take a seed; SEED_FREE_METRICS run once each.
    """
    wanted = list(METRIC_NAMES) if "all" in metrics else list(metrics)
    for m in wanted:
        if m not in METRIC_NAMES:
            raise ContractError(f"unknown metric {m!r}")
    if (real.tau, real.dim) != (synth.tau, synth.dim):
        raise ContractError("real and synthetic corpora must share (tau, d)")
    warnings: list = []

    def run(metric: str, seed: int) -> float:
        if metric == "context_fid":
            return context_fid(real, synth, encoder_seed)
        if metric == "correlational":
            return correlational_score(real, synth, warnings)
        if metric == "discriminative":
            return discriminative_score(real, synth, seed)
        if metric == "predictive":
            return predictive_score(real, synth, seed)
        return diversity_score(real, synth, max_lag)

    values: dict = {m: {} for m in wanted}
    for m in wanted:
        for i, s in enumerate(seeds):
            if i == 0 or m not in SEED_FREE_METRICS:
                v = run(m, s)
            if not np.isfinite(v):
                raise MetricError(f"metric {m} produced a non-finite value")
            values[m][str(s)] = float(v)
    medians = {m: float(np.median(list(values[m].values()))) for m in wanted}
    meta = {
        "seeds": list(seeds),
        "corpus_real": real.id,
        "corpus_synth": synth.id,
        "config_hash": config_hash,
        "metric_version": METRIC_VERSION,
        "encoder_seed": encoder_seed,
    }
    return MetricReport(values=values, medians=medians, metadata=meta, warnings=sorted(set(warnings)))
