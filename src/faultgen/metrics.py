"""Generation-quality metrics and the downstream classification harness.

The discriminative and predictive scores train small fixed feed-forward networks, one per seed and all seeds as
one stack, rather than recurrent models so that runs are fast, seeded, and comparable: the architecture, training
recipe, each seed's split and network streams, `series_rng(seed, SPLIT_STREAM, 0)` and `NETWORK_STREAM`'s, and
the frozen contextual encoder seed are all pinned by METRIC_VERSION.

The networks train off the autodiff tape: `_fit_predict` runs the forward and a
closed-form backward from the loss's gradient (`cross_entropy_grad`, `l1_grad`)
with the numpy expressions of the tape's matmul, add and gelu nodes, in their
order. So every score is bitwise the tape's, without the per-op bookkeeping that
cost more than these tiny arrays' arithmetic. A non-finite network is caught once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .data import NETWORK_STREAM, SPLIT_STREAM, Dataset, series_rng
from .eig import sqrt_psd, sym_eig
from .errors import ContractError, NumericError

METRIC_VERSION = "fg-metrics-3"
DEFAULT_ENCODER_SEED = 1234
EMBED_DIM = 16
ENCODER_HIDDEN = 32  # channels between the encoder's two convolutions
ENCODER_KERNEL = 5   # taps of each encoder convolution
ACF_MAX_LAG = 8      # autocorrelation lags the diversity score compares


# ----------------------------------------------------------------------
# evaluation networks


class FeedForwardNet:
    """Seeded MLPs over flattened windows, one per seed on a leading axis; gelu activations, linear output."""

    def __init__(self, in_dim: int, hidden: list[int], out_dim: int, seeds):
        rngs = [series_rng(s, NETWORK_STREAM, 0) for s in seeds]
        self.params: list[Parameter] = []
        self.layers = []
        last = in_dim
        for i, h in enumerate(list(hidden) + [out_dim]):
            std = np.sqrt(2.0 / (last + h))
            w = Parameter(f"w{i}", np.stack([rng.normal(0, std, (last, h)) for rng in rngs]).astype(np.float32))
            b = Parameter(f"b{i}", np.zeros((len(rngs), 1, h), dtype=np.float32))
            self.params += [w, b]
            self.layers.append((w, b))
            last = h


def cross_entropy_grad(logits: np.ndarray, labels) -> np.ndarray:
    """d/dlogits of the softmax cross-entropy of (..., n, C) logits and (n,) labels, each slice's mean, summed."""
    labels = np.asarray(labels)
    if logits.ndim < 2 or labels.shape != logits.shape[-2:-1]:
        raise ContractError(f"cross_entropy_grad expects (..., n, C) logits and (n,) labels, "
                            f"got {logits.shape} / {labels.shape}")
    zmax = np.max(logits, axis=-1, keepdims=True)
    p = np.exp(logits - (zmax + np.log(np.sum(np.exp(logits - zmax), axis=-1, keepdims=True))))
    n = logits.shape[-2]
    p[..., np.arange(n), labels] -= 1.0
    return p / n


def l1_grad(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d/dout of absolute(out - y).mean(axis=(1, 2)).sum(): each (m, d) slice's mean absolute error, summed."""
    return np.sign(out - y) / y.size


def _fit_predict(x_train: np.ndarray, x_test: np.ndarray, hidden: list[int], out_dim: int,
                 loss_grad, steps: int, lr: float, seeds) -> np.ndarray:
    """Standardize each seed's slices by its training rows' column mean and std (a constant column is only centred),
    fit that seed's FeedForwardNet with Adam on `loss_grad(training outputs)`, the gradient of the seeds' summed loss,
    and return the test outputs, (S, m, out_dim); a non-finite parameter or output raises NumericError."""
    from .training import Adam

    mu, sd = x_train.mean(axis=1, keepdims=True), x_train.std(axis=1, keepdims=True)
    sd = np.where(sd > 0, sd, 1.0)
    xt, xe = (((x - mu) / sd).astype(np.float32) for x in (x_train, x_test))
    net = FeedForwardNet(x_train.shape[2], hidden, out_dim, seeds)
    opt = Adam(net.params, lr)

    def forward(h, kept):  # appends each layer's input, and each hidden pre-activation with its tanh, to kept
        for i, (w, b) in enumerate(net.layers):
            kept.append(h)
            h = h @ w.data + b.data
            if i < len(net.layers) - 1:
                pre, h = h, h.copy()
                kept.append((pre, ad.gelu_(h)))
        return h

    for _ in range(steps):
        kept: list = []
        g = loss_grad(forward(xt, kept))
        opt.zero_grad()
        for i in reversed(range(len(net.layers))):
            w, b = net.layers[i]
            b.grad += g.sum(axis=1, keepdims=True)
            w.grad += kept[2 * i].swapaxes(-1, -2) @ g
            if i:
                g = (g @ w.data.swapaxes(-1, -2)) * ad._gelu_grad(*kept[2 * i - 1])
        opt.step()
    out = forward(xe, [])
    if not (np.isfinite(out).all() and all(np.isfinite(p.data).all() for p in net.params)):
        raise NumericError("an evaluation network produced a non-finite value")
    return out


def _split(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 80/20 index split with at least one test element."""
    order = rng.permutation(n)
    n_test = max(1, int(round(0.2 * n)))
    return order[n_test:], order[:n_test]


# ----------------------------------------------------------------------
# discriminative / predictive


def discriminative_score(real: Dataset, synth: Dataset, seeds) -> list[float]:
    """Per seed, |held-out balanced accuracy - 0.5| of a real-vs-synthetic classifier; 0 = indistinguishable.
    Balanced accuracy, the mean of the two recalls, scores a majority-class guess 0 at any corpus sizes."""
    check_request(["discriminative"], seeds)
    if len(real) < 2 or len(synth) < 2:
        raise ContractError("discriminative score needs >= 2 samples per corpus")
    if (real.tau, real.dim) != (synth.tau, synth.dim):
        raise ContractError("real and synthetic corpora must share (tau, d)")
    xr = real.values.reshape(len(real), -1)
    xs = synth.values.reshape(len(synth), -1)
    rngs = [series_rng(s, SPLIT_STREAM, 0) for s in seeds]
    splits = [(_split(len(real), rng), _split(len(synth), rng)) for rng in rngs]
    x_train = np.stack([np.concatenate([xr[tr_r], xs[tr_s]]) for (tr_r, _), (tr_s, _) in splits])
    x_test = np.stack([np.concatenate([xr[te_r], xs[te_s]]) for (_, te_r), (_, te_s) in splits])
    (tr_r, te_r), (tr_s, te_s) = splits[0]  # every seed's split has these sizes: the labels are shared
    y_train = np.concatenate([np.ones(len(tr_r), dtype=int), np.zeros(len(tr_s), dtype=int)])
    y_test = np.concatenate([np.ones(len(te_r), dtype=int), np.zeros(len(te_s), dtype=int)])

    logits = _fit_predict(x_train, x_test, [32, 32], 2, lambda out: cross_entropy_grad(out, y_train),
                          steps=300, lr=3e-3, seeds=seeds)
    hit = np.argmax(logits, axis=2) == y_test
    balanced = (hit[:, y_test == 1].mean(axis=1) + hit[:, y_test == 0].mean(axis=1)) / 2
    return [abs(float(b) - 0.5) for b in balanced]


def predictive_score(real: Dataset, synth: Dataset, seeds) -> list[float]:
    """Per seed, train-synthetic-test-real one-step-ahead MAE (lower is better)."""
    check_request(["predictive"], seeds)
    if real.tau < 3:
        raise ContractError("predictive score needs tau >= 3")
    if (real.tau, real.dim) != (synth.tau, synth.dim):
        raise ContractError("real and synthetic corpora must share (tau, d)")
    xs = synth.values
    xr = real.values
    x_train = np.stack([xs[:, :-1, :].reshape(len(synth), -1)] * len(seeds))
    x_test = np.stack([xr[:, :-1, :].reshape(len(real), -1)] * len(seeds))
    y_train = xs[:, -1, :].astype(np.float32)
    y_test = xr[:, -1, :]

    pred = _fit_predict(x_train, x_test, [32], real.dim, lambda out: l1_grad(out, y_train),
                        steps=400, lr=5e-3, seeds=seeds)
    return [float(np.mean(np.abs(p - y_test))) for p in pred]


# ----------------------------------------------------------------------
# contextual Frechet distance


class ContextEncoder:
    """Frozen, seeded random 1-D conv encoder mapping (..., tau, d) -> (..., EMBED_DIM) features."""

    def __init__(self, d: int, seed: int = DEFAULT_ENCODER_SEED):
        rng = np.random.default_rng(seed)
        kernel, hidden = ENCODER_KERNEL, ENCODER_HIDDEN
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
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^(1/2)), the roots from LAPACK eigendecompositions."""
    a, b = (np.asarray(e, dtype=np.float64).reshape(len(e), -1) for e in (emb_a, emb_b))
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ContractError("frechet distance needs >= 2 samples per side")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    ca = np.atleast_2d(np.cov(a, rowvar=False)) + 1e-6 * np.eye(a.shape[1])
    cb = np.atleast_2d(np.cov(b, rowvar=False)) + 1e-6 * np.eye(b.shape[1])
    root_a = sqrt_psd(ca)
    inner = root_a @ cb @ root_a
    w, _ = sym_eig(inner)
    if np.min(w) < -1e-6:
        raise ContractError("degenerate covariance in frechet distance")
    trace_term = np.trace(ca) + np.trace(cb) - 2.0 * np.sum(np.sqrt(np.maximum(w, 0.0)))
    fid = float(np.sum((mu_a - mu_b) ** 2) + trace_term)
    if not np.isfinite(fid):
        raise ContractError("frechet distance is non-finite")
    return fid


def context_fid(real: Dataset, synth: Dataset) -> float:
    """Frechet distance between frozen-encoder embedding clouds of the two corpora."""
    if len(real) < 2 or len(synth) < 2:
        raise ContractError("context_fid needs >= 2 samples per corpus")
    if real.dim != synth.dim:
        raise ContractError("corpora must share the channel count")
    enc = ContextEncoder(real.dim, DEFAULT_ENCODER_SEED)
    return frechet_distance(enc.embed(real.values), enc.embed(synth.values))


# ----------------------------------------------------------------------
# correlational / diversity


def _corpus_correlation(ds: Dataset) -> tuple[np.ndarray, bool]:
    """Mean per-sample Pearson channel correlation; constant channels count as 0."""
    x = ds.values.astype(np.float64)
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
    x = ds.values.astype(np.float64)
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


def diversity_score(real: Dataset, synth: Dataset) -> float:
    """Mean pairwise distance of synthetic autocorrelation features, relative to real."""
    if len(synth) < 2:
        raise ContractError("diversity score needs >= 2 synthetic samples")
    if len(real) < 2:
        raise ContractError("diversity score needs >= 2 real samples")
    if min(real.tau, synth.tau) < 3:  # the autocorrelation features need a lag in 1..tau-2
        raise ContractError("diversity score needs tau >= 3")
    if real.dim != synth.dim:
        raise ContractError("corpora must share the channel count")
    fr = _acf_features(real, ACF_MAX_LAG)
    fs = _acf_features(synth, ACF_MAX_LAG)
    denom = _mean_pairwise_distance(fr)
    if denom == 0:
        raise ContractError("real corpus has zero feature diversity; ratio undefined")
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
    shape = (train_real[0].tau, train_real[0].dim)
    for role, corpora in (("training", train_real), ("synthetic", synth_per_class), ("test", test)):
        for i, ds in enumerate(corpora, 1):
            if (ds.tau, ds.dim) != shape:
                raise ContractError(f"{role} corpus {i} ({ds.id}) holds (tau, d) = ({ds.tau}, {ds.dim}), "
                                    f"but training corpus 1 holds {shape}")

    def collect(datasets):
        xs, ys = [], []
        for ds in datasets:
            if ds.label not in index:
                raise ContractError(f"label {ds.label!r} not among training classes")
            xs.append(ds.values.reshape(len(ds), -1))
            ys.append(np.full(len(ds), index[ds.label], dtype=int))
        return np.concatenate(xs), np.concatenate(ys)

    x_train, y_train = collect([*train_real, *synth_per_class])
    x_test, y_test = collect(test)
    present = set(np.unique(y_test).tolist())
    for label, i in index.items():
        if i not in present:
            raise ContractError(f"class {label!r} has no test samples")

    logits = _fit_predict(x_train[None], x_test[None], [64, 32], len(classes),
                          lambda out: cross_entropy_grad(out, y_train), steps=400, lr=3e-3, seeds=(seed,))
    pred = np.argmax(logits[0], axis=1)
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


def check_request(metrics, seeds) -> list[str]:
    """The metric names an evaluation request selects ("all" selects every one), after checking that
    each is in METRIC_NAMES, none named twice, and that `seeds` is a non-empty list of distinct seeds >= 0
    (ContractError)."""
    for m in metrics:
        if m != "all" and m not in METRIC_NAMES:
            raise ContractError(f"unknown metric {m!r}; choose from all, {', '.join(METRIC_NAMES)}")
    if len(set(metrics)) != len(metrics):
        raise ContractError(f"metrics must be distinct, none named twice, got {list(metrics)}")
    if not seeds or len(set(seeds)) != len(seeds):
        raise ContractError(f"seeds must be a non-empty list of distinct seeds, none named twice, "
                            f"got {list(seeds)}")
    if min(seeds) < 0:
        raise ContractError(f"seeds must be >= 0, got {list(seeds)}")
    return list(METRIC_NAMES) if "all" in metrics else list(metrics)


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


def evaluate_corpora(real: Dataset, synth: Dataset, metrics=("all",), seeds=(0,)) -> MetricReport:
    """Run the selected metrics for every seed and report per-seed values plus medians.

    Every score runs once: `discriminative` and `predictive` train all seeds' networks as one stack.
    """
    wanted = check_request(metrics, seeds)
    if (real.tau, real.dim) != (synth.tau, synth.dim):
        raise ContractError("real and synthetic corpora must share (tau, d)")
    warnings: list = []

    def run(metric: str) -> list[float]:
        if metric == "context_fid":
            return [context_fid(real, synth)] * len(seeds)
        if metric == "correlational":
            return [correlational_score(real, synth, warnings)] * len(seeds)
        if metric == "discriminative":
            return discriminative_score(real, synth, seeds)
        if metric == "predictive":
            return predictive_score(real, synth, seeds)
        return [diversity_score(real, synth)] * len(seeds)

    values: dict = {m: {} for m in wanted}
    for m in wanted:
        for s, v in zip(seeds, run(m)):
            if not np.isfinite(v):
                raise ContractError(f"metric {m} produced a non-finite value")
            values[m][str(s)] = float(v)
    medians = {m: float(np.median(list(values[m].values()))) for m in wanted}
    meta = {
        "seeds": list(seeds),
        "corpus_real": real.id,
        "corpus_synth": synth.id,
        "metric_version": METRIC_VERSION,
        "encoder_seed": DEFAULT_ENCODER_SEED,
    }
    return MetricReport(values=values, medians=medians, metadata=meta, warnings=sorted(set(warnings)))
