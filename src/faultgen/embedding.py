"""2-D projections of sample corpora for visualization: exact PCA and t-SNE,
plus per-axis kernel-density estimates, all emitted as plain CSV."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .eig import MAX_SIZE, sym_eig
from .errors import ContractError
from .metrics import ContextEncoder, DEFAULT_ENCODER_SEED


@dataclass
class EmbedResult:
    labels: list
    coords: np.ndarray               # (n, 2)
    kde: list = field(default_factory=list)  # rows (label, axis, grid, density)

    def coords_csv(self) -> str:
        lines = ["label,x,y"]
        for lab, (x, y) in zip(self.labels, self.coords):
            lines.append(f"{lab},{float(x)!r},{float(y)!r}")
        return "\n".join(lines) + "\n"

    def kde_csv(self) -> str:
        lines = ["label,axis,grid,density"]
        for lab, axis, g, d in self.kde:
            lines.append(f"{lab},{axis},{g!r},{d!r}")
        return "\n".join(lines) + "\n"


def _features(datasets: list[Dataset], kind: str) -> tuple[np.ndarray, list]:
    labels = [ds.label for ds in datasets for _ in range(len(ds))]
    if kind == "context":
        enc = ContextEncoder(datasets[0].dim, DEFAULT_ENCODER_SEED)
        return np.concatenate([enc.embed(ds.as_array()) for ds in datasets]), labels
    x = np.concatenate([ds.as_array() for ds in datasets]).astype(np.float64)
    return x.reshape(len(x), -1), labels


def pca_2d(x: np.ndarray) -> np.ndarray:
    """Exact 2-D PCA through the covariance (or Gram) eigendecomposition."""
    n, q = x.shape
    xc = x - x.mean(axis=0)
    if q <= n:
        if q > MAX_SIZE:
            raise ContractError(f"PCA feature dim {q} exceeds {MAX_SIZE}; use context features")
        cov = xc.T @ xc / max(n - 1, 1)
        w, v = sym_eig(cov)
        comps = v[:, ::-1][:, :2]  # ascending -> take the top two
        coords = xc @ comps
    else:
        if n > MAX_SIZE:
            raise ContractError(f"PCA sample count {n} exceeds {MAX_SIZE} for the Gram route")
        gram = xc @ xc.T / max(n - 1, 1)
        w, u = sym_eig(gram)
        w, u = w[::-1][:2], u[:, ::-1][:, :2]
        coords = u * np.sqrt(np.maximum(w, 1e-12) * max(n - 1, 1))
    # deterministic sign convention: largest-magnitude entry of each axis positive
    for j in range(coords.shape[1]):
        k = np.argmax(np.abs(coords[:, j]))
        if coords[k, j] < 0:
            coords[:, j] = -coords[:, j]
    return coords


def _tsne_probabilities(x: np.ndarray, perplexity: float) -> np.ndarray:
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    target = np.log(perplexity)
    p = np.zeros((n, n))
    for i in range(n):
        # shifted by the nearest distance, the nearest neighbour weighs 1 and no row sum underflows
        di = np.delete(d2[i], i)
        di -= di.min()
        lo, hi = 1e-20, 1e20
        beta = 1.0
        for _ in range(64):
            expd = np.exp(-di * beta)
            probs = expd / expd.sum()
            ent = -np.sum(probs * np.log(np.maximum(probs, 1e-300)))
            if abs(ent - target) < 1e-5:
                break
            if ent > target:
                lo = beta
                beta = beta * 2.0 if hi >= 1e20 else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (beta + lo) / 2.0
        expd = np.exp(-di * beta)
        p[i] = np.insert(expd / expd.sum(), i, 0.0)
    p = (p + p.T) / (2.0 * n)
    return np.maximum(p, 1e-12)


def tsne_2d(x: np.ndarray, perplexity: float = 30.0, iters: int = 500,
            learning_rate: float = 100.0, seed: int = 0) -> np.ndarray:
    """Exact O(n^2) t-SNE with early exaggeration and momentum; seeded init."""
    n = x.shape[0]
    eff = min(perplexity, (n - 1) / 3.0)
    if eff < 1.0:
        raise ContractError(f"perplexity infeasible for n={n}")
    p = _tsne_probabilities(x, eff)
    rng = np.random.default_rng(seed)
    y = rng.normal(0, 1e-4, (n, 2))
    vel = np.zeros_like(y)
    exaggeration_until = min(100, iters // 4)
    for it in range(iters):
        pp = p * 12.0 if it < exaggeration_until else p
        sq = np.sum(y * y, axis=1)
        num = 1.0 / (1.0 + np.maximum(sq[:, None] + sq[None, :] - 2.0 * (y @ y.T), 0.0))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-12)
        w = (pp - q) * num
        grad = 4.0 * ((np.diag(w.sum(axis=1)) - w) @ y)
        momentum = 0.5 if it < 250 else 0.8
        vel = momentum * vel - learning_rate * grad
        y = y + vel
        y = y - y.mean(axis=0)
    return y


def _silverman_bandwidth(x: np.ndarray) -> float:
    n = len(x)
    sd = np.std(x)
    q75, q25 = np.percentile(x, [75, 25])
    iqr = q75 - q25
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0:
        scale = max(abs(x).max(), 1.0) * 1e-3
    return 0.9 * scale * n ** (-0.2)


def _kde_rows(labels: list, coords: np.ndarray, grid_points: int = 64) -> list:
    rows = []
    for axis, name in enumerate(("x", "y")):
        vals = coords[:, axis]
        h_all = _silverman_bandwidth(vals)
        grid = np.linspace(vals.min() - 3 * h_all, vals.max() + 3 * h_all, grid_points)
        for lab in dict.fromkeys(labels):
            sel = np.array([l == lab for l in labels])
            pts = vals[sel]
            h = _silverman_bandwidth(pts) if len(pts) > 1 else h_all
            dens = np.exp(-0.5 * ((grid[:, None] - pts[None, :]) / h) ** 2)
            dens = dens.sum(axis=1) / (len(pts) * h * np.sqrt(2 * np.pi))
            for g, d in zip(grid, dens):
                rows.append((lab, name, float(g), float(d)))
    return rows


def embed_2d(datasets: list[Dataset], method: str = "pca", params: dict | None = None,
             seed: int = 0) -> EmbedResult:
    """Project labeled corpora to 2-D and attach per-axis KDE curves.

    params: perplexity / iters / learning_rate (t-SNE), features: "flat"|"context".
    """
    params = dict(params or {})
    total = sum(len(ds) for ds in datasets)
    if total < 3:
        raise ContractError("embedding needs >= 3 samples in total")
    x, labels = _features(datasets, params.get("features", "flat"))
    if method == "pca":
        coords = pca_2d(x)
    elif method == "tsne":
        coords = tsne_2d(
            x,
            perplexity=float(params.get("perplexity", 30.0)),
            iters=int(params.get("iters", 500)),
            learning_rate=float(params.get("learning_rate", 100.0)),
            seed=seed,
        )
    else:
        raise ContractError(f"unknown embedding method {method!r}")
    return EmbedResult(labels=labels, coords=coords, kde=_kde_rows(labels, coords))
