"""Independent computations the stage checks compare faultgen's outputs against.

Nothing here imports faultgen. Files are parsed from their documented
formats, context-FID uses scipy.linalg.sqrtm and the correlational score
uses numpy.corrcoef.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings

import numpy as np
import scipy.linalg

E_ABS_NORMAL = math.sqrt(2.0 / math.pi)  # E|eps| for eps ~ N(0, 1)
SD_ABS_NORMAL = math.sqrt(1.0 - 2.0 / math.pi)  # standard deviation of |eps|
X0_CLIP = 4.0  # the sampler's default bound on the implied clean signal


# ----------------------------------------------------------------------
# file formats


def read_checkpoint(path) -> tuple[dict, dict]:
    """FDCK file: magic | u16 version | u32 header length | JSON header | float32 LE blobs.

    Returns (header, {array name: raw little-endian bytes}).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"FDCK":
        raise ValueError(f"{path}: not an FDCK checkpoint")
    _, hlen = struct.unpack("<HI", raw[4:10])
    header = json.loads(raw[10:10 + hlen])
    blob = raw[10 + hlen:]
    arrays = {e["name"]: blob[e["offset"]:e["offset"] + e["nbytes"]] for e in header["arrays"]}
    return header, arrays


def checkpoint_array(arrays: dict, name: str) -> np.ndarray:
    return np.frombuffer(arrays[name], dtype="<f4").astype(np.float64)


def read_series(path) -> np.ndarray:
    """One corpus CSV: a header of channel names, then one row per time step."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)


def corpus_files(directory) -> list[str]:
    return sorted(os.path.join(directory, f) for f in os.listdir(directory)
                  if f.startswith("sample_") and f.endswith(".csv"))


def read_manifest(directory) -> dict:
    with open(os.path.join(directory, "manifest.json")) as fh:
        return json.load(fh)


def read_loss_curve(path) -> np.ndarray:
    """loss_curve.csv columns: step, loss_base, loss_div, loss_total."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)


# ----------------------------------------------------------------------
# properties of the method


def first_loss_tolerance(batch: int, tau: int, d: int, sigmas: float = 6.0) -> float:
    """Half-width around E|eps| for the mean |eps| over one batch of b*tau*d draws."""
    return sigmas * SD_ABS_NORMAL / math.sqrt(batch * tau * d)


def normalizer_bounds(mode: str, lo, hi, clip: float = X0_CLIP) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel image of [-clip, clip] under the inverse of a fitted normalizer.

    minmax maps x to 2 (x - lo) / (hi - lo) - 1, so its inverse sends y to
    lo + (y + 1) / 2 * (hi - lo); a zero-width channel inverts to lo.
    zscore maps x to (x - mean) / std, stored as lo = mean and hi = std.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if mode == "minmax":
        low = lo + (1.0 - clip) / 2.0 * (hi - lo)
        high = lo + (1.0 + clip) / 2.0 * (hi - lo)
        return np.minimum(low, high), np.maximum(low, high)
    if mode == "zscore":
        return lo - clip * np.abs(hi), lo + clip * np.abs(hi)
    raise ValueError(f"unknown normalizer mode {mode!r}")


# ----------------------------------------------------------------------
# scores


def frechet_sqrtm(emb_a, emb_b, ridge: float = 1e-6) -> float:
    """||mu_a - mu_b||^2 + Tr(C_a + C_b - 2 sqrtm(C_a C_b)), covariances ridged by `ridge`."""
    a = np.asarray(emb_a, dtype=np.float64)
    b = np.asarray(emb_b, dtype=np.float64)
    ca = np.atleast_2d(np.cov(a, rowvar=False)) + ridge * np.eye(a.shape[1])
    cb = np.atleast_2d(np.cov(b, rowvar=False)) + ridge * np.eye(b.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        root = scipy.linalg.sqrtm(ca @ cb)
    root = np.real(root)
    diff = a.mean(axis=0) - b.mean(axis=0)
    return float(diff @ diff + np.trace(ca) + np.trace(cb) - 2.0 * np.trace(root))


def mean_corrcoef(series: list) -> np.ndarray:
    """Mean over series of the channel correlation matrix; a constant channel counts as 0."""
    mats = []
    for x in series:
        x = np.asarray(x, dtype=np.float64)
        ok = x.std(axis=0) > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.corrcoef(x, rowvar=False)
        mats.append(np.where(np.outer(ok, ok), c, 0.0))
    return np.mean(mats, axis=0)


def correlational_corrcoef(real: list, synth: list) -> float:
    """Entrywise L1 distance between the corpora's mean correlation matrices."""
    return float(np.sum(np.abs(mean_corrcoef(real) - mean_corrcoef(synth))))
