"""Time-series containers, synthetic fault injection, normalization, corpus I/O.

The fault catalog names fifteen injectable kinds; their transforms below are
this module's canonical definitions (simplest signal-processing realization
of each name) so that tests have reproducible ground truth.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, CorpusError

FAULT_KINDS = (
    "sudden",
    "gradual",
    "periodic",
    "random_noise",
    "intermittent",
    "impulse",
    "trend",
    "saturation",
    "offset",
    "compound",
    "frequency_shift",
    "amplitude_shift",
    "missing_data",
    "low_frequency_anomaly",
    "sudden_recovery",
)


@dataclass
class TimeSeries:
    """A tau x d matrix of sensor readings plus channel names."""

    values: np.ndarray
    channel_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ContractError(f"TimeSeries needs a (tau>=2, d) matrix, got {self.values.shape}")
        if len(self.channel_names) != self.values.shape[1]:
            raise ContractError("channel_names length must match the channel count")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("TimeSeries values must be finite")

    @property
    def tau(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class Dataset:
    """A uniform collection of TimeSeries under one domain label."""

    samples: list[TimeSeries]
    label: str
    id: str
    seed: int | None = None
    fault_spec: "FaultSpec | None" = None

    def __post_init__(self):
        if not self.samples:
            raise ContractError("Dataset must be nonempty")
        shape = self.samples[0].values.shape
        for s in self.samples:
            if s.values.shape != shape:
                raise ContractError("Dataset samples must share one (tau, d) shape")

    def __len__(self):
        return len(self.samples)

    @property
    def tau(self) -> int:
        return self.samples[0].tau

    @property
    def dim(self) -> int:
        return self.samples[0].dim

    def as_array(self) -> np.ndarray:
        """(n, tau, d) float32 view of all samples."""
        return np.stack([s.values for s in self.samples])


@dataclass
class FaultSpec:
    """Parametrized description of one injectable fault."""

    kind: str
    onset: int
    duration: int
    magnitude: float
    channels: list[int] | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ContractError(f"unknown fault kind {self.kind!r}")
        if not np.isfinite(self.magnitude):
            raise ContractError("fault magnitude must be finite")

    def validate(self, tau: int, dim: int) -> None:
        if not 0 <= self.onset < tau:
            raise ContractError(f"onset {self.onset} outside [0, {tau})")
        if self.duration < 1:
            raise ContractError("duration must be >= 1")
        end = self.onset + self.duration
        if self.kind == "sudden_recovery":
            # the recovery point (onset+duration) must land strictly inside the series
            if end >= tau:
                raise ContractError("sudden_recovery needs a recovery point < tau")
        elif end > tau:
            raise ContractError(f"fault window [{self.onset}, {end}) exceeds tau={tau}")
        if self.channels is not None:
            for c in self.channels:
                if not 0 <= c < dim:
                    raise ContractError(f"channel {c} outside [0, {dim})")
        if self.kind == "random_noise" and self.magnitude < 0:
            raise ContractError("random_noise magnitude is a standard deviation and must be >= 0")
        if self.kind == "impulse" and self.extra.get("count", 1) < 1:
            raise ContractError("impulse count must be >= 1")
        if self.kind == "compound" and not self.extra.get("components"):
            raise ContractError("compound fault needs extra['components']")
        if self.kind == "low_frequency_anomaly":
            period = self.extra.get("period", 2 * self.duration)
            if period < self.duration:
                raise ContractError("low_frequency_anomaly needs period >= duration")

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "onset": self.onset,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }
        if self.channels is not None:
            d["channels"] = list(self.channels)
        if self.extra:
            extra = dict(self.extra)
            if "components" in extra:
                extra["components"] = [c.to_dict() for c in extra["components"]]
            d["extra"] = extra
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        extra = dict(d.get("extra", {}))
        if "components" in extra:
            extra["components"] = [cls.from_dict(c) for c in extra["components"]]
        return cls(
            kind=d["kind"],
            onset=int(d["onset"]),
            duration=int(d["duration"]),
            magnitude=float(d["magnitude"]),
            channels=list(d["channels"]) if d.get("channels") is not None else None,
            extra=extra,
        )


def effective_window(spec: FaultSpec, tau: int) -> tuple[int, int]:
    """Timestep range [lo, hi) a fault kind actually touches.

    `sudden` and `trend` persist to the end of the series; every other kind
    stays inside [onset, onset+duration).
    """
    if spec.kind in ("sudden", "trend"):
        return spec.onset, tau
    if spec.kind == "compound":
        los, his = zip(*(effective_window(c, tau) for c in spec.extra["components"]))
        return min(los), max(his)
    return spec.onset, spec.onset + spec.duration


# ----------------------------------------------------------------------
# normal-data generator


def generate_normal(
    tau: int,
    dim: int,
    n_samples: int,
    seed: int,
    base_kind: str = "sine_mixture",
    noise_std: float = 0.05,
    components: tuple[int, int] = (2, 4),
    ar_coeffs: tuple[float, float] = (0.5, -0.25),
    ar_noise_std: float = 0.3,
    label: str = "normal",
    dataset_id: str | None = None,
) -> Dataset:
    """Seeded stationary multichannel corpus.

    `sine_mixture`: per channel, draws a component count in `components`, then
    per component (cycles, phase, amplitude), then additive white noise — in
    that order, from a per-sample rng seeded `seed + index`.
    `ar_process`: per channel, an order-2 autoregression with `ar_coeffs`
    driven by N(0, ar_noise_std^2), with a 128-step burn-in.
    """
    if tau < 8 or dim < 1 or n_samples < 1:
        raise ContractError("generate_normal needs tau >= 8, dim >= 1, n_samples >= 1")
    if base_kind not in ("sine_mixture", "ar_process"):
        raise ContractError(f"unknown base_kind {base_kind!r}")
    if base_kind == "ar_process":
        a1, a2 = ar_coeffs
        if abs(a2) >= 1 or abs(a1) >= 1 - a2 or a2 <= abs(a1) - 1:
            raise ContractError("ar_coeffs must satisfy the AR(2) stationarity triangle")
    names = [f"ch{c}" for c in range(dim)]

    def build(i: int) -> TimeSeries:
        rng = np.random.default_rng(seed + i)
        x = np.zeros((tau, dim), dtype=np.float64)
        t = np.arange(tau)
        if base_kind == "sine_mixture":
            for c in range(dim):
                n_comp = int(rng.integers(components[0], components[1] + 1))
                for _ in range(n_comp):
                    cycles = rng.uniform(1.0, 4.0)
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    amp = rng.uniform(0.3, 1.0) / n_comp
                    x[:, c] += amp * np.sin(2.0 * np.pi * cycles * t / tau + phase)
                if noise_std > 0:
                    x[:, c] += rng.normal(0.0, noise_std, size=tau)
        else:
            a1, a2 = ar_coeffs
            burn = 128
            for c in range(dim):
                eta = rng.normal(0.0, ar_noise_std, size=tau + burn)
                z = np.zeros(tau + burn)
                for k in range(2, tau + burn):
                    z[k] = a1 * z[k - 1] + a2 * z[k - 2] + eta[k]
                x[:, c] = z[burn:]
        return TimeSeries(x.astype(np.float32), list(names))

    samples = [build(i) for i in range(n_samples)]
    return Dataset(samples, label=label, id=dataset_id or f"{label}-{seed}", seed=seed)


# ----------------------------------------------------------------------
# fault injection


def inject_fault(series: TimeSeries, spec: FaultSpec, seed: int) -> TimeSeries:
    """Apply one fault transform; timesteps/channels outside the fault stay bit-identical."""
    spec.validate(series.tau, series.dim)
    tau = series.tau
    out = series.values.copy()
    chans = list(range(series.dim)) if spec.channels is None else list(spec.channels)
    lo, hi = spec.onset, spec.onset + spec.duration
    m = np.float32(spec.magnitude)
    rng = np.random.default_rng(seed)
    rel = np.arange(lo, hi) - lo

    if spec.kind == "sudden":
        out[lo:, chans] += m
    elif spec.kind == "gradual":
        ramp = (m * (rel + 1) / spec.duration).astype(np.float32)
        out[lo:hi, chans] += ramp[:, None]
    elif spec.kind == "periodic":
        period = float(spec.extra.get("period", max(2, spec.duration // 4)))
        wave = (m * np.sin(2.0 * np.pi * rel / period)).astype(np.float32)
        out[lo:hi, chans] += wave[:, None]
    elif spec.kind == "random_noise":
        noise = rng.normal(0.0, spec.magnitude, size=(hi - lo, len(chans)))
        out[lo:hi, chans] += noise.astype(np.float32)
    elif spec.kind == "intermittent":
        burst = int(spec.extra.get("burst_len", max(1, spec.duration // 4)))
        on = (rel // burst) % 2 == 0
        out[lo:hi, chans] += np.where(on, m, np.float32(0.0))[:, None]
    elif spec.kind == "impulse":
        count = int(spec.extra.get("count", max(1, spec.duration // 8)))
        count = min(count, spec.duration)
        pos = rng.choice(spec.duration, size=count, replace=False)
        for p in np.sort(pos):
            out[lo + int(p), chans] += m
    elif spec.kind == "trend":
        slope = m / spec.duration
        drift = (slope * (np.arange(lo, tau) - lo)).astype(np.float32)
        out[lo:, chans] += drift[:, None]
    elif spec.kind == "saturation":
        clip = np.float32(spec.extra.get("clip_level", spec.magnitude))
        out[lo:hi, chans] = np.clip(out[lo:hi, chans], -clip, clip)
    elif spec.kind == "offset":
        out[lo:hi, chans] += m
    elif spec.kind == "compound":
        result = series
        for j, sub in enumerate(spec.extra["components"]):
            result = inject_fault(result, sub, seed + j)
        return result
    elif spec.kind == "frequency_shift":
        # time inside the window runs faster by (1+magnitude); resample by linear interp
        src = lo + rel * (1.0 + spec.magnitude)
        src = np.clip(src, 0.0, tau - 1.0)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, tau - 1)
        frac = (src - i0).astype(np.float32)
        for c in chans:
            col = series.values[:, c]
            out[lo:hi, c] = (1.0 - frac) * col[i0] + frac * col[i1]
    elif spec.kind == "amplitude_shift":
        out[lo:hi, chans] *= np.float32(1.0 + spec.magnitude)
    elif spec.kind == "missing_data":
        hold = series.values[max(lo - 1, 0), chans]
        out[lo:hi, chans] = hold
    elif spec.kind == "low_frequency_anomaly":
        period = float(spec.extra.get("period", 2 * spec.duration))
        wave = (m * np.sin(2.0 * np.pi * rel / period)).astype(np.float32)
        out[lo:hi, chans] += wave[:, None]
    elif spec.kind == "sudden_recovery":
        out[lo:hi, chans] += m
    else:  # pragma: no cover — FAULT_KINDS is checked in __post_init__
        raise ContractError(f"unknown fault kind {spec.kind!r}")

    return TimeSeries(out, list(series.channel_names))


def default_fault_spec(
    kind: str,
    tau: int,
    dim: int,
    rng: np.random.Generator,
    magnitude: float | None = None,
    onset: int | None = None,
    duration: int | None = None,
    channels: list[int] | None = None,
    channel_std: float = 1.0,
    extra: dict | None = None,
) -> FaultSpec:
    """Draw unspecified fault parameters from the documented default ranges.

    Onset and duration are uniform in [tau/4, tau/2]; magnitude is 1-3x the
    channel standard deviation. These defaults are conventions, exposed as
    configuration rather than asserted ground truth.
    """
    if onset is None:
        onset = int(rng.integers(tau // 4, tau // 2 + 1))
    if duration is None:
        duration = int(rng.integers(tau // 4, tau // 2 + 1))
    if kind == "sudden_recovery":
        duration = min(duration, tau - onset - 1)
        duration = max(duration, 1)
    else:
        duration = min(duration, tau - onset)
    if magnitude is None:
        magnitude = float(rng.uniform(1.0, 3.0)) * channel_std
    return FaultSpec(kind, onset, duration, magnitude, channels, dict(extra or {}))


def make_fault_dataset(
    base: Dataset,
    kind: str,
    seed: int,
    magnitude: float | None = None,
    onset: int | None = None,
    duration: int | None = None,
    channels: list[int] | None = None,
    extra: dict | None = None,
    dataset_id: str | None = None,
) -> Dataset:
    """Inject `kind` into every sample of `base` with per-sample derived seeds."""
    rng = np.random.default_rng(seed)
    std = float(np.std(base.as_array()))
    samples = []
    spec0 = None
    for i, s in enumerate(base.samples):
        spec = default_fault_spec(
            kind, base.tau, base.dim, rng,
            magnitude=magnitude, onset=onset, duration=duration,
            channels=channels, channel_std=std, extra=extra,
        )
        spec0 = spec0 or spec
        samples.append(inject_fault(s, spec, seed + i))
    return Dataset(
        samples,
        label=f"fault:{kind}",
        id=dataset_id or f"fault-{kind}-{seed}",
        seed=seed,
        fault_spec=spec0,
    )


# ----------------------------------------------------------------------
# normalization


class Normalizer:
    """Per-channel affine scaling; minmax maps the fitted data into [-1, 1]."""

    def __init__(self, mode: str, lo: np.ndarray, hi: np.ndarray):
        if mode not in ("minmax", "zscore"):
            raise ContractError(f"unknown normalizer mode {mode!r}")
        self.mode = mode
        self.lo = np.asarray(lo, dtype=np.float32)  # min (minmax) or mean (zscore)
        self.hi = np.asarray(hi, dtype=np.float32)  # max (minmax) or std  (zscore)

    def apply(self, series: TimeSeries) -> TimeSeries:
        x = series.values.astype(np.float64)
        if self.mode == "minmax":
            span = (self.hi - self.lo).astype(np.float64)
            ok = span > 0
            y = np.where(ok, 2.0 * (x - self.lo) / np.where(ok, span, 1.0) - 1.0, 0.0)
        else:
            ok = self.hi > 0
            y = np.where(ok, (x - self.lo) / np.where(ok, self.hi, 1.0), 0.0)
        return TimeSeries(y.astype(np.float32), list(series.channel_names))

    def invert(self, series: TimeSeries) -> TimeSeries:
        y = series.values.astype(np.float64)
        if self.mode == "minmax":
            span = (self.hi - self.lo).astype(np.float64)
            ok = span > 0
            x = np.where(ok, (y + 1.0) / 2.0 * span + self.lo, self.lo)
        else:
            ok = self.hi > 0
            x = np.where(ok, y * self.hi + self.lo, self.lo)
        return TimeSeries(x.astype(np.float32), list(series.channel_names))

    def apply_dataset(self, ds: Dataset) -> Dataset:
        return Dataset([self.apply(s) for s in ds.samples], ds.label, ds.id, ds.seed, ds.fault_spec)


def fit_normalizer(ds: Dataset, mode: str = "minmax") -> Normalizer:
    arr = ds.as_array()
    if mode == "minmax":
        return Normalizer(mode, arr.min(axis=(0, 1)), arr.max(axis=(0, 1)))
    if mode == "zscore":
        return Normalizer(mode, arr.mean(axis=(0, 1)), arr.std(axis=(0, 1)))
    raise ContractError(f"unknown normalizer mode {mode!r}")


# ----------------------------------------------------------------------
# corpus I/O


def _fmt(v: np.float32) -> str:
    return np.format_float_positional(v, unique=True, trim="0")


def save_corpus(ds: Dataset, directory) -> None:
    """Write manifest.json plus one CSV per sample (header = channel names)."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "id": ds.id,
        "label": ds.label,
        "tau": ds.tau,
        "dim": ds.dim,
        "n": len(ds),
        "seed": ds.seed,
        "channel_names": list(ds.samples[0].channel_names),
    }
    if ds.fault_spec is not None:
        manifest["fault_spec"] = ds.fault_spec.to_dict()
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i, s in enumerate(ds.samples):
        path = os.path.join(directory, f"sample_{i:05d}.csv")
        with open(path, "w") as fh:
            fh.write(",".join(s.channel_names) + "\n")
            for row in s.values:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_corpus(directory) -> Dataset:
    """Load a corpus directory, validating manifest, shapes, and finiteness."""
    mpath = os.path.join(directory, "manifest.json")
    if not os.path.isfile(mpath):
        raise CorpusError(f"missing manifest: {mpath}")
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CorpusError(f"malformed manifest {mpath}: {e}") from e
    for key in ("id", "label", "tau", "dim", "n"):
        if key not in manifest:
            raise CorpusError(f"manifest {mpath} missing field {key!r}")
    tau, dim, n = (manifest[key] for key in ("tau", "dim", "n"))
    if not all(type(v) is int for v in (tau, dim, n)):  # bool is an int subclass; 2.5 is not truncated
        raise CorpusError(f"manifest {mpath}: tau, dim and n must be integers, "
                          f"got {tau!r}, {dim!r}, {n!r}")

    files = sorted(f for f in os.listdir(directory) if f.startswith("sample_") and f.endswith(".csv"))
    if len(files) != n:
        raise CorpusError(f"manifest {mpath} declares {n} samples but {len(files)} files present")

    samples = []
    for fname in files:
        path = os.path.join(directory, fname)
        with open(path) as fh:
            header = fh.readline().strip()
            names = header.split(",") if header else []
            if len(names) != dim:
                raise CorpusError(f"{path}: header has {len(names)} channels, manifest says {dim}")
            rows = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != dim:
                    raise CorpusError(f"{path}: row {lineno} has {len(cells)} values, expected {dim}")
                try:
                    vals = [float(c) for c in cells]
                except ValueError as e:
                    raise CorpusError(f"{path}: row {lineno}: {e}") from e
                for col, v in enumerate(vals):
                    if not np.isfinite(v):
                        raise CorpusError(f"{path}: non-finite value at row {lineno}, column {col}")
                rows.append(vals)
        if len(rows) != tau:
            raise CorpusError(f"{path}: {len(rows)} timesteps, manifest says {tau}")
        samples.append(TimeSeries(np.asarray(rows, dtype=np.float32), names))

    try:
        spec = FaultSpec.from_dict(manifest["fault_spec"]) if manifest.get("fault_spec") else None
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusError(f"manifest {mpath}: malformed fault_spec: {e!r}") from e
    return Dataset(
        samples,
        label=manifest["label"],
        id=manifest["id"],
        seed=manifest.get("seed"),
        fault_spec=spec,
    )
