"""Time-series containers, synthetic fault injection, normalization, corpus I/O.

The fault catalog names fourteen injectable kinds; their transforms below are
this module's canonical definitions (simplest signal-processing realization
of each name) so that tests have reproducible ground truth.
"""

from __future__ import annotations

import json
import numbers
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

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
    "frequency_shift",
    "amplitude_shift",
    "missing_data",
    "low_frequency_anomaly",
    "sudden_recovery",
)

# A key of `FaultSpec.extra`: the kinds that read it, its type (int or float, never a bool) and its value for a
# spec that does not give it. FAULT_EXTRAS holds every key, in `make-data`'s flag order; a kind it does not name
# reads none.
Extra = namedtuple("Extra", "kinds type default")
FAULT_EXTRAS = {
    "period": Extra(("periodic", "low_frequency_anomaly"), float,  # the sine's period, above 2 steps
                    lambda s: max(3, s.duration // 4) if s.kind == "periodic" else max(3, 2 * s.duration)),
    "clip_level": Extra(("saturation",), float, lambda s: s.magnitude),
    "burst_len": Extra(("intermittent",), int, lambda s: max(1, s.duration // 4)),  # the on and off run length
    "count": Extra(("impulse",), int, lambda s: max(1, s.duration // 8)),  # the spike count
}


# TimeSeries, Dataset's sequence-of-series branch and Normalizer.invert stay: perfbench/tests/test_oracles.py calls them
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


@dataclass(eq=False)
class Dataset:
    """A corpus under one domain label: one read-only float32 (n, tau, d) stack and one list of channel names.

    `values` may be given as that stack, with `channel_names` defaulting to
    ch0..ch{d-1}, or as a sequence of TimeSeries, stacked once here; the
    series must agree on shape and on channel names, which become the
    corpus's. A float32 array is held as a read-only view, not copied. The
    label, the id and each channel name must each fill one CSV cell (`csv_cell`).
    """

    values: np.ndarray
    label: str
    id: str
    seed: int | None = None
    fault_spec: "FaultSpec | None" = None
    channel_names: list[str] | None = None

    def __post_init__(self):
        if not isinstance(self.values, np.ndarray):
            series = list(self.values)
            if not series:
                raise ContractError("Dataset must be nonempty")
            first = series[0]
            if self.channel_names not in (None, first.channel_names) or any(
                    s.values.shape != first.values.shape or s.channel_names != first.channel_names for s in series):
                raise ContractError("Dataset series must share one (tau, d) shape and one list of channel names")
            self.channel_names = first.channel_names
            self.values = np.stack([s.values for s in series])
        self.values = np.asarray(self.values, dtype=np.float32).view()
        self.values.flags.writeable = False
        if self.values.ndim != 3 or min(self.values.shape) < 1 or self.values.shape[1] < 2:
            raise ContractError(f"Dataset needs a nonempty (n, tau>=2, d) stack, got {self.values.shape}")
        if self.channel_names is None:
            self.channel_names = [f"ch{c}" for c in range(self.dim)]
        self.channel_names = list(self.channel_names)
        if len(self.channel_names) != self.dim:
            raise ContractError("channel_names length must match the channel count")
        for what, value in [("label", self.label), ("id", self.id), *(("channel name", c) for c in self.channel_names)]:
            if not csv_cell(value):
                raise ContractError(f"corpus {what} {value!r} must be a string with no ',', '\\n' or '\\r'")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("Dataset values must be finite")

    def __len__(self):
        return self.values.shape[0]

    @property
    def tau(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def csv_cell(value) -> bool:
    """Whether `value` is a string that one unquoted CSV cell holds: one with no ',', '\\n' or '\\r'."""
    return isinstance(value, str) and not any(c in value for c in ",\n\r")


def _require(what: str, value, type_: type) -> None:
    """Raise ContractError naming `what` unless `value` is an integer (`type_` int) or a real number that float64
    holds as a finite value (float); a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if type_ is int else numbers.Real):
        raise ContractError(f"{what} must be {'an integer' if type_ is int else 'a real number'}, got {value!r}")
    if type_ is float and not (abs(value) <= sys.float_info.max if isinstance(value, numbers.Integral)
                               else np.isfinite(value)):  # np.isfinite takes no integer wider than 64 bits
        raise ContractError(f"{what} must be finite, got {value!r}")


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
        for name, type_ in (("onset", int), ("duration", int), ("magnitude", float)):
            _require(f"fault {name}", getattr(self, name), type_)
        if not (self.channels is None or isinstance(self.channels, list)):
            raise ContractError(f"fault channels must be None or a list, got {self.channels!r}")
        for c in self.channels or ():
            _require("fault channel", c, int)

    def validate(self, tau: int, dim: int) -> None:
        unread = sorted(set(self.extra) - {name for name, e in FAULT_EXTRAS.items() if self.kind in e.kinds})
        if unread:
            raise ContractError(f"a {self.kind} fault does not read {', '.join(unread)}")
        for name, value in sorted(self.extra.items()):  # an infinite period or clip level injects nothing
            _require(f"{self.kind} {name}", value, FAULT_EXTRAS[name].type)
        if not 0 <= self.onset < tau:
            raise ContractError(f"onset {self.onset} outside [0, {tau})")
        if self.duration < 1:
            raise ContractError("duration must be >= 1")
        end = self.onset + self.duration
        if self.kind == "sudden_recovery":
            # the recovery point (onset+duration) must land strictly inside the series
            if end >= tau:
                raise ContractError(f"sudden_recovery needs its recovery point, onset {self.onset} + duration "
                                    f"{self.duration} = {end}, below tau={tau}")
        elif end > tau:
            raise ContractError(f"fault window onset {self.onset} + duration {self.duration} = {end} exceeds tau={tau}")
        if self.channels is not None:
            if not self.channels:
                raise ContractError("channels must name at least one channel")
            for c in self.channels:
                if not 0 <= c < dim:
                    raise ContractError(f"channel {c} outside [0, {dim})")
            if len(set(self.channels)) != len(self.channels):
                raise ContractError(f"channels {list(self.channels)} name a channel more than once")
        if self.kind == "random_noise" and self.magnitude < 0:
            raise ContractError("random_noise magnitude is a standard deviation and must be >= 0")
        if self.kind == "impulse" and not 1 <= _extra(self, "count") <= self.duration:
            raise ContractError(f"impulse count must be >= 1 and at most the duration {self.duration}, "
                                f"got {_extra(self, 'count')!r}")
        # a burst as long as the window never switches off, which is a plain offset
        if self.kind == "intermittent" and not 1 <= _extra(self, "burst_len") < self.duration:
            raise ContractError(f"intermittent burst_len must be >= 1 and shorter than the duration "
                                f"{self.duration}, got {_extra(self, 'burst_len')}")
        if self.kind == "saturation" and not _extra(self, "clip_level") >= 0:
            name = "clip_level" if "clip_level" in self.extra else "magnitude"
            raise ContractError(f"saturation {name} must be >= 0 (it is the clip level), "
                                f"got {_extra(self, 'clip_level')!r}")
        # a period of 2 steps or less samples the sine only at its zeros (2, 1, 2/3) or beyond the Nyquist limit
        if self.kind in ("periodic", "low_frequency_anomaly") and not _extra(self, "period") > 2:
            raise ContractError(f"{self.kind} period must be > 2 steps, got {self.extra['period']!r}")
        # a one-step window samples the sine only at its phase origin, sin(0) = 0
        if self.kind in ("periodic", "low_frequency_anomaly") and self.duration < 2:
            raise ContractError(f"{self.kind} duration must be >= 2 steps, got {self.duration}")
        if self.kind == "low_frequency_anomaly" and _extra(self, "period") < self.duration:
            raise ContractError("low_frequency_anomaly needs period >= duration")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "onset": self.onset, "duration": self.duration, "magnitude": self.magnitude}
        if self.channels is not None:
            d["channels"] = list(self.channels)
        if self.extra:
            d["extra"] = dict(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        """The spec `to_dict` wrote, its values as they are: `__post_init__` checks their types."""
        return cls(d["kind"], d["onset"], d["duration"], d["magnitude"], d.get("channels"), dict(d.get("extra", {})))


def _extra(spec: FaultSpec, name: str):
    """`spec.extra[name]` as given, else `FAULT_EXTRAS[name]`'s default for `spec`."""
    return spec.extra[name] if name in spec.extra else FAULT_EXTRAS[name].default(spec)


# ----------------------------------------------------------------------
# keyed random streams and the normal-data generator


# Series are generated and written this many values at a time, so the working
# arrays stay the same size whatever the corpus size.
_CHUNK_VALUES = 1 << 11

# the largest corpus and model sizes. At the desk preset and tau 24, generating 10,000 series takes about 10 minutes
# of CPU time. Attention scores grow as tau squared: a desk training step over 8 series of tau 1024 records 11 score
# arrays of 128 MB. 10,000 series of tau 24 and 256 channels are 246 MB of float32.
MAX_SERIES, MAX_TAU, MAX_DIM = 10_000, 1024, 256
# the largest corpus as a whole, n x tau x dim values: 256 MiB of float32. It holds 10,000 series of tau 24 and 256
# channels, or 256 series at MAX_TAU and MAX_DIM; 10,000 of those would ask for 9.8 GiB.
MAX_VALUES = 1 << 26
SINE_COMPONENTS = (2, 4)  # a sine mixture has 2 to 4 components per channel
AR_COEFFS = (0.5, -0.25)  # inside the AR(2) stationarity triangle
AR_NOISE_STD = 0.3
(BASE_STREAM, INJECTION_STREAM, NOISE_STREAM, BACKBONE_STREAM, ADAPTER_STREAM, TRAIN_STREAM, PAIR_STREAM,
 SPLIT_STREAM, NETWORK_STREAM, TSNE_STREAM) = range(10)  # a role's number is part of its key: add new roles last


def series_rng(seed: int, role: int, i: int) -> np.random.Generator:
    """Stream i of `role` (series i of a per-series role, else 0), keyed by (seed, role, i) alone. Every draw starts
    here but `make_fault_dataset`'s spec stream and `ContextEncoder`'s constant."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, i)))


def check_value_count(n: int, tau: int, dim: int) -> None:
    """Raise ContractError if n series of tau steps and dim channels hold more than MAX_VALUES values."""
    if n * tau * dim > MAX_VALUES:
        raise ContractError(f"{n} series of {tau} steps and {dim} channels hold {n * tau * dim} values, "
                            f"above the bound of {MAX_VALUES}")


def _chunks(n: int, values_per_series: int):
    """Consecutive ranges covering range(n), each of at most _CHUNK_VALUES values or one series."""
    step = max(1, _CHUNK_VALUES // values_per_series)
    return [range(lo, min(lo + step, n)) for lo in range(0, n, step)]


def generate_normal(
    tau: int,
    dim: int,
    n_samples: int,
    seed: int,
    base_kind: str = "sine_mixture",
    noise_std: float = 0.05,
) -> Dataset:
    """Seeded stationary multichannel corpus, labelled `normal` with id `normal-<seed>`.

    Series i draws from its own `series_rng(seed, BASE_STREAM, i)`, so neighbouring seeds share no series,
    and the order of its draws is the contract: any rewrite of the arithmetic around the draws must keep it,
    so that a seed always gives the same corpus bits. `sine_mixture`: per channel, one `integers` call for
    the component count m in SINE_COMPONENTS, then one `random(3m)` call giving each component's (cycles,
    phase, amplitude) as `uniform`'s next doubles in that order, then (if `noise_std` > 0) one `normal` call
    for tau samples of white noise. Each component is amp * sin(2π·cycles·t/tau + phase), with cycles in
    [1, 4), phase in [0, 2π) and amp in [0.3, 1) / m, summed in order. `ar_process`: per channel, one
    `normal` call for tau + 128 innovations of N(0, AR_NOISE_STD^2) driving an order-2 autoregression with
    AR_COEFFS from zero; the first 128 steps are burn-in."""
    if not (8 <= tau <= MAX_TAU and 1 <= dim <= MAX_DIM and 1 <= n_samples <= MAX_SERIES):
        raise ContractError(f"generate_normal needs 8 <= tau <= {MAX_TAU}, 1 <= dim <= {MAX_DIM} and "
                            f"1 <= n_samples <= {MAX_SERIES}, got {tau}, {dim} and {n_samples}")
    if base_kind not in ("sine_mixture", "ar_process"):
        raise ContractError(f"unknown base_kind {base_kind!r}")
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise ContractError(f"noise_std must be a finite standard deviation >= 0, got {noise_std!r}")
    check_value_count(n_samples, tau, dim)
    values = np.empty((n_samples, tau, dim), dtype=np.float32)
    for idx in _chunks(n_samples, tau * dim):
        rngs = [series_rng(seed, BASE_STREAM, i) for i in idx]
        if base_kind == "sine_mixture":
            values[idx.start:idx.stop] = _sine_mixture(rngs, tau, dim, noise_std)
        else:
            values[idx.start:idx.stop] = _ar_process(rngs, tau, dim)
    return Dataset(values, label="normal", id=f"normal-{seed}", seed=seed)


def _sine_mixture(rngs, tau: int, dim: int, noise_std: float) -> np.ndarray:
    """(len(rngs), tau, dim) float64 sine mixtures, one series per rng."""
    lo, hi = SINE_COMPONENTS
    k = len(rngs)
    m = np.zeros((k, dim), dtype=np.int64)
    u = np.zeros((k, hi, 3, dim))
    noise = np.zeros((k, tau, dim))
    for j, rng in enumerate(rngs):
        for c in range(dim):
            m[j, c] = rng.integers(lo, hi + 1)
            u[j, :m[j, c], :, c] = rng.random((m[j, c], 3))
            if noise_std > 0:
                noise[j, :, c] = rng.normal(0.0, noise_std, size=tau)
    # Generator.uniform(a, b) is a + (b - a) * next_double, so these are the bits of
    # uniform(1, 4), uniform(0, 2π) and uniform(0.3, 1) drawn one at a time.
    cycles = 1.0 + (4.0 - 1.0) * u[:, :, None, 0]  # (k, hi, 1, dim)
    phase = 2.0 * np.pi * u[:, :, None, 1]
    amp = (0.3 + (1.0 - 0.3) * u[:, :, None, 2]) / np.maximum(m, 1)[:, None, None]  # m = 0 uses no amp
    t = np.arange(tau)[:, None]
    waves = amp * np.sin(2.0 * np.pi * cycles * t / tau + phase)  # (k, hi, tau, dim)
    x = np.zeros((k, tau, dim))
    for q in range(hi):
        # a missing component is skipped, not added as 0.0, so every sum keeps its bits
        x = np.where((q < m)[:, None, :], x + waves[:, q], x)
    if noise_std > 0:
        x += noise
    return x


def _ar_process(rngs, tau: int, dim: int) -> np.ndarray:
    """(len(rngs), tau, dim) float64 AR(2) series, one series per rng, after the burn-in."""
    a1, a2 = AR_COEFFS
    burn = 128
    eta = np.empty((tau + burn, len(rngs), dim))
    for j, rng in enumerate(rngs):
        for c in range(dim):
            eta[:, j, c] = rng.normal(0.0, AR_NOISE_STD, size=tau + burn)
    z = np.zeros_like(eta)
    for q in range(2, tau + burn):
        z[q] = a1 * z[q - 1] + a2 * z[q - 2] + eta[q]
    return z[burn:].transpose(1, 0, 2)


# ----------------------------------------------------------------------
# fault injection


def inject_fault(values: np.ndarray, spec: FaultSpec, rng: np.random.Generator) -> np.ndarray:
    """A copy of the float32 (tau, d) array `values` with one fault applied; timesteps and channels outside the
    fault stay bit-identical. `sudden` and `trend` run from the onset to the series' end, every other kind inside
    [onset, onset + duration). Random kinds draw from `rng`."""
    values = np.asarray(values)
    if values.dtype != np.float32 or values.ndim != 2 or len(values) < 2:
        raise ContractError(f"inject_fault needs a float32 (tau>=2, d) array, got {values.dtype} {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ContractError("inject_fault values must be finite")
    tau, dim = values.shape
    spec.validate(tau, dim)
    out = values.copy()
    chans = list(range(dim)) if spec.channels is None else list(spec.channels)
    lo, hi = spec.onset, spec.onset + spec.duration
    m = np.float32(spec.magnitude)
    rel = np.arange(lo, hi) - lo

    if spec.kind == "sudden":
        out[lo:, chans] += m
    elif spec.kind == "gradual":
        ramp = (m * (rel + 1) / spec.duration).astype(np.float32)
        out[lo:hi, chans] += ramp[:, None]
    elif spec.kind in ("periodic", "low_frequency_anomaly"):
        wave = (m * np.sin(2.0 * np.pi * rel / _extra(spec, "period"))).astype(np.float32)
        out[lo:hi, chans] += wave[:, None]
    elif spec.kind == "random_noise":
        noise = rng.normal(0.0, spec.magnitude, size=(hi - lo, len(chans)))
        out[lo:hi, chans] += noise.astype(np.float32)
    elif spec.kind == "intermittent":
        on = (rel // _extra(spec, "burst_len")) % 2 == 0
        out[lo:hi, chans] += np.where(on, m, np.float32(0.0))[:, None]
    elif spec.kind == "impulse":
        pos = rng.choice(spec.duration, size=_extra(spec, "count"), replace=False)
        for p in np.sort(pos):
            out[lo + int(p), chans] += m
    elif spec.kind == "trend":
        slope = m / spec.duration
        drift = (slope * (np.arange(lo, tau) - lo)).astype(np.float32)
        out[lo:, chans] += drift[:, None]
    elif spec.kind == "saturation":
        clip = np.float32(_extra(spec, "clip_level"))
        out[lo:hi, chans] = np.clip(out[lo:hi, chans], -clip, clip)
    elif spec.kind in ("offset", "sudden_recovery"):
        out[lo:hi, chans] += m
    elif spec.kind == "frequency_shift":
        # time inside the window runs faster by (1+magnitude); resample by linear interp
        src = lo + rel * (1.0 + spec.magnitude)
        src = np.clip(src, 0.0, tau - 1.0)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, tau - 1)
        frac = (src - i0).astype(np.float32)
        for c in chans:
            col = values[:, c]
            out[lo:hi, c] = (1.0 - frac) * col[i0] + frac * col[i1]
    elif spec.kind == "amplitude_shift":
        out[lo:hi, chans] *= np.float32(1.0 + spec.magnitude)
    elif spec.kind == "missing_data":
        hold = values[max(lo - 1, 0), chans]
        out[lo:hi, chans] = hold
    else:  # pragma: no cover — FAULT_KINDS is checked in __post_init__
        raise ContractError(f"unknown fault kind {spec.kind!r}")
    return out


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
    configuration rather than asserted ground truth. A drawn duration is
    shortened to fit the series after the onset; a given one is kept, and
    `FaultSpec.validate` rejects it if it does not fit.
    """
    if onset is None:
        onset = int(rng.integers(tau // 4, tau // 2 + 1))
    if duration is None:
        room = tau - onset - 1 if kind == "sudden_recovery" else tau - onset
        duration = max(1, min(int(rng.integers(tau // 4, tau // 2 + 1)), room))
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
) -> Dataset:
    """Inject `kind` into every sample i of `base`, with its spec drawn in turn from `default_rng(seed)` and
    its injection from `series_rng(seed, INJECTION_STREAM, i)`; the manifest records sample 0's `fault_spec`."""
    check_value_count(len(base), base.tau, base.dim)
    rng = np.random.default_rng(seed)
    std = float(np.std(base.values))
    specs = [default_fault_spec(kind, base.tau, base.dim, rng, magnitude=magnitude, onset=onset,
                                duration=duration, channels=channels, channel_std=std, extra=extra)
             for _ in range(len(base))]
    values = np.stack([inject_fault(v, spec, series_rng(seed, INJECTION_STREAM, i))
                       for i, (v, spec) in enumerate(zip(base.values, specs))])
    return Dataset(values, label=f"fault:{kind}", id=f"fault-{kind}-{seed}", seed=seed,
                   fault_spec=specs[0], channel_names=base.channel_names)


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

    def scale(self, x: np.ndarray) -> np.ndarray:
        """Elementwise with a per-channel broadcast, so a stack of series scales as each series would alone."""
        x = x.astype(np.float64)
        if self.mode == "minmax":
            span = (self.hi - self.lo).astype(np.float64)
            ok = span > 0
            y = np.where(ok, 2.0 * (x - self.lo) / np.where(ok, span, 1.0) - 1.0, 0.0)
        else:
            ok = self.hi > 0
            y = np.where(ok, (x - self.lo) / np.where(ok, self.hi, 1.0), 0.0)
        return y.astype(np.float32)

    def unscale(self, y: np.ndarray) -> np.ndarray:
        """The inverse of `scale`, elementwise in the same way; a zero-width channel maps back to its lo."""
        y = y.astype(np.float64)
        if self.mode == "minmax":
            span = (self.hi - self.lo).astype(np.float64)
            x = np.where(span > 0, (y + 1.0) / 2.0 * span + self.lo, self.lo)
        else:
            x = np.where(self.hi > 0, y * self.hi + self.lo, self.lo)
        return x.astype(np.float32)

    def invert(self, series: TimeSeries) -> TimeSeries:
        return TimeSeries(self.unscale(series.values), list(series.channel_names))


def fit_normalizer(ds: Dataset, mode: str) -> Normalizer:
    arr = ds.values
    if mode == "zscore":
        return Normalizer(mode, arr.mean(axis=(0, 1)), arr.std(axis=(0, 1)))
    return Normalizer(mode, arr.min(axis=(0, 1)), arr.max(axis=(0, 1)))  # Normalizer refuses a mode but these two


# ----------------------------------------------------------------------
# corpus I/O


def write_atomic(path, content: str | bytes) -> None:
    """Write `content` to a temporary file beside `path` and rename it to `path`: a write that
    fails midway leaves any earlier file whole and no temporary file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb" if isinstance(content, bytes) else "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _fmt(v: np.float32) -> str:
    return np.format_float_positional(v, unique=True, trim="0")


def save_corpus(ds: Dataset, directory) -> None:
    """Write one CSV per sample (header = channel names), then manifest.json, atomically: a directory that
    holds a manifest holds all of its samples. An earlier corpus there goes first, its manifest before its samples.

    A cell is float32's shortest round-trip digits in positional form, as
    `_fmt` writes it (`-0.000016872391`, never `-1.6872391e-05`), so
    `load_corpus` reads back the same bits.
    """
    os.makedirs(directory, exist_ok=True)
    mpath = os.path.join(directory, "manifest.json")
    if os.path.exists(mpath):
        os.remove(mpath)
    for fname in _sample_files(directory):
        os.remove(os.path.join(directory, fname))
    manifest = {
        "id": ds.id,
        "label": ds.label,
        "tau": ds.tau,
        "dim": ds.dim,
        "n": len(ds),
        "seed": ds.seed,
        "channel_names": list(ds.channel_names),
    }
    if ds.fault_spec is not None:
        manifest["fault_spec"] = ds.fault_spec.to_dict()
    header = ",".join(ds.channel_names) + "\n"
    for idx in _chunks(len(ds), ds.tau * ds.dim):
        values = ds.values[idx.start:idx.stop]
        cells = values.astype(str)
        rows = cells.tolist()
        # astype(str) gives the same shortest digits but puts small and large
        # magnitudes in exponent form; those few cells take _fmt's positional form
        for j, t, c in np.argwhere(np.char.find(cells, "e") >= 0):
            rows[j][t][c] = _fmt(values[j, t, c])
        for i, series in zip(idx, rows):
            text = header + "".join([",".join(r) + "\n" for r in series])
            with open(os.path.join(directory, f"sample_{i:05d}.csv"), "w") as fh:
                fh.write(text)
    write_atomic(mpath, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _sample_files(directory) -> set[str]:
    """The names of `directory`'s sample files, the ones a corpus's manifest counts."""
    return {f for f in os.listdir(directory) if f.startswith("sample_") and f.endswith(".csv")}


def _read_sample(path, tau: int, names: list[str]) -> np.ndarray:
    """One sample CSV as a (tau, d) float32 array: the manifest's channel names, then tau rows of d numbers;
    blank lines are skipped but counted."""
    with open(path) as fh:
        header = fh.readline().removesuffix("\n")
        lines = fh.read().splitlines()
    if header.split(",") != names:
        raise ContractError(f"{path}: header {header!r} differs from the manifest's channel_names {names}")
    rows = [i for i, line in enumerate(lines) if line.strip()]
    if len(rows) != tau:
        raise ContractError(f"{path}: {len(rows)} timesteps, manifest says {tau}")
    try:
        values = np.loadtxt([lines[i] for i in rows], delimiter=",", ndmin=2, comments=None)
    except ValueError as e:
        raise ContractError(f"{path}: {e}") from e
    if values.shape[1] != len(names):
        raise ContractError(f"{path}: rows have {values.shape[1]} values, expected {len(names)}")
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf and is reported below
        values = values.astype(np.float32)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        row, col = bad[0]
        raise ContractError(f"{path}: non-finite value at row {rows[row] + 2}, column {col}")
    return values


def load_corpus(directory) -> Dataset:
    """Load a corpus directory, validating manifest, shapes, headers and finiteness."""
    mpath = os.path.join(directory, "manifest.json")
    if not os.path.isfile(mpath):
        raise ContractError(f"missing manifest: {mpath}")
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ContractError(f"malformed manifest {mpath}: {e}") from e
    for key in ("id", "label", "tau", "dim", "n", "channel_names"):
        if key not in manifest:
            raise ContractError(f"manifest {mpath} missing field {key!r}")
    tau, dim, n, names = (manifest[key] for key in ("tau", "dim", "n", "channel_names"))
    if not all(type(v) is int for v in (tau, dim, n)):  # bool is an int subclass; 2.5 is not truncated
        raise ContractError(f"manifest {mpath}: tau, dim and n must be integers, "
                            f"got {tau!r}, {dim!r}, {n!r}")
    if tau < 2 or dim < 1 or n < 1:
        raise ContractError(f"manifest {mpath}: needs tau >= 2, dim >= 1 and n >= 1, got {tau}, {dim}, {n}")
    if not (isinstance(names, list) and len(names) == dim and all(isinstance(c, str) for c in names)):
        raise ContractError(f"manifest {mpath}: channel_names must be a list of {dim} strings, got {names!r}")

    present = _sample_files(directory)
    if len(present) != n:
        raise ContractError(f"manifest {mpath} declares {n} samples but {len(present)} files present")

    samples = []  # stacked once read, so a manifest's tau or dim allocates nothing that its files do not hold
    for i, fname in enumerate(f"sample_{i:05d}.csv" for i in range(n)):  # not name order: sample_100000 < sample_10001
        if fname not in present:
            raise ContractError(f"{directory}: {fname} is missing, so series {i} has no file")
        samples.append(_read_sample(os.path.join(directory, fname), tau, names))
    values = np.stack(samples)

    try:
        spec = FaultSpec.from_dict(manifest["fault_spec"]) if manifest.get("fault_spec") else None
    except (KeyError, TypeError, ValueError) as e:
        raise ContractError(f"manifest {mpath}: malformed fault_spec: {e!r}") from e
    try:
        return Dataset(values, label=manifest["label"], id=manifest["id"], seed=manifest.get("seed"),
                       fault_spec=spec, channel_names=names)
    except ContractError as e:  # a label or id no CSV cell holds
        raise ContractError(f"manifest {mpath}: {e}") from e
