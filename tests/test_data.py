"""Corpus generation, the fault catalog, normalization, and corpus I/O."""

import dataclasses
import hashlib
import json
import math
import os
import re

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from faultgen import data
from faultgen.cli import main
from faultgen.data import (
    FAULT_KINDS,
    MAX_DIM,
    MAX_SERIES,
    MAX_TAU,
    Dataset,
    FaultSpec,
    TimeSeries,
    fit_normalizer,
    generate_normal,
    inject_fault,
    load_corpus,
    make_fault_dataset,
    save_corpus,
)
from faultgen.errors import ContractError

from helpers import ar2_stationary_variance, loop_generate_normal, value_save_corpus


def _series(tau=24, d=2, seed=0):
    """A float32 (tau, d) array of standard normal readings."""
    return np.random.default_rng(seed).standard_normal((tau, d)).astype(np.float32)


def _window(spec, tau):
    """The timesteps [lo, hi) a fault may touch: `sudden` and `trend` run to tau, every other kind to
    onset + duration."""
    return spec.onset, tau if spec.kind in ("sudden", "trend") else spec.onset + spec.duration


def _named(values, names=None):
    return TimeSeries(values, names or [f"ch{i}" for i in range(values.shape[1])])


class TestGenerateNormal:
    def test_deterministic(self):
        a = generate_normal(24, 2, 5, seed=3)
        b = generate_normal(24, 2, 5, seed=3)
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.label, a.id, a.seed, a.channel_names) == ("normal", "normal-3", 3, ["ch0", "ch1"])

    def test_sine_mixture_hand_trace(self):
        # noise 0, one channel: recompute from the documented draw order over 2 to 4 components, drawn from
        # series 0's stream, spawned from seed 11 under key (0, 0): the base-series role, index 0
        ds = generate_normal(32, 1, 1, seed=11, noise_std=0.0)
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(0, 0)))
        n_comp = int(rng.integers(2, 5))
        t = np.arange(32)
        expected = np.zeros(32)
        for _ in range(n_comp):
            cycles = rng.uniform(1.0, 4.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.3, 1.0) / n_comp
            expected += amp * np.sin(2 * np.pi * cycles * t / 32 + phase)
        np.testing.assert_allclose(ds.values[0, :, 0], expected, atol=1e-6)

    def test_ar2_variance_matches_closed_form(self):
        ds = generate_normal(64, 1, 1000, seed=5, base_kind="ar_process")
        emp = float(np.var(ds.values))
        expected = ar2_stationary_variance(0.5, -0.25, 0.3)
        assert abs(emp - expected) / expected < 0.2

    def test_invalid_dims(self):
        with pytest.raises(ContractError):
            generate_normal(4, 2, 1, seed=0)

    @pytest.mark.parametrize("tau, dim, n", [(MAX_TAU + 1, 2, 3), (10**30, 2, 3), (24, MAX_DIM + 1, 3),
                                             (24, 10**30, 3), (24, 2, MAX_SERIES + 1), (24, 2, 10**12)])
    def test_a_size_beyond_its_bound_is_a_contract_error_naming_the_bounds(self, tau, dim, n):
        message = (f"generate_normal needs 8 <= tau <= {MAX_TAU}, 1 <= dim <= {MAX_DIM} and "
                   f"1 <= n_samples <= {MAX_SERIES}, got {tau}, {dim} and {n}")
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            generate_normal(tau, dim, n, seed=0)

    def test_sizes_at_their_bounds_are_valid(self):
        assert generate_normal(MAX_TAU, MAX_DIM, 1, seed=0).values.shape == (1, MAX_TAU, MAX_DIM)
        assert len(generate_normal(8, 1, MAX_SERIES, seed=0)) == MAX_SERIES

    @pytest.mark.parametrize("seed,noise_std", [(0, 0.05), (17, 0.0), (1001, 0.3)])
    @pytest.mark.parametrize("chunk", [None, 40])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("tau", [8, 24, 100])
    def test_sine_mixture_matches_the_per_series_loop_bit_for_bit(self, monkeypatch, tau, dim, chunk, seed, noise_std):
        if chunk is not None:  # several series per chunk, and one series split from the rest
            monkeypatch.setattr(data, "_CHUNK_VALUES", chunk)
        ds = generate_normal(tau, dim, 7, seed, noise_std=noise_std)
        assert ds.values.tobytes() == loop_generate_normal(tau, dim, 7, seed, noise_std=noise_std).tobytes()

    @pytest.mark.parametrize("seed", [0, 9, 1001])
    @pytest.mark.parametrize("chunk", [None, 40])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("tau", [8, 24, 100])
    def test_ar_process_matches_the_per_series_loop_bit_for_bit(self, monkeypatch, tau, dim, chunk, seed):
        if chunk is not None:
            monkeypatch.setattr(data, "_CHUNK_VALUES", chunk)
        ds = generate_normal(tau, dim, 7, seed, base_kind="ar_process")
        assert ds.values.tobytes() == loop_generate_normal(tau, dim, 7, seed, base_kind="ar_process").tobytes()

    @pytest.mark.parametrize("value", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
    def test_negative_or_non_finite_noise_level_is_a_contract_error_naming_it(self, value):
        for base_kind in ("sine_mixture", "ar_process"):
            with pytest.raises(ContractError, match="^noise_std must be a finite standard deviation >= 0"):
                generate_normal(24, 2, 3, seed=0, base_kind=base_kind, noise_std=value)


class TestSeriesStreams:
    def test_no_two_of_a_seeds_streams_start_with_the_same_draws(self):
        # the fault-spec stream, and stream i < 64 of every role. Under `default_rng(seed + i)` the spec stream was
        # injection stream 0, and keyed by entropy tuples, `default_rng((seed, 0))` is it again
        roles = (data.BASE_STREAM, data.INJECTION_STREAM, data.NOISE_STREAM, data.BACKBONE_STREAM,
                 data.ADAPTER_STREAM, data.TRAIN_STREAM, data.PAIR_STREAM, data.SPLIT_STREAM, data.NETWORK_STREAM,
                 data.TSNE_STREAM)
        for seed in (0, 5):
            streams = [np.random.default_rng(seed)] + [data.series_rng(seed, role, i) for role in roles
                                                       for i in range(64)]
            assert len({rng.integers(0, 2**63, size=4).tobytes() for rng in streams}) == len(streams) == 641

    @pytest.mark.parametrize("build", [
        lambda seed: generate_normal(24, 2, 64, seed).values,
        # a constant base and a given spec leave each series only its injection stream's draws
        lambda seed: make_fault_dataset(Dataset(np.zeros((64, 24, 2), np.float32), "normal", "zeros"),
                                        "random_noise", seed, magnitude=1.0, onset=0, duration=24).values,
    ], ids=["generate_normal", "make_fault_dataset"])
    def test_neighbouring_seeds_share_no_series(self, build):
        # under `default_rng(seed + i)`, series i of seed 1 was series i + 1 of seed 0: 63 of 64 shared
        assert len({x.tobytes() for x in build(0)} & {x.tobytes() for x in build(1)}) == 0


class TestDataset:
    def test_values_are_a_read_only_float32_stack(self):
        ds = generate_normal(24, 2, 3, seed=0)
        assert ds.values.dtype == np.float32 and ds.values.shape == (3, 24, 2)
        assert (len(ds), ds.tau, ds.dim) == (3, 24, 2)
        with pytest.raises(ValueError, match="read-only"):
            ds.values[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.values += 1.0

    def test_an_array_is_held_as_a_read_only_view_and_the_callers_array_stays_writable(self):
        x = np.zeros((2, 4, 3), dtype=np.float32)
        ds = Dataset(x, "normal", "v")
        assert np.shares_memory(ds.values, x) and x.flags.writeable
        assert ds.channel_names == ["ch0", "ch1", "ch2"]

    def test_series_are_stacked_once_in_order_with_their_names(self):
        series = [_named(_series(seed=i)) for i in range(3)]
        ds = Dataset(series, "normal", "s", seed=4)
        assert ds.values.tobytes() == np.stack([s.values for s in series]).tobytes()
        assert ds.channel_names == ["ch0", "ch1"] and not ds.values.flags.writeable

    @pytest.mark.parametrize("build", [
        lambda: [_named(_series(d=2)), _named(_series(d=3))],
        lambda: [_named(_series(tau=24)), _named(_series(tau=25))],
        lambda: [_named(_series()), _named(_series(), ["ch0", "other"])],
        lambda: [_named(_series()), _named(_series(), ["ch1", "ch0"])],
        lambda: [],
    ], ids=["dims", "taus", "names", "name-order", "empty"])
    def test_series_that_disagree_are_a_contract_error(self, build):
        with pytest.raises(ContractError):
            Dataset(build(), "normal", "bad")

    @pytest.mark.parametrize("values,names", [
        (np.zeros((2, 4)), None),
        (np.zeros((0, 4, 2)), None),
        (np.zeros((2, 1, 2)), None),
        (np.zeros((2, 4, 0)), None),
        (np.zeros((2, 4, 2)), ["a"]),
        (np.full((2, 4, 2), np.nan), None),
        (np.full((2, 4, 2), 1e39), None),
    ], ids=["2d", "no-series", "tau-1", "no-channels", "short-names", "nan", "beyond-float32"])
    def test_a_malformed_stack_is_a_contract_error(self, values, names):
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            Dataset(values, "normal", "bad", channel_names=names)


class TestInjectFault:
    def test_sudden_step(self):
        s = _series()
        spec = FaultSpec("sudden", onset=6, duration=8, magnitude=1.5)
        out = inject_fault(s, spec, np.random.default_rng(0))
        diff = out - s
        np.testing.assert_allclose(diff[:6], 0.0)
        np.testing.assert_allclose(diff[6:], 1.5, atol=1e-6)

    def test_offset_zero_magnitude_identity(self):
        s = _series()
        out = inject_fault(s, FaultSpec("offset", 4, 6, 0.0), np.random.default_rng(1))
        assert np.array_equal(out, s)

    def test_gradual_ramp_closed_form(self):
        s = _series()
        m, onset, dur = 2.0, 5, 10
        out = inject_fault(s, FaultSpec("gradual", onset, dur, m), np.random.default_rng(0))
        diff = out - s
        expected = m * (np.arange(dur) + 1) / dur
        for c in range(s.shape[1]):
            np.testing.assert_allclose(diff[onset:onset + dur, c], expected, atol=1e-6)
        np.testing.assert_allclose(diff[onset + dur:], 0.0)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_outside_window_untouched(self, kind):
        s = _series(tau=32, d=3, seed=7)
        extra = {}
        if kind == "low_frequency_anomaly":
            extra["period"] = 20
        spec = FaultSpec(kind, onset=8, duration=10, magnitude=1.2, channels=[0, 2], extra=extra)
        out = inject_fault(s, spec, np.random.default_rng(3))
        lo, hi = _window(spec, len(s))
        # untouched timesteps and the unaffected channel are bit-identical
        assert np.array_equal(out[:lo], s[:lo])
        assert np.array_equal(out[hi:], s[hi:])
        assert np.array_equal(out[:, 1], s[:, 1])

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_deterministic(self, kind):
        s = _series(tau=32)
        extra = {"period": 20} if kind == "low_frequency_anomaly" else {}
        spec = FaultSpec(kind, onset=8, duration=10, magnitude=1.2, extra=extra)
        a = inject_fault(s, spec, np.random.default_rng(5))
        b = inject_fault(s, spec, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_the_result_is_a_new_float32_array_and_the_input_is_left_as_it_was(self):
        s = _series()
        before = s.copy()
        s.flags.writeable = False  # a row of a Dataset's read-only stack
        out = inject_fault(s, FaultSpec("offset", 4, 6, 1.0), np.random.default_rng(0))
        assert out.dtype == np.float32 and out.shape == s.shape and out.flags.writeable
        assert not np.shares_memory(out, s) and s.tobytes() == before.tobytes()

    @pytest.mark.parametrize("values,message", [
        (_series().astype(np.float64), "needs a float32 (tau>=2, d) array, got float64 (24, 2)"),
        (_series().tolist(), "needs a float32 (tau>=2, d) array, got float64 (24, 2)"),
        (_series()[:, 0], "needs a float32 (tau>=2, d) array, got float32 (24,)"),
        (_series()[None], "needs a float32 (tau>=2, d) array, got float32 (1, 24, 2)"),
        (_series(tau=1), "needs a float32 (tau>=2, d) array, got float32 (1, 2)"),
        (np.where(np.arange(24)[:, None] == 3, np.float32(np.nan), _series()), "values must be finite"),
        (np.where(np.arange(24)[:, None] == 3, np.float32(np.inf), _series()), "values must be finite"),
    ], ids=["float64", "list", "1d", "3d", "tau-1", "nan", "inf"])
    def test_an_array_that_is_not_a_finite_float32_series_is_a_contract_error(self, values, message):
        with pytest.raises(ContractError, match=f"^inject_fault {re.escape(message)}$"):
            inject_fault(values, FaultSpec("offset", 0, 1, 1.0), np.random.default_rng(0))

    @pytest.mark.parametrize("spec,message", [
        (FaultSpec("saturation", 4, 6, -1.0), "saturation magnitude must be >= 0"),
        (FaultSpec("saturation", 4, 6, 1.0, extra={"clip_level": -0.5}), "saturation clip_level must be >= 0"),
        (FaultSpec("saturation", 4, 6, 1.0, extra={"clip_level": float("nan")}), "saturation clip_level"),
        (FaultSpec("periodic", 4, 6, 1.0, extra={"period": 1.0}), "periodic period must be > 2 steps"),
        (FaultSpec("periodic", 4, 6, 1.0, extra={"period": 0.5}), "periodic period must be > 2 steps"),
        (FaultSpec("periodic", 4, 6, 1.0, extra={"period": 1.999}), "periodic period must be > 2 steps"),
        (FaultSpec("periodic", 4, 6, 1.0, extra={"period": 2.0}), "periodic period must be > 2 steps"),
        (FaultSpec("low_frequency_anomaly", 4, 1, 1.0, extra={"period": 1.0}),
         "low_frequency_anomaly period must be > 2 steps"),
        (FaultSpec("low_frequency_anomaly", 4, 1, 1.0, extra={"period": 2}),
         "low_frequency_anomaly period must be > 2 steps"),
        (FaultSpec("periodic", 4, 1, 1.0), "periodic duration must be >= 2 steps, got 1"),
        (FaultSpec("low_frequency_anomaly", 4, 1, 1.0), "low_frequency_anomaly duration must be >= 2 steps, got 1"),
        (FaultSpec("impulse", 4, 4, 1.0, extra={"count": 5}), "impulse count must be >= 1 and at most the duration 4"),
        (FaultSpec("intermittent", 4, 6, 1.0, extra={"burst_len": 6}),
         "intermittent burst_len must be >= 1 and shorter than the duration 6, got 6"),
        (FaultSpec("intermittent", 4, 1, 1.0), "intermittent burst_len must be >= 1 and shorter than the duration 1"),
        (FaultSpec("offset", 2, 3, 1.5, channels=[]), "channels must name at least one channel"),
        # an infinite period puts every step at the sine's phase origin, and an infinite clip level clips nothing
        (FaultSpec("periodic", 4, 6, 1.0, extra={"period": math.inf}), "periodic period must be finite, got inf"),
        (FaultSpec("low_frequency_anomaly", 4, 6, 1.0, extra={"period": math.inf}),
         "low_frequency_anomaly period must be finite, got inf"),
        (FaultSpec("saturation", 4, 6, 1.0, extra={"clip_level": math.inf}),
         "saturation clip_level must be finite, got inf"),
        # an integer beyond float64's range overflowed where the sine divides by it
        (FaultSpec("periodic", 4, 6, 1.0, extra={"period": 10**400}), "periodic period must be finite, got 1000"),
        (FaultSpec("impulse", 4, 6, 1.0, extra={"count": 10**400}),
         "impulse count must be >= 1 and at most the duration 6, got 1000"),
    ], ids=["saturation-magnitude", "clip-level", "clip-level-nan", "period-1", "period-0.5", "period-1.999",
            "period-2", "low-frequency-period-1", "low-frequency-period-2", "periodic-duration-1",
            "low-frequency-duration-1", "impulse-count-above-duration", "burst-as-long-as-the-window",
            "default-burst-of-a-one-step-window", "no-channels", "period-inf", "low-frequency-period-inf",
            "clip-level-inf", "period-beyond-float64", "count-beyond-float64"])
    def test_a_fault_that_would_not_fault_is_a_contract_error_naming_its_parameter(self, spec, message):
        with pytest.raises(ContractError, match=f"^{message}"):
            inject_fault(_series(), spec, np.random.default_rng(0))

    @pytest.mark.parametrize("spec,message", [
        (FaultSpec("impulse", 4, 6, 1.0, extra={"count": 2.5}), "impulse count must be an integer, got 2.5"),
        (FaultSpec("impulse", 4, 6, 1.0, extra={"count": True}), "impulse count must be an integer, got True"),
        (FaultSpec("impulse", 4, 6, 1.0, extra={"count": 3.0}), "impulse count must be an integer, got 3.0"),
        (FaultSpec("intermittent", 4, 6, 1.0, extra={"burst_len": 2.5}),
         "intermittent burst_len must be an integer, got 2.5"),
        (FaultSpec("periodic", 4, 6, 1.0, extra={"period": "7"}), "periodic period must be a real number, got '7'"),
        (FaultSpec("low_frequency_anomaly", 4, 6, 1.0, extra={"period": None}),
         "low_frequency_anomaly period must be a real number, got None"),
        (FaultSpec("saturation", 4, 6, 1.0, extra={"clip_level": False}),
         "saturation clip_level must be a real number, got False"),
    ], ids=["count-2.5", "count-true", "count-3.0", "burst-len-2.5", "period-a-string", "period-none",
            "clip-level-false"])
    def test_an_extra_not_of_its_catalog_type_is_a_contract_error_naming_the_kind_and_the_extra(self, spec, message):
        # a count of 2.5 injected 2 spikes and True 1, and a string period ended in a TypeError
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            inject_fault(_series(), spec, np.random.default_rng(0))

    @pytest.mark.parametrize("kind,name,value,same", [("impulse", "count", 3, np.int64(3)),
                                                      ("intermittent", "burst_len", 2, np.int32(2)),
                                                      ("periodic", "period", 7.0, 7),
                                                      ("periodic", "period", 7.0, np.float32(7.0)),
                                                      ("saturation", "clip_level", 0.5, np.float64(0.5))])
    def test_an_extra_injects_the_same_bits_from_any_number_of_its_type(self, kind, name, value, same):
        s = _series(seed=4)
        out = [inject_fault(s, FaultSpec(kind, 4, 12, 1.0, extra={name: v}), np.random.default_rng(1))
               for v in (value, same)]
        assert out[0].tobytes() == out[1].tobytes() and out[0].tobytes() != s.tobytes()

    def test_the_catalog_declares_each_extra_for_kinds_it_knows(self):
        assert list(data.FAULT_EXTRAS) == ["period", "clip_level", "burst_len", "count"]
        assert {kind for extra in data.FAULT_EXTRAS.values() for kind in extra.kinds} <= set(FAULT_KINDS)
        assert {name: extra.type for name, extra in data.FAULT_EXTRAS.items()} == {
            "period": float, "clip_level": float, "burst_len": int, "count": int}

    @pytest.mark.parametrize("fields,message", [
        ({"onset": 2.5}, "fault onset must be an integer, got 2.5"),
        ({"onset": True}, "fault onset must be an integer, got True"),
        ({"duration": True}, "fault duration must be an integer, got True"),
        ({"duration": "6"}, "fault duration must be an integer, got '6'"),
        ({"magnitude": "1.5"}, "fault magnitude must be a real number, got '1.5'"),
        ({"magnitude": False}, "fault magnitude must be a real number, got False"),
        ({"channels": (0, 1)}, "fault channels must be None or a list, got (0, 1)"),
        ({"channels": [0, 1.0]}, "fault channel must be an integer, got 1.0"),
        ({"channels": [True]}, "fault channel must be an integer, got True"),
    ], ids=["onset-2.5", "onset-true", "duration-true", "duration-a-string", "magnitude-a-string",
            "magnitude-false", "channels-a-tuple", "channel-1.0", "channel-true"])
    def test_a_field_not_of_its_type_is_a_contract_error_naming_it(self, fields, message):
        spec = {"kind": "offset", "onset": 2, "duration": 6, "magnitude": 1.5, "channels": [0], **fields}
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            FaultSpec(**spec)
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):  # from_dict converts nothing
            FaultSpec.from_dict(spec)

    @pytest.mark.parametrize("magnitude", [math.nan, -math.inf, np.float32(math.inf), 10**400])
    def test_a_magnitude_that_float64_holds_no_finite_value_of_is_a_contract_error(self, magnitude):
        with pytest.raises(ContractError, match="^fault magnitude must be finite, got "):
            FaultSpec("offset", 2, 6, magnitude)

    def test_from_dict_reads_back_what_to_dict_wrote(self):
        spec = FaultSpec("impulse", 2, 6, 1, channels=[1], extra={"count": 3})
        back = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec and type(back.magnitude) is int

    @pytest.mark.parametrize("kind", ["offset", "sudden", "periodic", "low_frequency_anomaly", "amplitude_shift"])
    def test_a_finite_magnitude_of_0_stays_a_valid_no_op(self, kind):
        base = generate_normal(24, 2, 4, seed=5)
        fault = make_fault_dataset(base, kind, seed=5, magnitude=0.0)
        assert fault.label == f"fault:{kind}" and fault.values.tobytes() == base.values.tobytes()

    @pytest.mark.parametrize("kind", [k for k in FAULT_KINDS if k != "impulse"])
    def test_an_extra_the_kind_does_not_read_is_a_contract_error(self, kind):
        with pytest.raises(ContractError, match=f"^a {kind} fault does not read count$"):
            inject_fault(_series(), FaultSpec(kind, 4, 6, 1.0, extra={"count": 3}), np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["periodic", "low_frequency_anomaly"])
    def test_a_drawn_sine_fault_duration_is_at_least_2_steps(self, kind):
        # onset and duration are drawn from [tau//4, tau//2], so the window has room for tau//4 >= 2 steps
        for tau in range(8, 65):
            rng = np.random.default_rng(tau)
            for _ in range(20):
                assert data.default_fault_spec(kind, tau, 2, rng).duration >= 2, tau

    def test_a_default_periodic_fault_changes_every_corpus(self):
        # a default period of 2 sampled the sine only at its zeros and left most short-window corpora unchanged
        for seed in range(50):
            base = generate_normal(24, 2, 4, seed=seed)
            fault = make_fault_dataset(base, "periodic", seed=seed)
            assert not np.array_equal(fault.values, base.values), seed

    @pytest.mark.parametrize("count", [1, 3, 6])
    def test_an_impulse_fault_adds_as_many_impulses_as_its_count(self, count):
        s = _series()
        out = inject_fault(s, FaultSpec("impulse", 4, 6, 2.0, extra={"count": count}), np.random.default_rng(0))
        assert np.count_nonzero(np.any(out != s, axis=1)) == count

    def test_saturation_clips(self):
        s = _series(seed=3)
        # a given clip_level is the clip level, so the magnitude may be negative
        out = inject_fault(s, FaultSpec("saturation", 4, 12, -1.0, extra={"clip_level": 0.5}), np.random.default_rng(0))
        assert np.max(np.abs(out[4:16])) <= 0.5 + 1e-6

    def test_missing_data_holds_last(self):
        s = _series()
        out = inject_fault(s, FaultSpec("missing_data", 10, 6, 0.0), np.random.default_rng(0))
        for t in range(10, 16):
            np.testing.assert_array_equal(out[t], s[9])

    def test_sudden_recovery_recovers(self):
        s = _series()
        out = inject_fault(s, FaultSpec("sudden_recovery", 5, 10, 2.0), np.random.default_rng(0))
        diff = out - s
        np.testing.assert_allclose(diff[5:15], 2.0, atol=1e-6)
        np.testing.assert_allclose(diff[15:], 0.0)

    @pytest.mark.parametrize("kind", ["explosion", "compound"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ContractError, match=f"^unknown fault kind '{kind}'$"):
            FaultSpec(kind, 0, 1, 1.0)

    def test_a_repeated_channel_is_a_contract_error(self):
        with pytest.raises(ContractError, match=re.escape("channels [0, 1, 0] name a channel more than once")):
            inject_fault(_series(d=3), FaultSpec("offset", 4, 6, 1.0, channels=[0, 1, 0]), np.random.default_rng(0))

    @pytest.mark.parametrize("kind,message", [
        ("offset", "fault window onset 20 + duration 100 = 120 exceeds tau=24"),
        ("sudden_recovery", "sudden_recovery needs its recovery point, onset 20 + duration 100 = 120, below tau=24"),
    ])
    def test_a_given_duration_is_never_shortened(self, kind, message):
        spec = data.default_fault_spec(kind, 24, 2, np.random.default_rng(0), onset=20, duration=100)
        assert spec.duration == 100
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            make_fault_dataset(generate_normal(24, 2, 2, seed=0), kind, seed=1, onset=20, duration=100)

    @pytest.mark.parametrize("kind,room", [("offset", 4), ("sudden_recovery", 3)])
    def test_a_drawn_duration_is_shortened_to_fit_after_a_given_onset(self, kind, room):
        for seed in range(20):
            assert data.default_fault_spec(kind, 24, 2, np.random.default_rng(seed), onset=20).duration == room

    @pytest.mark.parametrize("kind", ["offset", "sudden_recovery"])
    def test_default_draws_shorten_only_a_sudden_recovery_window(self, kind):
        # onset and duration both lie in [tau//4, tau//2], so only the recovery point's extra step can overrun
        shortened = 0
        for tau in range(8, 65):
            for seed in range(10):
                spec = data.default_fault_spec(kind, tau, 2, np.random.default_rng(seed))
                rng = np.random.default_rng(seed)
                onset, drawn = (int(rng.integers(tau // 4, tau // 2 + 1)) for _ in range(2))
                assert spec.onset == onset and spec.duration <= drawn
                shortened += spec.duration < drawn
        assert (shortened > 0) == (kind == "sudden_recovery")

    def test_window_out_of_range_rejected(self):
        s = _series()
        with pytest.raises(ContractError):
            inject_fault(s, FaultSpec("offset", 20, 10, 1.0), np.random.default_rng(0))
        with pytest.raises(ContractError):
            inject_fault(s, FaultSpec("sudden_recovery", 14, 10, 1.0), np.random.default_rng(0))

    # sha256 of make_fault_dataset(generate_normal(24, 2, 4, seed=5), kind, seed=5): its values' bytes, then its
    # fault_spec.to_dict() as JSON with sorted keys; a change to any kind's draws or arithmetic shows here
    CORPUS_SHA256 = {
        "sudden": "43c5d04569250f56f6d2fa8aaa93901bc2653c3a28231d98b37722a015bc8381",
        "gradual": "f3e820f2931217dca032d5eb229bf7a4df9262ed1338f64e48d3104e7f05c6a5",
        "periodic": "f587cf58203dbe244841499983b1d20e4a719f1c02590336f1e808617d2371d5",
        "random_noise": "1107231efa47496c9b1499ced399801b7495745de5b1b0c61f3a18e390457515",
        "intermittent": "1afabbe08bc4bc6bd7c23d8d0db0b03fbb03b96947386dba79d7a53ab569f040",
        "impulse": "4a4a874d748d50143b2a69c6140648ecb754150e14e350d85c6f6879e256cd89",
        "trend": "100ac3341e7bbb7e91b2171fd606bc187698f4da8b65e816bfce97142c272b92",
        "saturation": "9779036a3bd28e9249df186d97b949514f3330e7c0431e0b3a6d6eb51daf8184",
        "offset": "c6d32c0038a5146084f6c897507848e3a82461088f63902f32c5e83fad282f84",
        "frequency_shift": "958e853a2f14efd10ac08667068b7be9dd3c7ab2e04c3fdb13b727f0fa108bc7",
        "amplitude_shift": "ce21bf4108135ee00a1c130b17186923644c080fb1a997869bbc2bb12c227ffe",
        "missing_data": "e7ff1fc4f9eb71d17207256117cf0cac37eaf11bd44d677d94617b18166d5ca7",
        "low_frequency_anomaly": "aaadcbb2e6bd26407af25c560702d88677bdb4586023a607afe2525ce97a0a16",
        "sudden_recovery": "47b2cc9c3e2cd887ade8d427c6ddd7dda117922824f88904da7e63f10b498e35",
    }

    @pytest.mark.parametrize("kind", list(CORPUS_SHA256))
    def test_each_kind_makes_its_pinned_corpus(self, kind):
        ds = make_fault_dataset(generate_normal(24, 2, 4, seed=5), kind, seed=5)
        digest = hashlib.sha256(ds.values.tobytes())
        digest.update(json.dumps(ds.fault_spec.to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == self.CORPUS_SHA256[kind]

    def test_the_pinned_kinds_are_the_catalog(self):
        assert sorted(self.CORPUS_SHA256) == sorted(FAULT_KINDS) and len(FAULT_KINDS) == 14

    def test_make_fault_dataset_labels(self):
        base = generate_normal(24, 2, 4, seed=1)
        ds = make_fault_dataset(base, "sudden", seed=2, magnitude=2.0)
        assert ds.label == "fault:sudden" and len(ds) == 4
        assert ds.fault_spec is not None and ds.fault_spec.kind == "sudden"


class TestNormalizer:
    def test_minmax_hand_case(self):
        series = TimeSeries(np.array([[0.0], [10.0]]), ["a"])
        norm = fit_normalizer(Dataset([series], "normal", "t"), "minmax")
        np.testing.assert_allclose(norm.scale(series.values), [[-1.0], [1.0]])

    def test_roundtrip(self):
        ds = generate_normal(24, 3, 6, seed=8)
        norm = fit_normalizer(ds, "minmax")
        np.testing.assert_allclose(norm.unscale(norm.scale(ds.values)), ds.values, atol=1e-6)
        for v in ds.values:
            back = norm.invert(TimeSeries(norm.scale(v), ds.channel_names))
            np.testing.assert_allclose(back.values, v, atol=1e-6)

    def test_constant_channel(self):
        vals = np.stack([np.full(10, 2.5), np.arange(10, dtype=np.float32)], axis=1)
        series = TimeSeries(vals, ["const", "ramp"])
        norm = fit_normalizer(Dataset([series], "normal", "t"), "minmax")
        out = norm.scale(series.values)
        np.testing.assert_allclose(out[:, 0], 0.0)
        np.testing.assert_allclose(norm.unscale(out)[:, 0], 2.5)

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_scaling_a_stack_matches_per_series_scaling_bitwise(self, mode):
        base = generate_normal(24, 3, 9, seed=4).values.copy()
        base[:, :, 1] = 2.5  # a constant channel maps to 0 in both modes
        ds = Dataset([TimeSeries(v, ["a", "const", "b"]) for v in base], "normal", "t")
        norm = fit_normalizer(ds, mode)
        out = norm.scale(ds.values)
        assert out.dtype == np.float32 and np.all(out[:, :, 1] == 0.0)
        for v, o in zip(base, out):
            assert o.tobytes() == norm.scale(v).tobytes()

    def test_zscore_roundtrip(self):
        ds = generate_normal(24, 2, 6, seed=9)
        norm = fit_normalizer(ds, "zscore")
        s = TimeSeries(ds.values[0], ds.channel_names)
        np.testing.assert_allclose(norm.invert(TimeSeries(norm.scale(s.values), s.channel_names)).values, s.values,
                                   atol=1e-5)


class TestCorpusIO:
    def test_roundtrip_bitexact(self, tmp_path):
        ds = generate_normal(24, 2, 5, seed=3)
        save_corpus(ds, tmp_path / "c")
        back = load_corpus(tmp_path / "c")
        assert back.label == ds.label and back.id == ds.id and back.seed == ds.seed
        assert back.values.tobytes() == ds.values.tobytes()
        assert back.channel_names == ds.channel_names

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_save_corpus_writes_the_per_value_writers_bytes(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:  # one series per chunk
            monkeypatch.setattr(data, "_CHUNK_VALUES", chunk)
        edge = np.array([-0.0, 1e-45, 1.1754944e-38, -1.6872391e-05, 1e-4, 1.5e7, 1e16, 3.4e38, -3.4e38],
                        dtype=np.float32)
        values = generate_normal(9, 2, 4, seed=3).values.copy()
        values[1, :, 0] = edge
        values[2, :, 1] = -edge[::-1]
        ds = Dataset([TimeSeries(v, ["x", "y"]) for v in values], "normal", "edge", seed=3)
        for name, corpus in [("edge", ds),
                             ("fault", make_fault_dataset(generate_normal(24, 3, 6, seed=8), "sudden", seed=2))]:
            save_corpus(corpus, tmp_path / name / "new")
            value_save_corpus(corpus, tmp_path / name / "old")
            files = sorted(p.name for p in (tmp_path / name / "old").iterdir())
            assert sorted(p.name for p in (tmp_path / name / "new").iterdir()) == files
            for f in files:
                assert (tmp_path / name / "new" / f).read_bytes() == (tmp_path / name / "old" / f).read_bytes(), f
        assert "340000000000000000000000000000000000000.0" in (tmp_path / "edge/new/sample_00001.csv").read_text()
        back = load_corpus(tmp_path / "edge" / "new")
        assert back.values.tobytes() == values.tobytes()

    def test_fault_spec_roundtrip(self, tmp_path):
        base = generate_normal(24, 2, 3, seed=3)
        ds = make_fault_dataset(base, "periodic", seed=5, magnitude=1.0, extra={"period": 6.0})
        save_corpus(ds, tmp_path / "c")
        back = load_corpus(tmp_path / "c")
        assert back.fault_spec.kind == "periodic"
        assert back.fault_spec.extra["period"] == 6.0

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_a_channel_name_a_csv_header_cannot_carry_is_rejected_before_writing(self, tmp_path, name):
        with pytest.raises(ContractError, match=re.escape(f"channel name {name!r}")):
            save_corpus(Dataset(np.zeros((2, 4, 2)), "normal", "t", channel_names=[name, "c"]), tmp_path / "c")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("what,label,id_", [("label", "pump,7", "t"), ("label", "a\nb", "t"), ("label", 5, "t"),
                                                ("label", None, "t"), ("id", "normal", "x\ry"), ("id", "normal", 3)])
    def test_a_label_or_id_one_csv_cell_cannot_hold_is_rejected(self, what, label, id_):
        bad = label if what == "label" else id_
        with pytest.raises(ContractError, match=re.escape(f"corpus {what} {bad!r} must be a string")):
            Dataset(np.zeros((2, 4, 2)), label, id_)

    def test_channel_names_with_spaces_and_tabs_round_trip(self, tmp_path):
        names = [" a", "b ", "\tc", " d\t "]
        ds = Dataset(generate_normal(8, 4, 3, seed=3).values, "normal", "t", channel_names=names)
        save_corpus(ds, tmp_path / "c")
        back = load_corpus(tmp_path / "c")
        assert back.channel_names == names
        assert back.values.tobytes() == ds.values.tobytes()

    def test_count_mismatch_rejected(self, tmp_path):
        ds = generate_normal(24, 2, 3, seed=3)
        save_corpus(ds, tmp_path / "c")
        (tmp_path / "c" / "sample_00002.csv").unlink()
        with pytest.raises(ContractError, match="3 samples"):
            load_corpus(tmp_path / "c")

    def test_a_sample_file_under_another_name_is_a_corpus_error(self, tmp_path, capsys):
        save_corpus(generate_normal(24, 2, 3, seed=3), tmp_path / "c")
        (tmp_path / "c" / "sample_00002.csv").rename(tmp_path / "c" / "sample_2.csv")
        with pytest.raises(ContractError, match="sample_00002.csv is missing, so series 2 has no file"):
            load_corpus(tmp_path / "c")
        corpus = str(tmp_path / "c")
        assert main(["evaluate", "--real", corpus, "--synth", corpus, "--out", str(tmp_path / "r")]) == 2
        assert "sample_00002.csv is missing" in capsys.readouterr().err

    def test_series_i_is_read_from_its_own_file_past_five_digits(self, tmp_path, monkeypatch):
        # in name order, sample_100000.csv sorts before sample_10001.csv
        n = 100_001
        save_corpus(generate_normal(24, 2, 1, seed=3), tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m.update(n=n))
        names = [f"sample_{i:05d}.csv" for i in range(n)]
        monkeypatch.setattr(data.os, "listdir", lambda directory: names[::-1])
        monkeypatch.setattr(data, "_read_sample", lambda path, tau, channel_names: np.full(
            (tau, len(channel_names)), int(re.fullmatch(r"sample_(\d+)\.csv", os.path.basename(path))[1]), np.float32))
        assert np.array_equal(load_corpus(tmp_path / "c").values[:, 0, 0], np.arange(n))

    def test_nan_cell_names_row_and_column(self, tmp_path):
        ds = generate_normal(24, 2, 2, seed=3)
        save_corpus(ds, tmp_path / "c")
        path = tmp_path / "c" / "sample_00001.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "nan"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=r"row 6, column 1"):
            load_corpus(tmp_path / "c")

    def test_malformed_manifest(self, tmp_path):
        ds = generate_normal(24, 2, 2, seed=3)
        save_corpus(ds, tmp_path / "c")
        (tmp_path / "c" / "manifest.json").write_text("{not json")
        with pytest.raises(ContractError, match="manifest"):
            load_corpus(tmp_path / "c")

    def test_shape_disagreement(self, tmp_path):
        ds = generate_normal(24, 2, 2, seed=3)
        save_corpus(ds, tmp_path / "c")
        path = tmp_path / "c" / "sample_00000.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ContractError, match="sample_00000"):
            load_corpus(tmp_path / "c")

    @staticmethod
    def _edit_manifest(directory, edit):
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("field,value,message", [("onset", 2.5, "fault onset must be an integer, got 2.5"),
                                                     ("duration", True, "fault duration must be an integer, got True"),
                                                     ("magnitude", "2", "fault magnitude must be a real number"),
                                                     ("channels", [0.0], "fault channel must be an integer")])
    def test_a_fault_spec_field_not_of_its_type_is_a_corpus_error_naming_the_manifest(self, tmp_path, field, value,
                                                                                     message):
        # an onset of 2.5 loaded as 2, and a duration of true as 1
        save_corpus(make_fault_dataset(generate_normal(24, 2, 2, seed=3), "offset", seed=5), tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m["fault_spec"].update({field: value}))
        manifest = re.escape(f"manifest {tmp_path / 'c' / 'manifest.json'}: malformed fault_spec: ")
        with pytest.raises(ContractError, match=f"^{manifest}ContractError..{re.escape(message)}"):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("failing", ["sample_00000.csv", "sample_00002.csv", "manifest.json.tmp"])
    def test_a_save_that_fails_midway_leaves_no_manifest(self, tmp_path, monkeypatch, failing):
        # the manifest is written last, so a directory that holds one holds all of its samples
        def open_failing(path, mode="r"):
            if os.path.basename(path) == failing:
                raise OSError(28, "No space left on device")
            return open(path, mode)

        monkeypatch.setattr(data, "open", open_failing, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_corpus(generate_normal(24, 2, 3, seed=3), tmp_path / "c")
        assert not (tmp_path / "c" / "manifest.json").exists()
        with pytest.raises(ContractError, match="^missing manifest"):
            load_corpus(tmp_path / "c")

    def test_a_manifest_tau_beyond_any_array_is_a_contract_error_naming_the_sample(self, tmp_path):
        # refused at the first sample file, before anything of the manifest's (n, tau, dim) is allocated
        save_corpus(generate_normal(24, 2, 2, seed=3), tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m.update(tau=10**30))
        with pytest.raises(ContractError, match=f"sample_00000.csv: 24 timesteps, manifest says {10**30}$"):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("key", ["tau", "dim", "n"])
    @pytest.mark.parametrize("value", ["x", None, 2.5, 3.0, True])
    def test_non_integer_manifest_field(self, tmp_path, key, value):
        save_corpus(generate_normal(24, 2, 2, seed=3), tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m.update({key: value}))
        with pytest.raises(ContractError, match="must be integers"):
            load_corpus(tmp_path / "c")

    def test_fault_spec_without_onset(self, tmp_path):
        ds = make_fault_dataset(generate_normal(24, 2, 3, seed=3), "sudden", seed=5, magnitude=1.0)
        save_corpus(ds, tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m["fault_spec"].pop("onset"))
        with pytest.raises(ContractError, match="fault_spec"):
            load_corpus(tmp_path / "c")
        corpus = str(tmp_path / "c")
        assert main(["evaluate", "--real", corpus, "--synth", corpus, "--out", str(tmp_path / "r")]) == 2

    def test_a_compound_fault_spec_is_a_corpus_error(self, tmp_path, capsys):
        ds = make_fault_dataset(generate_normal(24, 2, 3, seed=3), "offset", seed=5, magnitude=1.0)
        save_corpus(ds, tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m["fault_spec"].update(
            kind="compound", extra={"components": [dict(m["fault_spec"])]}))
        with pytest.raises(ContractError, match="malformed fault_spec: .*unknown fault kind 'compound'"):
            load_corpus(tmp_path / "c")
        corpus = str(tmp_path / "c")
        assert main(["evaluate", "--real", corpus, "--synth", corpus, "--out", str(tmp_path / "r")]) == 2
        assert "unknown fault kind 'compound'" in capsys.readouterr().err

    @staticmethod
    def _rewrite_sample(directory, edit):
        """Save a 24 x 2 corpus of two series and pass sample_00001.csv's lines (header first) through `edit`."""
        save_corpus(generate_normal(24, 2, 2, seed=3), directory)
        path = directory / "sample_00001.csv"
        path.write_bytes(edit(path.read_bytes().split(b"\n")[:-1]))
        return path

    @pytest.mark.parametrize("edit", [
        lambda lines: b"\n".join(lines[:3] + [b"", b""] + lines[3:]) + b"\n\n",
        lambda lines: b"\n".join(lines[:3] + [b"  \t "] + lines[3:]) + b"\n",
        lambda lines: b"\r\n".join(lines) + b"\r\n",
        lambda lines: b"\n".join(lines),
    ], ids=["blank-lines", "whitespace-line", "crlf", "no-final-newline"])
    def test_accepted_line_layouts_load_bit_identical(self, tmp_path, edit):
        self._rewrite_sample(tmp_path / "c", edit)
        expected = generate_normal(24, 2, 2, seed=3).values
        assert load_corpus(tmp_path / "c").values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[0] + b"\n",
        lambda lines: b"\n".join(lines[:4] + [lines[4].split(b",")[0]] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [lines[4] + b",0.5"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [b"0.5,abc"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [b"0.5,#1"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [b"0.5,1 # note"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(line + b",0.5" for line in lines) + b"\n",
        lambda lines: b"\n".join([b"x,y"] + lines[1:]) + b"\n",
        lambda lines: b"\n".join([b"ch1,ch0"] + lines[1:]) + b"\n",
        lambda lines: b"\n".join([b"ch0"] + lines[1:]) + b"\n",
    ], ids=["header-only", "short-row", "long-row", "non-number", "hash-cell", "hash-comment",
            "every-row-long", "other-header", "reordered-header", "short-header"])
    def test_malformed_rows_are_corpus_errors_naming_the_file(self, tmp_path, capsys, edit):
        self._rewrite_sample(tmp_path / "c", edit)
        with pytest.raises(ContractError, match="sample_00001.csv"):
            load_corpus(tmp_path / "c")
        corpus = str(tmp_path / "c")
        assert main(["evaluate", "--real", corpus, "--synth", corpus, "--out", str(tmp_path / "r")]) == 2
        assert "sample_00001.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "-1e39"])
    @pytest.mark.parametrize("blank_lines, row", [(0, 6), (2, 8)])
    def test_non_finite_cell_names_its_file_line_and_column(self, tmp_path, cell, blank_lines, row):
        # the header is row 1 and blank lines count; the cell sits on the fifth data row.
        # -1e39 is finite in float64 but overflows the float32 the corpus is held in
        def edit(lines):
            lines[5] = lines[5].split(b",")[0] + b"," + cell.encode()
            return b"\n".join(lines[:2] + [b""] * blank_lines + lines[2:]) + b"\n"
        self._rewrite_sample(tmp_path / "c", edit)
        with pytest.raises(ContractError, match=rf"sample_00001.csv: non-finite value at row {row}, column 1$"):
            load_corpus(tmp_path / "c")


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def fault_cases(draw, kind):
    """A random series and a valid `kind` fault spec for it."""
    tau = draw(st.integers(8, 40))
    dim = draw(st.integers(1, 4))
    onset = draw(st.integers(0, tau - 2))
    room = tau - onset - 1 if kind == "sudden_recovery" else tau - onset
    duration = draw(st.integers(2 if kind in ("periodic", "low_frequency_anomaly", "intermittent") else 1, room))
    magnitude = draw(st.floats(-5.0, 5.0))
    if kind in ("random_noise", "saturation"):  # a standard deviation; a clip level
        magnitude = abs(magnitude)
    channels = draw(st.none() | st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    seed = draw(st.integers(0, 2**16))
    series = _series(tau, dim, seed)
    return series, FaultSpec(kind, onset, duration, magnitude, channels), seed


class TestProperties:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_inject_fault_leaves_everything_outside_its_window_bit_identical(self, kind, data):
        series, spec, seed = data.draw(fault_cases(kind))
        out = inject_fault(series, spec, np.random.default_rng(seed))
        lo, hi = _window(spec, len(series))
        touched = np.zeros(series.shape, dtype=bool)
        touched[lo:hi, spec.channels or slice(None)] = True
        before, after = series.view(np.uint32), out.view(np.uint32)
        assert np.array_equal(after[~touched], before[~touched])

    @PROPERTY_SETTINGS
    @given(data=st.data(), burst_len=st.none() | st.integers(1, 48), magnitude=st.floats(0.5, 5.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_an_accepted_intermittent_fault_is_never_a_plain_offset(self, data, burst_len, magnitude, sign):
        series, spec, seed = data.draw(fault_cases("intermittent"))
        spec.magnitude = sign * magnitude
        if burst_len is not None:
            spec.extra["burst_len"] = burst_len
        try:
            out = inject_fault(series, spec, np.random.default_rng(seed))
        except ContractError:
            assert burst_len is not None and burst_len >= spec.duration  # the default burst is always accepted
            return
        offset = inject_fault(series, dataclasses.replace(spec, kind="offset", extra={}), np.random.default_rng(seed))
        assert not np.array_equal(out, offset)

    @PROPERTY_SETTINGS
    @given(mode=st.sampled_from(["minmax", "zscore"]),
           values=hnp.arrays(np.float32, st.tuples(st.integers(2, 12), st.integers(1, 3)),
                             elements=st.floats(-1e4, 1e4, width=32, allow_subnormal=False)))
    def test_normalizer_scale_then_invert_round_trips(self, mode, values):
        series = TimeSeries(values, [f"ch{c}" for c in range(values.shape[1])])
        norm = fit_normalizer(Dataset([series], "normal", "t"), mode)
        back = norm.invert(TimeSeries(norm.scale(values), series.channel_names)).values
        scale = float(np.max(np.abs(values)))
        np.testing.assert_allclose(back, values, rtol=0, atol=1e-6 * scale)
