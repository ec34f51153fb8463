"""Corpus generation, the fault catalog, normalization, and corpus I/O."""

import json

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from faultgen.cli import main
from faultgen.data import (
    FAULT_KINDS,
    Dataset,
    FaultSpec,
    TimeSeries,
    effective_window,
    fit_normalizer,
    generate_normal,
    inject_fault,
    load_corpus,
    make_fault_dataset,
    save_corpus,
)
from faultgen.errors import ContractError, CorpusError

from helpers import ar2_stationary_variance


def _series(tau=24, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeries(rng.standard_normal((tau, d)).astype(np.float32), [f"ch{i}" for i in range(d)])


class TestGenerateNormal:
    def test_deterministic(self):
        a = generate_normal(24, 2, 5, seed=3)
        b = generate_normal(24, 2, 5, seed=3)
        for s1, s2 in zip(a.samples, b.samples):
            assert np.array_equal(s1.values, s2.values)

    def test_single_sinusoid_exact(self):
        # noise 0, one component: recompute from the documented draw order
        ds = generate_normal(32, 1, 1, seed=11, noise_std=0.0, components=(1, 1))
        rng = np.random.default_rng(11)
        n_comp = int(rng.integers(1, 2))
        cycles = rng.uniform(1.0, 4.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.3, 1.0) / n_comp
        t = np.arange(32)
        expected = amp * np.sin(2 * np.pi * cycles * t / 32 + phase)
        np.testing.assert_allclose(ds.samples[0].values[:, 0], expected, atol=1e-6)

    def test_ar2_variance_matches_closed_form(self):
        coeffs, sd = (0.5, -0.25), 0.3
        ds = generate_normal(64, 1, 1000, seed=5, base_kind="ar_process",
                             ar_coeffs=coeffs, ar_noise_std=sd)
        emp = float(np.var(ds.as_array()))
        expected = ar2_stationary_variance(*coeffs, sd)
        assert abs(emp - expected) / expected < 0.2

    def test_invalid_dims(self):
        with pytest.raises(ContractError):
            generate_normal(4, 2, 1, seed=0)


class TestInjectFault:
    def test_sudden_step(self):
        s = _series()
        spec = FaultSpec("sudden", onset=6, duration=8, magnitude=1.5)
        out = inject_fault(s, spec, seed=0)
        diff = out.values - s.values
        np.testing.assert_allclose(diff[:6], 0.0)
        np.testing.assert_allclose(diff[6:], 1.5, atol=1e-6)

    def test_offset_zero_magnitude_identity(self):
        s = _series()
        out = inject_fault(s, FaultSpec("offset", 4, 6, 0.0), seed=1)
        assert np.array_equal(out.values, s.values)

    def test_gradual_ramp_closed_form(self):
        s = _series()
        m, onset, dur = 2.0, 5, 10
        out = inject_fault(s, FaultSpec("gradual", onset, dur, m), seed=0)
        diff = out.values - s.values
        expected = m * (np.arange(dur) + 1) / dur
        for c in range(s.dim):
            np.testing.assert_allclose(diff[onset:onset + dur, c], expected, atol=1e-6)
        np.testing.assert_allclose(diff[onset + dur:], 0.0)

    @pytest.mark.parametrize("kind", [k for k in FAULT_KINDS if k != "compound"])
    def test_outside_window_untouched(self, kind):
        s = _series(tau=32, d=3, seed=7)
        extra = {}
        if kind == "low_frequency_anomaly":
            extra["period"] = 20
        spec = FaultSpec(kind, onset=8, duration=10, magnitude=1.2, channels=[0, 2], extra=extra)
        out = inject_fault(s, spec, seed=3)
        lo, hi = effective_window(spec, s.tau)
        # untouched timesteps and the unaffected channel are bit-identical
        assert np.array_equal(out.values[:lo], s.values[:lo])
        assert np.array_equal(out.values[hi:], s.values[hi:])
        assert np.array_equal(out.values[:, 1], s.values[:, 1])

    @pytest.mark.parametrize("kind", [k for k in FAULT_KINDS if k != "compound"])
    def test_deterministic(self, kind):
        s = _series(tau=32)
        extra = {"period": 20} if kind == "low_frequency_anomaly" else {}
        spec = FaultSpec(kind, onset=8, duration=10, magnitude=1.2, extra=extra)
        a = inject_fault(s, spec, seed=5)
        b = inject_fault(s, spec, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_compound_equals_sequential(self):
        s = _series(tau=32)
        parts = [FaultSpec("offset", 4, 6, 1.0), FaultSpec("amplitude_shift", 12, 8, 0.5)]
        spec = FaultSpec("compound", 4, 16, 0.0, extra={"components": parts})
        out = inject_fault(s, spec, seed=9)
        manual = inject_fault(inject_fault(s, parts[0], seed=9), parts[1], seed=10)
        assert np.array_equal(out.values, manual.values)

    def test_saturation_clips(self):
        s = _series(seed=3)
        out = inject_fault(s, FaultSpec("saturation", 4, 12, 0.5, extra={"clip_level": 0.5}), seed=0)
        assert np.max(np.abs(out.values[4:16])) <= 0.5 + 1e-6

    def test_missing_data_holds_last(self):
        s = _series()
        out = inject_fault(s, FaultSpec("missing_data", 10, 6, 0.0), seed=0)
        for t in range(10, 16):
            np.testing.assert_array_equal(out.values[t], s.values[9])

    def test_sudden_recovery_recovers(self):
        s = _series()
        out = inject_fault(s, FaultSpec("sudden_recovery", 5, 10, 2.0), seed=0)
        diff = out.values - s.values
        np.testing.assert_allclose(diff[5:15], 2.0, atol=1e-6)
        np.testing.assert_allclose(diff[15:], 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            FaultSpec("explosion", 0, 1, 1.0)

    def test_window_out_of_range_rejected(self):
        s = _series()
        with pytest.raises(ContractError):
            inject_fault(s, FaultSpec("offset", 20, 10, 1.0), seed=0)
        with pytest.raises(ContractError):
            inject_fault(s, FaultSpec("sudden_recovery", 14, 10, 1.0), seed=0)

    def test_make_fault_dataset_labels(self):
        base = generate_normal(24, 2, 4, seed=1)
        ds = make_fault_dataset(base, "sudden", seed=2, magnitude=2.0)
        assert ds.label == "fault:sudden" and len(ds) == 4
        assert ds.fault_spec is not None and ds.fault_spec.kind == "sudden"


class TestNormalizer:
    def test_minmax_hand_case(self):
        ds = Dataset([TimeSeries(np.array([[0.0], [10.0]]), ["a"])], "normal", "t")
        norm = fit_normalizer(ds, "minmax")
        out = norm.apply(ds.samples[0])
        np.testing.assert_allclose(out.values, [[-1.0], [1.0]])

    def test_roundtrip(self):
        ds = generate_normal(24, 3, 6, seed=8)
        norm = fit_normalizer(ds, "minmax")
        for s in ds.samples:
            back = norm.invert(norm.apply(s))
            np.testing.assert_allclose(back.values, s.values, atol=1e-6)

    def test_constant_channel(self):
        vals = np.stack([np.full(10, 2.5), np.arange(10, dtype=np.float32)], axis=1)
        ds = Dataset([TimeSeries(vals, ["const", "ramp"])], "normal", "t")
        norm = fit_normalizer(ds, "minmax")
        out = norm.apply(ds.samples[0])
        np.testing.assert_allclose(out.values[:, 0], 0.0)
        back = norm.invert(out)
        np.testing.assert_allclose(back.values[:, 0], 2.5)

    def test_zscore_roundtrip(self):
        ds = generate_normal(24, 2, 6, seed=9)
        norm = fit_normalizer(ds, "zscore")
        s = ds.samples[0]
        np.testing.assert_allclose(norm.invert(norm.apply(s)).values, s.values, atol=1e-5)


class TestCorpusIO:
    def test_roundtrip_bitexact(self, tmp_path):
        ds = generate_normal(24, 2, 5, seed=3)
        save_corpus(ds, tmp_path / "c")
        back = load_corpus(tmp_path / "c")
        assert back.label == ds.label and back.id == ds.id and back.seed == ds.seed
        for s1, s2 in zip(ds.samples, back.samples):
            assert np.array_equal(s1.values, s2.values)
            assert s1.channel_names == s2.channel_names

    def test_fault_spec_roundtrip(self, tmp_path):
        base = generate_normal(24, 2, 3, seed=3)
        ds = make_fault_dataset(base, "periodic", seed=5, magnitude=1.0, extra={"period": 6.0})
        save_corpus(ds, tmp_path / "c")
        back = load_corpus(tmp_path / "c")
        assert back.fault_spec.kind == "periodic"
        assert back.fault_spec.extra["period"] == 6.0

    def test_count_mismatch_rejected(self, tmp_path):
        ds = generate_normal(24, 2, 3, seed=3)
        save_corpus(ds, tmp_path / "c")
        (tmp_path / "c" / "sample_00002.csv").unlink()
        with pytest.raises(CorpusError, match="3 samples"):
            load_corpus(tmp_path / "c")

    def test_nan_cell_names_row_and_column(self, tmp_path):
        ds = generate_normal(24, 2, 2, seed=3)
        save_corpus(ds, tmp_path / "c")
        path = tmp_path / "c" / "sample_00001.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "nan"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError, match=r"row 6, column 1"):
            load_corpus(tmp_path / "c")

    def test_malformed_manifest(self, tmp_path):
        ds = generate_normal(24, 2, 2, seed=3)
        save_corpus(ds, tmp_path / "c")
        (tmp_path / "c" / "manifest.json").write_text("{not json")
        with pytest.raises(CorpusError, match="manifest"):
            load_corpus(tmp_path / "c")

    def test_shape_disagreement(self, tmp_path):
        ds = generate_normal(24, 2, 2, seed=3)
        save_corpus(ds, tmp_path / "c")
        path = tmp_path / "c" / "sample_00000.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CorpusError, match="sample_00000"):
            load_corpus(tmp_path / "c")

    @staticmethod
    def _edit_manifest(directory, edit):
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("key", ["tau", "dim", "n"])
    @pytest.mark.parametrize("value", ["x", None, 2.5, 3.0, True])
    def test_non_integer_manifest_field(self, tmp_path, key, value):
        save_corpus(generate_normal(24, 2, 2, seed=3), tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m.update({key: value}))
        with pytest.raises(CorpusError, match="must be integers"):
            load_corpus(tmp_path / "c")

    def test_fault_spec_without_onset(self, tmp_path):
        ds = make_fault_dataset(generate_normal(24, 2, 3, seed=3), "sudden", seed=5, magnitude=1.0)
        save_corpus(ds, tmp_path / "c")
        self._edit_manifest(tmp_path / "c", lambda m: m["fault_spec"].pop("onset"))
        with pytest.raises(CorpusError, match="fault_spec"):
            load_corpus(tmp_path / "c")
        corpus = str(tmp_path / "c")
        assert main(["evaluate", "--real", corpus, "--synth", corpus, "--out", str(tmp_path / "r")]) == 2

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
        expected = generate_normal(24, 2, 2, seed=3).as_array()
        assert load_corpus(tmp_path / "c").as_array().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[0] + b"\n",
        lambda lines: b"\n".join(lines[:4] + [lines[4].split(b",")[0]] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [lines[4] + b",0.5"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [b"0.5,abc"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [b"0.5,#1"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(lines[:4] + [b"0.5,1 # note"] + lines[5:]) + b"\n",
        lambda lines: b"\n".join(line + b",0.5" for line in lines) + b"\n",
    ], ids=["header-only", "short-row", "long-row", "non-number", "hash-cell", "hash-comment",
            "every-row-long"])
    def test_malformed_rows_are_corpus_errors_naming_the_file(self, tmp_path, capsys, edit):
        self._rewrite_sample(tmp_path / "c", edit)
        with pytest.raises(CorpusError, match="sample_00001.csv"):
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
        with pytest.raises(CorpusError, match=rf"sample_00001.csv: non-finite value at row {row}, column 1$"):
            load_corpus(tmp_path / "c")


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def fault_cases(draw, kind):
    """A random series and a valid `kind` fault spec for it."""
    tau = draw(st.integers(8, 40))
    dim = draw(st.integers(1, 4))
    onset = draw(st.integers(0, tau - 2))
    room = tau - onset - 1 if kind == "sudden_recovery" else tau - onset
    duration = draw(st.integers(1, room))
    magnitude = draw(st.floats(-5.0, 5.0))
    if kind == "random_noise":
        magnitude = abs(magnitude)
    channels = draw(st.none() | st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    seed = draw(st.integers(0, 2**16))
    series = _series(tau, dim, seed)
    return series, FaultSpec(kind, onset, duration, magnitude, channels), seed


class TestProperties:
    @pytest.mark.parametrize("kind", [k for k in FAULT_KINDS if k != "compound"])
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_inject_fault_leaves_everything_outside_its_window_bit_identical(self, kind, data):
        series, spec, seed = data.draw(fault_cases(kind))
        out = inject_fault(series, spec, seed)
        lo, hi = effective_window(spec, series.tau)
        touched = np.zeros(series.values.shape, dtype=bool)
        touched[lo:hi, spec.channels or slice(None)] = True
        before, after = series.values.view(np.uint32), out.values.view(np.uint32)
        assert np.array_equal(after[~touched], before[~touched])

    @PROPERTY_SETTINGS
    @given(mode=st.sampled_from(["minmax", "zscore"]),
           values=hnp.arrays(np.float32, st.tuples(st.integers(2, 12), st.integers(1, 3)),
                             elements=st.floats(-1e4, 1e4, width=32, allow_subnormal=False)))
    def test_normalizer_apply_then_invert_round_trips(self, mode, values):
        series = TimeSeries(values, [f"ch{c}" for c in range(values.shape[1])])
        norm = fit_normalizer(Dataset([series], "normal", "t"), mode)
        back = norm.invert(norm.apply(series)).values
        scale = float(np.max(np.abs(values)))
        np.testing.assert_allclose(back, values, rtol=0, atol=1e-6 * scale)
