"""The independent oracles on inputs whose answer is known in closed form."""

import math

import numpy as np
import pytest

import oracles


def _with_moments(rng, n, mean, sd):
    """n samples whose sample mean and (ddof=1) covariance are exactly mean and diag(sd**2)."""
    x = rng.standard_normal((n, len(mean)))
    x -= x.mean(axis=0)
    x = x @ np.linalg.inv(np.linalg.cholesky(np.cov(x, rowvar=False))).T
    return x * sd + mean


def test_fid_of_identical_clouds_is_zero():
    x = np.random.default_rng(0).standard_normal((50, 16))
    assert abs(oracles.frechet_sqrtm(x, x)) < 1e-9


def test_fid_between_gaussians_matches_closed_form():
    rng = np.random.default_rng(1)
    mu_a, mu_b = rng.normal(size=6), rng.normal(size=6)
    sd_a, sd_b = rng.uniform(0.5, 2, 6), rng.uniform(0.5, 2, 6)
    a = _with_moments(rng, 40, mu_a, sd_a)
    b = _with_moments(rng, 70, mu_b, sd_b)
    ridge = 1e-6
    # diagonal covariances commute: Tr(Ca + Cb - 2 (Ca Cb)^1/2) = sum (sqrt(va) - sqrt(vb))^2
    va, vb = sd_a**2 + ridge, sd_b**2 + ridge
    expected = np.sum((mu_a - mu_b) ** 2) + np.sum((np.sqrt(va) - np.sqrt(vb)) ** 2)
    assert oracles.frechet_sqrtm(a, b, ridge) == pytest.approx(expected, rel=1e-9)


def test_fid_oracle_agrees_with_the_library_on_random_clouds():
    from faultgen.metrics import frechet_distance

    rng = np.random.default_rng(2)
    a = rng.standard_normal((64, 16)) @ rng.standard_normal((16, 16))
    b = rng.standard_normal((24, 16)) + 0.5
    assert oracles.frechet_sqrtm(a, b) == pytest.approx(frechet_distance(a, b), rel=1e-6)


def test_corrcoef_score_on_known_correlations():
    t = np.linspace(0, 1, 24)
    together = [np.stack([t, 2 * t + 1], axis=1)]
    opposed = [np.stack([t, -t], axis=1)]
    assert oracles.correlational_corrcoef(together, opposed) == pytest.approx(4.0)
    constant = [np.stack([t, np.ones_like(t)], axis=1)]
    assert np.allclose(oracles.mean_corrcoef(constant), [[1.0, 0.0], [0.0, 0.0]])


def test_corrcoef_score_agrees_with_the_library():
    from faultgen.data import Dataset, TimeSeries
    from faultgen.metrics import correlational_score

    rng = np.random.default_rng(3)
    real = [rng.standard_normal((24, 3)).astype(np.float32) for _ in range(10)]
    synth = [rng.standard_normal((24, 3)).astype(np.float32) for _ in range(7)]
    def ds(xs):
        return Dataset([TimeSeries(x, ["a", "b", "c"]) for x in xs], "x", "x")

    assert oracles.correlational_corrcoef(real, synth) == pytest.approx(
        correlational_score(ds(real), ds(synth)), abs=1e-12)


def test_minmax_bounds_by_hand():
    lo, hi = oracles.normalizer_bounds("minmax", [0.0, -1.0, 3.0], [2.0, 1.0, 3.0])
    # y = +-4 inverts to lo + (y + 1) / 2 * (hi - lo); a zero-width channel inverts to lo
    assert lo.tolist() == [-3.0, -4.0, 3.0]
    assert hi.tolist() == [5.0, 4.0, 3.0]


def test_zscore_bounds_by_hand():
    lo, hi = oracles.normalizer_bounds("zscore", [1.0], [0.5])
    assert lo.tolist() == [-1.0] and hi.tolist() == [3.0]


@pytest.mark.parametrize("mode", ["minmax", "zscore"])
def test_bounds_are_the_library_inverse_of_the_clip(mode):
    from faultgen.data import Normalizer, TimeSeries

    stat_lo = np.array([-2.5, 0.0, 7.0], dtype=np.float32)
    stat_hi = np.array([4.0, 0.0, 9.5], dtype=np.float32)
    norm = Normalizer(mode, stat_lo, stat_hi)
    clip = np.array([[-4.0] * 3, [4.0] * 3], dtype=np.float32)
    back = norm.invert(TimeSeries(clip, ["a", "b", "c"])).values
    lo, hi = oracles.normalizer_bounds(mode, stat_lo, stat_hi)
    assert np.allclose(back.min(axis=0), lo, rtol=1e-6) and np.allclose(back.max(axis=0), hi, rtol=1e-6)


def test_first_loss_tolerance_and_mean_abs_normal():
    assert oracles.E_ABS_NORMAL == pytest.approx(0.7978845608, abs=1e-9)
    tol = oracles.first_loss_tolerance(8, 24, 2)
    assert tol == pytest.approx(6 * math.sqrt(1 - 2 / math.pi) / math.sqrt(384))
    draws = np.abs(np.random.default_rng(4).standard_normal((2000, 384))).mean(axis=1)
    assert np.all(np.abs(draws - oracles.E_ABS_NORMAL) < tol)


def test_checkpoint_reader_round_trips_the_library_writer(tmp_path):
    from faultgen.training import Checkpoint, save_checkpoint

    arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "norm.lo": np.array([-1.5], np.float32)}
    save_checkpoint(Checkpoint(config={"k": 1}, arrays=arrays, step=3), tmp_path / "x.ckpt")
    header, raw = oracles.read_checkpoint(tmp_path / "x.ckpt")
    assert header["config"] == {"k": 1} and header["step"] == 3
    assert raw["a"] == arrays["a"].astype("<f4").tobytes()
    assert oracles.checkpoint_array(raw, "norm.lo").tolist() == [-1.5]
