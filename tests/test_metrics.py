"""Report assembly in evaluate_corpora, and the Frechet distance against scipy."""

import numpy as np
import pytest
from scipy.linalg import sqrtm

from faultgen import metrics
from faultgen.data import Dataset, TimeSeries, generate_normal


def test_seed_free_scores_run_once_and_match_single_seed_calls(monkeypatch):
    real = generate_normal(8, 2, 12, seed=1)
    synth = generate_normal(8, 2, 12, seed=2, noise_std=0.2)
    singles = [metrics.evaluate_corpora(real, synth, seeds=(s,)) for s in range(5)]

    calls = {name: 0 for name in ("context_fid", "correlational_score", "diversity_score")}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(metrics, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(metrics, name, counted)
    report = metrics.evaluate_corpora(real, synth, seeds=(0, 1, 2, 3, 4))

    assert calls == {name: 1 for name in calls}
    assert list(report.values) == list(metrics.METRIC_NAMES)
    for m, per_seed in report.values.items():
        assert list(per_seed) == ["0", "1", "2", "3", "4"]
        assert per_seed == {str(s): single.values[m][str(s)] for s, single in enumerate(singles)}
        assert report.medians[m] == float(np.median(list(per_seed.values())))
    assert len(set(report.values["predictive"].values())) == 5


@pytest.mark.parametrize("dim", [1, 6])
def test_frechet_distance_matches_scipy_sqrtm(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((50, dim))
    b = rng.standard_normal((40, dim)) @ rng.normal(0, 0.7, (dim, dim)) + 0.3
    ca = np.atleast_2d(np.cov(a, rowvar=False)) + 1e-6 * np.eye(dim)
    cb = np.atleast_2d(np.cov(b, rowvar=False)) + 1e-6 * np.eye(dim)
    expected = (np.sum((a.mean(axis=0) - b.mean(axis=0)) ** 2)
                + np.trace(ca + cb - 2.0 * np.real(sqrtm(ca @ cb))))
    got = metrics.frechet_distance(a[:, 0] if dim == 1 else a, b[:, 0] if dim == 1 else b)
    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def _cluster(label, centres, seed):
    rng = np.random.default_rng(seed)
    series = [TimeSeries(np.full((6, 2), c) + 0.05 * rng.standard_normal((6, 2)), ["a", "b"])
              for c in centres]
    return Dataset(series, label=label, id=f"{label}-{seed}")


def test_downstream_eval_on_two_separable_clusters_with_one_planted_test_error():
    # class "up" sits at +2, class "down" at -2; one "down" test series sits in the "up" cluster
    train = [_cluster("up", [2.0] * 10, 0), _cluster("down", [-2.0] * 10, 1)]
    test = [_cluster("up", [2.0] * 4, 2), _cluster("down", [-2.0] * 3 + [2.0], 3)]
    result = metrics.downstream_eval(train, [], test, seed=0)
    # predicted: 5 "up" (4 right, 1 wrong), 3 "down" (all right)
    assert result["accuracy"] == 7 / 8
    assert result["precision"] == pytest.approx((4 / 5 + 1.0) / 2)
    assert result["recall"] == pytest.approx((1.0 + 3 / 4) / 2)
    assert result["f1"] == pytest.approx((8 / 9 + 6 / 7) / 2)


def test_context_encoder_embeds_a_stack_bitwise_as_its_series_one_by_one():
    x = generate_normal(24, 3, 7, seed=4).as_array()
    enc = metrics.ContextEncoder(3)
    stacked = enc.embed(x)
    assert stacked.shape == (7, metrics.EMBED_DIM)
    assert stacked.tobytes() == np.stack([enc.embed(series) for series in x]).tobytes()


def test_corpus_correlation_is_the_mean_corrcoef_with_constant_channels_zeroed():
    arr = generate_normal(16, 3, 4, seed=7).as_array()
    arr[1, :, 2] = 0.5
    ds = Dataset([TimeSeries(x, ["a", "b", "c"]) for x in arr], label="normal", id="c")
    mats = []
    for x in arr.astype(np.float64):
        ok = x.std(axis=0) > 0
        c = np.zeros((3, 3))
        c[np.ix_(ok, ok)] = np.corrcoef(x[:, ok], rowvar=False)
        mats.append(c)
    got, had_constant = metrics._corpus_correlation(ds)
    np.testing.assert_allclose(got, np.mean(mats, axis=0), rtol=0, atol=1e-12)
    assert had_constant
    assert not metrics._corpus_correlation(generate_normal(16, 3, 4, seed=7))[1]


def test_acf_features_are_lag_major_autocorrelations_of_each_series():
    ds = generate_normal(16, 2, 5, seed=6)
    feats = metrics._acf_features(ds, 3)
    assert feats.shape == (5, 3 * 2)
    for row, x in zip(feats, ds.as_array().astype(np.float64)):
        xc = x - x.mean(axis=0)
        want = [xc[:-k, c] @ xc[k:, c] / (xc[:, c] @ xc[:, c]) for k in (1, 2, 3) for c in (0, 1)]
        np.testing.assert_allclose(row, want, rtol=1e-12)
