"""Report assembly in evaluate_corpora, and the Frechet distance against scipy."""

import numpy as np
import pytest
from scipy.linalg import sqrtm

from faultgen import autodiff as ad
from faultgen import metrics
from faultgen.autodiff import Tensor
from faultgen.cli import FAULT_SEED_OFFSET
from faultgen.data import Dataset, TimeSeries, generate_normal, make_fault_dataset
from faultgen.errors import ContractError, DimensionError, NumericError

from helpers import central_diff, rel_err, tape_cross_entropy, tape_fit_predict


def test_seed_free_scores_run_once_and_match_single_seed_calls(monkeypatch):
    real = generate_normal(8, 2, 12, seed=1)
    synth = generate_normal(8, 2, 12, seed=2, noise_std=0.2)
    singles = [metrics.evaluate_corpora(real, synth, seeds=(s,)) for s in range(5)]

    calls = {name: 0 for name in ("context_fid", "correlational_score", "diversity_score",
                                  "discriminative_score", "predictive_score")}
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


@pytest.mark.parametrize("fn, seeds", [("evaluate_corpora", ()), ("evaluate_corpora", (2, 0, 2)),
                                       ("discriminative_score", ()), ("predictive_score", ())],
                         ids=["empty", "duplicate", "discriminative-empty", "predictive-empty"])
def test_evaluate_corpora_rejects_an_empty_or_repeated_seed_list(fn, seeds):
    real = generate_normal(8, 2, 6, seed=1)
    with pytest.raises(ContractError, match="distinct seeds"):
        getattr(metrics, fn)(real, real, seeds=seeds)


@pytest.mark.parametrize("names", [("discriminative", "discriminative"), ("all", "predictive", "all"),
                                   ("context_fid", "diversity", "context_fid")],
                         ids=["discriminative-twice", "all-twice", "context_fid-twice"])
def test_evaluate_corpora_rejects_a_metric_named_twice(names):
    # named twice, discriminative trained its networks twice and wrote one value
    real = generate_normal(8, 2, 6, seed=1)
    with pytest.raises(ContractError, match="metrics must be distinct, none named twice"):
        metrics.evaluate_corpora(real, real, names, seeds=(0,))


def test_all_together_with_a_metric_name_selects_each_metric_once():
    assert metrics.check_request(["all", "predictive"], [0]) == list(metrics.METRIC_NAMES)


def test_each_seeds_slice_of_a_stacked_net_is_its_own_default_rng_draw():
    stacked = metrics.FeedForwardNet(6, [5, 4], 2, seeds=(3, 1, 4))
    assert [p.data.shape for p in stacked.params] == [(3, 6, 5), (3, 1, 5), (3, 5, 4), (3, 1, 4),
                                                      (3, 4, 2), (3, 1, 2)]
    for k, seed in enumerate((3, 1, 4)):
        single = metrics.FeedForwardNet(6, [5, 4], 2, seeds=(seed,))
        rng, last = np.random.default_rng(seed), 6
        for (w, b), (w1, b1), h in zip(stacked.layers, single.layers, (5, 4, 2)):
            drawn = rng.normal(0, np.sqrt(2.0 / (last + h)), (last, h)).astype(np.float32)
            assert w.data[k].tobytes() == w1.data[0].tobytes() == drawn.tobytes()
            assert not b.data[k].any() and not b1.data.any()
            last = h


@pytest.mark.parametrize("score", ["discriminative_score", "predictive_score"])
def test_seeded_scores_over_a_stack_equal_one_seed_calls_in_seed_order(score):
    real = generate_normal(8, 2, 14, seed=1)
    synth = generate_normal(8, 2, 11, seed=2, noise_std=0.2)
    fn = getattr(metrics, score)
    stacked = fn(real, synth, (3, 1, 4))
    assert [repr(v) for v in stacked] == [repr(fn(real, synth, (s,))[0]) for s in (3, 1, 4)]
    assert len(set(stacked)) > 1


@pytest.mark.parametrize("predict, expected", [("real", 0.0), ("synth", 0.0), ("truth", 0.5)])
def test_discriminative_score_is_balanced_accuracy_off_one_half(monkeypatch, predict, expected):
    # 20 real against 6 synthetic: a test split of 4 real and 1 synthetic series, real rows first
    labels = np.array([1] * 4 + [0])
    predicted = {"real": np.ones_like(labels), "synth": np.zeros_like(labels), "truth": labels}[predict]

    def fit_predict(x_train, x_test, *args, **kwargs):
        assert x_test.shape[1] == len(labels)
        return np.stack([np.eye(2)[predicted]] * len(x_train))
    monkeypatch.setattr(metrics, "_fit_predict", fit_predict)
    real, synth = generate_normal(8, 2, 20, seed=1), generate_normal(8, 2, 6, seed=2)
    assert metrics.discriminative_score(real, synth, (0, 1)) == [expected, expected]


@pytest.mark.parametrize("loss", ["cross_entropy", "l1"])
@pytest.mark.parametrize("seeds", [(3,), (0, 1, 2)], ids=["1-seed", "3-seeds"])
@pytest.mark.parametrize("hidden", [[32], [32, 32]], ids=["1-hidden", "2-hidden"])
def test_the_closed_form_backward_trains_bitwise_as_the_tape(monkeypatch, loss, seeds, hidden):
    rng = np.random.default_rng(len(seeds) + len(hidden))
    x_train = rng.standard_normal((len(seeds), 40, 12)) * 3 + 1
    x_test = rng.standard_normal((len(seeds), 9, 12)) * 3 + 1
    labels, y = rng.integers(0, 3, 40), rng.standard_normal((40, 2)).astype(np.float32)
    out_dim = 3 if loss == "cross_entropy" else 2

    def grad(out):
        return metrics.cross_entropy_grad(out, labels) if loss == "cross_entropy" else metrics.l1_grad(out, y)

    def tape_loss(out):
        if loss == "cross_entropy":
            return tape_cross_entropy(out, labels)
        return ad.absolute(out - Tensor(y)).mean(axis=(1, 2)).sum()
    reference = metrics.FeedForwardNet(12, hidden, out_dim, seeds)
    initial = [p.data.copy() for p in reference.params]
    want = tape_fit_predict(reference, x_train, x_test, tape_loss, steps=25, lr=3e-3)
    nets = []

    class Recorded(metrics.FeedForwardNet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self)
    monkeypatch.setattr(metrics, "FeedForwardNet", Recorded)
    got = metrics._fit_predict(x_train, x_test, hidden, out_dim, grad, steps=25, lr=3e-3, seeds=seeds)

    assert got.shape == (len(seeds), 9, out_dim) and got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    assert len(nets) == 1 and len(nets[0].params) == 2 * (len(hidden) + 1)
    for p, q, p0 in zip(nets[0].params, reference.params, initial):
        assert p.data.tobytes() == q.data.tobytes(), p.name
        assert not np.array_equal(p.data, p0), p.name  # every layer trained


def test_a_non_finite_evaluation_network_raises_numeric_error():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 20, 6))
    labels = rng.integers(0, 2, 20)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
        metrics._fit_predict(x, x, [8], 2, lambda out: metrics.cross_entropy_grad(out, labels),
                             steps=5, lr=1e38, seeds=(0,))


def _mean_cross_entropy(logits, labels):
    """Independent float64 reference: -mean(log softmax(logits)[label]) per (n, C) slice, summed."""
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return -float(np.sum(np.mean(logp[..., np.arange(len(labels)), labels], axis=-1)))


def test_cross_entropy_grad_matches_central_differences():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    numeric = central_diff(lambda z: _mean_cross_entropy(z, labels), logits)
    assert rel_err(metrics.cross_entropy_grad(logits, labels), numeric) < 1e-6


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_cross_entropy_grad_over_a_stack_is_its_slices_gradients_bitwise(dtype):
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((3, 7, 4)).astype(dtype)
    labels = rng.integers(0, 4, 7)
    stacked = metrics.cross_entropy_grad(logits, labels)
    assert stacked.dtype == np.dtype(dtype)
    assert stacked.tobytes() == np.stack([metrics.cross_entropy_grad(x, labels) for x in logits]).tobytes()


def test_cross_entropy_grad_over_a_stack_matches_central_differences():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, 5)
    logits = rng.standard_normal((2, 3, 5, 3))
    numeric = central_diff(lambda z: _mean_cross_entropy(z, labels), logits)
    assert rel_err(metrics.cross_entropy_grad(logits, labels), numeric) < 1e-6


@pytest.mark.parametrize("shape", [(5,), (2, 4, 3)], ids=["1-d", "rows-not-labels"])
def test_cross_entropy_grad_rejects_logits_that_do_not_fit_five_labels(shape):
    with pytest.raises(DimensionError):
        metrics.cross_entropy_grad(np.zeros(shape), np.zeros(5, dtype=int))


def _sudden(n, seed):
    return make_fault_dataset(generate_normal(24, 2, n, seed=seed), "sudden", seed=seed + 1_000_003)


def test_a_small_real_corpus_scores_no_higher_than_an_equal_sized_one():
    # plain accuracy scored the majority-class rate: 0.43 for 200 against 8 series of the same kind
    real = _sudden(200, 9)
    unequal = metrics.discriminative_score(real, _sudden(8, 7), (0, 1, 2))
    equal = metrics.discriminative_score(real, _sudden(200, 7), (0, 1, 2))
    assert max(unequal) <= max(equal)


@pytest.mark.parametrize("n_real, n_synth", [(1, 40), (40, 1), (1, 1)])
def test_the_discriminative_score_rejects_a_corpus_of_fewer_than_2_series(n_real, n_synth):
    # one real series leaves none to train on: against 40 series offset by +50 it scored 0.0, "indistinguishable"
    real = generate_normal(8, 2, n_real, seed=1)
    synth = generate_normal(8, 2, n_synth, seed=2)
    synth = Dataset(synth.values + 50, label="offset", id="offset")
    with pytest.raises(ContractError, match="discriminative score needs >= 2 samples per corpus"):
        metrics.discriminative_score(real, synth, (0, 1, 2))


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
    x = generate_normal(24, 3, 7, seed=4).values
    enc = metrics.ContextEncoder(3)
    stacked = enc.embed(x)
    assert stacked.shape == (7, metrics.EMBED_DIM)
    assert stacked.tobytes() == np.stack([enc.embed(series) for series in x]).tobytes()


def test_corpus_correlation_is_the_mean_corrcoef_with_constant_channels_zeroed():
    arr = generate_normal(16, 3, 4, seed=7).values.copy()
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
    for row, x in zip(feats, ds.values.astype(np.float64)):
        xc = x - x.mean(axis=0)
        want = [xc[:-k, c] @ xc[k:, c] / (xc[:, c] @ xc[:, c]) for k in (1, 2, 3) for c in (0, 1)]
        np.testing.assert_allclose(row, want, rtol=1e-12)


def test_the_discriminative_score_tells_a_wrong_fault_kind_from_another_draw_of_the_right_one():
    """Calibration on real data, per metric seed: `sudden` against `trend` is told apart (balanced accuracy
    at least 0.75) and scores above `sudden` against another draw of `sudden`."""
    def corpus(kind, seed):  # as `make-data --kind fault --seed seed` draws it
        return make_fault_dataset(generate_normal(24, 2, 64, seed=seed), kind, seed=seed + FAULT_SEED_OFFSET)

    sudden = corpus("sudden", 0)
    same = metrics.discriminative_score(sudden, corpus("sudden", 1), seeds=(0, 1, 2))
    wrong = metrics.discriminative_score(sudden, corpus("trend", 2), seeds=(0, 1, 2))
    assert all(w >= 0.25 and w > s for w, s in zip(wrong, same)), (wrong, same)
