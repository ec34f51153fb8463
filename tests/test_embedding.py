"""2-D projections: PCA against numpy's SVD, t-SNE affinities, KDE curves, CLI exit codes."""

import numpy as np
import pytest

from faultgen.cli import main
from faultgen.data import Dataset, TimeSeries
from faultgen.embedding import _tsne_probabilities, embed_2d, pca_2d


def _svd_pca(x):
    """Top-two principal coordinates from numpy's SVD, under pca_2d's sign convention."""
    xc = x - x.mean(axis=0)
    u, s, _ = np.linalg.svd(xc, full_matrices=False)
    coords = u[:, :2] * s[:2]
    for j in range(2):
        if coords[np.argmax(np.abs(coords[:, j])), j] < 0:
            coords[:, j] = -coords[:, j]
    return coords


@pytest.mark.parametrize("n, q", [(30, 5), (6, 20)], ids=["covariance", "gram"])
def test_pca_matches_numpy_svd(n, q):
    x = np.random.default_rng(0).standard_normal((n, q)) * np.linspace(3.0, 0.5, q)
    expected = _svd_pca(x)
    np.testing.assert_allclose(pca_2d(x), expected, atol=1e-8 * np.max(np.abs(expected)))


def test_tsne_probabilities_are_a_symmetric_distribution():
    x = np.random.default_rng(1).standard_normal((15, 4))
    p = _tsne_probabilities(x, perplexity=4.0)
    np.testing.assert_array_equal(p, p.T)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-9


def _corpus(label, n, shift, seed):
    rng = np.random.default_rng(seed)
    series = [TimeSeries((rng.standard_normal((8, 2)) + shift).astype(np.float32), ["a", "b"])
              for _ in range(n)]
    return Dataset(series, label=label, id=label)


@pytest.mark.parametrize("method", ["pca", "tsne"])
def test_each_kde_curve_integrates_to_about_one(method):
    result = embed_2d([_corpus("normal", 20, 0.0, 2), _corpus("fault", 12, 1.5, 3)], method=method,
                      params={"perplexity": 5.0, "iters": 100})
    curves = {}
    for label, axis, grid, density in result.kde:
        curves.setdefault((label, axis), []).append((grid, density))
    assert set(curves) == {(l, a) for l in ("normal", "fault") for a in ("x", "y")}
    for key, points in curves.items():
        grid, density = np.array(points).T
        assert abs(np.trapezoid(density, grid) - 1.0) < 0.01, key


@pytest.fixture(scope="module")
def normal_corpus(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("corpora") / "normal")
    assert main(["make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", path]) == 0
    return path


def test_embed_exits_2_on_a_missing_corpus(normal_corpus, tmp_path, capsys):
    argv = ["embed", "--corpus", normal_corpus, "--corpus", str(tmp_path / "missing"),
            "--method", "pca", "--out", str(tmp_path / "emb")]
    assert main(argv) == 2
    assert "missing embedding corpus directory" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["--train", "--synth", "--test"])
def test_downstream_exits_2_on_a_missing_corpus(normal_corpus, tmp_path, capsys, missing):
    dirs = {"--train": normal_corpus, "--synth": normal_corpus, "--test": normal_corpus}
    dirs[missing] = str(tmp_path / "missing")
    assert main(["downstream", *(arg for flag, d in dirs.items() for arg in (flag, d))]) == 2
    assert "corpus directory" in capsys.readouterr().err


def test_downstream_exits_2_on_a_single_class(normal_corpus, capsys):
    assert main(["downstream", "--train", normal_corpus, "--test", normal_corpus]) == 2
    assert ">= 2 classes" in capsys.readouterr().err
