"""2-D projections: PCA against numpy's SVD, t-SNE affinities, KDE curves, CLI exit codes."""

import numpy as np
import pytest

from faultgen.cli import main
from faultgen.data import Dataset, TimeSeries, load_corpus
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


def _vertex_transitive_sets():
    """Point sets where every point sees the same multiset of distances: a 2-D regular 30-gon, the 5-cube."""
    angle = 2.0 * np.pi * np.arange(30) / 30
    polygon = np.stack([np.cos(angle), np.sin(angle)], axis=1) * 3.0
    cube = ((np.arange(32)[:, None] >> np.arange(5)) & 1).astype(float)
    return {"30-gon": polygon, "5-cube": cube}


@pytest.mark.parametrize("name,perplexity", [("30-gon", 3.0), ("30-gon", 8.0), ("5-cube", 8.0), ("5-cube", 12.0)])
def test_tsne_bandwidth_search_reaches_the_target_perplexity_in_every_row(name, perplexity):
    # each perplexity exceeds the count of nearest neighbours tied at one distance (2 and 5)
    # every row shares one bandwidth here, so the conditional matrix is symmetric and n * p is it
    x = _vertex_transitive_sets()[name]
    n = x.shape[0]
    cond = n * _tsne_probabilities(x, perplexity)
    np.fill_diagonal(cond, 0.0)
    np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-9)
    entropy = -np.sum(cond * np.log(np.where(cond > 0, cond, 1.0)), axis=1)
    # the search stops within 1e-5 nats; 1e-4 leaves room for the 1e-12 floor on far pairs
    np.testing.assert_allclose(entropy, np.log(perplexity), rtol=0, atol=1e-4)


def test_tsne_rows_stay_distributions_when_the_perplexity_is_below_the_tied_nearest_count():
    # on the 5-cube every point has 5 nearest neighbours tied at distance 1, so perplexity 3 is out of
    # reach: the closest a row gets is the uniform weight on those 5, entropy log 5
    x = _vertex_transitive_sets()["5-cube"]
    n = x.shape[0]
    cond = n * _tsne_probabilities(x, 3.0)
    np.fill_diagonal(cond, 0.0)
    np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-9)
    entropy = -np.sum(cond * np.log(np.where(cond > 0, cond, 1.0)), axis=1)
    np.testing.assert_allclose(entropy, np.log(5.0), rtol=0, atol=1e-6)


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


@pytest.mark.parametrize("method", ["pca", "tsne"])
def test_embedding_csv_is_plain_numbers_equal_to_the_returned_coordinates(normal_corpus, tmp_path, method):
    out = tmp_path / "emb"
    assert main(["embed", "--corpus", normal_corpus, "--method", method, "--perplexity", "1.5",
                 "--iters", "20", "--seed", "4", "--out", str(out)]) == 0
    expected = embed_2d([load_corpus(normal_corpus)], method=method,
                        params={"features": "flat", "perplexity": 1.5, "iters": 20}, seed=4)
    header, *rows = (out / "embedding.csv").read_text().splitlines()
    assert header == "label,x,y"
    assert [row.split(",")[0] for row in rows] == expected.labels
    coords = np.array([[float(cell) for cell in row.split(",")[1:]] for row in rows])
    assert coords.tobytes() == expected.coords.tobytes()


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
