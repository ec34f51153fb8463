"""Symmetric eigendecomposition against reconstruction, hand cases and matrices of known spectrum.

The known-spectrum matrices are Q diag(w) Q^T with Q a Householder reflection
I - 2 v v^T / (v^T v), built by hand, so the oracle does not go through the
LAPACK routine that `sym_eig` calls.
"""

import warnings

import numpy as np
import pytest

from faultgen.eig import sqrt_psd, sym_eig
from faultgen.errors import ContractError


def _known_spectrum(rng, w):
    """Q diag(w) Q^T and Q, whose column j is the eigenvector of eigenvalue w[j]."""
    v = rng.standard_normal((len(w), 1))
    q = np.eye(len(w)) - 2.0 * (v @ v.T) / (v.T @ v)
    return (q * w) @ q.T, q


def test_identity():
    w, v = sym_eig(np.eye(4))
    np.testing.assert_allclose(w, np.ones(4))
    np.testing.assert_allclose(np.abs(v @ v.T), np.eye(4), atol=1e-12)


def test_diagonal():
    w, v = sym_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 3.0])
    # axis-aligned eigenvectors, up to sign
    np.testing.assert_allclose(np.abs(v), np.eye(2)[:, [1, 0]], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 300])
def test_reconstruction(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    w, v = sym_eig(a)
    recon = v @ np.diag(w) @ v.T
    rel = np.linalg.norm(recon - a) / max(np.linalg.norm(a), 1e-12)
    assert rel < 1e-5
    assert np.all(np.diff(w) >= 0)


def test_matches_a_known_spectrum():
    rng = np.random.default_rng(9)
    spectrum = rng.uniform(0.1, 30.0, 12)  # PSD, distinct eigenvalues
    a, q = _known_spectrum(rng, spectrum)
    w, v = sym_eig(a)
    order = np.argsort(spectrum)
    np.testing.assert_allclose(w, spectrum[order], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(np.abs(np.diag(v.T @ q[:, order])), np.ones(12), atol=1e-7)


def test_asymmetric_rejected():
    with pytest.raises(ContractError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sqrt_psd():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    a = a @ a.T
    r = sqrt_psd(a)
    np.testing.assert_allclose(r @ r, a, atol=1e-9)


def test_covariance_spectra_come_back_without_warnings():
    # spectra shaped like 16-dim covariances of 40 samples: positive, spread over three decades
    rng = np.random.default_rng(0)
    for _ in range(50):
        spectrum = np.sort(10.0 ** rng.uniform(-2.0, 1.0, 16))
        cov, _ = _known_spectrum(rng, spectrum)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = sym_eig(cov)
        np.testing.assert_allclose(w, spectrum, rtol=0, atol=1e-10)
