"""Jacobi eigendecomposition against reconstruction and numpy.linalg oracles."""

import warnings

import numpy as np
import pytest

from faultgen.eig import sqrt_psd, sym_eig
from faultgen.errors import ContractError


def test_identity():
    w, v = sym_eig(np.eye(4))
    np.testing.assert_allclose(w, np.ones(4))
    np.testing.assert_allclose(np.abs(v @ v.T), np.eye(4), atol=1e-12)


def test_diagonal():
    w, v = sym_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 3.0])
    # axis-aligned eigenvectors, up to sign
    np.testing.assert_allclose(np.abs(v), np.eye(2)[:, [1, 0]], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_reconstruction(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    w, v = sym_eig(a)
    recon = v @ np.diag(w) @ v.T
    rel = np.linalg.norm(recon - a) / max(np.linalg.norm(a), 1e-12)
    assert rel < 1e-5
    assert np.all(np.diff(w) >= 0)


def test_matches_numpy_oracle():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 12))
    a = a @ a.T  # PSD
    w, v = sym_eig(a)
    w_np = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(w, w_np, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(np.abs(np.diag(v.T @ np.linalg.eigh(a)[1])), np.ones(12), atol=1e-7)


def test_asymmetric_rejected():
    with pytest.raises(ContractError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_oversize_rejected():
    with pytest.raises(ContractError):
        sym_eig(np.eye(300))


def test_sqrt_psd():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    a = a @ a.T
    r = sqrt_psd(a)
    np.testing.assert_allclose(r @ r, a, atol=1e-9)


def test_covariances_converge_without_warnings():
    # off-diagonal norm once came from ||m||^2 - ||diag||^2, which rounds below
    # zero on some of these (NaN, RuntimeWarning, no convergence exit)
    rng = np.random.default_rng(0)
    for _ in range(50):
        cov = np.cov(rng.standard_normal((40, 16)), rowvar=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = sym_eig(cov)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(cov), rtol=0, atol=1e-10)
