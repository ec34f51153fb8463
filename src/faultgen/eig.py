"""Symmetric eigendecomposition for the Frechet distance: LAPACK's `eigh`, through numpy.linalg,
behind this package's shape and symmetry checks."""

import numpy as np

from .errors import ContractError

SYMMETRY_TOL = 1e-6


def sym_eig(a):
    """Eigenvalues (ascending) and orthonormal eigenvectors (w, v) of a symmetric matrix, so that
    a == v @ diag(w) @ v.T; LAPACK decomposes the symmetrised matrix (a + a.T) / 2."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"sym_eig expects a square matrix, got shape {a.shape}")
    scale = max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * scale:
        raise ContractError("sym_eig input is not symmetric within tolerance")
    return np.linalg.eigh((a + a.T) / 2.0)


def sqrt_psd(a):
    """Symmetric square root of a PSD matrix; tiny negative eigenvalues clip to zero."""
    w, v = sym_eig(a)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T
