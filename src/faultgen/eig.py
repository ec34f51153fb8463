"""Symmetric eigendecomposition via cyclic Jacobi rotations.

Self-contained float64 routine for the small matrices this package needs
(covariances up to embedding-dimension size). numpy.linalg is reserved for
the independent test oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

MAX_SIZE = 256
MAX_SWEEPS = 64
SYMMETRY_TOL = 1e-6


def sym_eig(a):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Returns (w, v) with a == v @ diag(w) @ v.T up to a relative Frobenius
    error well below 1e-5.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"sym_eig expects a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_SIZE:
        raise ContractError(f"sym_eig supports n <= {MAX_SIZE}, got {n}")
    scale = max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * scale:
        raise ContractError("sym_eig input is not symmetric within tolerance")

    m = (a + a.T) / 2.0
    v = np.eye(n)
    if n == 1:
        return m.diagonal().copy(), v

    fro = np.sqrt(np.sum(m * m))
    tol = 1e-14 * max(fro, 1.0)
    for _ in range(MAX_SWEEPS):
        # summed directly: ||m||^2 - ||diag||^2 can round below zero
        off = np.sqrt(np.sum(np.square(m[~np.eye(n, dtype=bool)])))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= tol / n:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # rotate rows/cols p and q
                mp = m[:, p].copy()
                mq = m[:, q].copy()
                m[:, p] = c * mp - s * mq
                m[:, q] = s * mp + c * mq
                mp = m[p, :].copy()
                mq = m[q, :].copy()
                m[p, :] = c * mp - s * mq
                m[q, :] = s * mp + c * mq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq

    w = m.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def sqrt_psd(a):
    """Symmetric square root of a PSD matrix; tiny negative eigenvalues clip to zero."""
    w, v = sym_eig(a)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T
