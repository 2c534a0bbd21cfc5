"""Dense matrices rebuilt from cavity modes (shared test helper, not collected)."""

import numpy as np

from confocal_opo import mode_uv


def dense_uv(modes):
    """(U, V) = (Q diag(u) Q^T, Q diag(v) Q^T) in operator form on ``modes.grid``."""
    u, v = mode_uv(modes.lam, *modes.at)
    q = modes.Q
    return (q * u) @ q.T, (q * v) @ q.T


def even_diagonal(mat: np.ndarray) -> np.ndarray:
    """Even-subspace transfer function of a parity-block operator matrix.

    For an operator that couples each grid point only to itself and to its
    mirror image, the action on even vectors is m[i, i] + m[i, flip(i)]
    (the single entry at a self-paired center point already carries both
    parity channels).
    """
    n = mat.shape[0]
    idx = np.arange(n)
    flip = n - 1 - idx
    anti = np.where(flip != idx, mat[idx, flip], 0.0)
    return mat[idx, idx] + anti
