"""Dense matrices rebuilt from cavity modes (shared test helper, not collected)."""

import numpy as np

from confocal_opo import mode_uv
from helpers import grid_modes, unfold


def dense_uv(modes):
    """(U, V) in operator form on ``modes.grid``.

    U = Q diag(u) Q^T + u(0) (I - Q Q^T) and V = Q diag(v) Q^T: the even
    modes of Q, and the odd subspace as modes of gain 0 (u(0) = conj(a)/a,
    v(0) = 0).
    """
    at = (modes.p.detuning, modes.p.omega_bar)
    u, v = mode_uv(modes.lam, *at)
    u0, _ = mode_uv(0.0, *at)
    q = unfold(modes.grid, grid_modes(modes))  # the modes as grid vectors, Q = E q
    odd = np.eye(q.shape[0]) - q @ q.T
    return (q * u) @ q.T + u0 * odd, (q * v) @ q.T


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
