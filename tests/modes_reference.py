"""Dense matrices rebuilt from cavity modes (shared test helper, not collected).

The library never forms an eigenbasis: its solve works on the banded
coupling operator.  This oracle diagonalizes the operator's dense far block
with ``eigh`` and rebuilds U and V from the per-mode transform.
"""

import numpy as np

from helpers import cosine, kernel_block, mode_uv, unfold


def dense_uv(g, p):
    """(U, V) in operator form on the grid ``g`` at the point of ``p``.

    U = Q diag(u) Q^T + u(0) (I - Q Q^T) and V = Q diag(v) Q^T: the even
    modes Q of the far block of ``kernel_block`` (carried to a near grid by
    the cosine matrix), and the odd subspace as modes of gain 0
    (u(0) = conj(a)/a, v(0) = 0).
    """
    at = (p.detuning, p.omega_bar)
    lam, q = np.linalg.eigh(kernel_block(g, p))
    if g.domain == "near":
        q = cosine(g).T @ q
    u, v = mode_uv(lam, *at)
    u0, _ = mode_uv(0.0, *at)
    q = unfold(g, q)  # the modes as grid vectors, Q = E q
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
