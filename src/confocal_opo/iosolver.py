"""Input/output Bogoliubov transform of the cavity, B_out = U B_in + V B_in^+.

Below threshold the intracavity equations are linear, so eliminating the
intracavity field between the evolution equation and the coupling-mirror
boundary condition gives a closed linear relation between output and input.
In units of the cavity escape rate, with a = i omega_bar + 1 + i detuning
and abar = i omega_bar + 1 - i detuning, the relation reads

    [a I - K^2 / abar] B_out = [(2 - a) I + K^2 / abar] B_in + (2 / abar) K B_in^+

where K is the real symmetric coupling operator.  Each eigenmode of K, of
gain lambda, is an independent single-mode OPO (Bloch-Messiah reduction),
which homodyne detection at the LO phase phi weighs by R_phi(lambda) - 1,
R_phi = |u + z conj(v_-)|^2, z = e^{2 i phi}, v_- at -omega_bar.  With
s = sqrt(a abar), u + z conj(v_-) = -1 + A_z / (s - lambda) + B_z / (s + lambda),
A_z, B_z = (abar +/- z s) / s.  So a detector whose even far-grid window is
x has sum_k c_k^2 (R_phi - 1) = ||g_z||^2 - ||x||^2, g_z = -x + A_z Y1 +
B_z Y2, from two shifted solves Y1, Y2 = (s I -/+ K)^{-1} x that serve both
phases, with no eigenbasis (N. J. Higham, Functions of Matrices, SIAM
2008).  K vanishes on the odd subspace, so only its m = ceil(n/2) even
coefficients are solved for, on the far grid in either domain.

``solve_io`` factors s I -/+ K by block LU of the banded far block of
``build_kernel_matrix`` without pivoting, stable while max|lambda| < Re s:
s I -/+ K and its Schur complements then have positive definite Hermitian
parts.  Re s >= 1 (a abar = (1 + i omega_bar)^2 + detuning^2), and
``solve_io`` measures max|lambda| = 1 - margin, which its condition refusal
holds below Re s at omega_bar = 0 and A_p < 1 holds below 1: 0.918-0.9975 A_p
on figs 6 and 9 at b = 4 to 900, where K's absolute row sums reach 1.079 A_p.
Every solve checks its backward error, the route's gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .kernels import Grid1D, build_kernel_matrix
from .params import OpoParams

__all__ = [
    "CavityModes",
    "solve_io",
]

_CONDITION_CUTOFF = 1e12
#: largest backward error ||(s I -/+ K) Y - x||_max / ||x||_max of a solve
_BACKWARD_TOLERANCE = 1e-12
#: Ritz residual that stops Lanczos: within 5.8e-15 of eigvalsh on auto grids, b in [1, 400]
_RITZ_TOLERANCE = 1e-15
#: Lanczos steps per residual check, which runs eigvalsh on the whole
#: tridiagonal, an O(k^3) cost at step k
_RITZ_EVERY = 4
_SIGN = np.array([[[1.0]], [[-1.0]]])  # of K in s I - K, then s I + K


def _kernel_product(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K v of the block rows of ``build_kernel_matrix``; v is (nb, r, s, k)."""
    out, below = blocks[:, None, 0] @ v, blocks[:-1, None, 1]
    out[1:] += below @ v[:-1]
    out[:-1] += below.swapaxes(-1, -2) @ v[1:]
    return out


@dataclass(frozen=True, eq=False)
class CavityModes:
    """The cavity on ``grid`` at the configuration ``p``, which ``squeezing``
    reads: the banded K of ``build_kernel_matrix`` on the far grid and the
    block LU of s I -/+ K that ``solve`` applies.  ``margin`` is
    1 - max|lambda|, the strongest mode's distance from threshold."""

    grid: Grid1D
    p: OpoParams  # the configuration solved for
    margin: float
    shift: complex = field(repr=False)  # s = sqrt(a abar), real when omega_bar = 0
    blocks: np.ndarray = field(repr=False)
    inverses: np.ndarray = field(repr=False)  # of the Schur complements, by block

    def solve(self, x: np.ndarray) -> np.ndarray:
        """[(s I -/+ K)^{-1} x] of the m even coefficients in each of the k
        columns of x (m, k), by block substitution on all 2 k at once, as
        (2, m, k).  ``NumericalFailure`` when a column's backward error
        ||(s I -/+ K) y - x||_max / ||x||_max, O(m band), tops 1e-12."""
        inv, blocks, sign = self.inverses, self.blocks, _SIGN
        nb, s, (m, k) = blocks.shape[0], blocks.shape[-1], x.shape
        rhs = np.pad(x, ((0, nb * s - m), (0, 0))).reshape(nb, s, k)
        y = np.empty((nb, 2, s, k), dtype=inv.dtype)  # S_i^{-1} z_i, then the solution
        y[0] = inv[0] @ rhs[0]
        for i in range(1, nb):  # z_i = x_i - T_(i,i-1) S_{i-1}^{-1} z_{i-1}
            y[i] = inv[i] @ (rhs[i] + sign * (blocks[i - 1, 1] @ y[i - 1]))
        for i in range(nb - 2, -1, -1):  # y_i -= S_i^{-1} T_(i,i+1) y_{i+1}
            y[i] += sign * (inv[i] @ (blocks[i, 1].T @ y[i + 1]))
        residual = self.shift * y - sign * _kernel_product(blocks, y) - rhs[:, None]
        error = (np.abs(residual).max((0, 1, 2)) / np.abs(x).max(0)).max()
        if not error <= _BACKWARD_TOLERANCE:
            raise NumericalFailure(f"shifted solve backward error {error:.2e} exceeds "
                                   f"{_BACKWARD_TOLERANCE:.0e}; the factorization is not sound")
        return y.transpose(1, 0, 2, 3).reshape(2, nb * s, k)[:, :m]


def _largest_gain(blocks: np.ndarray, m: int) -> float:
    """max|lambda| of the banded K on m coefficients: Lanczos from 1 / sqrt(m) on three
    vectors, stopped once the Ritz residual beta_k |y_k| of the largest-|theta| Ritz value
    is at most 1e-15, or after m steps; y_k by the tridiagonal's recurrence, run up.  With no
    reorthogonalization it still bounds the error: orthogonality is lost only along converged
    Ritz vectors (C. C. Paige 1980; B. N. Parlett, The Symmetric Eigenvalue Problem, 1998)."""
    nb, s = blocks.shape[0], blocks.shape[-1]
    v = np.pad(np.full(m, 1.0 / math.sqrt(m)), (0, nb * s - m))
    alpha, beta = [], []
    for k in range(m):
        w = _kernel_product(blocks, v.reshape(nb, 1, s, 1)).reshape(-1)
        alpha.append(float(v @ w))
        w -= alpha[k] * v + (beta[k - 1] * v_prev if k else 0.0)
        beta.append(math.sqrt(w @ w))
        if k % _RITZ_EVERY == _RITZ_EVERY - 1 or k == m - 1 or beta[k] <= _RITZ_TOLERANCE:
            thetas = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta[:-1], 1), "U")
            theta = thetas[np.abs(thetas).argmax()]
            norm2, cur, nxt = 1.0, 1.0, 0.0  # |y|^2 and y_j, y_{j+1} with y_k = 1
            for j in range(k, 0, -1):
                cur, nxt = ((theta - alpha[j]) * cur - beta[j] * nxt) / beta[j - 1], cur
                norm2 += cur * cur
                if norm2 > 1e60:  # |y_k| < 1e-30
                    break
            if beta[k] <= _RITZ_TOLERANCE * math.sqrt(norm2):
                break
        v_prev, v = v, w / beta[k]
    return abs(theta)


def solve_io(grid: Grid1D, p: OpoParams) -> CavityModes:
    """The cavity on ``grid`` at the point of ``p``: the far block of
    ``build_kernel_matrix``, max|lambda| by ``_largest_gain`` and block LU.

    Raises ``NumericalFailure`` on a grid that breaks the sizing rule, a
    block that is not finite (a guard; no preset reaches it), or a spectral
    condition max|c - lam^2| / min|c - lam^2| (c = a abar) of a I - K^2 / abar
    above 1e12: at/above threshold, or a grid too coarse to keep the
    operator below it.  lam = 0 (odd subspace) and max|lambda| give the max,
    and dist(c, [0, max|lambda|^2]) bounds the min, exact at omega_bar = 0.
    """
    # a block that is not finite is refused below, without numpy's warnings
    with np.errstate(all="ignore"):
        blocks = build_kernel_matrix(grid, p)
    if not np.isfinite(blocks).all():
        raise NumericalFailure(f"coupling kernel is not finite on the {grid.domain} grid "
                               f"(l_coh = {p.l_coh:.3e} m): a kernel argument overflows")
    # a plane pump's K is diagonal
    gain = float(np.abs(blocks).max()) if p.plane_pump else _largest_gain(blocks, grid.n_even)
    c = (1.0 + 1j * (p.detuning + p.omega_bar)) * (1.0 + 1j * (p.omega_bar - p.detuning))
    top = max(abs(c), abs(c - gain**2))
    low = abs(c - min(max(c.real, 0.0), gain**2))
    if not top <= _CONDITION_CUTOFF * low:
        raise NumericalFailure(f"input/output system condition {top / low if low else np.inf:.3e} "
                               f"exceeds {_CONDITION_CUTOFF:.0e}; the configuration is at/above "
                               "threshold or the grid is too coarse")
    shift = np.sqrt(c) if p.omega_bar else math.sqrt(c.real)  # c is real at omega_bar = 0
    # [i, k]: the inverse of the i-th Schur complement of s I - _SIGN[k] K,
    # S_i = T_i - B S_{i-1}^{-1} B^T with T_i = s I - _SIGN[k] D_i in both
    inverses = np.empty(blocks.shape, dtype=np.result_type(shift, float))
    # an overflow (a frequency near the float range) leaves nan factors,
    # which every solve's gate refuses, without numpy's warnings
    with np.errstate(all="ignore"):
        for i in range(len(blocks)):
            schur = shift * np.eye(blocks.shape[-1]) - _SIGN * blocks[i, 0]
            if i:
                b = blocks[i - 1, 1]
                schur -= b @ inverses[i - 1] @ b.T
            inverses[i] = np.linalg.inv(schur)
    return CavityModes(grid, p, 1.0 - gain, shift, blocks, inverses)
