"""Input/output Bogoliubov transform of the cavity, B_out = U B_in + V B_in^+.

Below threshold the intracavity equations are linear, so eliminating the
intracavity field between the evolution equation and the coupling-mirror
boundary condition gives a closed linear relation between output and input.
In units of the cavity escape rate, with a = i omega_bar + 1 + i detuning
and abar = i omega_bar + 1 - i detuning, the relation reads

    [a I - K^2 / abar] B_out = [(2 - a) I + K^2 / abar] B_in + (2 / abar) K B_in^+

where K is the real symmetric coupling operator.  U and V are therefore
functions of K alone, and its eigendecomposition K = Q diag(lambda) Q^T
diagonalizes both at every detuning and analysis frequency at once
(Bloch-Messiah reduction): U = Q diag(u) Q^T and V = Q diag(v) Q^T with
the per-mode closed forms u(lambda), v(lambda) of ``mode_uv``.  K vanishes
on the odd subspace of the grid, so only its m = ceil(n/2) even modes are
computed, all from the far-field block that ``solve_io`` gathers with
``build_kernel_matrix``, and they stay on the far grid in either domain: a
near detector is carried to them by the unitary DFT.
The odd fields are modes of gain 0, u = u(0), v = 0.  Each mode is an
independent single-mode OPO with gain lambda, and |u|^2 - |v|^2 = 1
identically.  A plane pump is diagonal in the transverse wavevector with
lambda = A_p sigma(q), so its closed form is the same per-mode function.
Homodyne detection at the LO phase phi contracts one number per mode,
R_phi(lambda) - 1 with R_phi = |u + e^{2 i phi} conj(v_-)|^2 (v_- at
-omega_bar): vn = 1 + (w / N) sum_k c_k^2 (R_phi(lambda_k) - 1).

The Bogoliubov identities U U^+ - V V^+ = I and U V^T = V U^T then hold to
the orthogonality of Q; ``solve_io`` checks a bound on both after every
eigendecomposition as its correctness gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigh

from .errors import NumericalFailure, SingularSystem
from .kernels import Grid1D, build_kernel_matrix
from .params import OpoParams

__all__ = [
    "CavityModes",
    "mode_uv",
    "solve_io",
]

_CONDITION_CUTOFF = 1e12
_SYMPLECTIC_TOLERANCE = 1e-6
# rows of the pair weights W formed at once by the symplectic gate
_ROW_BLOCK = 64


def mode_uv(lam, detuning: float, omega_bar: float):
    """Per-mode (u, v) of a single-mode OPO with gain ``lam`` (threshold units).

    a = 1 + i(detuning + omega_bar), abar = 1 + i(omega_bar - detuning):

        u = (conj(a) abar + lam^2) / D,   v = 2 lam / D,   D = a abar - lam^2
    """
    a = 1.0 + 1j * (detuning + omega_bar)
    abar = 1.0 + 1j * (omega_bar - detuning)
    den = a * abar - lam**2
    return (np.conj(a) * abar + lam**2) / den, 2.0 * lam / den


@dataclass(frozen=True, eq=False)
class CavityModes:
    """Eigenmodes of the coupling operator on ``grid`` for the configuration ``p``.

    ``K = Q diag(lam) Q^T`` with orthonormal real columns of ``Q`` over the
    field values on the far grid (operator form, uniform weights): the
    m = ceil(n/2) even modes, stored as their even-subspace coefficients
    ``q`` (m x m), so that Q = E q for the even basis E of
    ``Grid1D.fold`` (E^T), on ``grid`` itself or on its conjugate when
    ``grid`` is near.  The transform is
    U = Q diag(u) Q^T + u(0) (I - Q Q^T), V = Q diag(v) Q^T with
    (u, v) = mode_uv(lam, p.detuning, p.omega_bar); the odd subspace I - Q Q^T is untouched.
    """

    grid: Grid1D
    p: OpoParams  # the configuration solved for
    q: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)


def solve_io(grid: Grid1D, p: OpoParams) -> CavityModes:
    """Eigenmodes of the coupling operator on ``grid`` at the point of ``p``.

    One ``eigh`` call on the m x m far block of ``build_kernel_matrix``
    (``GridTooCoarse`` on a grid that breaks the sizing rule), whose modes
    serve either domain.  Raises ``NumericalFailure`` when the block is not
    finite (an overflowing kernel), and ``SingularSystem`` when the spectral condition
    max|a abar - lam^2| / min|a abar - lam^2| of the system matrix
    a I - K^2 / abar, the odd subspace (lam = 0) included, exceeds 1e12
    (at/above threshold, or a grid too coarse to keep the discretized
    operator below threshold), or when the modes cannot certify the
    Bogoliubov identities to 1e-6.
    """
    # an overflowing kernel is refused below, without numpy's warnings
    with np.errstate(all="ignore"):
        block = build_kernel_matrix(grid, p)
    if not np.isfinite(block).all():
        raise NumericalFailure(f"coupling kernel is not finite on the {grid.domain} grid "
                               f"(l_coh = {p.l_coh:.3e} m): a kernel argument overflows")
    a_abar = (1.0 + 1j * (p.detuning + p.omega_bar)) * (1.0 + 1j * (p.omega_bar - p.detuning))
    # LAPACK dsyevd (divide and conquer): orthogonal to ~1e-13 in Frobenius
    # norm at m ~ 3000, which the gate below relies on
    lam, q = eigh(block)
    den = np.append(np.abs(a_abar - lam**2), abs(a_abar))  # odd subspace: lam = 0
    if not den.max() <= _CONDITION_CUTOFF * den.min():
        cond = den.max() / den.min() if den.min() > 0 else np.inf
        raise SingularSystem(
            f"input/output system condition {cond:.3e} exceeds {_CONDITION_CUTOFF:.0e}; "
            "the configuration is at/above threshold or the grid is too coarse"
        )
    # the gate certifies the modes that are contracted; an overflow makes
    # the bound nan, which it refuses without numpy's warning
    with np.errstate(all="ignore"):
        bound = _symplectic_bound(q, lam, (p.detuning, p.omega_bar))
    if not bound <= _SYMPLECTIC_TOLERANCE:
        raise SingularSystem(
            f"Bogoliubov residual bound {bound:.2e} exceeds {_SYMPLECTIC_TOLERANCE:.0e}; "
            "the modes do not define a symplectic transform"
        )
    return CavityModes(grid=grid, p=p, q=q, lam=lam)


def _symplectic_bound(q: np.ndarray, lam: np.ndarray, at: tuple[float, float]) -> float:
    """Upper bound on the max-norm of U U^+ - V V^+ - I and U V^T - V U^T.

    Evaluated on the even subspace, where the mode coefficients ``q`` form a
    square matrix; the odd subspace has |u(0)| = 1, v = 0 exactly and
    contributes nothing.  With E = q^T q - I,
    e = ||E||_F >= ||E||_2, d = max| |u|^2 - |v|^2 - 1 | and the pair
    weights W_jk = |u_j u_k^* - v_j v_k^*|:

        U U^+ - V V^+ - I = (Q Q^T - I) + Q [diag(|u|^2 - |v|^2 - 1)
                            + E_jk (u_j u_k^* - v_j v_k^*)] Q^T,
        U V^T - V U^T     = Q [E_jk (u_j v_k - v_j u_k)] Q^T,

    where ||Q Q^T - I||_2 = ||E||_2 (q is square), ||Q||_2^2 <= 1 + e and
    |u_j v_k - v_j u_k|^2 = W_jk^2 - (1 + d_j)(1 + d_k) <= W_jk^2.  The
    weights stay of order one between modes of similar gain, so the bound
    does not degrade near threshold.  One real m^3 product; W is formed in
    row blocks, so no complex m x m temporary is held.
    """
    u, v = mode_uv(lam, *at)
    gram = q.T @ q
    gram[np.diag_indices_from(gram)] -= 1.0
    e = float(np.linalg.norm(gram))
    d = float(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0).max())
    for start in range(0, len(lam), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        gram[rows] *= np.abs(
            np.multiply.outer(u[rows], u.conj()) - np.multiply.outer(v[rows], v.conj())
        )
    return e + (1.0 + e) * (d + float(np.linalg.norm(gram)))
