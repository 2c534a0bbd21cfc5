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
computed, all from the far-field block: a near-field operator is that block
rotated by the orthogonal cosine matrix C, so its modes are C^T q_far.
The odd fields are modes of gain 0, u = u(0), v = 0.  Each mode is an
independent single-mode OPO with gain lambda, and |u|^2 - |v|^2 = 1
identically.  A plane pump is diagonal in the transverse wavevector with
lambda = A_p sigma(q), so its closed form is the same per-mode function.

The Bogoliubov identities U U^+ - V V^+ = I and U V^T = V U^T then hold to
the orthogonality of Q; ``solve_io`` checks a bound on both after every
eigendecomposition as its correctness gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigh, eigvalsh

from .errors import AtOrAboveThreshold, SingularSystem
from .kernels import KernelMatrix, Grid1D, phase_match_sinc
from .params import DerivedScales, OpoParams

__all__ = [
    "CavityModes",
    "analytic_uv_planepump",
    "mode_uv",
    "solve_io",
    "threshold_margin",
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
    """Eigenmodes of the coupling matrix at one (detuning, omega_bar) point.

    ``K = Q diag(lam) Q^T`` with orthonormal real columns of ``Q`` over the
    field values on ``grid`` (operator form, uniform weights): the
    m = ceil(n/2) even modes, stored as their even-subspace coefficients
    ``q`` (m x m), so that Q = E q for the even basis E of
    ``Grid1D.fold`` (E^T).  The transform is
    U = Q diag(u) Q^T + u(0) (I - Q Q^T), V = Q diag(v) Q^T with
    (u, v) = mode_uv(lam, *at); the odd subspace I - Q Q^T is untouched.
    """

    grid: Grid1D
    at: tuple[float, float]  # (detuning, omega_bar)
    q: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)


def analytic_uv_planepump(
    q,
    p: OpoParams,
    s: DerivedScales,
    omega_bar: float | None = None,
):
    """Closed-form (U, V) of the plane-pump cavity at transverse wavevector q.

    ``mode_uv`` at the mode gain A_p sigma(q), sigma = sinc(l_c q^2 / (2 k_s)).
    |U|^2 - |V|^2 = 1 identically (each even mode is an independent OPO
    below threshold).  ``omega_bar`` overrides the analysis frequency of
    ``p`` (used for the negative-frequency partner).

    Raises ``AtOrAboveThreshold`` when |D| vanishes within 1e-14.
    """
    om = p.omega_bar if omega_bar is None else omega_bar
    sig = p.A_p * phase_match_sinc(np.asarray(q, dtype=float), s)
    a_abar = (1.0 + 1j * (p.detuning + om)) * (1.0 + 1j * (om - p.detuning))
    if np.any(np.abs(a_abar - sig**2) <= 1e-14):
        raise AtOrAboveThreshold("plane-pump response diverges: a*abar = (A_p sigma)^2")
    return mode_uv(sig, p.detuning, om)


def solve_io(K: KernelMatrix, p: OpoParams) -> CavityModes:
    """Eigenmodes of the real symmetric coupling matrix ``K`` at the point of ``p``.

    One ``eigh`` call on the m x m far block; a near grid's modes are the
    far modes rotated by the cosine matrix, C^T q_far, one m^3 product.
    Raises ``SingularSystem`` when the spectral condition
    max|a abar - lam^2| / min|a abar - lam^2| of the system matrix
    a I - K^2 / abar, the odd subspace (lam = 0) included, exceeds 1e12
    (at/above threshold, or a grid too coarse to keep the discretized
    operator below threshold), or when the modes cannot certify the
    Bogoliubov identities to 1e-6.
    """
    a_abar = (1.0 + 1j * (p.detuning + p.omega_bar)) * (1.0 + 1j * (p.omega_bar - p.detuning))
    # LAPACK dsyevd (divide and conquer): orthogonal to ~1e-13 in Frobenius
    # norm at m ~ 3000, which the gate below relies on
    lam, q = eigh(K.far)
    den = np.append(np.abs(a_abar - lam**2), abs(a_abar))  # odd subspace: lam = 0
    if not den.max() <= _CONDITION_CUTOFF * den.min():
        cond = den.max() / den.min() if den.min() > 0 else np.inf
        raise SingularSystem(
            f"input/output system condition {cond:.3e} exceeds {_CONDITION_CUTOFF:.0e}; "
            "the configuration is at/above threshold or the grid is too coarse"
        )
    if K.grid.domain == "near":
        q = K.cosine.T @ q  # C is built here, after the solve has freed its workspace
    at = (p.detuning, p.omega_bar)
    # the gate certifies the modes that are contracted, rotation included
    bound = _symplectic_bound(q, lam, at)
    if not bound <= _SYMPLECTIC_TOLERANCE:
        raise SingularSystem(
            f"Bogoliubov residual bound {bound:.2e} exceeds {_SYMPLECTIC_TOLERANCE:.0e}; "
            "the modes do not define a symplectic transform"
        )
    return CavityModes(grid=K.grid, at=at, q=q, lam=lam)


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


def threshold_margin(K: KernelMatrix, p: OpoParams) -> float:
    """1 - max|lam|, the distance of the strongest mode gain from threshold.

    The resonant zero-frequency system matrix I - K^2 is singular exactly
    when a mode gain reaches |lam| = 1, so a positive margin certifies that
    the solve is well posed.  Scaling is inherited from threshold units: a
    plane pump at A_p gives max|lam| = A_p (threshold mode q = 0, sigma = 1).
    The far block has the spectrum of K in either domain.
    """
    return 1.0 - float(np.abs(eigvalsh(K.far)).max())
