"""Closed-form 2-D coupling kernels (shared test helper, not collected).

The library discretizes the kernels on 1-D grids only; these 2-D forms
check the near-field profile ``delta_2d`` and the far-field pump transform
in the transverse plane.
"""

import math

import numpy as np

from confocal_opo import ConfigurationError, delta_2d


def kint_near_2d(x, x2, p):
    """Near-field coupling kernel between transverse points x and x2 (2-D).

    Real-valued, in threshold units times 1/m^2:

        K(x, x2) = 1/2 [ A((x+x2)/2) Delta(|x-x2|) + A((x-x2)/2) Delta(|x+x2|) ]

    where A is the pump amplitude profile (Gaussian of waist w_p, or the
    constant A_p for a plane pump).  The symmetrized pair of terms confines
    the dynamics to the even-parity subspace.  x, x2 are transverse
    positions (m) of shape (2,) or (..., 2).
    """
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    plus = x + x2
    minus = x - x2
    r_minus = np.sqrt(np.sum(minus**2, axis=-1))
    r_plus = np.sqrt(np.sum(plus**2, axis=-1))
    if p.plane_pump:
        amp_plus = amp_minus = p.A_p
    else:
        amp_plus = p.A_p * np.exp(-np.sum((plus / 2) ** 2, axis=-1) / p.w_p**2)
        amp_minus = p.A_p * np.exp(-np.sum((minus / 2) ** 2, axis=-1) / p.w_p**2)
    return 0.5 * (amp_plus * delta_2d(r_minus, p) + amp_minus * delta_2d(r_plus, p))


def _as_vec2(q):
    q = np.asarray(q, dtype=float)
    if q.shape == () or q.shape[-1] != 2:
        q = np.stack([q, np.zeros_like(q)], axis=-1)
    return q


def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


def ktilde_far_2d(q, q2, p):
    """2-D far-field coupling kernel (threshold units times m^2).

    Same structure as the 1-D ``ktilde_far`` with the 2-D integral-normalized
    pump transform G(k) = A_p (w_p^2 / (4 pi)) exp(-|k|^2 w_p^2 / 4); q and
    q2 are transverse wavevectors of shape (..., 2).
    """
    if p.plane_pump:
        raise ConfigurationError("plane-wave pump gives a distributional far-field kernel")
    q = _as_vec2(q)
    q2 = _as_vec2(q2)
    lc_2ks = p.l_coh**2 / 4.0
    amp = p.A_p * p.w_p**2 / (4.0 * math.pi)
    qp2 = np.sum((q + q2) ** 2, axis=-1)
    qm2 = np.sum((q - q2) ** 2, axis=-1)
    g_plus = amp * np.exp(-qp2 * p.w_p**2 / 4.0)
    g_minus = amp * np.exp(-qm2 * p.w_p**2 / 4.0)
    return 0.5 * (g_plus * _sinc(lc_2ks * qm2 / 4.0) + g_minus * _sinc(lc_2ks * qp2 / 4.0))
