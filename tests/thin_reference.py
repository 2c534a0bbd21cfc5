"""Thin-crystal limit of a Gaussian pump in the near plane (shared test
helper, not collected).

With the phase-matching factor S = 1, the inverse transform of the pump
transform G makes the coupling operator, on the even subspace,
multiplication by the local gain lambda(x) = A_p exp(-x^2 / w_p^2): each
point is its own single-mode OPO.  A centred interval of half width d under
a plane LO then reads

    vn_thin(d) = 1 + (1/d) integral_0^d (R_sq(lambda(x)) - 1) dx,

with R_sq the squeezed (phi = pi/2) row of ``homodyne._mode_noise``.  A
thick crystal smears the detector's edge over l_coh, so its vn approaches
this one at fixed d / w_p as b = (w_p / l_coh)^2 grows.
"""

import numpy as np

from confocal_opo.homodyne import _mode_noise
from confocal_opo.kernels import _gauss_legendre

#: equal panels of the 16-point rule on [0, d]
PANELS = 64


def vn_thin(d, p):
    """vn_thin(d) of the interval [-d, d] at the pump of ``p``."""
    nodes, weights = _gauss_legendre()
    half = d / (2 * PANELS)
    x = ((2 * np.arange(PANELS) + 1)[:, None] * half + half * nodes).ravel()
    lam = p.A_p * np.exp(-(x / p.w_p) ** 2)
    r_sq = _mode_noise(lam, p.detuning, p.omega_bar)[0]
    return 1.0 + half * float(np.tile(weights, PANELS) @ r_sq) / d
