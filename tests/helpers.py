"""Grid-level views of library objects (shared test helper, not collected).

The library works on the even subspace of a grid, as coefficients
(``Grid1D.fold``), and never forms the grid-level vectors, index maps or
pointwise kernels that the oracles compare against.  These build them from
the library's own pieces.
"""

import numpy as np

from confocal_opo import ConfigurationError, KernelMatrix
from confocal_opo.homodyne import _densities
from confocal_opo.kernels import _far_even, _pair_sinc, _pump_transform


def flip(g, i):
    """Index of the sign-flipped coordinate on ``g``, x_flip(i) = -x_i."""
    return g.n - 1 - np.asarray(i)


def unfold(g, block):
    """Grid values E @ block of even-subspace coefficients (axis 0, m -> n).

    The orthonormal even basis E (n x m) has column a equal to
    (delta_a + delta_flip(a)) / sqrt(2) for the points left of center, and
    delta_c at the center point of an odd grid; ``Grid1D.fold`` is E^T.
    """
    block = np.asarray(block)
    full = np.concatenate([block, block[: g.n - g.n_even][::-1]])
    return full * g._even_coef().reshape((-1,) + (1,) * (block.ndim - 1))


def unchecked_kernel(g, p, s):
    """``build_kernel_matrix`` without the sizing rule: any grid is taken."""
    return KernelMatrix(far=_far_even(g if g.domain == "far" else g.conjugate(), p, s), grid=g)


def ktilde_far(q, q2, p, s):
    """1-D far-field coupling kernel (threshold units times m).

    K(q, q2) = 1/2 [ G(q+q2) S(q-q2) + G(q-q2) S(q+q2) ] with the library's
    pump transform G and phase-matching factor S, the two factors that its
    gathered far block is built from.  A plane pump makes G distributional,
    so it is refused here.
    """
    if p.plane_pump:
        raise ConfigurationError("plane-wave pump gives a distributional far-field kernel")
    q = np.asarray(q, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    return 0.5 * (
        _pump_transform(q + q2, p) * _pair_sinc(q - q2, s)
        + _pump_transform(q - q2, p) * _pair_sinc(q + q2, s)
    )


def noise_density(q, p, s, phase):
    """Plane-pump spatial noise density R(q) = |U(q) + e^{2 i phase} V_-*(q)|^2.

    At resonance and zero frequency, phase = pi/2 gives the squeezed density
    ((1 - A_p sigma)/(1 + A_p sigma))^2 and phase = 0 its reciprocal.
    """
    return _densities(q, p, s, (phase,))[0]
