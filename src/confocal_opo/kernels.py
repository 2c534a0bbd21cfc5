"""Thick-crystal coupling kernels in position and transverse-wavevector space.

The parametric interaction inside a crystal of finite length couples field
operators at different transverse points.  In the near field (crystal center
image plane) the coupling kernel is built from the function ``delta_2d``,
a smeared delta of width ``l_coh`` written in terms of the sine integral.
In the far field (Fourier plane) the same kernel is a product of the pump
transform and a phase-matching sinc.  Both are evaluated here on 1-D
numerical grids; the near-field profile also in its 2-D closed form.

Normalization: kernels act as integral operators on the even part of the
field, in pump threshold units.  For a plane pump the far-field operator is
exactly ``A_p * sinc(l_c q^2 / (2 k_s))`` on the even subspace, so threshold
sits at ``A_p = 1``.  The Gaussian pump transform is integral-normalized
(its q-integral equals ``A_p``), which makes the finite-pump operator
approach the plane-pump one continuously as ``w_p`` grows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, GridTooCoarse
from .params import OpoParams, _real

__all__ = [
    "si",
    "delta_2d",
    "phase_match_sinc",
    "Grid1D",
    "auto_grid",
]

# Grid sizing rule constants.  Steps must resolve the finest kernel scale by
# this factor; extents must cover the pump envelope (and a Gaussian LO spot)
# by this factor.
_STEP_DIVISOR = 8.0
_EXTENT_FACTOR = 4.0
# Automatic far extent of a finite pump, in 1/l_coh: the phase-matching band
# (sigma's first zero is 2 sqrt(pi)).  Against 5x the extent, max|lam| is off
# by 2.7e-7 at 4 and 7e-9 at 5 (b = 4), and within 1e-11 at 6 (b = 4-100).
_PHASE_MATCH_BAND = 6.0
# Near-field thin-limit branch: for a physically thin crystal
# (l_c / z_C below _THIN_CRYSTAL_RATIO) a step of at least _THIN_STEP_RATIO
# coherence lengths leaves the kernel delta-like at grid resolution (the
# largest phase-match argument on the conjugate window is
# (pi l_coh / 2h)^2 < 0.051, sinc within 5e-4 of 1), so the grid represents
# the thin-crystal limit faithfully and no finer step is needed.  A thick
# crystal gets no such escape: an unresolved kernel misrepresents it.
_THIN_STEP_RATIO = 7.0
_THIN_CRYSTAL_RATIO = 1e-3
# Largest grid size.  Every dense array is m x m (m = ceil(n/2)); the peak
# is the divide-and-conquer eigh of the far block (an input copy, a 2 m^2
# workspace and the output) next to the block itself, in either domain: the
# modes stay on the far grid.  Near n = 64 sqrt(b) (4 w_p in steps of l_coh / 8)
# and far n = 96 sqrt(b) (the band 6 / l_coh in steps of 1 / (8 w_p)), so
# this n covers fig 6 up to b ~ 8,780 and fig 9 up to b ~ 3,900; both take
# 5.4-6.6 s and 376-378 MB there on a 2-core x86-64 host.
MAX_GRID_N = 6000


def _sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x) / np.pi)


# ---------------------------------------------------------------------------
# Sine integral
# ---------------------------------------------------------------------------

#: |x| at which ``si`` switches from the Legendre to the Laguerre rule
_SI_SWITCH = 6.0
#: entries per ``si`` block: bounds the (block x nodes) work arrays (~2 MB)
_SI_CHUNK = 4096


@lru_cache(maxsize=1)
def _si_rules():
    # (s, w) of 24-point Gauss-Legendre on [0, 1] and (s, w) of 60-point
    # Gauss-Laguerre, built on the first call so that start-up and the
    # routes that never evaluate Si do not pay for them
    s, w = np.polynomial.legendre.leggauss(24)
    t, v = np.polynomial.laguerre.laggauss(60)
    return 0.5 * (s + 1.0), 0.5 * w, t, v

def _si_block(x: np.ndarray) -> np.ndarray:
    s, w, t, v = _si_rules()
    # |Si(x) - pi/2| < 2/x rounds away beyond 1e17, so the clamp leaves
    # every finite result as it is and takes +-inf to +-pi/2
    ax = np.minimum(np.abs(x), 1e17)
    out = np.empty_like(ax)
    near = ax <= _SI_SWITCH
    xn = ax[near]
    out[near] = xn * (_sinc(np.multiply.outer(xn, s)) @ w)
    xf = ax[~near]
    d = 1.0 / (xf[:, None] ** 2 + t**2)  # 1 / (x^2 + s^2) at each node s = x t
    f = xf * (d @ v)
    g = d @ (v * t)
    out[~near] = np.pi / 2 - f * np.cos(xf) - g * np.sin(xf)
    return np.copysign(out, x)

def si(x):
    """Sine integral Si(x) = integral_0^x sin(u)/u du, on numpy alone.

    For |x| <= 6, Si(x) = x integral_0^1 sinc(x s) ds on 24 Gauss-Legendre
    nodes; the integrand is entire, and the rule is exact to degree 47.
    Beyond, Si(x) = pi/2 - f(x) cos x - g(x) sin x with the auxiliary
    functions in their Laplace forms (DLMF 6.7(ii), A&S 5.2.12-13)

        f(x) = integral_0^inf e^{-xt} / (1 + t^2) dt = sum_k v_k x / (x^2 + s_k^2),
        g(x) = integral_0^inf t e^{-xt} / (1 + t^2) dt = sum_k v_k s_k / (x^2 + s_k^2),

    on 60 Gauss-Laguerre nodes (s_k, v_k) in s = x t; the poles at s = +-i x
    lie at least 6 from the real axis.  Against 30-digit arithmetic on 8,000
    points (geomspace 1e-8 to 1e8 and linspace 0 to 40) the largest absolute
    error is 1.3e-15 (the Cephes ``sici``: 6.7e-16).  Odd, exact at 0,
    +-pi/2 at +-inf.

    Parameters
    ----------
    x : float or array_like

    Returns
    -------
    float or ndarray, matching the input shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_x.size, _SI_CHUNK):
        flat_out[lo:lo + _SI_CHUNK] = _si_block(flat_x[lo:lo + _SI_CHUNK])
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Closed-form 2-D kernels
# ---------------------------------------------------------------------------

def delta_2d(r, p: OpoParams):
    """Near-field coupling profile Delta(r) of the thick crystal (1/m^2).

    Delta(r) = (k_s / (2 pi l_c)) * (pi/2 - Si(k_s r^2 / (2 l_c))), with the
    argument equal to (r / l_coh)^2.  Delta(0) = 1 / (2 l_coh^2); the first
    zero falls at r = l_coh * sqrt(u1) ~ 1.388 l_coh where Si(u1) = pi/2,
    and the integral over the transverse plane equals 1, so Delta tends to a
    2-D delta for a vanishing crystal length.

    Parameters
    ----------
    r : float or array_like
        Transverse distance (m), r >= 0.
    p : OpoParams
    """
    r = np.asarray(r, dtype=float)
    u = (r / p.l_coh) ** 2
    return (np.pi / 2 - si(u)) / (np.pi * p.l_coh**2)

def phase_match_sinc(q, p: OpoParams):
    """Collinear phase-matching factor sigma(q) = sinc(l_c q^2 / (2 k_s)).

    The argument equals (q l_coh / 2)^2; sigma is the per-mode coupling of a
    plane pump in the far field.
    """
    q = np.asarray(q, dtype=float)
    return _sinc((q * p.l_coh / 2.0) ** 2)


# ---------------------------------------------------------------------------
# Far-field kernels
# ---------------------------------------------------------------------------

def _pump_transform(k, p: OpoParams):
    """Integral-normalized 1-D pump transform G(k) = A_p (w_p / (2 sqrt(pi)))
    exp(-k^2 w_p^2 / 4), so that integral G dk = A_p."""
    amp = p.A_p * p.w_p / (2.0 * math.sqrt(math.pi))
    return amp * np.exp(-(k * p.w_p / 2.0) ** 2)

def _pair_sinc(k, p: OpoParams):
    """Phase-matching factor S(k) = sinc(m) with m = (l_c / (2 k_s)) (k/2)^2."""
    lc_2ks = p.l_coh**2 / 4.0  # l_c / (2 k_s)
    return _sinc(lc_2ks * (k / 2.0) ** 2)

# ---------------------------------------------------------------------------
# Grids and discretized kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform symmetric midpoint grid on [-L, L].

    Points sit at cell centers, x_k = -L + (k + 1/2) h with h = 2L/n, so the
    set is exactly symmetric under sign flip (x_k = -x_{n-1-k}) and contains
    0 when n is odd.  The midpoint rule weighs every point by h, which keeps
    the quadrature exactly flip-symmetric.

    ``domain`` is "near" (coordinates in m) or "far" (wavevectors in 1/m).
    """

    n: int
    half_extent: float
    domain: str
    points: np.ndarray = field(repr=False)

    @classmethod
    def uniform(cls, n: int, half_extent: float, domain: str) -> "Grid1D":
        if domain not in ("near", "far"):
            raise ConfigurationError(f"domain must be 'near' or 'far', got {domain!r}")
        # the type checks come first, so the comparisons never meet None or a string
        if not (isinstance(n, numbers.Integral) and _real(half_extent)
                and n >= 2 and 0 < half_extent < math.inf):
            raise ConfigurationError("need an integer n >= 2 and a positive finite half_extent, "
                                     f"got {n!r} and {half_extent!r}")
        h = 2.0 * half_extent / n
        pts = -half_extent + (np.arange(n) + 0.5) * h
        return cls(n=n, half_extent=half_extent, domain=domain, points=pts)

    @property
    def step(self) -> float:
        return 2.0 * self.half_extent / self.n

    def conjugate(self) -> "Grid1D":
        """DFT-conjugate grid: same n, step dq = 2 pi / (n h), domain swapped."""
        dq = 2.0 * math.pi / (self.n * self.step)
        other = "far" if self.domain == "near" else "near"
        return Grid1D.uniform(self.n, self.n * dq / 2.0, other)

    @property
    def n_even(self) -> int:
        """Dimension m = ceil(n/2) of the even (flip-symmetric) subspace."""
        return (self.n + 1) // 2

    def _even_coef(self) -> np.ndarray:
        # entry of grid point i in its even basis vector: the pair
        # (delta_i + delta_flip(i)) / sqrt(2), or delta_c at the center
        coef = np.full(self.n, math.sqrt(0.5))
        if self.n % 2:
            coef[self.n // 2] = 1.0
        return coef

    def fold(self, values) -> np.ndarray:
        """Even-subspace coefficients E^T @ values of grid values (axis 0, n -> m).

        The orthonormal even basis E (n x m) has column a equal to
        (delta_a + delta_flip(a)) / sqrt(2) for the points left of center,
        and delta_c at the center point of an odd grid.
        """
        values = np.asarray(values)
        values = values * self._even_coef().reshape((-1,) + (1,) * (values.ndim - 1))
        out = values[: self.n_even].copy()
        out[: self.n - self.n_even] += values[::-1][: self.n - self.n_even]
        return out


def _structure_scales(p: OpoParams, domain: str):
    """(largest step, smallest half extent) the kernel demands on ``domain``.

    The step resolves l_coh near, and 2 / l_coh and 1 / w_p far; the extent
    covers 4 pump envelopes, w_p near and 2 / w_p far (none for a plane
    pump).  ``build_kernel_matrix`` refuses a grid outside either bound.
    """
    if domain == "near":
        step_max = p.l_coh / _STEP_DIVISOR
        extent_min = _EXTENT_FACTOR * p.w_p if not p.plane_pump else 0.0
    else:
        scales = [2.0 / p.l_coh]  # sqrt(2 k_s / l_c): phase-matching sinc scale
        if not p.plane_pump:
            scales.append(1.0 / p.w_p)
        step_max = min(scales) / _STEP_DIVISOR
        extent_min = _EXTENT_FACTOR * (2.0 / p.w_p) if not p.plane_pump else 0.0
    return step_max, extent_min

def _check_sizing(g: Grid1D, p: OpoParams) -> None:
    step_max, extent_min = _structure_scales(p, g.domain)
    if g.domain == "near" and g.step > step_max:
        # Thin-limit branch: for a physically thin crystal a step far above
        # l_coh samples the kernel where it is indistinguishable from a
        # delta, which is equally faithful.
        thin = (
            p.l_c <= _THIN_CRYSTAL_RATIO * p.z_C
            and g.step >= _THIN_STEP_RATIO * p.l_coh
        )
        if not thin:
            raise GridTooCoarse(
                f"near grid step {g.step:.3e} m exceeds l_coh/{_STEP_DIVISOR:g} = "
                f"{step_max:.3e} m (thin-crystal escape needs l_c <= "
                f"{_THIN_CRYSTAL_RATIO:g} z_C and step >= {_THIN_STEP_RATIO:g} l_coh)"
            )
    elif g.domain == "far" and g.step > step_max:
        raise GridTooCoarse(
            f"far grid step {g.step:.3e} /m exceeds min(1/w_p, sqrt(2 k_s/l_c))/"
            f"{_STEP_DIVISOR:g} = {step_max:.3e} /m"
        )
    if g.half_extent < extent_min:
        raise GridTooCoarse(
            f"{g.domain} grid half extent {g.half_extent:.3e} is below "
            f"{_EXTENT_FACTOR:g} x the pump envelope scale {extent_min / _EXTENT_FACTOR:.3e}"
        )

def auto_grid(
    p: OpoParams,
    domain: str,
    reaches: tuple[float, ...] = (),
    extents: tuple[float, ...] = (),
) -> Grid1D:
    """Smallest odd-n grid (0 on the grid) that holds the modes and detectors.

    The step is the largest ``_structure_scales`` allows; the half extent the
    largest of its pump envelopes (4 w_p near, 8 / w_p far), the band
    ``_PHASE_MATCH_BAND`` / l_coh on a far grid of a finite pump (no mode
    has gain outside it), each detector reach in ``reaches`` plus one step
    (beyond the pump or band a detector sees vacuum, so the step only keeps
    its band inside the grid), and each half extent in ``extents`` as given
    (4 Gaussian-LO waists, an explicit extent).  m near, 1/m far.
    """
    step_max, extent_min = _structure_scales(p, domain)
    if domain == "far" and not p.plane_pump:
        extent_min = max(extent_min, _PHASE_MATCH_BAND / p.l_coh)
    extent = max([extent_min, *extents] + [r + step_max for r in reaches])
    if extent <= 0:
        raise GridTooCoarse("no finite extent available to size the grid")
    # n stays a float until it fits: an extent near the float range has no int n
    cells = 2.0 * extent / step_max
    n = math.ceil(cells) if cells <= MAX_GRID_N else cells
    if n % 2 == 0:
        n += 1
    if not n <= MAX_GRID_N:
        raise GridTooCoarse(
            f"sizing rule demands n = {n:.3e} > {MAX_GRID_N} points "
            f"(extent {extent:.3e}, step {step_max:.3e})"
        )
    n = max(n, 33)
    return Grid1D.uniform(n, extent, domain)


def _far_even(g: Grid1D, p: OpoParams) -> np.ndarray:
    """Even block E^T K E of the far-field operator on the far grid ``g``.

    The 1-D far-field kernel (threshold units times m) is
    K(q, q2) = 1/2 [ G(q+q2) S(q-q2) + G(q-q2) S(q+q2) ], with the pump
    transform G of ``_pump_transform`` and the phase-matching factor S of
    ``_pair_sinc``.  K is flip-even in either argument, so the four grid
    pairs behind each pair of even basis vectors carry one value:
    K_even[a, b] = 2 h K(q_a, q_b) over the m points q_a left of and at the
    center, with a factor 1/sqrt(2) per center index of an odd grid.  On the midpoint grid
    q_a + q_b and q_a - q_b take only 2m - 1 values each, so the block is
    gathered from four 1-D arrays: Hankel views of G(q_a + q_b) and
    S(q_a + q_b), Toeplitz views of G(q_a - q_b) and S(q_a - q_b).  A plane
    pump collapses G to a discrete delta whose 1/h cancels the weight,
    leaving diag(A_p sigma(q_a)).
    """
    m = g.n_even
    qs = g.points[:m]
    if p.plane_pump:
        return np.diag(p.A_p * phase_match_sinc(qs, p))
    h = g.step
    sums = np.concatenate([qs[0] + qs, qs[1:] + qs[-1]])  # q_a + q_b at a + b
    diffs = h * np.arange(1 - m, m)  # q_a - q_b at a - b + m - 1
    window = np.lib.stride_tricks.sliding_window_view  # [a, b] -> f[a + b]
    g_sum, s_sum = (window(f, m) for f in (_pump_transform(sums, p), _pair_sinc(sums, p)))
    g_diff, s_diff = (
        window(f, m)[:, ::-1] for f in (_pump_transform(diffs, p), _pair_sinc(diffs, p))
    )
    block = g_sum * s_diff
    block += g_diff * s_sum
    block *= h  # 2 h times the 1/2 of the kernel formula
    if g.n % 2:
        block[-1] *= math.sqrt(0.5)
        block[:, -1] *= math.sqrt(0.5)
    return block

def build_kernel_matrix(g: Grid1D, p: OpoParams) -> np.ndarray:
    """The coupling kernel on ``g`` as its real symmetric m x m far block.

    The kernel is flip-even in either argument and symmetric under swap, so
    it acts on the even subspace alone: the block is E^T K E of the far
    operator K[i, j] = K(q_i, q_j) h in the even basis E of ``Grid1D.fold``
    (m = ceil(n/2)), gathered by ``_far_even`` on ``g`` itself in the far
    domain and on its conjugate grid in the near domain.  The near operator,
    the DFT similarity W^H K_far W, is never formed: it has the spectrum of
    the block, and a near detector reaches the far modes through one DFT
    (``homodyne._noise_terms``).  This keeps the two domains a transform
    pair without the 1-D position kernel's half-power Fresnel integral,
    which has no closed form.

    Raises ``GridTooCoarse`` when the grid violates the sizing rule (step
    <= l_coh/8 near, or beyond the thin-crystal regime; step <=
    min(1/w_p, sqrt(2 k_s / l_c))/8 far; extent >= 4 w_p for a finite
    pump).
    """
    _check_sizing(g, p)
    return _far_even(g if g.domain == "far" else g.conjugate(), p)
