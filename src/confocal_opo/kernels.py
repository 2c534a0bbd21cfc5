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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, GridTooCoarse
from .params import DerivedScales, OpoParams, validate

__all__ = [
    "si",
    "delta_2d",
    "phase_match_sinc",
    "Grid1D",
    "KernelMatrix",
    "build_kernel_matrix",
    "auto_grid",
]

# Grid sizing rule constants.  Steps must resolve the finest kernel scale by
# this factor; extents must cover the widest envelope by this factor.
_STEP_DIVISOR = 8.0
_EXTENT_FACTOR = 4.0
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
# workspace and the output) next to the block itself; the cosine matrix is
# built only after it.  Fig 6 at b = 900 (n = 5761) peaks at 352 MB and
# takes 4.4-5.1 s on a 2-core x86-64 host, so this n covers fig 6 up to
# b ~ 980 (n ~ 192 sqrt(b)) within ~0.4 GB.
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

def delta_2d(r, s: DerivedScales):
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
    s : DerivedScales
    """
    r = np.asarray(r, dtype=float)
    u = (r / s.l_coh) ** 2
    return (np.pi / 2 - si(u)) / (np.pi * s.l_coh**2)

def phase_match_sinc(q, s: DerivedScales):
    """Collinear phase-matching factor sigma(q) = sinc(l_c q^2 / (2 k_s)).

    The argument equals (q l_coh / 2)^2; sigma is the per-mode coupling of a
    plane pump in the far field.
    """
    q = np.asarray(q, dtype=float)
    return _sinc((q * s.l_coh / 2.0) ** 2)


# ---------------------------------------------------------------------------
# Far-field kernels
# ---------------------------------------------------------------------------

def _pump_transform(k, p: OpoParams):
    """Integral-normalized 1-D pump transform G(k) = A_p (w_p / (2 sqrt(pi)))
    exp(-k^2 w_p^2 / 4), so that integral G dk = A_p."""
    amp = p.A_p * p.w_p / (2.0 * math.sqrt(math.pi))
    return amp * np.exp(-(k * p.w_p / 2.0) ** 2)

def _pair_sinc(k, s: DerivedScales):
    """Phase-matching factor S(k) = sinc(m) with m = (l_c / (2 k_s)) (k/2)^2."""
    lc_2ks = s.l_coh**2 / 4.0  # l_c / (2 k_s)
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
        if n < 2 or half_extent <= 0:
            raise ConfigurationError("need n >= 2 and half_extent > 0")
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


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Quadrature-weighted discretization of the coupling kernel on ``grid``.

    The kernel is even under sign flip of either argument and symmetric
    under swap, so it acts only on the even subspace of the grid.  ``far``
    is the real symmetric m x m block E^T K E of the far-field operator in
    the orthonormal even basis E of ``Grid1D.fold`` (m = ceil(n/2)),
    where K[i, j] = K(q_i, q_j) h: on ``grid`` itself in the far domain,
    on its conjugate grid in the near domain.  The near block is C^T far C
    for the DFT restricted to the even subspace, an orthogonal m x m matrix
    C (``cosine``), and is never formed: it has the spectrum of ``far`` and
    the modes C^T q_far.
    """

    far: np.ndarray = field(repr=False)
    grid: Grid1D

    @property
    def cosine(self) -> np.ndarray | None:
        """C of a near grid (None on a far grid), built from the grid on each
        access, so that it is not held while ``far`` is diagonalized."""
        if self.grid.domain == "far":
            return None
        return _cosine_restriction(self.grid, self.grid.conjugate())


def _structure_scales(p: OpoParams, s: DerivedScales, domain: str):
    """(finest step allowed, minimum half extent) demanded by pump + kernel."""
    if domain == "near":
        step_max = s.l_coh / _STEP_DIVISOR
        extent_min = _EXTENT_FACTOR * p.w_p if not p.plane_pump else 0.0
    else:
        scales = [2.0 / s.l_coh]  # sqrt(2 k_s / l_c): phase-matching sinc scale
        if not p.plane_pump:
            scales.append(1.0 / p.w_p)
        step_max = min(scales) / _STEP_DIVISOR
        extent_min = _EXTENT_FACTOR * (2.0 / p.w_p) if not p.plane_pump else 0.0
    return step_max, extent_min

def _check_sizing(g: Grid1D, p: OpoParams, s: DerivedScales) -> None:
    step_max, extent_min = _structure_scales(p, s, g.domain)
    if g.domain == "near" and g.step > step_max:
        # Thin-limit branch: for a physically thin crystal a step far above
        # l_coh samples the kernel where it is indistinguishable from a
        # delta, which is equally faithful.
        thin = (
            p.l_c <= _THIN_CRYSTAL_RATIO * p.z_C
            and g.step >= _THIN_STEP_RATIO * s.l_coh
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
    s: DerivedScales,
    domain: str,
    extra_extents: tuple[float, ...] = (),
) -> Grid1D:
    """Smallest odd-n grid satisfying the sizing rule.

    ``extra_extents`` are additional half extents that must be covered with
    the same 4x margin (detector reach, local-oscillator waist scale); they
    are in m for the near domain and 1/m for the far domain.  Odd n keeps
    the zero coordinate on the grid.
    """
    step_max, extent_min = _structure_scales(p, s, domain)
    extent = max([extent_min] + [_EXTENT_FACTOR * e for e in extra_extents if e > 0])
    if extent <= 0:
        raise GridTooCoarse("no finite extent available to size the grid")
    n = int(math.ceil(2.0 * extent / step_max))
    if n % 2 == 0:
        n += 1
    if n > MAX_GRID_N:
        raise GridTooCoarse(
            f"sizing rule demands n = {n} > {MAX_GRID_N} points "
            f"(extent {extent:.3e}, step {step_max:.3e})"
        )
    n = max(n, 33)
    return Grid1D.uniform(n, extent, domain)


def _far_even(g: Grid1D, p: OpoParams, s: DerivedScales) -> np.ndarray:
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
        return np.diag(p.A_p * phase_match_sinc(qs, s))
    h = g.step
    sums = np.concatenate([qs[0] + qs, qs[1:] + qs[-1]])  # q_a + q_b at a + b
    diffs = h * np.arange(1 - m, m)  # q_a - q_b at a - b + m - 1
    window = np.lib.stride_tricks.sliding_window_view  # [a, b] -> f[a + b]
    g_sum, s_sum = (window(f, m) for f in (_pump_transform(sums, p), _pair_sinc(sums, s)))
    g_diff, s_diff = (
        window(f, m)[:, ::-1] for f in (_pump_transform(diffs, p), _pair_sinc(diffs, s))
    )
    block = g_sum * s_diff
    block += g_diff * s_sum
    block *= h  # 2 h times the 1/2 of the kernel formula
    if g.n % 2:
        block[-1] *= math.sqrt(0.5)
        block[:, -1] *= math.sqrt(0.5)
    return block

def _cosine_restriction(g: Grid1D, conj: Grid1D) -> np.ndarray:
    """C = E^T W E, the unitary DFT W_jk = exp(-i q_j x_k) / sqrt(n) between
    ``g`` and its conjugate grid restricted to the even subspace.

    W maps flip-even vectors to flip-even vectors and W_j,flip(k) is the
    complex conjugate of W_jk, so the restriction is the real orthogonal
    cosine matrix (2 / sqrt(n)) cos(q_a x_b), with a factor 1/sqrt(2) for
    each center index of an odd grid.
    """
    m = g.n_even
    cmat = np.outer(conj.points[:m], g.points[:m])
    np.cos(cmat, out=cmat)
    cmat *= 2.0 / math.sqrt(g.n)
    if g.n % 2:
        cmat[-1] *= math.sqrt(0.5)
        cmat[:, -1] *= math.sqrt(0.5)
    return cmat

def build_kernel_matrix(g: Grid1D, p: OpoParams, s: DerivedScales) -> KernelMatrix:
    """Discretize the coupling kernel on ``g``.

    Far domain: the even block of the 1-D far-field kernel (plane pump:
    discrete delta), gathered by ``_far_even``.  Near domain: the discrete
    Fourier similarity transform W^H K_far W of the far-domain kernel built
    on the conjugate grid.  On the even subspace W is the real cosine
    matrix C of ``_cosine_restriction``, which ``KernelMatrix.cosine``
    builds from the grid when it is needed, instead of forming
    C^T K_far,even C.  Building the near kernel this way guarantees the
    transform-pair consistency of the two representations, and avoids
    evaluating an oscillatory half-power Fresnel integral for the 1-D
    position kernel, which has no closed form.
    Every array is m x m (m = ceil(n/2)).

    Raises ``GridTooCoarse`` when the grid violates the sizing rule (step
    <= l_coh/8 near, or beyond the thin-crystal regime; step <=
    min(1/w_p, sqrt(2 k_s / l_c))/8 far; extent >= 4 w_p for a finite
    pump).
    """
    validate(p)
    _check_sizing(g, p, s)
    far_grid = g if g.domain == "far" else g.conjugate()
    return KernelMatrix(far=_far_even(far_grid, p, s), grid=g)
