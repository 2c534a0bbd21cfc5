"""Thick-crystal coupling kernels in position and transverse-wavevector space.

The parametric interaction inside a crystal of finite length couples field
operators at different transverse points.  In the near field (crystal center
image plane) its profile is ``delta_2d``, a smeared delta of width ``l_coh``
in terms of the sine integral, evaluated in its 2-D closed form only.  In
the far field (Fourier plane) the kernel is a product of the pump transform
and a phase-matching sinc, and every 1-D grid kernel is gathered from it as
a banded block, a near grid's on its conjugate far grid (``build_kernel_matrix``).

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

from .errors import ConfigurationError, NumericalFailure
from .params import OpoParams, _real

__all__ = [
    "si",
    "delta_2d",
    "phase_match_sinc",
    "Grid1D",
    "auto_grid",
]

# Grid sizing rule constants.  Steps must resolve the finest kernel scale by
# this factor; a half extent must cover the pump envelope by this factor.
_STEP_DIVISOR = 8.0
_EXTENT_FACTOR = 4.0
# Automatic far extent of a finite pump, in 1/l_coh: the phase-matching band
# (sigma's first zero is 2 sqrt(pi)).  Against 5x the extent, max|lam| is off
# by 2.7e-7 at 4 and 7e-9 at 5 (b = 4), and within 1e-11 at 6 (b = 4-100).
_PHASE_MATCH_BAND = 6.0
# G(k) falls below 1e-14 G(0) beyond |k| = 2 sqrt(ln 1e14) / w_p: the reach
# of the far coupling in units of 1 / w_p, which bands the gathered block
_PUMP_REACH = 2.0 * math.sqrt(math.log(1e14))
# Columns of every shifted solve, and the fewest rows per block of the
# banded block, which is otherwise as wide as the band (a plane pump's is 0)
_SOLVE_WIDTH = 8
# Largest grid size.  The banded route holds O(m band) memory: at this n fig 9
# (b ~ 3,900) took 0.3 s and fig 6 (b ~ 8,780) 0.5 s, each 42 MB peak RSS, on a 2-core host.
MAX_GRID_N = 6000


# ---------------------------------------------------------------------------
# Sine integral
# ---------------------------------------------------------------------------

#: |x| at which ``si`` switches from its power series to E1's continued
#: fraction.  Si' = sinc vanishes at pi, so the branches agree to rounding
#: on either side of it (at 4, Si' = -0.19); at 6 the series loses digits
#: to cancellation (2.7e-15)
_SI_SWITCH = math.pi


@lru_cache(maxsize=2)
def _gauss_legendre(n: int):
    """(x, w) of the n-point Gauss-Legendre rule on [-1, 1], n even: Newton's
    method on the recurrence of P_n from the guesses cos(pi (k - 1/4) / (n + 1/2))
    finds the positive nodes, mirrored; w = 2 / ((1 - x^2) P_n'(x)^2).  The
    nodes equal ``leggauss``'s, with no companion-matrix eigensolver (LAPACK)."""
    def values(x):  # (P_n, P_n') at x
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(n // 2, 0, -1) - 0.25) / (n + 0.5))
    # once every Newton step is under 1e-8 of its root, one more reaches
    # full precision (3 steps before it at n = 16 and 24)
    for _ in range(50):
        dx = np.divide(*values(x))
        x = x - dx
        if np.all(np.abs(dx) <= 1e-8 * np.abs(x)):
            break
    x = x - np.divide(*values(x))
    dp = values(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])

def si(x):
    """Sine integral Si(x) = integral_0^x sin(u)/u du, on numpy alone.

    For |x| <= pi, the power series (DLMF 6.6)

        Si(x) = sum_k (-1)^k x^(2k+1) / ((2k + 1) (2k + 1)!),

    whose 15 terms reach 1e-18 at pi.  Beyond, Si(x) = pi/2 + Im E1(i x)
    (DLMF 6.5) with E1's continued fraction (DLMF 6.9) in the modified
    Lentz form (Numerical Recipes, 3rd ed., 6.8):

        E1(z) = e^{-z} (1 / (z + 1 -) 1 / (z + 3 -) 4 / (z + 5 -) ...),

    stopped once every step's factor is within 1e-15 of 1: 53 steps just
    past pi, 20 at 10 and 1 from 1e8 on; no finite input nears the bound
    of 1,000 steps.  NaN takes the series.  Against 30-digit arithmetic
    on 8,000 points (geomspace 1e-8 to 1e8 and linspace 0 to 40, both
    signs) the largest absolute error is 8.9e-16 (the Cephes
    ``sici``: 6.7e-16).  Odd, exact at 0, +-pi/2 at +-inf.

    Parameters
    ----------
    x : float or array_like

    Returns
    -------
    float or ndarray, matching the input shape.
    """
    x = np.asarray(x, dtype=float)
    # |Si(x) - pi/2| < 2/x rounds away beyond 1e17, so the clamp leaves
    # every finite result as it is and takes +-inf to +-pi/2
    ax = np.minimum(np.abs(x), 1e17)
    out = np.empty(x.shape)
    near = ~(ax > _SI_SWITCH)
    xn = ax[near]
    term, total = xn.copy(), xn.copy()  # x^(2k+1) / (2k+1)! with its sign, and the sum
    for k in range(1, 15):
        term *= -xn * xn / ((2 * k) * (2 * k + 1))
        total += term / (2 * k + 1)
    out[near] = total
    z = 1j * ax[~near]
    b = z + 1.0
    c, d = np.full_like(z, 1e300), 1.0 / b  # Lentz's start: c's first step is b
    h = d
    for k in range(1, 1000):
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        step = c * d
        h *= step
        if np.all(np.abs(step - 1.0) <= 1e-15):
            break
    out[~near] = np.pi / 2 + (h * np.exp(-z)).imag
    out = np.copysign(out, x)
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
    x = (np.asarray(q, dtype=float) * p.l_coh / 2.0) ** 2
    return np.sinc(x / np.pi)


# ---------------------------------------------------------------------------
# Far-field kernels
# ---------------------------------------------------------------------------

def _pump_transform(k, p: OpoParams):
    """Integral-normalized 1-D pump transform G(k) = A_p (w_p / (2 sqrt(pi)))
    exp(-k^2 w_p^2 / 4), so that integral G dk = A_p."""
    amp = p.A_p * p.w_p / (2.0 * math.sqrt(math.pi))
    return amp * np.exp(-(k * p.w_p / 2.0) ** 2)

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
    A grid is checked when it is made, ``dataclasses.replace`` included:
    ``ConfigurationError`` unless n is an integer >= 2, the half extent
    positive and finite and the domain known.  ``points`` derives from the
    three fields.
    """

    n: int
    half_extent: float
    domain: str
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, half = self.n, self.half_extent
        if self.domain not in ("near", "far"):
            raise ConfigurationError(f"domain must be 'near' or 'far', got {self.domain!r}")
        # the type checks come first, so the comparisons never meet None or a string
        if not (isinstance(n, numbers.Integral) and _real(half) and n >= 2 and 0 < half < math.inf):
            raise ConfigurationError("need an integer n >= 2 and a positive finite half_extent, "
                                     f"got {n!r} and {half!r}")
        object.__setattr__(self, "points", -half + (np.arange(n) + 0.5) * (2.0 * half / n))

    @property
    def step(self) -> float:
        return 2.0 * self.half_extent / self.n

    def conjugate(self) -> "Grid1D":
        """DFT-conjugate grid: same n, step dq = 2 pi / (n h), domain swapped."""
        dq = 2.0 * math.pi / (self.n * self.step)
        other = "far" if self.domain == "near" else "near"
        return Grid1D(self.n, self.n * dq / 2.0, other)

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
    if g.step > step_max:
        raise NumericalFailure(
            f"near grid step {g.step:.3e} m exceeds l_coh/{_STEP_DIVISOR:g} = {step_max:.3e} m"
            if g.domain == "near" else
            f"far grid step {g.step:.3e} /m exceeds min(1/w_p, sqrt(2 k_s/l_c))/"
            f"{_STEP_DIVISOR:g} = {step_max:.3e} /m"
        )
    if g.half_extent < extent_min:
        raise NumericalFailure(
            f"{g.domain} grid half extent {g.half_extent:.3e} is below "
            f"{_EXTENT_FACTOR:g} x the pump envelope scale {extent_min / _EXTENT_FACTOR:.3e}"
        )

def auto_grid(p: OpoParams, domain: str, reaches: tuple[float, ...] = (),
              n: int | None = None, half: float | None = None) -> Grid1D:
    """The grid of ``n`` points and half extent ``half`` (m near, 1/m far);
    either left out comes from the rule, and with both given none runs.

    The rule's grid is the smallest odd n (0 on the grid) that holds the
    modes and detectors.  The step is the largest ``_structure_scales``
    allows; the half extent the largest of its pump envelopes (4 w_p near,
    8 / w_p far), the band ``_PHASE_MATCH_BAND`` / l_coh on a far grid of a
    finite pump (no mode has gain outside it), and each detector reach in
    ``reaches`` plus one step (beyond the pump or band a detector sees
    vacuum, so the step only keeps its band inside the grid), or a given
    ``half`` in place of the reaches.  A given ``n`` is still refused when
    the rule's tops ``MAX_GRID_N``.
    """
    if n is not None and half is not None:
        return Grid1D(n, half, domain)
    step_max, extent_min = _structure_scales(p, domain)
    if domain == "far" and not p.plane_pump:
        extent_min = max(extent_min, _PHASE_MATCH_BAND / p.l_coh)
    extent = max([extent_min] + ([r + step_max for r in reaches] if half is None else [half]))
    if extent <= 0:
        raise NumericalFailure("no finite extent available to size the grid")
    # the rule's n stays a float until it fits: an extent near the float range has no int n
    cells = 2.0 * extent / step_max
    rule_n = math.ceil(cells) if cells <= MAX_GRID_N else cells
    if rule_n % 2 == 0:
        rule_n += 1
    if not rule_n <= MAX_GRID_N:
        raise NumericalFailure(
            f"sizing rule demands n = {rule_n:.3e} > {MAX_GRID_N} points "
            f"(extent {extent:.3e}, step {step_max:.3e})"
        )
    return Grid1D(max(rule_n, 33) if n is None else n, extent if half is None else half, domain)


def build_kernel_matrix(g: Grid1D, p: OpoParams) -> np.ndarray:
    """The coupling kernel on ``g`` as its real symmetric m x m far block, in
    block rows: [i, 0] the i-th diagonal block, [i, 1] the block below it.

    The kernel is flip-even in either argument and symmetric under swap, so
    it acts on the even subspace alone: the block is E^T K E of the far
    operator K[i, j] = K(q_i, q_j) h in the even basis E of ``Grid1D.fold``
    (m = ceil(n/2)), on ``g`` itself in the far domain and on its conjugate
    grid in the near domain, which a near detector reaches by one DFT
    (``homodyne._noise_terms``).  The 1-D far-field kernel (threshold units
    times m) is K(q, q2) = 1/2 [ G(q+q2) S(q-q2) + G(q-q2) S(q+q2) ], with
    the pump transform G of ``_pump_transform`` and S(k) = sigma(k/2) of
    ``phase_match_sinc``, so the four grid pairs behind each pair of
    even basis vectors carry one value: K_even[a, b] = 2 h K(q_a, q_b) over
    the m points q_a left of and at the center, times 1/sqrt(2) per center
    index of an odd grid.  G is below 1e-14 G(0) past |q_a -/+ q_b| =
    ``_PUMP_REACH`` / w_p, so the band is ceil(11.4 / (w_p h)) cells whatever
    b is (15 near, 91-92 far), and blocks as wide as it (at least 8 rows)
    over the m coefficients, zero-padded to nb s, hold it: no m x m array.
    They are gathered from Hankel views of G and S at q_a + q_b and Toeplitz
    views at q_a - q_b.  A plane pump collapses G to a discrete delta whose
    1/h cancels the weight, leaving diag(A_p sigma(q_a)), band 0.

    Raises ``NumericalFailure`` off the sizing rule: step <= l_coh/8 near or
    min(1/w_p, sqrt(2 k_s / l_c))/8 far, and extent >= 4 w_p for a finite pump.
    """
    _check_sizing(g, p)
    g = g if g.domain == "far" else g.conjugate()
    m, h = g.n_even, g.step
    # two blocks of ceil(m / 2) rows hold any band
    band = 0 if p.plane_pump else min(-(-m // 2), math.ceil(_PUMP_REACH / (p.w_p * h)))
    nb = -(-m // max(band, _SOLVE_WIDTH))
    s = max(band, -(-m // nb))
    if p.plane_pump:
        blocks = np.zeros((nb, 2, s, s))
        gains = np.pad(p.A_p * phase_match_sinc(g.points[:m], p), (0, nb * s - m))
        blocks[:, 0, range(s), range(s)] = gains.reshape(nb, s)
        return blocks
    window = np.lib.stride_tricks.sliding_window_view  # [a, b] -> f[a + b]
    sums = 2.0 * g.points[0] + h * np.arange(2 * nb * s + s - 1)  # q_a + q_b at a + b
    diffs = h * np.arange(1 - s, 2 * s)  # q_a - q_b at a - b + s - 1, |a - b| < 2 s
    g_sum, s_sum = (window(f, s)[: 2 * nb * s].reshape(nb, 2, s, s)
                    for f in (_pump_transform(sums, p), phase_match_sinc(sums / 2.0, p)))
    g_diff, s_diff = (window(f, s)[: 2 * s, ::-1].reshape(2, s, s)
                      for f in (_pump_transform(diffs, p), phase_match_sinc(diffs / 2.0, p)))
    blocks = g_sum * s_diff
    blocks += g_diff * s_sum
    blocks *= h  # 2 h times the 1/2 of the kernel formula
    # per coefficient: 1, 1/sqrt(2) at the center of an odd grid, 0 past m
    coef = np.pad(np.where(np.arange(m) < m - g.n % 2, 1.0, math.sqrt(0.5)), (0, (nb + 1) * s - m))
    coef = coef.reshape(nb + 1, s)
    blocks *= np.stack([coef[:-1], coef[1:]], 1)[..., None] * coef[:-1, None, None, :]
    # entries < 1 <= Re s: a cut one moves no vn or margin by an ulp; kept products >= 1e-200
    blocks[np.abs(blocks) < 1e-100] = 0.0
    return blocks
