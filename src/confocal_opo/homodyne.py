"""Balanced homodyne detection: shot noise and normalized squeezing spectra.

The difference photocurrent of a balanced homodyne detector measures the
quadrature selected by the local-oscillator phase, integrated over the
detector area.  Its noise spectrum normalized to shot noise is

    vn = V / N = 1 + S / N,

computed from the cavity modes (K = Q diag(lambda) Q^T, per-mode transform
u, v; see ``iosolver``) with vacuum input and the symmetrized even-field
commutation rules.  For a symmetric detector and an even local oscillator
only the even part of the output contributes beyond shot noise; the odd part
stays in the vacuum.  With the even projector P, the quadrature-weighted
LO-on-detector vector l (grid step w) and its mode coefficients c = Q^T P l:

    N = w l^T l,
    vn = 1 + (2 w / N) [ sum_k c_k^2 |v_k|^2
                         + Re( e^{-2 i phi} sum_k c_k^2 u_k v_-k ) ],

where v_- is the per-mode v at the opposite analysis frequency, a closed
form at no extra cost.  The quadrature phi = pi/2 is the squeezed quadrature
for this sign convention; phi = 0 gives its anti-squeezed dual, and both are
always computable (their product is 1 per mode at resonance and zero
frequency).

Plane-pump configurations bypass the dense solve entirely: the response is
diagonal in the transverse wavevector, with mode gain lambda = A_p sigma(q),
so spectra reduce to 1-D quadratures over closed-form densities.  Those
routes cover detector sizes far beyond what a dense grid can span, and are
cross-checked against the dense solver where the two overlap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.integrate

from .errors import (
    ConfigurationError,
    EmptyDetector,
    GridTooCoarse,
    PlaneMismatch,
)
from .iosolver import CavityModes, analytic_uv_planepump, mode_uv, solve_io
from .kernels import Grid1D, auto_grid, build_kernel_matrix, phase_match_sinc, si
from .params import DerivedScales, OpoParams, validate

def quad(*args, **kwargs):
    # QUADPACK flags "roundoff error detected" on long oscillatory spans even
    # when the returned value is well within tolerance (verified against
    # independent references in the test suite); keep the run quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(*args, **kwargs)

__all__ = [
    "DetectorMask",
    "LocalOscillator",
    "SqueezingResult",
    "SweepPoint",
    "shot_noise",
    "squeezing_numeric",
    "noise_density_planepump",
    "spectrum_planepump_circular",
    "squeezing_planepump_near",
    "squeezing_planepump_far",
    "sweep",
    "sweep_extents",
]

SQUEEZED_PHASE = math.pi / 2


# ---------------------------------------------------------------------------
# Detection geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorMask:
    """Symmetric photodetection region in the near or far plane.

    Extents are meters in the detection plane.  Far-field positions map to
    transverse wavevectors through the imaging lens, q = 2 pi x / (lambda f).
    All shapes are symmetric about the axis, as required for even-field
    detection: ``interval`` spans [-half_width, half_width]; ``pixel_pair``
    is two pixels of width ``pixel_width`` centered at +-``center_distance``
    (pixels closer than half a width merge into one centered interval);
    ``radial`` is a disk of given radius, which on a 1-D grid reduces to the
    interval of the same half width.
    """

    shape: str
    plane: str
    half_width: float | None = None
    center_distance: float | None = None
    pixel_width: float | None = None
    radius: float | None = None

    @classmethod
    def interval(cls, half_width: float, plane: str = "near") -> "DetectorMask":
        if half_width <= 0:
            raise ConfigurationError("interval half_width must be positive")
        return cls(shape="interval", plane=plane, half_width=half_width)

    @classmethod
    def pixel_pair(
        cls, center_distance: float, pixel_width: float, plane: str = "near"
    ) -> "DetectorMask":
        if pixel_width <= 0:
            raise ConfigurationError("pixel_width must be positive")
        if center_distance < 0:
            raise ConfigurationError("center_distance must be non-negative")
        return cls(
            shape="pixel_pair",
            plane=plane,
            center_distance=center_distance,
            pixel_width=pixel_width,
        )

    @classmethod
    def radial(cls, radius: float, plane: str = "far") -> "DetectorMask":
        if radius <= 0:
            raise ConfigurationError("radius must be positive")
        return cls(shape="radial", plane=plane, radius=radius)

    def outer_extent(self) -> float:
        """Outermost reach of the mask in its own plane (m)."""
        if self.shape == "interval":
            return self.half_width
        if self.shape == "radial":
            return self.radius
        return self.center_distance + self.pixel_width / 2.0

    def _q_scale(self, p: OpoParams) -> float:
        return 2.0 * math.pi / (p.lambda_s * p.f_lens) if self.plane == "far" else 1.0

    def bounds_on_axis(self, p: OpoParams) -> tuple[float, float]:
        """(inner, outer) bound of |coordinate| in grid units (m or 1/m)."""
        c = self._q_scale(p)
        if self.shape in ("interval", "radial"):
            return 0.0, c * self.outer_extent()
        lo = self.center_distance - self.pixel_width / 2.0
        if lo < 0:  # overlapping pixels merge into one centered interval
            return 0.0, c * (self.center_distance + self.pixel_width / 2.0)
        return c * lo, c * (self.center_distance + self.pixel_width / 2.0)

    def indicator(self, grid: Grid1D, p: OpoParams) -> np.ndarray:
        if grid.domain != self.plane:
            raise PlaneMismatch(
                f"{self.shape} detector lives in the {self.plane} plane, "
                f"grid is {grid.domain}"
            )
        lo, hi = self.bounds_on_axis(p)
        if hi > grid.half_extent:
            raise GridTooCoarse(
                f"detector reach {hi:.3e} exceeds the grid half extent "
                f"{grid.half_extent:.3e}"
            )
        u = np.abs(grid.points)
        mask = (u >= lo) & (u <= hi)
        if not mask.any():
            raise EmptyDetector("no grid point falls inside the detector mask")
        return mask


@dataclass(frozen=True)
class LocalOscillator:
    """Intense coherent reference beam with a constant phase across the plane.

    ``profile`` is "plane" (uniform amplitude) or "gaussian".  The Gaussian
    amplitude is exp(-x^2 / waist^2) with the waist in detection-plane
    meters for either plane (far-field positions map to wavevectors through
    the lens, x = q lambda f / (2 pi); a detection-plane waist of r0
    corresponds to a pre-lens beam waist of l_coh).  ``phase`` selects the
    measured quadrature.
    """

    profile: str = "plane"
    amplitude: float = 1.0
    waist: float | None = None
    phase: float = SQUEEZED_PHASE

    def __post_init__(self):
        if self.profile not in ("plane", "gaussian"):
            raise ConfigurationError(f"unknown LO profile {self.profile!r}")
        if self.amplitude <= 0:
            raise ConfigurationError("LO amplitude must be positive")
        if self.profile == "gaussian" and (self.waist is None or self.waist <= 0):
            raise ConfigurationError("gaussian LO needs a positive waist")

    def magnitude(self, grid: Grid1D, p: OpoParams) -> np.ndarray:
        """|alpha| on the grid (phase applied separately)."""
        if self.profile == "plane":
            return np.full(grid.n, self.amplitude)
        if grid.domain == "near":
            return self.amplitude * np.exp(-(grid.points / self.waist) ** 2)
        x_det = grid.points * p.lambda_s * p.f_lens / (2.0 * math.pi)
        return self.amplitude * np.exp(-(x_det / self.waist) ** 2)

    def q_reach(self, p: OpoParams) -> float:
        """Wavevector extent of the far-plane spot (grid sizing)."""
        return 2.0 * math.pi * self.waist / (p.lambda_s * p.f_lens)


@dataclass(frozen=True)
class SqueezingResult:
    """Noise spectrum of one detection configuration, normalized to shot noise.

    vn = 1 means shot noise; vn < 1 squeezing.  sn = vn - 1 is the normally
    ordered part.  ``shot`` is the detected LO photon number (for the
    closed-form radial route: the LO-weighted detector measure in the scaled
    radial variable, noted in ``meta``).
    """

    vn: float
    sn: float
    shot: float
    quadrature: float
    meta: dict = field(default_factory=dict)


def _result(vn: float, shot: float, phase: float, **meta) -> SqueezingResult:
    return SqueezingResult(vn=vn, sn=vn - 1.0, shot=shot, quadrature=phase, meta=meta)


# ---------------------------------------------------------------------------
# Dense-grid route
# ---------------------------------------------------------------------------

def shot_noise(
    lo: LocalOscillator, det: DetectorMask, grid: Grid1D, p: OpoParams
) -> float:
    """Detected LO photon number N = sum_{i in det} |alpha_i|^2 w_i."""
    mask = det.indicator(grid, p)
    mag = lo.magnitude(grid, p)
    return float(np.sum(mag[mask] ** 2 * grid.weights[mask]))

def _noise_weights(lam, detuning: float, omega_bar: float):
    """Per-mode noise weights (|v|^2, u v_-) of a mode of gain ``lam``.

    v_- is v at the opposite analysis frequency; the dense contraction and
    the plane-pump near tables both weigh their modes with these.
    """
    u, v = mode_uv(lam, detuning, omega_bar)
    _, v_neg = mode_uv(lam, detuning, -omega_bar)
    return np.abs(v) ** 2, u * v_neg

def _noise_terms(modes: CavityModes, lvec: np.ndarray, w: float):
    """(N, s_plus, anom) for an unphased LO-on-detector vector lvec.

    vn(phi) = 1 + (2 w / N) (s_plus + Re(e^{-2 i phi} anom)) with
    c = Q^T P lvec the even part of lvec in the mode basis,
    s_plus = sum c^2 |v|^2 and anom = sum c^2 u v_-.
    """
    normal, anomalous = _noise_weights(modes.lam, *modes.at)
    c2 = (modes.Q.T @ (0.5 * (lvec + lvec[::-1]))) ** 2
    n_shot = w * float(lvec @ lvec)
    return n_shot, float(c2 @ normal), complex(c2 @ anomalous)

def _vn_from_terms(n_shot, s_plus, anom, w, phase):
    return 1.0 + (2.0 * w / n_shot) * (
        s_plus + (np.exp(-2j * phase) * anom).real
    )

def squeezing_numeric(
    modes: CavityModes,
    lo: LocalOscillator,
    det: DetectorMask,
    p: OpoParams,
) -> SqueezingResult:
    """Noise spectrum from the cavity modes of a dense solve, first principles.

    Evaluates the homodyne quadrature applied to U B_in + V B_in^+ with
    vacuum input and even-field commutators, one contraction over the modes.
    """
    grid = modes.grid
    lvec = lo.magnitude(grid, p) * det.indicator(grid, p)
    w = grid.step
    n_shot, s_plus, anom = _noise_terms(modes, lvec, w)
    vn = _vn_from_terms(n_shot, s_plus, anom, w, lo.phase)
    return _result(vn, n_shot, lo.phase, route="dense", at=modes.at)


# ---------------------------------------------------------------------------
# Plane-pump closed-form routes
# ---------------------------------------------------------------------------

def noise_density_planepump(q, p: OpoParams, s: DerivedScales, phi_lo: float):
    """Spatial noise density R(q) = |U(q) + e^{2 i phi} V_-*(q)|^2.

    At resonance and zero frequency, phi = pi/2 gives the squeezed density
    ((1 - A_p sigma)/(1 + A_p sigma))^2 and phi = 0 its reciprocal; the two
    multiply to 1 for every q (pure squeezing transformation).
    """
    u, _ = analytic_uv_planepump(q, p, s)
    _, v_neg = analytic_uv_planepump(q, p, s, omega_bar=-p.omega_bar)
    return np.abs(u + np.exp(2j * phi_lo) * np.conj(v_neg)) ** 2

def _sinc_zero_points(q_low: float, q_high: float, s: DerivedScales, cap: int = 90):
    """Transverse wavevectors where the phase-matching sinc vanishes."""
    zeros = []
    k = 1
    while len(zeros) < cap:
        q = (2.0 / s.l_coh) * math.sqrt(k * math.pi)
        if q >= q_high:
            break
        if q > q_low:
            zeros.append(q)
        k += 1
    return zeros

def spectrum_planepump_circular(
    r: float,
    p: OpoParams,
    s: DerivedScales,
    w_lo: float | None = None,
    phi_lo: float = SQUEEZED_PHASE,
) -> SqueezingResult:
    """Far-field noise of a circular detector of radius r, plane pump (2-D).

    Ratio of two radial quadratures over the scaled radius u in [0, r/r0]
    with weight u exp(-c u^2) and integrand R evaluated at sigma = sinc(u^2).
    ``w_lo`` is the detection-plane waist of a Gaussian LO (plane LO for
    None); in terms of the equivalent pre-lens waist w = lambda f/(pi w_lo)
    the weight reads u exp(-w^2 k_s u^2 / l_c), so c = 2 (r0 / w_lo)^2 and a
    detection-plane waist of r0 gives exp(-2 u^2).  Quadrature absolute
    error 1e-8, with refinement split at the sinc zeros.  r -> 0 returns the
    integrand limit R(sigma = 1).
    """
    validate(p)
    if not p.plane_pump:
        raise ConfigurationError("closed-form radial spectrum needs a plane pump")
    big_x = r / s.r0
    meta = dict(route="radial_analytic", r_over_r0=big_x, w_lo=w_lo)
    if big_x <= 1e-9:
        vn = float(noise_density_planepump(0.0, p, s, phi_lo))
        return _result(vn, 0.0, phi_lo, **meta)
    c = 0.0 if w_lo is None else 2.0 * (s.r0 / w_lo) ** 2

    def integrand(u):
        q = 2.0 * u / s.l_coh  # maps sinc(u^2) onto the density argument
        return u * math.exp(-c * u * u) * float(noise_density_planepump(q, p, s, phi_lo))

    breaks = [math.sqrt(k * math.pi) for k in range(1, 200) if k * math.pi < big_x**2]
    num = quad(
        integrand, 0.0, big_x, points=breaks[:90] or None,
        epsabs=1e-8, epsrel=1e-10, limit=300,
    )[0]
    den = big_x**2 / 2.0 if c == 0.0 else (1.0 - math.exp(-c * big_x**2)) / (2.0 * c)
    return _result(num / den, den, phi_lo, **meta)


class _PlanePumpNearTables:
    """Cached q-space integrals behind the plane-pump near-field spectra.

    Every symmetric detector with a plane LO has a window |W(q)|^2 that is a
    combination of (1 - cos(a q)) / q^2 terms, so the normally ordered noise
    reduces to T_k(a) = integral_0^inf (1 - cos(a q)) f_k(q) / q^2 dq over
    the three density components f1 = |V|^2, f2 = Re(U V_-), f3 = Im(U V_-).
    Each T_k splits into a closed-form piece (through Si), a smooth
    integral, and an oscillatory cosine transform handled by the adaptive
    cosine-weight rule.  All quadratures run in the dimensionless variable
    q l_coh, where the integrands and tolerances are order one.
    """

    #: switch between subtracted small-q and raw large-q integrands (l_coh units)
    SWITCH = 1.0
    #: truncation of the q l_coh integrals; |sinc| < (2/CUT)^2 = 4e-4 beyond
    CUT = 100.0
    #: largest scaled window argument served by the precomputed Gauss panels
    #: (at most ~2 cosine periods per panel); beyond it fall back to the
    #: adaptive cosine-weight rule
    FAST_A = 30.0

    def __init__(self, p: OpoParams, s: DerivedScales):
        self.p, self.s = p, s
        self.fs = self._components()
        self.f_zero = np.array([f(1e-300) for f in self.fs])
        self._t_in, self._w_in, self._t_out, self._w_out = self._panels()
        self._g_in = np.stack(
            [(self.fs[k](self._t_in) - self.f_zero[k]) / self._t_in**2 for k in range(3)]
        )
        self._g_out = np.stack([self.fs[k](self._t_out) for k in range(3)])
        self._smooth = self._g_out @ self._w_out
        self._near_flat = np.array(
            [
                quad(
                    lambda t, k=k: 0.0 if t == 0.0 else (self.fs[k](t) - self.f_zero[k]) / t**2,
                    0.0,
                    self.SWITCH,
                    epsabs=1e-11,
                    epsrel=1e-10,
                    limit=200,
                )[0]
                for k in range(3)
            ]
        )

    def _components(self):
        # component functions of the scaled wavevector t = q l_coh: the
        # per-mode noise weights at the plane-pump mode gain A_p sigma(q)
        p, s = self.p, self.s

        def weights(t):
            lam = p.A_p * phase_match_sinc(np.asarray(t) / s.l_coh, s)
            return _noise_weights(lam, p.detuning, p.omega_bar)

        return (
            lambda t: weights(t)[0],
            lambda t: weights(t)[1].real,
            lambda t: weights(t)[1].imag,
        )

    def _panels(self):
        # Gauss panel nodes for [0, SWITCH] and [SWITCH, CUT].  Panel edges
        # sit at the sinc zeros t = 2 sqrt(k pi) and are subdivided to at
        # most 0.25 wide, so a 16-point rule stays accurate for both the
        # integrand's own lobes and a cos(a t) factor up to a = FAST_A
        # (under two cosine periods per panel).
        nodes, weights = np.polynomial.legendre.leggauss(16)

        def split(edges, max_width):
            refined = []
            for a, b in zip(edges[:-1], edges[1:]):
                pieces = max(1, int(math.ceil((b - a) / max_width)))
                refined.extend(np.linspace(a, b, pieces + 1)[:-1])
            refined.append(edges[-1])
            edges = np.asarray(refined)
            mid = (edges[1:] + edges[:-1]) / 2.0
            half = (edges[1:] - edges[:-1]) / 2.0
            t = (half[:, None] * nodes + mid[:, None]).ravel()
            w = (half[:, None] * weights).ravel()
            return t, w

        t_in, w_in = split(np.array([0.0, self.SWITCH]), 0.125)
        zeros = [2.0 * math.sqrt(k * math.pi) for k in range(1, 10000)]
        edges = [self.SWITCH] + [z for z in zeros if self.SWITCH < z < self.CUT] + [self.CUT]
        t_out, wt = split(np.array(edges), 0.25)
        w_out = wt / t_out**2
        return t_in, w_in, t_out, w_out

    def t_vector(self, a_phys: float) -> np.ndarray:
        """T_k(a) (physical units, meters in a) for the three components."""
        if a_phys <= 0:
            return np.zeros(3)
        a = a_phys / self.s.l_coh  # scaled conjugate variable
        out = np.empty(3)
        x = a * self.SWITCH
        closed = a * si(x) - (1.0 - math.cos(x)) / self.SWITCH
        fast = a <= self.FAST_A
        if fast:
            cos_in = np.cos(a * self._t_in) * self._w_in
            cos_out = np.cos(a * self._t_out) * self._w_out
        for k in range(3):
            if abs(self.f_zero[k]) + abs(self._smooth[k]) + abs(self._near_flat[k]) == 0.0:
                out[k] = 0.0  # component vanishes identically (e.g. Im part at resonance)
                continue
            if fast:
                near_osc = float(self._g_in[k] @ cos_in)
                osc = float(self._g_out[k] @ cos_out)
            else:
                near_osc = quad(
                    lambda t, k=k: 0.0 if t == 0.0 else (self.fs[k](t) - self.f_zero[k]) / t**2,
                    0.0,
                    self.SWITCH,
                    weight="cos",
                    wvar=a,
                    epsabs=1e-11,
                    epsrel=1e-10,
                    limit=400,
                )[0]
                osc = quad(
                    lambda t, k=k: self.fs[k](t) / t**2,
                    self.SWITCH,
                    self.CUT,
                    weight="cos",
                    wvar=a,
                    epsabs=1e-11,
                    epsrel=1e-10,
                    limit=4000,
                )[0]
            out[k] = self.f_zero[k] * closed + (self._near_flat[k] - near_osc) + (self._smooth[k] - osc)
        return self.s.l_coh * out


@lru_cache(maxsize=16)
def _near_tables(p: OpoParams, s: DerivedScales) -> _PlanePumpNearTables:
    return _PlanePumpNearTables(p, s)

def _vn_planepump_near(det: DetectorMask, p, s, phi_lo) -> tuple[float, float]:
    """(vn, shot) for a symmetric detector with a plane LO, plane pump."""
    tables = _near_tables(p, s)
    if det.shape in ("interval", "radial"):
        d = det.outer_extent()
        terms = [(2.0, 2.0 * d)]
        n_shot = 2.0 * d
    else:
        rho, w = det.center_distance, det.pixel_width
        if rho < w / 2.0:  # merged pixels: one centered interval
            d = rho + w / 2.0
            terms = [(2.0, 2.0 * d)]
            n_shot = 2.0 * d
        else:
            terms = [
                (4.0, w),
                (-4.0, 2.0 * rho),
                (2.0, 2.0 * rho + w),
                (2.0, abs(2.0 * rho - w)),
            ]
            n_shot = 2.0 * w
    total = np.zeros(3)
    for coef, a in terms:
        total += coef * tables.t_vector(a)
    b_combo = total[0] + math.cos(2 * phi_lo) * total[1] + math.sin(2 * phi_lo) * total[2]
    vn = 1.0 + (2.0 / (math.pi * n_shot)) * b_combo
    return vn, n_shot

def squeezing_planepump_near(
    det: DetectorMask,
    p: OpoParams,
    s: DerivedScales,
    phi_lo: float = SQUEEZED_PHASE,
) -> SqueezingResult:
    """Near-field noise of a symmetric detector with a plane LO, plane pump.

    The plane-pump response is diagonal in q, so the detector noise is a 1-D
    quadrature over the closed-form densities with the detector window; this
    covers detector sizes a dense grid cannot span, at any size from a small
    fraction of l_coh to the single-mode limit.
    """
    validate(p)
    if not p.plane_pump:
        raise ConfigurationError("closed-form near-field spectrum needs a plane pump")
    if det.plane != "near":
        raise PlaneMismatch("squeezing_planepump_near expects a near-plane detector")
    vn, n_shot = _vn_planepump_near(det, p, s, phi_lo)
    return _result(vn, n_shot, phi_lo, route="planepump_near")

def squeezing_planepump_far(
    det: DetectorMask,
    lo: LocalOscillator,
    p: OpoParams,
    s: DerivedScales,
    phi_lo: float | None = None,
) -> SqueezingResult:
    """Far-field noise of an interval or pixel-pair detector, plane pump (1-D).

    vn = integral_det |alpha(q)|^2 R(q) dq / integral_det |alpha(q)|^2 dq
    over the positive-q half of the symmetric detector.
    """
    validate(p)
    if not p.plane_pump:
        raise ConfigurationError("closed-form far-field spectrum needs a plane pump")
    if det.plane != "far":
        raise PlaneMismatch("squeezing_planepump_far expects a far-plane detector")
    phase = lo.phase if phi_lo is None else phi_lo
    q_lo, q_hi = det.bounds_on_axis(p)
    if q_hi <= q_lo:
        raise EmptyDetector("empty wavevector interval")
    if lo.profile == "plane":
        weight = lambda q: 1.0
    else:
        x_of_q = p.lambda_s * p.f_lens / (2.0 * math.pi)
        weight = lambda q: math.exp(-2.0 * (q * x_of_q / lo.waist) ** 2)
    breaks = _sinc_zero_points(q_lo, q_hi, s) or None
    num = quad(
        lambda q: weight(q) * float(noise_density_planepump(q, p, s, phase)),
        q_lo, q_hi, points=breaks, epsabs=1e-10, epsrel=1e-10, limit=300,
    )[0]
    den = quad(weight, q_lo, q_hi, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return _result(num / den, den, phase, route="planepump_far")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: both canonical quadratures at one detector setting."""

    value: float  # detector size / pixel distance, meters in its plane
    vn_squeezed: float  # phi_LO = pi/2
    vn_antisqueezed: float  # phi_LO = 0
    shot: float

def _mask_for(shape, value, pixel_width, plane):
    if shape in ("interval", "radial"):
        ctor = DetectorMask.interval if shape == "interval" else DetectorMask.radial
        return ctor(value, plane)
    return DetectorMask.pixel_pair(value, pixel_width, plane)

def _zero_size(shape, value) -> bool:
    # a zero-size interval or disk detects nothing: shot noise by definition
    return value <= 0 and shape in ("interval", "radial")

def sweep_extents(
    p: OpoParams,
    plane: str,
    detector_shape: str,
    values,
    lo: LocalOscillator,
    pixel_width: float | None = None,
) -> tuple[float, ...]:
    """Half extents a dense sweep grid must cover (m near, 1/m far).

    The outer reach of every non-empty detector of the sweep, and the spot
    of a Gaussian local oscillator; ``auto_grid`` takes them as
    ``extra_extents``.
    """
    extents = [
        _mask_for(detector_shape, v, pixel_width, plane).bounds_on_axis(p)[1]
        for v in values
        if not _zero_size(detector_shape, v)
    ]
    if lo.profile == "gaussian":
        extents.append(lo.waist if plane == "near" else lo.q_reach(p))
    return tuple(extents)

def sweep(
    p: OpoParams,
    s: DerivedScales,
    plane: str,
    detector_shape: str,
    values,
    lo: LocalOscillator,
    pixel_width: float | None = None,
    grid: Grid1D | None = None,
) -> list[SweepPoint]:
    """Deterministic noise curve over a family of detector settings.

    ``values`` are interval half widths / radii, or pixel center distances
    (with ``pixel_width``), in detection-plane meters.  Plane-pump scenarios
    run on the closed-form diagonal routes; a finite pump triggers one
    eigendecomposition (its modes serve every detector) on ``grid`` or on an
    automatically sized one.  Points are returned in the order given; each
    carries both canonical quadratures.
    """
    validate(p)
    values = [float(v) for v in values]
    if any(v < 0 for v in values):
        raise ConfigurationError("sweep values must be non-negative")
    if detector_shape == "pixel_pair" and (pixel_width is None or pixel_width <= 0):
        raise ConfigurationError("pixel_pair sweep needs a positive pixel_width")

    if p.plane_pump:
        return _sweep_planepump(p, s, plane, detector_shape, values, lo, pixel_width)

    if grid is None:
        extents = sweep_extents(p, plane, detector_shape, values, lo, pixel_width)
        grid = auto_grid(p, s, plane, extra_extents=extents)
    modes = solve_io(build_kernel_matrix(grid, p, s), p)
    mag = lo.magnitude(grid, p)
    out = []
    for value in values:
        if _zero_size(detector_shape, value):
            out.append(SweepPoint(value, 1.0, 1.0, 0.0))
            continue
        lvec = mag * _mask_for(detector_shape, value, pixel_width, plane).indicator(grid, p)
        n_shot, s_plus, anom = _noise_terms(modes, lvec, grid.step)
        out.append(
            SweepPoint(
                value=value,
                vn_squeezed=_vn_from_terms(n_shot, s_plus, anom, grid.step, SQUEEZED_PHASE),
                vn_antisqueezed=_vn_from_terms(n_shot, s_plus, anom, grid.step, 0.0),
                shot=n_shot,
            )
        )
    return out

def _sweep_planepump(p, s, plane, detector_shape, values, lo, pixel_width):
    if plane == "near" and lo.profile != "plane":
        raise ConfigurationError("plane-pump near-field sweeps support a plane LO only")
    out = []
    for value in values:
        if _zero_size(detector_shape, value):
            out.append(SweepPoint(value, 1.0, 1.0, 0.0))
            continue
        if plane == "near":
            det = _mask_for(detector_shape, value, pixel_width, "near")
            vn_sq, n_shot = _vn_planepump_near(det, p, s, SQUEEZED_PHASE)
            vn_anti, _ = _vn_planepump_near(det, p, s, 0.0)
        else:
            if detector_shape == "radial":
                res_sq = spectrum_planepump_circular(value, p, s, lo.waist, SQUEEZED_PHASE)
                res_anti = spectrum_planepump_circular(value, p, s, lo.waist, 0.0)
                vn_sq, vn_anti, n_shot = res_sq.vn, res_anti.vn, res_sq.shot
            else:
                det = _mask_for(detector_shape, value, pixel_width, "far")
                res_sq = squeezing_planepump_far(det, lo, p, s, SQUEEZED_PHASE)
                res_anti = squeezing_planepump_far(det, lo, p, s, 0.0)
                vn_sq, vn_anti, n_shot = res_sq.vn, res_anti.vn, res_sq.shot
        out.append(SweepPoint(value, float(vn_sq), float(vn_anti), float(n_shot)))
    return out
