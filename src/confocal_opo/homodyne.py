"""Balanced homodyne detection: noise spectra normalized to shot noise.

The difference photocurrent of a balanced homodyne detector measures the
quadrature selected by the local-oscillator phase, integrated over the
detector area.  Its noise spectrum normalized to shot noise is

    vn = V / N = 1 + S / N.

``squeezing(det, lo, p, s, modes=None)`` is the one entry point: it returns
vn of one detector at the quadrature ``lo.phase``.  ``sweep`` runs a family
of detectors through the same evaluators and takes both canonical
quadratures of each detector from one pass.  A detector is its band
inner <= |x| <= outer (``DetectorMask``), and every evaluator reads only
that band.  Each returns the shot noise N and vn at each requested phase,
and ``_route`` picks one:

* With the cavity modes of a dense solve (K = Q diag(lambda) Q^T, per-mode
  transform u, v; see ``iosolver``), ``_noise_terms`` contracts the
  detector over the modes, with vacuum input and the symmetrized even-field
  commutation rules.  For a symmetric detector and an even local oscillator
  only the even part of the output contributes beyond shot noise; the odd
  part stays in the vacuum.  With the LO-on-detector vector l (grid step w)
  and its mode coefficients c = q^T E^T l, with the m x m modes q of
  ``CavityModes`` and the fold E^T of ``Grid1D.fold``:

      N = w l^T l,
      vn = 1 + (2 w / N) [ sum_k c_k^2 |v_k|^2
                           + Re( e^{-2 i phi} sum_k c_k^2 u_k v_-k ) ],

  where v_- is the per-mode v at the opposite analysis frequency, a closed
  form at no extra cost.
* Without modes, a plane pump bypasses the dense solve: its response is
  diagonal in the transverse wavevector, with mode gain lambda =
  A_p sigma(q), so spectra reduce to 1-D quadratures over closed-form
  densities.  A near-plane detector combines the cached tables of
  ``_vn_planepump_near`` (plane LO only) over the window terms of its band.
  A far-plane detector runs the quadrature ``_vn_planepump_far`` over its
  band; a ``radial`` disk is the same quadrature with the polar weight t
  (route ``planepump_disk``).  It evaluates U and V_- once per node and
  forms R(phi) = |U + e^{2 i phi} conj(V_-)|^2 for each phase.
  These routes cover detector sizes far beyond what a dense grid can span,
  and are cross-checked against the dense route where the two overlap.
* A finite pump without modes is a ``ConfigurationError``.

The quadrature phi = pi/2 is the squeezed quadrature for this sign
convention; phi = 0 gives its anti-squeezed dual, and both are always
computable (their product is 1 per mode at resonance and zero frequency).

Both closed-form evaluators share one rule, ``_gauss_panels``: 16-point
Gauss-Legendre panels in t = q l_coh whose edges sit at the sinc zeros
t = 2 sqrt(k pi), split to a maximum width.  Against adaptive QUADPACK
references in the tests the near-field interval agrees to 5e-12 in vn at
A_p = 0.99, and the far-field interval and disk to 1e-15 relative, at
resonance and detuned.  The near-field window cos(a t) needs panels that
shrink with the detector size a, so one near-field point costs ~1 ms up to
a = 480 l_coh (cached panels) and grows linearly beyond, ~0.45 s at
a = 1e4 l_coh on a 2-core x86-64 host; the nodes are summed in fixed-size
chunks, so memory stays bounded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyDetector,
    GridTooCoarse,
    NumericalFailure,
    PlaneMismatch,
)
from .iosolver import CavityModes, analytic_uv_planepump, mode_uv, solve_io
from .kernels import Grid1D, auto_grid, build_kernel_matrix, phase_match_sinc, si
from .params import DerivedScales, OpoParams, validate

__all__ = [
    "DetectorMask",
    "LocalOscillator",
    "SqueezingResult",
    "SweepPoint",
    "squeezing",
    "sweep",
    "sweep_extents",
]

SQUEEZED_PHASE = math.pi / 2


def _real(value) -> bool:
    """Whether ``value`` is a real number (NaN included), before a range check
    compares it: None, a string or a complex number ends in ConfigurationError
    rather than a TypeError."""
    return isinstance(value, numbers.Real)


# ---------------------------------------------------------------------------
# Detection geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorMask:
    """Symmetric photodetection region: the band inner <= |x| <= outer.

    ``plane`` is "near" or "far"; the band is in detection-plane meters, and
    far-field positions map to transverse wavevectors through the imaging
    lens, q = 2 pi x / (lambda f).  Every route reads only the band and the
    shape.  ``interval`` is the band [0, half_width]; ``pixel_pair`` two
    pixels of width w centered at +-rho, inner = max(0, rho - w/2) (pixels
    closer than half a width merge into one centered interval); ``radial`` a
    disk, the band [0, radius]: on a 1-D grid the interval of the same half
    width, and in the far-field quadrature the same band with weight t.
    """

    shape: str
    plane: str
    inner: float
    outer: float

    def __post_init__(self):
        if self.shape not in ("interval", "pixel_pair", "radial"):
            raise ConfigurationError(f"unknown detector shape {self.shape!r}")
        if self.plane not in ("near", "far"):
            raise ConfigurationError(f"detector plane must be near or far, got {self.plane!r}")
        if not (_real(self.inner) and _real(self.outer)
                and 0 <= self.inner < self.outer < math.inf):
            raise ConfigurationError(
                f"detector band needs 0 <= inner < outer < inf, got "
                f"({self.inner!r}, {self.outer!r})"
            )

    @classmethod
    def interval(cls, half_width: float, plane: str = "near") -> "DetectorMask":
        if not (_real(half_width) and 0 < half_width < math.inf):
            raise ConfigurationError("interval half_width must be positive and finite")
        return cls("interval", plane, 0.0, half_width)

    @classmethod
    def pixel_pair(
        cls, center_distance: float, pixel_width: float, plane: str = "near"
    ) -> "DetectorMask":
        if not (_real(pixel_width) and 0 < pixel_width < math.inf):
            raise ConfigurationError("pixel_width must be positive and finite")
        if not (_real(center_distance) and 0 <= center_distance < math.inf):
            raise ConfigurationError("center_distance must be non-negative and finite")
        half = pixel_width / 2.0
        return cls("pixel_pair", plane, max(0.0, center_distance - half),
                   center_distance + half)

    @classmethod
    def radial(cls, radius: float, plane: str = "far") -> "DetectorMask":
        if not (_real(radius) and 0 < radius < math.inf):
            raise ConfigurationError("radius must be positive and finite")
        return cls("radial", plane, 0.0, radius)

    def bounds_on_axis(self, p: OpoParams) -> tuple[float, float]:
        """(inner, outer) bound of |coordinate| in grid units (m or 1/m)."""
        c = 2.0 * math.pi / (p.lambda_s * p.f_lens) if self.plane == "far" else 1.0
        return c * self.inner, c * self.outer

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
        if not (_real(self.amplitude) and 0 < self.amplitude < math.inf):
            raise ConfigurationError("LO amplitude must be positive and finite")
        if self.profile == "gaussian" and not (_real(self.waist) and 0 < self.waist < math.inf):
            raise ConfigurationError("gaussian LO needs a positive finite waist")
        if not (_real(self.phase) and math.isfinite(self.phase)):
            raise ConfigurationError(f"LO phase must be finite and real, got {self.phase!r}")

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
    ordered part.  ``shot`` is the detected LO photon number, the LO measure
    of the detector band (for the closed-form disk, the far quadrature with
    weight t: the LO-weighted disk measure in the scaled radius r / r0).
    ``quadrature`` is the LO phase, and ``meta["route"]`` names the route
    that computed the result.
    """

    vn: float
    sn: float
    shot: float
    quadrature: float
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Dense-grid route
# ---------------------------------------------------------------------------

def _noise_weights(lam, detuning: float, omega_bar: float):
    """Per-mode noise weights (|v|^2, u v_-) of a mode of gain ``lam``.

    v_- is v at the opposite analysis frequency; the dense contraction and
    the plane-pump near tables both weigh their modes with these.
    """
    u, v = mode_uv(lam, detuning, omega_bar)
    _, v_neg = mode_uv(lam, detuning, -omega_bar)
    return np.abs(v) ** 2, u * v_neg

def _vn(n_shot, s_plus, anom, w, phase) -> float:
    # vn(phi) = 1 + (2 w / N) (s_plus + Re(e^{-2 i phi} anom)), w the measure
    return float(1.0 + (2.0 * w / n_shot) * (s_plus + (np.exp(-2j * phase) * anom).real))

def _noise_terms(modes: CavityModes, det: DetectorMask, lo: LocalOscillator,
                 p: OpoParams, phases):
    """(N, [vn at each phase]) of one detector from the cavity modes.

    lvec is the LO magnitude on the detector cells, c = q^T fold(lvec) its
    even part in the mode basis, s_plus = sum c^2 |v|^2 and
    anom = sum c^2 u v_-.
    """
    grid = modes.grid
    lvec = lo.magnitude(grid, p) * det.indicator(grid, p)
    normal, anomalous = _noise_weights(modes.lam, *modes.at)
    c2 = (modes.q.T @ grid.fold(lvec)) ** 2
    w = grid.step
    n_shot = w * float(lvec @ lvec)
    s_plus, anom = float(c2 @ normal), complex(c2 @ anomalous)
    return n_shot, [_vn(n_shot, s_plus, anom, w, phase) for phase in phases]


# ---------------------------------------------------------------------------
# Plane-pump closed-form routes
# ---------------------------------------------------------------------------

def _densities(q, p: OpoParams, s: DerivedScales, phases):
    # spatial noise density R(phi) = |U + e^{2 i phi} conj(V_-)|^2 at each
    # phase, from one evaluation of U and V_- at q
    u, _ = analytic_uv_planepump(q, p, s)
    _, v_neg = analytic_uv_planepump(q, p, s, omega_bar=-p.omega_bar)
    v_bar = np.conj(v_neg)
    return [np.abs(u + np.exp(2j * phase) * v_bar) ** 2 for phase in phases]

#: 16-point Gauss-Legendre rule on [-1, 1], mapped onto every panel
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
#: sinc-zero intervals, or panels, handled at once: bounds every node array
_CHUNK = 4096
#: widest panel in t = q l_coh: ~1.2 periods of cos(a t) at a = 30
_PANEL_WIDTH = 0.25
#: q-space measure dq / pi of the near-field sums, the counterpart of the
#: grid step in ``_noise_terms``
_Q_MEASURE = 1.0 / math.pi


def _gauss_panels(t_lo: float, t_hi: float, max_width: float):
    """16-point Gauss-Legendre nodes and weights on [t_lo, t_hi], in chunks.

    t = q l_coh is the scaled wavevector.  Panel edges sit at the zeros
    t = 2 sqrt(k pi) of the phase-matching sinc sigma = sinc(t^2 / 4), and
    every interval between them is split evenly into panels at most
    ``max_width`` wide.  Yields (t, w) arrays of at most ``_CHUNK`` panels,
    so memory stays bounded however long the span.
    """
    k = math.floor(t_lo**2 / (4.0 * math.pi)) + 1  # first sinc zero above t_lo
    while True:
        zeros = 2.0 * np.sqrt(math.pi * np.arange(k, k + _CHUNK))
        last = zeros[-1] >= t_hi
        inside = zeros[(zeros > t_lo) & (zeros < t_hi)]
        edges = np.concatenate([[t_lo], inside, [t_hi] if last else []])
        spans = np.diff(edges)
        pieces = np.ceil(spans / max_width).astype(int)
        ends = np.cumsum(pieces)
        halves = spans / (2.0 * np.maximum(pieces, 1))
        for first in range(0, ends[-1], _CHUNK):
            panel = np.arange(first, min(first + _CHUNK, ends[-1]))
            i = np.searchsorted(ends, panel, side="right")
            half = halves[i]
            mid = edges[i] + (2 * (panel - ends[i] + pieces[i]) + 1) * half
            yield ((mid[:, None] + half[:, None] * _GAUSS_NODES).ravel(),
                   (half[:, None] * _GAUSS_WEIGHTS).ravel())
        if last:
            return
        t_lo, k = edges[-1], k + _CHUNK

def _lo_panel_width(c: float) -> float:
    # a Gaussian LO weight exp(-c t^2) also needs panels no wider than its
    # 1/e half width, or a narrow spot falls between the nodes
    return _PANEL_WIDTH if c == 0.0 else min(_PANEL_WIDTH, 1.0 / math.sqrt(c))

def _vn_planepump_far(det: DetectorMask, lo: LocalOscillator, p: OpoParams,
                      s: DerivedScales, phases):
    """(N, [vn at each phase]) of a far-field detector, plane pump.

    vn = integral |alpha|^2 R rho dt / integral |alpha|^2 rho dt over the
    positive half of the detector band in t = q l_coh, both on the Gauss
    panels of ``_gauss_panels``.  rho = 1 for an interval or pixel pair (1-D);
    a ``radial`` disk is the same quadrature in polar form, rho = t, on
    [0, 2 r / r0].  N is the LO measure of the band: den / l_coh in q, and
    for the disk den / 4 in the scaled radius u = r / r0 = t / 2.
    """
    q_lo, q_hi = det.bounds_on_axis(p)
    if q_hi <= q_lo:
        raise EmptyDetector("empty wavevector interval")
    # |alpha|^2 of a Gaussian LO is exp(-2 (x / waist)^2) at x = q lambda f / (2 pi),
    # exp(-c t^2) in t = q l_coh
    x_of_q = p.lambda_s * p.f_lens / (2.0 * math.pi)
    c = 0.0 if lo.profile == "plane" else 2.0 * (x_of_q / (lo.waist * s.l_coh)) ** 2
    disk = det.shape == "radial"
    num = [0.0] * len(phases)
    den = 0.0
    for t, w in _gauss_panels(q_lo * s.l_coh, q_hi * s.l_coh, _lo_panel_width(c)):
        weight = np.exp(-c * t * t) * w
        if disk:
            weight = t * weight
        for k, density in enumerate(_densities(t / s.l_coh, p, s, phases)):
            num[k] += float(weight @ density)
        den += float(weight.sum())
    return den / 4.0 if disk else den / s.l_coh, [x / den for x in num]


class _PlanePumpNearTables:
    """Cached q-space integrals behind the plane-pump near-field spectra.

    Every symmetric detector with a plane LO has a window |W(q)|^2 that is a
    combination of (1 - cos(a q)) / q^2 terms, so the normally ordered noise
    reduces to T_k(a) = integral_0^inf (1 - cos(a q)) f_k(q) / q^2 dq over
    the three density components f1 = |V|^2, f2 = Re(U V_-), f3 = Im(U V_-).
    In the scaled variables t = q l_coh and a / l_coh, with f0 = f(0)
    subtracted below t = SWITCH = 1, each is one formula,

        T_k(a) = f0_k (a Si(a) - 1 + cos a) + sum (1 - cos(a t)) g_k(t) w,

    with g_k = (f_k - f0_k) / t^2 below SWITCH and f_k / t^2 above, summed on
    the Gauss panels of ``_gauss_panels`` up to t = CUT.  The panel width
    halves per level L = max(0, ceil(log2(a / PANEL_A))), so no panel holds
    more than ~1.2 periods of cos(a t).  The (t, g w) chunks of a level are
    built once and kept up to level CACHED_LEVEL; beyond it they are built
    chunk by chunk on every call, so memory stays bounded for any a.
    """

    #: end of the subtracted small-t piece (l_coh units)
    SWITCH = 1.0
    #: truncation of the t integrals; |sinc| < (2/CUT)^2 = 4e-4 beyond
    CUT = 100.0
    #: largest a / l_coh served by level 0 (panels 0.125 wide below SWITCH,
    #: 0.25 above)
    PANEL_A = 30.0
    #: highest level whose chunks are kept, a / l_coh <= 480 (~7 MB for
    #: levels 0 to 4 together)
    CACHED_LEVEL = 4

    def __init__(self, p: OpoParams, s: DerivedScales):
        self.p, self.s = p, s
        self.f_zero = self._components(np.zeros(1))[:, 0]
        self._levels = {}

    def _components(self, t):
        # (f1, f2, f3) at scaled wavevectors t = q l_coh: the per-mode noise
        # weights at the plane-pump mode gain A_p sigma(q)
        p, s = self.p, self.s
        lam = p.A_p * phase_match_sinc(t / s.l_coh, s)
        normal, anomalous = _noise_weights(lam, p.detuning, p.omega_bar)
        return np.stack([normal, anomalous.real, anomalous.imag])

    def _weighted_panels(self, level: int):
        scale = 0.5**level
        for t, w in _gauss_panels(0.0, self.SWITCH, 0.5 * _PANEL_WIDTH * scale):
            yield t, (self._components(t) - self.f_zero[:, None]) / t**2 * w
        for t, w in _gauss_panels(self.SWITCH, self.CUT, _PANEL_WIDTH * scale):
            yield t, self._components(t) / t**2 * w

    def t_vector(self, a_phys: float) -> np.ndarray:
        """T_k(a) (physical units, meters in a) for the three components."""
        if a_phys <= 0:
            return np.zeros(3)
        a = a_phys / self.s.l_coh  # scaled conjugate variable
        level = max(0, math.ceil(math.log2(a / self.PANEL_A)))
        chunks = self._levels.get(level)
        if chunks is None:
            chunks = self._weighted_panels(level)
            if level <= self.CACHED_LEVEL:
                chunks = self._levels[level] = list(chunks)
        x = a * self.SWITCH
        out = self.f_zero * (a * si(x) - (1.0 - math.cos(x)) / self.SWITCH)
        for t, gw in chunks:
            out = out + gw @ (1.0 - np.cos(a * t))
        return self.s.l_coh * out


@lru_cache(maxsize=16)
def _near_tables(p: OpoParams, s: DerivedScales) -> _PlanePumpNearTables:
    return _PlanePumpNearTables(p, s)

def _vn_planepump_near(det: DetectorMask, lo: LocalOscillator, p: OpoParams,
                       s: DerivedScales, phases):
    """(N, [vn at each phase]) of a symmetric near-field detector, plane pump.

    The near-field counterpart of ``_noise_terms``: the detector window of a
    plane LO combines the tables' T_k into s_plus = T_1 and
    anom = T_2 + i T_3, taken with the measure ``_Q_MEASURE``.  This covers
    detector sizes a dense grid cannot span, from a small fraction of l_coh
    to the single-mode limit.
    """
    if lo.profile != "plane":
        raise ConfigurationError("plane-pump near-field spectra support a plane LO only")
    inner, outer = det.inner, det.outer
    # |W(q)|^2 of the band as (coef, a) terms of (1 - cos(a q)) / q^2
    terms = [(2.0, 2.0 * outer)]
    if inner > 0:
        terms = [(4.0, outer - inner), (-4.0, outer + inner), *terms,
                 (2.0, 2.0 * inner)]
    tables = _near_tables(p, s)
    n_shot = 2.0 * (outer - inner)
    total = np.zeros(3)
    for coef, a in terms:
        total += coef * tables.t_vector(a)
    anom = complex(total[1], total[2])
    return n_shot, [_vn(n_shot, total[0], anom, _Q_MEASURE, phase) for phase in phases]


# ---------------------------------------------------------------------------
# The one path from a detector to its noise
# ---------------------------------------------------------------------------

def _route(det: DetectorMask, lo: LocalOscillator, p: OpoParams, s: DerivedScales,
           modes: CavityModes | None, phases):
    """(route name, N, [vn at each phase]) of one detector.

    Raises ``NumericalFailure`` when N or any vn is not finite, as when an
    input near the float range (an LO amplitude, an analysis frequency)
    overflows inside the route.
    """
    if modes is not None:
        route, (shot, vns) = "dense", _noise_terms(modes, det, lo, p, phases)
    elif not p.plane_pump:
        raise ConfigurationError("a finite pump needs the cavity modes of a dense solve")
    elif det.plane == "near":
        route, (shot, vns) = "planepump_near", _vn_planepump_near(det, lo, p, s, phases)
    else:
        route = "planepump_disk" if det.shape == "radial" else "planepump_far"
        shot, vns = _vn_planepump_far(det, lo, p, s, phases)
    if not all(math.isfinite(x) for x in (shot, *vns)):
        raise NumericalFailure(
            f"route {route} gave a non-finite result (N = {shot:g}, vn = "
            f"{', '.join(f'{vn:g}' for vn in vns)}) for the {det.shape} band "
            f"[{det.inner:g}, {det.outer:g}]"
        )
    return route, shot, vns

def squeezing(
    det: DetectorMask,
    lo: LocalOscillator,
    p: OpoParams,
    s: DerivedScales,
    modes: CavityModes | None = None,
) -> SqueezingResult:
    """Noise spectrum of one detector at the LO phase ``lo.phase``.

    With ``modes``, the ``CavityModes`` of a dense solve, the detector is
    contracted over the modes (first principles, any pump).  Without them a
    plane pump runs on its closed-form routes: the near-field tables (plane
    LO only), the far-field disk for a ``radial`` far detector, and the
    far-field interval or pixel pair otherwise.  A finite pump without
    modes raises ``ConfigurationError``.
    """
    validate(p)
    route, shot, (vn,) = _route(det, lo, p, s, modes, (lo.phase,))
    return SqueezingResult(vn=vn, sn=vn - 1.0, shot=shot, quadrature=lo.phase,
                           meta={"route": route})


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
    if shape == "pixel_pair":
        return DetectorMask.pixel_pair(value, pixel_width, plane)
    if shape not in ("interval", "radial"):
        raise ConfigurationError(f"unknown detector shape {shape!r}")
    return getattr(DetectorMask, shape)(value, plane)

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
    automatically sized one.  Every point then goes through the evaluator
    ``squeezing`` uses, once for both canonical quadratures; a zero-size
    interval or disk reads shot noise.  Points are returned in the order
    given.
    """
    validate(p)
    values = [float(v) for v in values]
    if any(v < 0 for v in values):
        raise ConfigurationError("sweep values must be non-negative")

    modes = None
    if not p.plane_pump:
        if grid is None:
            extents = sweep_extents(p, plane, detector_shape, values, lo, pixel_width)
            grid = auto_grid(p, s, plane, extra_extents=extents)
        modes = solve_io(build_kernel_matrix(grid, p, s), p)
    out = []
    for value in values:
        if _zero_size(detector_shape, value):
            out.append(SweepPoint(value, 1.0, 1.0, 0.0))
            continue
        det = _mask_for(detector_shape, value, pixel_width, plane)
        _, shot, (vn_sq, vn_anti) = _route(det, lo, p, s, modes, (SQUEEZED_PHASE, 0.0))
        out.append(SweepPoint(value, vn_sq, vn_anti, shot))
    return out
