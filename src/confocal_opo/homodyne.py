"""Balanced homodyne detection: noise spectra normalized to shot noise.

The difference photocurrent of a balanced homodyne detector measures the
quadrature selected by the local-oscillator phase, integrated over the
detector area.  Its noise spectrum normalized to shot noise is

    vn = V / N = 1 + S / N.

``squeezing(det, lo, p, modes=None)`` is the one entry point: it returns
vn of one detector in both canonical quadratures, the squeezed phi = pi/2
and the anti-squeezed phi = 0, from one pass (``SqueezingResult``).
``sweep`` runs a family of detectors through it.  A detector is its band
inner <= |x| <= outer (``DetectorMask``), and every evaluator reads only
that band.  Each returns the shot noise N and vn at both phases, and
``squeezing`` picks one and records its name:

* With the cavity modes of a dense solve (K = Q diag(lambda) Q^T, per-mode
  transform u, v; see ``iosolver``), ``_noise_terms`` contracts the
  detector over the modes, with vacuum input and the symmetrized even-field
  commutation rules.  For a symmetric detector and an even local oscillator
  only the even part of the output contributes beyond shot noise; the odd
  part stays in the vacuum.  With the LO-on-detector vector l (grid step w)
  and its mode coefficients c = q^T E^T l, with the m x m far-grid modes q
  of ``CavityModes`` and the fold E^T of ``Grid1D.fold`` (a near l first
  goes to the far grid, l -> W l, by one FFT):

      N = w l^T l,
      vn = 1 + (w / N) sum_k c_k^2 (R_phi(lambda_k) - 1),
      R_phi = |u + e^{2 i phi} conj(v_-)|^2,

  where v_- is the per-mode v at the opposite analysis frequency, a closed
  form at no extra cost.  Every route takes R_phi - 1 from ``_mode_noise``.
* Without modes, a plane pump bypasses the dense solve: its response is
  diagonal in the transverse wavevector, with mode gain lambda =
  A_p sigma(q), so vn is one window-weighted sum over q of the same
  R_phi - 1, taken on the chunks of ``_panel_noise``.  A near-plane
  detector (``_vn_planepump_near``, plane LO only) weighs it by the window
  of its band [a, b], |W(t)|^2 = 4 (sin(b t) - sin(a t))^2 / t^2; a
  far-plane detector (``_vn_planepump_far``) by the LO intensity on its
  band, and a ``radial`` disk also by the polar weight t (route
  ``planepump_disk``).  Both raise ``AtOrAboveThreshold`` when the
  strongest mode, gain A_p at q = 0, is at threshold within rounding.
  These routes cover detector sizes far beyond what a dense grid can span,
  and are cross-checked against the dense route where the two overlap.
* A finite pump without modes is a ``ConfigurationError``.

The squeezed quadrature is phi = pi/2 in this sign convention and phi = 0
its anti-squeezed dual (product 1 per mode at resonance and zero
frequency); every route takes the two in the order of ``_PHASES``.

Both closed-form evaluators sum on one node set: 16-point Gauss-Legendre
panels in t = q l_coh whose edges sit at the sinc zeros t = 2 sqrt(k pi),
split to a maximum width (``_gauss_panels``).  Against adaptive QUADPACK
references in the tests the near-field interval agrees to 5e-12 in vn at
A_p = 0.99 and to 1e-12 up to A_p = 1 - 1e-10, and the far-field interval
and disk to 1e-15 relative, at resonance and detuned.  The near-field
window oscillates with period 2 pi / b, so its panels halve in width per
doubling of 2b past 30 l_coh: one near-field point costs 0.3 ms at
2b = 30 l_coh and 2 ms at 480 (cached panels), and grows linearly beyond,
0.03 s at 2b = 1e3 l_coh and 0.2 s at 1e4 on a 2-core x86-64 host; the
nodes are summed in fixed-size chunks, so memory stays bounded.  Each chunk
is summed with einsum, not a BLAS dot: OpenBLAS threads a dot past 10,000
entries, which cost a wide far-field sweep twice the CPU time on that host,
and up to 4x the wall time while the second core was busy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (
    AtOrAboveThreshold,
    ConfigurationError,
    EmptyDetector,
    GridTooCoarse,
    NumericalFailure,
    PlaneMismatch,
)
from .iosolver import CavityModes, solve_io
from .kernels import _EXTENT_FACTOR, Grid1D, auto_grid, phase_match_sinc
from .params import OpoParams, _real

__all__ = [
    "DetectorMask",
    "LocalOscillator",
    "SqueezingResult",
    "squeezing",
    "sweep",
    "sweep_extents",
]

_PHASES = (math.pi / 2, 0.0)  # the squeezed quadrature, then its dual
_DISK_ONLY = ("a radial detector is a 2-D disk, computed only for a plane pump in the "
              "far field; the dense modes and the near field are 1-D")


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
    far-field disk, the band [0, radius] with the polar weight t.  Only the
    plane-pump far-field quadrature computes a disk: a near ``radial`` is
    refused here, and a ``radial`` on the 1-D dense modes by ``squeezing``
    and ``sweep``.
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
        if self.shape == "radial" and self.plane == "near":
            raise ConfigurationError(_DISK_ONLY)
        if not (_real(self.inner) and _real(self.outer)
                and 0 <= self.inner < self.outer < math.inf):
            got = tuple(float(x) if isinstance(x, np.floating) else x
                        for x in (self.inner, self.outer))
            raise ConfigurationError(f"detector band needs 0 <= inner < outer < inf, got {got}")

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

    The amplitude is exp(-x^2 / waist^2) with the waist in detection-plane
    meters for either plane (far-field positions map to wavevectors through
    the lens, x = q lambda f / (2 pi); a detection-plane waist of r0
    corresponds to a pre-lens beam waist of l_coh).  The default waist,
    ``math.inf``, is the plane LO of uniform amplitude.
    """

    amplitude: float = 1.0
    waist: float = math.inf

    def __post_init__(self):
        if not (_real(self.amplitude) and 0 < self.amplitude < math.inf):
            raise ConfigurationError("LO amplitude must be positive and finite")
        if not (_real(self.waist) and self.waist > 0):
            raise ConfigurationError(f"LO waist must be positive or inf, got {self.waist!r}")

    def magnitude(self, grid: Grid1D, p: OpoParams) -> np.ndarray:
        """|alpha| on the grid."""
        x = grid.points
        if grid.domain == "far":
            x = x * p.lambda_s * p.f_lens / (2.0 * math.pi)
        return self.amplitude * np.exp(-(x / self.waist) ** 2)

    def q_reach(self, p: OpoParams) -> float:
        """Wavevector extent of the far-plane spot (grid sizing)."""
        return 2.0 * math.pi * self.waist / (p.lambda_s * p.f_lens)


@dataclass(frozen=True)
class SqueezingResult:
    """Noise spectrum of one detector in both quadratures, in shot-noise units.

    vn = 1 means shot noise; vn < 1 squeezing.  ``vn_squeezed`` is the LO
    phase pi/2, ``vn_antisqueezed`` its dual 0.  ``shot`` is the detected LO
    photon number, the LO measure of the detector band (for the closed-form
    disk, the far quadrature with weight t: the LO-weighted disk measure in
    the scaled radius r / r0).  ``route`` names the route that computed the
    result: "dense", "planepump_near", "planepump_far", "planepump_disk", or
    "empty" for a zero-size ``sweep`` point, which reads shot noise.
    """

    vn_squeezed: float
    vn_antisqueezed: float
    shot: float
    route: str


# ---------------------------------------------------------------------------
# Dense-grid route
# ---------------------------------------------------------------------------

def _mode_noise(lam, phase: float, detuning: float, omega_bar: float):
    """R_phi(lam) - 1, R = |u + z conj(v_-)|^2 with z = e^{2 i phi}, of a mode
    of gain ``lam`` (v_- is v at -omega_bar; u, v of ``iosolver.mode_uv``).  As
    v_- has the denominator conj(D), u + z conj(v_-) is

        ((lam + z)^2 + conj(a) abar - z^2) / D,  D = (1 - lam)(1 + lam) + (a abar - 1),

    where no term cancels as lam -> 1: R - 1 keeps its absolute accuracy up
    to threshold.
    """
    alpha, beta = detuning + omega_bar, omega_bar - detuning
    z = np.exp(2j * phase)
    den = (1.0 - lam) * (1.0 + lam) + complex(-alpha * beta, alpha + beta)
    num = (lam + z) ** 2 + (complex(1.0 + alpha * beta, beta - alpha) - z * z)
    return np.abs(num / den) ** 2 - 1.0

def _check_lit(n_shot: float, det: DetectorMask) -> None:
    # a Gaussian LO spot that ends long before the band leaves no N to normalize by
    if n_shot == 0.0:
        raise EmptyDetector(f"no LO light reaches the {det.shape} band "
                            f"[{det.inner:g}, {det.outer:g}]")

def _conjugate_image(grid: Grid1D, vec: np.ndarray) -> np.ndarray:
    """W vec, real and even, of an even real vector on ``grid`` under the
    unitary DFT W_jk = exp(-i q_j x_k) / sqrt(n) onto the conjugate grid.

    On midpoint grids q_j x_k = n pi/2 - pi (j + k + 1) + 2 pi (j + 1/2)(k + 1/2) / n,
    so W = c D F D with the plain DFT F, D = diag((-1)^k e^{-i pi k / n}) and
    c = e^{-i pi (n/2 - 1 + 1/(2n))} / sqrt(n), its whole turns taken exactly.
    """
    n = grid.n
    d = np.exp(-1j * np.pi * np.arange(n) / n)
    d[1::2] *= -1.0
    c = -((-1j) ** (n % 4)) * np.exp(-0.5j * np.pi / n) / math.sqrt(n)
    return (c * d * np.fft.fft(d * vec)).real

def _noise_terms(modes: CavityModes, det: DetectorMask, lo: LocalOscillator, p: OpoParams):
    """(N, [vn at both phases]) of one detector from the cavity modes: lvec is
    the LO magnitude on the detector cells, on a near grid carried to the far
    grid of the modes by ``_conjugate_image``; c = q^T fold(lvec) is its even
    part in the mode basis, vn = 1 + (w / N) sum_k c_k^2 (R_phi(lam_k) - 1)."""
    grid = modes.grid
    lvec = lo.magnitude(grid, p) * det.indicator(grid, p)
    far = lvec if grid.domain == "far" else _conjugate_image(grid, lvec)
    c2 = (modes.q.T @ grid.fold(far)) ** 2
    w = grid.step
    n_shot = w * float(lvec @ lvec)
    _check_lit(n_shot, det)
    at = (modes.p.detuning, modes.p.omega_bar)
    return n_shot, [1.0 + (w / n_shot) * float(c2 @ _mode_noise(modes.lam, phase, *at))
                    for phase in _PHASES]


# ---------------------------------------------------------------------------
# Plane-pump closed-form routes
# ---------------------------------------------------------------------------

def _check_threshold(p: OpoParams) -> None:
    """Refuse a plane pump whose strongest mode, q = 0 with gain A_p, sits
    at threshold within rounding, |a abar - A_p^2| <= 1e-14."""
    a_abar = (1.0 + 1j * (p.detuning + p.omega_bar)) * (1.0 + 1j * (p.omega_bar - p.detuning))
    if np.abs(a_abar - p.A_p**2) <= 1e-14:
        raise AtOrAboveThreshold("plane-pump response diverges: a*abar = (A_p sigma)^2")

#: 16-point Gauss-Legendre rule on [-1, 1], mapped onto every panel
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
#: sinc-zero intervals, or panels, handled at once: bounds every node array
_CHUNK = 4096
#: widest panel in t = q l_coh: ~1.2 periods of the near window at 2b = 30
_PANEL_WIDTH = 0.25
#: truncation of the near-field t integral; |sinc| < (2/CUT)^2 = 4e-4 beyond
_NEAR_CUT = 100.0
#: largest 2b (b the outer band edge in l_coh) served by near level 0
_NEAR_PANEL_A = 30.0
#: highest near level whose chunks are cached, 2b <= 480 l_coh; level 4
#: holds 2.7 MB (t and two phases), so the 32 cached levels stay under 90 MB
_NEAR_CACHED_LEVEL = 4
#: most Gauss panels one quadrature may take (one point at the limit takes
#: ~6 s on a 2-core x86-64 host); a band or a Gaussian-LO spot that needs
#: more, up to one near the float range that would never finish, is refused
_MAX_PANELS = 2**22


def _gauss_panels(t_lo: float, t_hi: float, max_width: float):
    """16-point Gauss-Legendre nodes and weights on [t_lo, t_hi], in chunks.

    t = q l_coh is the scaled wavevector.  Panel edges sit at the zeros
    t = 2 sqrt(k pi) of the phase-matching sinc sigma = sinc(t^2 / 4), and
    every interval between them is split evenly into panels at most
    ``max_width`` wide.  Yields (t, w) arrays of at most ``_CHUNK`` panels,
    so memory stays bounded however long the span.  Raises
    ``NumericalFailure`` past ``_MAX_PANELS`` panels.
    """
    sinc_zeros = (t_hi * t_hi - t_lo * t_lo) / (4.0 * math.pi)
    if not (max_width > 0 and sinc_zeros + (t_hi - t_lo) / max_width <= _MAX_PANELS):
        raise NumericalFailure(
            f"t = q l_coh in [{t_lo:.3g}, {t_hi:.3g}] at panel width {max_width:.3g} "
            f"needs more than {_MAX_PANELS} Gauss panels")
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

def _panel_noise(p: OpoParams, t_lo: float, t_hi: float, width: float):
    """(t, w, [R_phi - 1 at both phases]) chunks on the panels of
    ``_gauss_panels``, at the plane-pump mode gain A_p sigma: one gain
    evaluation per chunk, shared by every phase."""
    for t, w in _gauss_panels(t_lo, t_hi, width):
        lam = p.A_p * phase_match_sinc(t / p.l_coh, p)
        yield t, w, [_mode_noise(lam, phase, p.detuning, p.omega_bar) for phase in _PHASES]

def _lo_panel_width(c: float) -> float:
    # a Gaussian LO weight exp(-c t^2) also needs panels no wider than its
    # 1/e half width, or a narrow spot falls between the nodes
    return _PANEL_WIDTH if c == 0.0 else min(_PANEL_WIDTH, 1.0 / math.sqrt(c))

def _vn_planepump_far(det: DetectorMask, lo: LocalOscillator, p: OpoParams):
    """(N, [vn at both phases]) of a far-field detector, plane pump.

    vn = 1 + integral |alpha|^2 (R - 1) rho dt / integral |alpha|^2 rho dt
    over the positive half of the detector band in t = q l_coh, both on the
    chunks of ``_panel_noise``.  rho = 1 for an interval or pixel pair (1-D);
    a ``radial`` disk is the same quadrature in polar form, rho = t, on
    [0, 2 r / r0].  N at unit LO amplitude is the measure of the band: 2 den /
    l_coh in q, both halves, and for the disk den / 4 in u = r / r0 = t / 2.
    """
    q_lo, q_hi = det.bounds_on_axis(p)
    if q_hi <= q_lo:
        raise EmptyDetector("empty wavevector interval")
    # |alpha|^2 is exp(-2 (x / waist)^2) at x = q lambda f / (2 pi), exp(-c t^2)
    # in t = q l_coh; c = 0 for a plane LO
    x_of_q = p.lambda_s * p.f_lens / (2.0 * math.pi)
    c = math.inf  # a spot too narrow to square, refused by the panel limit
    with contextlib.suppress(OverflowError):
        c = 2.0 * (x_of_q / (lo.waist * p.l_coh)) ** 2
    disk = det.shape == "radial"
    num = [0.0] * len(_PHASES)
    den = 0.0
    for t, w, noise in _panel_noise(p, q_lo * p.l_coh, q_hi * p.l_coh, _lo_panel_width(c)):
        weight = np.exp(-c * t * t) * w
        if disk:
            weight = t * weight
        num = [x + float(np.einsum("i,i", weight, f)) for x, f in zip(num, noise)]
        den += float(weight.sum())
    _check_lit(den, det)
    return den / 4.0 if disk else 2.0 * den / p.l_coh, [1.0 + x / den for x in num]


def _near_chunks(p: OpoParams, level: int):
    # (t, [4 w (R - 1) / t^2 at both phases]) on panels 0.125 wide below t = 1,
    # where the anti-squeezed R - 1 peaks sharply near threshold, and 0.25
    # above, both halved per level
    width = _PANEL_WIDTH * 0.5**level
    for t_lo, t_hi, max_width in ((0.0, 1.0, 0.5 * width), (1.0, _NEAR_CUT, width)):
        for t, w, noise in _panel_noise(p, t_lo, t_hi, max_width):
            yield t, [4.0 * w * f / t**2 for f in noise]

@lru_cache(maxsize=32)
def _cached_near_chunks(p: OpoParams, level: int) -> list:
    return list(_near_chunks(p, level))

def _vn_planepump_near(det: DetectorMask, lo: LocalOscillator, p: OpoParams):
    """(N, [vn at both phases]) of a symmetric near-field detector, plane pump.

    The near-field counterpart of ``_noise_terms``: the band [a, b] (l_coh
    units) of a plane LO has the window |W(t)|^2 = 4 (sin(b t) - sin(a t))^2
    / t^2 and the measure N = 2 (b - a), and

        vn = 1 + integral_0^CUT |W(t)|^2 (R_phi - 1) dt / (pi N),

    CUT = ``_NEAR_CUT``, summed on the chunks of ``_near_chunks``.  Their
    width halves per level L = max(0, ceil(log2(2b / ``_NEAR_PANEL_A``))),
    so no panel holds more than ~1.2 periods of the window; the chunks of a
    level are cached up to ``_NEAR_CACHED_LEVEL`` and built on every call
    beyond it, so memory stays bounded for any b.  This covers detector
    sizes a dense grid cannot span, from a small fraction of l_coh to the
    single-mode limit.
    """
    if lo.waist != math.inf:
        raise ConfigurationError("plane-pump near-field spectra support a plane LO only")
    a, b = det.inner / p.l_coh, det.outer / p.l_coh
    # capped, so a band past the float range reaches the panel limit, not an overflow
    level = max(0, math.ceil(math.log2(min(2.0 * b / _NEAR_PANEL_A, 2.0**64))))
    chunks = (_cached_near_chunks(p, level) if level <= _NEAR_CACHED_LEVEL
              else _near_chunks(p, level))
    total = [0.0] * len(_PHASES)
    for t, gs in chunks:
        window = (np.sin(b * t) - np.sin(a * t) if a > 0 else np.sin(b * t)) ** 2
        total = [x + float(np.einsum("i,i", g, window)) for x, g in zip(total, gs)]
    return 2.0 * (det.outer - det.inner), [1.0 + x / (2.0 * math.pi * (b - a)) for x in total]


# ---------------------------------------------------------------------------
# The one path from a detector to its noise
# ---------------------------------------------------------------------------

def squeezing(det: DetectorMask, lo: LocalOscillator, p: OpoParams,
              modes: CavityModes | None = None) -> SqueezingResult:
    """Noise spectrum of one detector in both canonical quadratures.

    With ``modes``, the ``CavityModes`` of a dense solve for ``p`` itself,
    the detector is contracted over the modes (first principles, any pump).
    Without them a plane pump runs on its closed-form routes: the near-field
    window sum (plane LO only), the far-field disk for a ``radial`` far
    detector, and the far-field interval or pixel pair otherwise.  Modes
    solved for another configuration, a ``radial`` detector on the modes, and
    a finite pump without them raise ``ConfigurationError``.  Raises
    ``NumericalFailure`` when N or either vn is not finite, as when an input
    near the float range (an LO amplitude, an analysis frequency) overflows
    inside the route.
    """
    if modes is not None and det.shape == "radial":
        raise ConfigurationError(_DISK_ONLY)
    if modes is not None and modes.p != p:
        name = next(f.name for f in fields(p) if getattr(p, f.name) != getattr(modes.p, f.name))
        was, got = (float(getattr(q, name)) for q in (modes.p, p))
        raise ConfigurationError(f"the modes were solved for {name} = {was!r}, not {got!r}")
    # the check below reports an overflow, so numpy does not warn of it too
    with np.errstate(all="ignore"):
        if modes is not None:
            route, (shot, vns) = "dense", _noise_terms(modes, det, lo, p)
        elif not p.plane_pump:
            raise ConfigurationError("a finite pump needs the cavity modes of a dense solve")
        else:
            _check_threshold(p)
            if det.plane == "near":
                route, (shot, vns) = "planepump_near", _vn_planepump_near(det, lo, p)
            else:
                route = "planepump_disk" if det.shape == "radial" else "planepump_far"
                shot, vns = _vn_planepump_far(det, lo, p)
            # both closed forms give N at unit LO amplitude; a product past the
            # float range is inf, which the check below refuses
            shot *= lo.amplitude * lo.amplitude
    if not all(math.isfinite(x) for x in (shot, *vns)):
        raise NumericalFailure(
            f"route {route} gave a non-finite result (N = {shot:g}, vn = "
            f"{', '.join(f'{vn:g}' for vn in vns)}) for the {det.shape} band "
            f"[{det.inner:g}, {det.outer:g}]"
        )
    return SqueezingResult(*vns, shot, route)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

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
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(reaches, extents) a dense sweep grid must cover (m near, 1/m far).

    The reaches are the outer bounds of the sweep's non-empty detectors; the
    extents hold the spot of a Gaussian local oscillator at 4 waists, an
    envelope like the pump's.  ``auto_grid(p, plane, *sweep_extents(...))``
    sizes the sweep's grid.
    """
    reaches = tuple(
        _mask_for(detector_shape, v, pixel_width, plane).bounds_on_axis(p)[1]
        for v in values
        if not _zero_size(detector_shape, v)
    )
    if lo.waist == math.inf:
        return reaches, ()
    return reaches, (_EXTENT_FACTOR * (lo.waist if plane == "near" else lo.q_reach(p)),)

def sweep(
    p: OpoParams,
    plane: str,
    detector_shape: str,
    values,
    lo: LocalOscillator,
    pixel_width: float | None = None,
    modes: CavityModes | None = None,
) -> list[SqueezingResult]:
    """Deterministic noise curve over a family of detector settings.

    ``values`` are interval half widths / radii, or pixel center distances
    (with ``pixel_width``), in detection-plane meters.  Plane-pump scenarios
    run on the closed-form diagonal routes.  A finite pump contracts every
    detector over ``modes``, the ``CavityModes`` of one dense solve on a
    ``plane`` grid; without them the sweep solves once on the grid
    ``auto_grid`` sizes for its detectors.  Every point is the
    ``SqueezingResult`` of ``squeezing`` on its detector; a zero-size
    interval or disk reads shot noise, ``SqueezingResult(1.0, 1.0, 0.0,
    "empty")``.  Results are returned in the order of ``values``.
    """
    values = [float(v) for v in values]
    if any(v < 0 for v in values):
        raise ConfigurationError("sweep values must be non-negative")
    if detector_shape == "radial" and not p.plane_pump:
        raise ConfigurationError(_DISK_ONLY)  # before the solve; squeezing refuses given modes

    if modes is None and not p.plane_pump:
        grid = auto_grid(p, plane, *sweep_extents(p, plane, detector_shape, values, lo,
                                                   pixel_width))
        modes = solve_io(grid, p)
    return [SqueezingResult(1.0, 1.0, 0.0, "empty") if _zero_size(detector_shape, value)
            else squeezing(_mask_for(detector_shape, value, pixel_width, plane), lo, p, modes)
            for value in values]
