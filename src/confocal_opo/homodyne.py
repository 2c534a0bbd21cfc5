"""Balanced homodyne detection: noise spectra normalized to shot noise.

The difference photocurrent of a balanced homodyne detector measures the
quadrature selected by the local-oscillator phase, integrated over the
detector area.  Its noise spectrum normalized to shot noise is

    vn = V / N = 1 + S / N.

``squeezing(dets, lo, cavity)`` is the one entry point: it returns vn of a
curve's detectors in both canonical quadratures, the squeezed phi = pi/2
and the anti-squeezed phi = 0 (a ``SqueezingResult`` each), doing the
curve's shared work once.  This module sizes and solves no grid.  A
detector is its band inner <= |x| <= outer (``DetectorMask``), which is all
any evaluator reads.  ``squeezing`` picks one; each hands the shot noise N
at unit LO amplitude and vn at both phases to ``_result``, which scales N
by the amplitude^2, refuses a non-finite result and records the route:

* With the ``CavityModes`` of a dense solve, ``_noise_terms`` contracts the
  detector with vacuum input and the symmetrized even-field commutation
  rules: only the even part of the output adds to shot noise.  With the
  LO-on-detector vector l (grid step w) and its even far-grid window
  x = E^T l (``Grid1D.fold``; a near l first goes to the far grid by one
  FFT), N = w l^T l and, over the eigenmodes Q of K,

      vn = 1 + (w / N) sum_k c_k^2 (R_phi(lambda_k) - 1),   c = Q^T x,
      R_phi = |u + e^{2 i phi} conj(v_-)|^2  (v_- at -omega_bar),

  which ``_window_noise`` takes from two shifted solves (``iosolver``) of
  ``_SOLVE_WIDTH`` windows each.
* A plane pump's ``OpoParams`` bypasses the dense solve: its response is
  diagonal in the transverse wavevector, with mode gain lambda =
  A_p sigma(q), so vn is one weighted sum over q of the same R_phi - 1
  (``_vn_planepump``).  A detector gives only the weight and its norm: a
  near-plane band [a, b] (plane LO only) its window |W(t)|^2 =
  4 (sin(b t) - sin(a t))^2 / t^2, a far-plane one the LO intensity on its
  band, times the polar weight t for a ``radial`` disk (route
  ``planepump_disk``).  It raises ``NumericalFailure`` when the strongest
  mode, gain A_p at q = 0, is at threshold within rounding.  This covers
  detector sizes far beyond what a dense grid can span, and is
  cross-checked against the dense route where the two overlap.
* A finite pump's ``OpoParams`` is a ``ConfigurationError``: it needs modes.

The squeezed quadrature is phi = pi/2 in this sign convention and phi = 0
its anti-squeezed dual (product 1 per mode at resonance and zero
frequency); ``_mode_noise`` returns the two in the order of ``_PHASES``.

The sum runs on one node set: 16-point Gauss-Legendre panels in
t = q l_coh whose edges sit at the sinc zeros t = 2 sqrt(k pi), split to a
maximum width (``_gauss_panels``), in chunks of 256 panels in both planes,
one at a time, which every detector on the same panels reads, so memory
stays bounded.  Against adaptive QUADPACK references in the tests the
near-field interval agrees to 5e-12 in vn at A_p = 0.99 and to 1e-12 up to
A_p = 1 - 1e-10, and the far-field interval and disk to 1e-15 relative, at
resonance and detuned.  The near-field window oscillates with period
2 pi / b, so its panels halve in width per doubling of 2b past 30 l_coh:
one near-field point costs 1.7 ms at 2b = 30 l_coh and 10 ms at 480, and
grows linearly beyond, 0.04 s at 2b = 1e3 l_coh and 0.3 s at 1e4 on a
2-core x86-64 host.  Each chunk's two phase rows are summed by one einsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .iosolver import CavityModes
from .kernels import _SOLVE_WIDTH, Grid1D, _gauss_legendre, phase_match_sinc
from .params import OpoParams, _real

__all__ = [
    "DetectorMask",
    "LocalOscillator",
    "SqueezingResult",
    "squeezing",
]

_PHASES = (math.pi / 2, 0.0)  # the squeezed quadrature, then its dual
_Z = [np.exp(2j * phase) for phase in _PHASES]  # e^{2 i phi} of each
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
    disk, the band [0, radius] with the polar weight t.  A mask is checked
    when it is made: ``ConfigurationError`` unless 0 <= inner < outer < inf.
    Only the plane-pump far-field quadrature computes a disk; ``squeezing``
    refuses a ``radial`` on every other route.
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
            got = tuple(float(x) if isinstance(x, np.floating) else x
                        for x in (self.inner, self.outer))
            raise ConfigurationError(f"detector band needs 0 <= inner < outer < inf, got {got}")

    @classmethod
    def interval(cls, half_width: float, plane: str = "near") -> "DetectorMask":
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
        return cls("radial", plane, 0.0, radius)

    def bounds_on_axis(self, p: OpoParams) -> tuple[float, float]:
        """(inner, outer) bound of |coordinate| in grid units (m or 1/m)."""
        c = 2.0 * math.pi / (p.lambda_s * p.f_lens) if self.plane == "far" else 1.0
        return c * self.inner, c * self.outer

    def indicator(self, grid: Grid1D, p: OpoParams) -> np.ndarray:
        if grid.domain != self.plane:
            raise ConfigurationError(
                f"{self.shape} detector lives in the {self.plane} plane, "
                f"grid is {grid.domain}"
            )
        lo, hi = self.bounds_on_axis(p)
        if hi > grid.half_extent:
            raise NumericalFailure(
                f"detector reach {hi:.3e} exceeds the grid half extent "
                f"{grid.half_extent:.3e}"
            )
        u = np.abs(grid.points)
        mask = (u >= lo) & (u <= hi)
        if not mask.any():
            raise ConfigurationError(f"no grid point falls inside the {self.shape} band "
                                     f"[{self.inner:g}, {self.outer:g}]: set a larger grid_n")
        return mask


@dataclass(frozen=True)
class LocalOscillator:
    """Intense coherent reference beam with a constant phase across the plane.

    The amplitude is exp(-x^2 / waist^2) with the waist in detection-plane
    meters for either plane (far-field positions map to wavevectors through
    the lens, x = q lambda f / (2 pi); a detection-plane waist of r0
    corresponds to a pre-lens beam waist of l_coh).  The default waist,
    ``math.inf``, is the plane LO of uniform amplitude.  ``vn`` does not
    depend on the amplitude, only the shot noise N, which scales as its
    square.
    """

    amplitude: float = 1.0
    waist: float = math.inf

    def __post_init__(self):
        if not (_real(self.amplitude) and 0 < self.amplitude < math.inf):
            raise ConfigurationError("LO amplitude must be positive and finite")
        if not (_real(self.waist) and self.waist > 0):
            raise ConfigurationError(f"LO waist must be positive or inf, got {self.waist!r}")

    def magnitude(self, grid: Grid1D, p: OpoParams) -> np.ndarray:
        """|alpha| on the grid at unit amplitude."""
        x = grid.points
        if grid.domain == "far":
            x = x * p.lambda_s * p.f_lens / (2.0 * math.pi)
        return np.exp(-(x / self.waist) ** 2)


@dataclass(frozen=True)
class SqueezingResult:
    """Noise spectrum of one detector in both quadratures, in shot-noise units.

    vn = 1 means shot noise; vn < 1 squeezing.  ``vn_squeezed`` is the LO
    phase pi/2, ``vn_antisqueezed`` its dual 0.  ``shot`` is the detected LO
    photon number, the LO measure of the detector band (for the closed-form
    disk, the far quadrature with weight t: the LO-weighted disk measure in
    the scaled radius r / r0).  ``route`` names the route that computed the
    result: "dense", "planepump_near", "planepump_far" or "planepump_disk".
    """

    vn_squeezed: float
    vn_antisqueezed: float
    shot: float
    route: str


# ---------------------------------------------------------------------------
# Dense-grid route
# ---------------------------------------------------------------------------

def _mode_noise(lam, detuning: float, omega_bar: float):
    """[R_phi(lam) - 1 at phi = pi/2, at phi = 0], the order of ``_PHASES``,
    R = |u + z conj(v_-)|^2 with z = e^{2 i phi}, of a mode of gain ``lam``
    (v_- is v at -omega_bar; u = (conj(a) abar + lam^2) / D, v = 2 lam / D).
    As v_- has the denominator conj(D), u + z conj(v_-) is

        ((lam + z)^2 + conj(a) abar - z^2) / D,  D = (1 - lam)(1 + lam) + (a abar - 1),

    where no term cancels as lam -> 1: R - 1 keeps its absolute accuracy up
    to threshold.  D is formed once for both phases.
    """
    alpha, beta = detuning + omega_bar, omega_bar - detuning
    den = (1.0 - lam) * (1.0 + lam) + complex(-alpha * beta, alpha + beta)
    conj_a_abar = complex(1.0 + alpha * beta, beta - alpha)
    return [np.abs(((lam + z) ** 2 + (conj_a_abar - z * z)) / den) ** 2 - 1.0 for z in _Z]

def _check_lit(n_shot: float, det: DetectorMask) -> None:
    # a Gaussian LO spot that ends long before the band leaves no N to normalize by
    if n_shot == 0.0:
        raise ConfigurationError(f"no LO light reaches the {det.shape} band "
                                 f"[{det.inner:g}, {det.outer:g}]")

def _conjugate_image(grid: Grid1D, vec: np.ndarray) -> np.ndarray:
    """W vec, real and even, of the even real columns of vec (n, k) on ``grid``
    under the unitary DFT W_jk = exp(-i q_j x_k) / sqrt(n) onto the conjugate grid.

    On midpoint grids q_j x_k = n pi/2 - pi (j + k + 1) + 2 pi (j + 1/2)(k + 1/2) / n,
    so W = c D F D with the plain DFT F, D = diag((-1)^k e^{-i pi k / n}) and
    c = e^{-i pi (n/2 - 1 + 1/(2n))} / sqrt(n), its whole turns taken exactly.
    """
    n = grid.n
    d = np.exp(-1j * np.pi * np.arange(n) / n)[:, None]
    d[1::2] *= -1.0
    c = -((-1j) ** (n % 4)) * np.exp(-0.5j * np.pi / n) / math.sqrt(n)
    return (c * d * np.fft.fft(d * vec, axis=0)).real

def _window_noise(modes: CavityModes, x: np.ndarray) -> np.ndarray:
    """[sum_k c_k^2 (R_phi(lam_k) - 1)] at both phases (rows), c = Q^T x, of each
    even far window in the columns of x: ||g_z||^2 - ||x||^2 by column from
    ``modes.solve(x)`` (``iosolver``)."""
    y, s, p = modes.solve(x), modes.shift, modes.p
    abar = complex(1.0, p.omega_bar - p.detuning)
    gs = [((abar + z * s) * y[0] + (abar - z * s) * y[1]) / s - x for z in _Z]
    return np.array([(g.real * g.real + g.imag * g.imag).sum(0) for g in gs]) - (x * x).sum(0)

def _noise_terms(modes: CavityModes, dets, lo: LocalOscillator) -> list:
    """The ``_result`` of each detector at ``modes.p``: the unit-amplitude LO
    on its cells, carried from a near grid to the far grid by
    ``_conjugate_image``, is folded and contracted, ``_SOLVE_WIDTH`` windows
    per solve; copies of the last window fill the last solve, so no
    detector's bits depend on the others in the call.  Before the first
    solve, every detector's cells and light are checked in order, then the
    LO waist, so a sweep's refusal does not depend on which solve holds it."""
    grid, p = modes.grid, modes.p
    w, magnitude = grid.step, lo.magnitude(grid, p)
    # sampled at the grid points, a waist of 2, 1.5 and 1 steps is off by 5e-9, 3e-5, 1.4e-2
    x_step = w * (p.lambda_s * p.f_lens / (2.0 * math.pi) if grid.domain == "far" else 1.0)
    shots = []
    for det in dets:  # a window at a time: a solve's windows are made again below
        lvec = magnitude * det.indicator(grid, p)
        shots.append(w * float(lvec @ lvec))
        _check_lit(shots[-1], det)
    if dets and lo.waist < 2.0 * x_step:
        raise NumericalFailure(f"Gaussian LO waist spans {lo.waist / x_step:.3g} grid steps, "
                               "under the 2 that resolve it: set a larger grid_n")
    results = []
    for first in range(0, len(dets), _SOLVE_WIDTH):
        chunk = dets[first : first + _SOLVE_WIDTH]
        lvecs = [magnitude * det.indicator(grid, p) for det in chunk]
        lvec = np.stack(lvecs + lvecs[-1:] * (_SOLVE_WIDTH - len(lvecs)), 1)
        x = grid.fold(lvec if grid.domain == "far" else _conjugate_image(grid, lvec))
        noise = _window_noise(modes, x).T
        results += [_result(det, lo, "dense", n_shot, [1.0 + (w / n_shot) * float(f) for f in fs])
                    for det, n_shot, fs in zip(chunk, shots[first : first + _SOLVE_WIDTH], noise)]
    return results


# ---------------------------------------------------------------------------
# Plane-pump closed-form routes
# ---------------------------------------------------------------------------

def _check_threshold(p: OpoParams) -> None:
    """Refuse a plane pump whose strongest mode, q = 0 with gain A_p, sits
    at threshold within rounding, |a abar - A_p^2| <= 1e-14."""
    a_abar = (1.0 + 1j * (p.detuning + p.omega_bar)) * (1.0 + 1j * (p.omega_bar - p.detuning))
    if np.abs(a_abar - p.A_p**2) <= 1e-14:
        raise NumericalFailure("plane-pump response diverges: a*abar = (A_p sigma)^2")

#: sinc-zero intervals handled at once: bounds ``_gauss_panels``' arrays of zeros
_CHUNK = 4096
#: Gauss panels per chunk (4,096 nodes) in both planes: a chunk's work arrays
#: set a run's peak memory; 4,096-panel far chunks made a wide far run peak
#: 9 MB higher
_PANELS = 256
#: widest panel in t = q l_coh: ~1.2 periods of the near window at 2b = 30
_PANEL_WIDTH = 0.25
#: truncation of the near-field t integral; |sinc| < (2/CUT)^2 = 4e-4 beyond
_NEAR_CUT = 100.0
#: largest 2b (b the outer band edge in l_coh) served by near level 0
_NEAR_PANEL_A = 30.0
#: most Gauss panels one quadrature may take (one point at the limit takes
#: ~6 s on a 2-core x86-64 host); a band or a Gaussian-LO spot that needs
#: more, up to one near the float range that would never finish, is refused
_MAX_PANELS = 2**22


def _gauss_panels(t_lo: float, t_hi: float, max_width: float):
    """16-point Gauss-Legendre nodes and weights on [t_lo, t_hi], in chunks.

    t = q l_coh is the scaled wavevector.  Panel edges sit at the zeros
    t = 2 sqrt(k pi) of the phase-matching sinc sigma = sinc(t^2 / 4), and
    every interval between them is split evenly into panels at most
    ``max_width`` wide.  Yields (t, w) arrays of at most ``_PANELS`` panels,
    so memory stays bounded however long the span; the zeros are found
    ``_CHUNK`` at a time.  Raises
    ``NumericalFailure`` past ``_MAX_PANELS`` panels.
    """
    sinc_zeros = (t_hi * t_hi - t_lo * t_lo) / (4.0 * math.pi)
    if not (max_width > 0 and sinc_zeros + (t_hi - t_lo) / max_width <= _MAX_PANELS):
        raise NumericalFailure(
            f"t = q l_coh in [{t_lo:.3g}, {t_hi:.3g}] at panel width {max_width:.3g} "
            f"needs more than {_MAX_PANELS} Gauss panels")
    nodes, weights = _gauss_legendre(16)
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
        for first in range(0, ends[-1], _PANELS):
            panel = np.arange(first, min(first + _PANELS, ends[-1]))
            i = np.searchsorted(ends, panel, side="right")
            half = halves[i]
            mid = edges[i] + (2 * (panel - ends[i] + pieces[i]) + 1) * half
            yield ((mid[:, None] + half[:, None] * nodes).ravel(),
                   (half[:, None] * weights).ravel())
        if last:
            return
        t_lo, k = edges[-1], k + _CHUNK

def _panel_noise(p: OpoParams, spans: tuple):
    """(t, w, R_phi - 1 at both phases as one (2, n) array) chunks of
    ``_gauss_panels`` on each (t_lo, t_hi, max_width) of ``spans``, at the
    plane-pump mode gain A_p sigma: one gain evaluation and one
    ``_mode_noise`` call per chunk."""
    for span in spans:
        for t, w in _gauss_panels(*span):
            lam = p.A_p * phase_match_sinc(t / p.l_coh, p)
            yield t, w, np.array(_mode_noise(lam, p.detuning, p.omega_bar))

def _planepump_window(det: DetectorMask, lo: LocalOscillator, p: OpoParams):
    """(spans, weight, norm) of a detector at a plane pump, for

        vn = 1 + integral weight(t) (R_phi - 1) dt / norm

    over the positive t = q l_coh: its spans in t with their panel widths,
    its weight, and the map from the summed weight to (N, norm):

    * near plane, band [a, b] in l_coh units (plane LO only): the window
      |W(t)|^2 = 4 (sin(b t) - sin(a t))^2 / t^2 on [0, ``_NEAR_CUT``] and
      norm 2 pi (b - a); N = 2 (b - a) l_coh.  Panels are 0.125 wide below
      t = 1, where the anti-squeezed R - 1 peaks sharply near threshold,
      and 0.25 above, both halved per level L = max(0, ceil(log2(2b /
      ``_NEAR_PANEL_A``))), so no panel holds more than ~1.2 periods of the
      window.  Those spans depend on L alone.
    * far plane: the LO intensity |alpha|^2 on the detector band, times t for
      a ``radial`` disk, the same quadrature in polar form on [0, 2 r / r0];
      norm is the summed weight, and N, the measure of the band, 2 norm /
      l_coh in q, both halves, and for the disk norm / 4 in u = r / r0.
    """
    if det.plane == "near":
        if lo.waist != math.inf:
            raise ConfigurationError("plane-pump near-field spectra support a plane LO only")
        a, b = det.inner / p.l_coh, det.outer / p.l_coh
        # clamped, so a band past the float range reaches the panel limit, not an
        # overflow, and one that underflows to b = 0 takes level 0, not a log of 0
        level = math.ceil(math.log2(min(max(2.0 * b / _NEAR_PANEL_A, 1.0), 2.0**64)))
        width = _PANEL_WIDTH * 0.5**level

        def weight(t):
            return 4.0 * (np.sin(b * t) - np.sin(a * t) if a > 0 else np.sin(b * t)) ** 2 / t**2

        def norm(total):
            return 2.0 * (det.outer - det.inner), 2.0 * math.pi * (b - a)
        return ((0.0, 1.0, 0.5 * width), (1.0, _NEAR_CUT, width)), weight, norm
    q_lo, q_hi = det.bounds_on_axis(p)
    # |alpha|^2 is exp(-2 (x / waist)^2) at x = q lambda f / (2 pi), exp(-c t^2)
    # in t = q l_coh; c = 0 for a plane LO, and inf, refused by the panel
    # limit, for a spot too narrow to square (numpy gives inf where Python raises)
    x_of_q = p.lambda_s * p.f_lens / (2.0 * math.pi)
    c = 2.0 * (np.float64(x_of_q) / (lo.waist * p.l_coh)) ** 2
    # a Gaussian LO also needs panels no wider than its 1/e half width, or a
    # narrow spot falls between the nodes
    width = _PANEL_WIDTH if c == 0.0 else min(_PANEL_WIDTH, 1.0 / math.sqrt(c))
    disk = det.shape == "radial"

    def weight(t):
        return t * np.exp(-c * t * t) if disk else np.exp(-c * t * t)

    def norm(total):
        _check_lit(total, det)
        return total / 4.0 if disk else 2.0 * total / p.l_coh, total
    return ((q_lo * p.l_coh, q_hi * p.l_coh, width),), weight, norm

def _vn_planepump(dets, lo: LocalOscillator, p: OpoParams) -> list:
    """The ``_result`` of each detector at a plane pump, summed on
    ``_panel_noise`` chunks by its ``_planepump_window``: detectors with equal
    spans, grouped in one pass, read one stream of chunks, in first-seen order."""
    windows = [_planepump_window(det, lo, p) for det in dets]
    sums, totals = np.zeros((len(dets), len(_PHASES))), [0.0] * len(dets)
    results = [None] * len(dets)
    groups = {}
    for i, window in enumerate(windows):
        groups.setdefault(window[0], []).append(i)
    for spans, group in groups.items():
        for t, w, noise in _panel_noise(p, spans):
            for i in group:
                g = windows[i][1](t) * w
                sums[i] += np.einsum("ij,j->i", noise, g)
                totals[i] += float(g.sum())
        for i in group:
            shot, scale = windows[i][2](totals[i])
            det = dets[i]
            route = "planepump_disk" if det.shape == "radial" else f"planepump_{det.plane}"
            # divided in numpy: a near band that underflows to 0 gives 0/0 = nan, refused
            results[i] = _result(det, lo, route, shot, [1.0 + float(x / scale) for x in sums[i]])
    return results


# ---------------------------------------------------------------------------
# The one path from a detector to its noise
# ---------------------------------------------------------------------------

def _result(det: DetectorMask, lo: LocalOscillator, route: str, shot: float,
            vns: list) -> SqueezingResult:
    # every route gives N at unit LO amplitude; a product past the float
    # range is inf, which the check below refuses
    shot *= lo.amplitude * lo.amplitude
    if not all(math.isfinite(x) for x in (shot, *vns)):
        raise NumericalFailure(f"route {route} gave a non-finite result (N = {shot:g}, "
                               f"vn = {', '.join(f'{vn:g}' for vn in vns)}) for the "
                               f"{det.shape} band [{det.inner:g}, {det.outer:g}]")
    return SqueezingResult(*vns, shot, route)

def squeezing(dets, lo: LocalOscillator,
              cavity: CavityModes | OpoParams) -> list[SqueezingResult]:
    """Noise spectra of a curve's detectors in both canonical quadratures,
    one ``SqueezingResult`` per detector of the sequence ``dets``, in order.

    ``cavity`` is either the ``CavityModes`` of a dense solve, whose
    configuration is ``cavity.p``, over which the detectors are contracted
    (first principles, any pump), or a plane pump's ``OpoParams``, which
    runs on its closed-form routes: the near-field window sum (plane LO
    only), the far-field disk for a ``radial`` far detector, and the
    far-field interval or pixel pair otherwise.  A ``radial`` detector off
    that disk route (on the modes, or in the near plane), a finite pump's
    ``OpoParams`` and a ``cavity`` of any other type raise
    ``ConfigurationError``.  ``NumericalFailure`` means a Gaussian LO under 2
    grid steps wide, or a non-finite N or vn, as when an input near the float
    range (an LO amplitude, an analysis frequency) overflows in the route.
    """
    dense = isinstance(cavity, CavityModes)
    if not (dense or isinstance(cavity, OpoParams)):
        raise ConfigurationError(
            f"cavity must be CavityModes or OpoParams, got {type(cavity).__name__}")
    if any(det.shape == "radial" and (dense or det.plane == "near") for det in dets):
        raise ConfigurationError(_DISK_ONLY)
    if not (dense or cavity.plane_pump):
        raise ConfigurationError("a finite pump needs the cavity modes of a dense solve")
    # ``_result`` reports an overflow, so numpy does not warn of it too
    with np.errstate(all="ignore"):
        if dense:
            return _noise_terms(cavity, dets, lo)
        _check_threshold(cavity)
        return _vn_planepump(dets, lo, cavity)
