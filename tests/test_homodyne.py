import math
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from scipy.special import erf

from confocal_opo import (
    ConfigurationError,
    DetectorMask,
    Grid1D,
    LocalOscillator,
    NumericalFailure,
    OpoParams,
    solve_io,
    squeezing,
)
import confocal_opo.kernels as kernels
from confocal_opo.cli import (Scenario, _detector, _fmt, _grid, _unit, main, parse_config,
                              run_scenario, scenario_from_config)
from confocal_opo.homodyne import _conjugate_image
from helpers import GOLDEN, cosine, noise_density
from lu_reference import lu_noise
from planepump_reference import (
    circular_vn,
    correlation_first_zero,
    far_vn,
    interval_vn,
    rises,
)

# Frozen reference values for the closed-form near-field interval spectrum at
# A_p = 0.99, resonance, zero frequency, squeezed quadrature.  Computed with
# an independent brute-force rule: vn(d) = 1 + (4 / pi d) *
# integral_0^400 sin^2(q d) / q^2 * (|V|^2 - U V) dq on an 8e6-point
# trapezoid grid (l_coh = 1 units).
BRUTE_INTERVAL_VN = {0.05: 0.933767, 0.5: 0.287248, 1.3: 0.099989, 5.0: 0.024300}


def single_mode_vn(a_p):
    return ((1 - a_p) / (1 + a_p)) ** 2


def grid_shot(lo, det, g, p):
    """Shot noise of ``det`` on the grid ``g``, read from the dense route,
    whatever the sizing rule says of ``g``."""
    with patch.object(kernels, "_check_sizing", lambda g, p: None):
        modes = solve_io(g, p)
    return squeezing([det], lo, modes)[0].shot


@pytest.fixture
def dense_plane_near(plane_params):
    """Dense solve for the plane pump on a resolved near grid, A_p = 0.9."""
    g = Grid1D(641, 20.0 * plane_params.l_coh, "near")
    return solve_io(g, plane_params), g


class TestDetectorMask:
    def test_interval_indicator(self, plane_params):
        g = Grid1D(33, 1.0, "near")
        det = DetectorMask.interval(0.25, "near")
        mask = det.indicator(g, plane_params)
        assert mask.sum() > 0
        assert np.all(np.abs(g.points[mask]) <= 0.25)

    def test_pixel_pair_merges_when_overlapping(self, plane_params):
        g = Grid1D(65, 1.0, "near")
        det = DetectorMask.pixel_pair(0.05, 0.2, "near")  # overlap: merged
        mask = det.indicator(g, plane_params)
        assert np.all(np.abs(g.points[mask]) <= 0.15 + g.step)
        assert mask[g.n // 2]  # center included

    def test_pixel_pair_additivity(self, plane_params):
        # shot noise is additive over the two disjoint pixels (exact)
        g = Grid1D(129, 1.0, "near")
        lo = LocalOscillator()
        det = DetectorMask.pixel_pair(0.5, 0.1, "near")
        mask = det.indicator(g, plane_params)
        left = mask & (g.points < 0)
        right = mask & (g.points > 0)
        n_all = grid_shot(lo, det, g, plane_params)
        assert n_all == g.step * left.sum() + g.step * right.sum()
        assert np.array_equal(mask, left | right)

    def test_far_plane_maps_to_wavevectors(self, plane_params):
        det = DetectorMask.interval(plane_params.r0, "far")
        lo_b, hi_b = det.bounds_on_axis(plane_params)
        expected = 2 * math.pi * plane_params.r0 / (
            plane_params.lambda_s * plane_params.f_lens
        )
        assert hi_b == pytest.approx(expected, rel=1e-14)
        assert hi_b == pytest.approx(2.0 / plane_params.l_coh, rel=1e-12)

    def test_plane_mismatch(self, plane_params):
        g = Grid1D(33, 1.0, "near")
        with pytest.raises(ConfigurationError,
                           match="^interval detector lives in the far plane, grid is near$"):
            DetectorMask.interval(0.5, "far").indicator(g, plane_params)

    def test_empty_detector(self, plane_params):
        g = Grid1D(32, 1.0, "near")
        det = DetectorMask.interval(1e-9, "near")  # falls between cells
        with pytest.raises(ConfigurationError,
                           match=r"^no grid point falls inside the interval band "
                                 r"\[0, 1e-09\]: set a larger grid_n$"):
            det.indicator(g, plane_params)

    @pytest.mark.parametrize("size", [math.inf, math.nan])
    def test_non_finite_size_rejected(self, size):
        # the closed-form routes size their quadrature from the detector
        for make in (
            lambda: DetectorMask.interval(size),
            lambda: DetectorMask.radial(size),
            lambda: DetectorMask.pixel_pair(size, 1.0),
            lambda: DetectorMask.pixel_pair(1.0, size),
        ):
            with pytest.raises(ConfigurationError):
                make()

    def test_pixel_pair_band(self):
        # the pixel merge is decided once, in the band
        assert DetectorMask.pixel_pair(0.05, 0.25) == DetectorMask(
            "pixel_pair", "near", 0.0, 0.175)
        det = DetectorMask.pixel_pair(0.5, 0.25, "far")
        assert (det.inner, det.outer) == (0.375, 0.625)

    def test_unknown_plane_rejected(self):
        # a misspelt plane must not fall through to the far route, which
        # would read meters as wavevectors
        for make in (
            lambda: DetectorMask.interval(1e-4, "nera"),
            lambda: DetectorMask.radial(1e-4, "nera"),
            lambda: DetectorMask.pixel_pair(1e-4, 1e-5, "nera"),
        ):
            with pytest.raises(ConfigurationError, match="nera"):
                make()


    def test_unknown_shape_in_band_rejected(self, plane_params):
        # a shape no route knows must not run as an interval
        with pytest.raises(ConfigurationError, match="disk"):
            squeezing([DetectorMask("disk", "far", 0.0, 1e-3)], LocalOscillator(),
                      plane_params)

    @pytest.mark.parametrize("inner, outer", [(0.0, math.nan), (math.nan, 1e-4),
                                              (0.0, math.inf)])
    def test_non_finite_band_rejected(self, plane_params, inner, outer):
        # the near route sizes its panels from the band
        with pytest.raises(ConfigurationError):
            squeezing([DetectorMask("interval", "near", inner, outer)], LocalOscillator(),
                      plane_params)

    @pytest.mark.parametrize("inner, outer", [(2e-4, 1e-4), (1e-4, 1e-4), (-1e-4, 1e-4)])
    def test_empty_or_negative_band_rejected(self, plane_params, inner, outer):
        # an inverted band would report a negative shot noise
        with pytest.raises(ConfigurationError):
            squeezing([DetectorMask("interval", "near", inner, outer)], LocalOscillator(),
                      plane_params)

    def test_pixel_pair_needs_pixel_width(self):
        with pytest.raises(ConfigurationError, match="pixel_width"):
            DetectorMask.pixel_pair(1e-4, None)


@pytest.fixture(scope="module", params=["near", "far"])
def dense_b4(request):
    """(modes, modes on 5x the points, step in detection-plane meters) of a
    b = 4 pump on the grid the run sizes, A_p = 0.9."""
    plane = request.param
    p0 = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9, w_p=math.inf)
    p = replace(p0, w_p=2.0 * p0.l_coh)
    g = _grid(p, plane, [])
    x_step = g.step * (p.lambda_s * p.f_lens / (2 * math.pi) if plane == "far" else 1.0)
    return solve_io(g, p), solve_io(Grid1D(5 * g.n, g.half_extent, plane), p), x_step


class TestLocalOscillator:
    @pytest.mark.parametrize("steps", [1.0, 1.5])
    def test_waist_under_two_grid_steps_is_refused(self, dense_b4, steps):
        modes, _, x_step = dense_b4
        det = DetectorMask.interval(20.5 * x_step, modes.grid.domain)
        with pytest.raises(NumericalFailure, match=f"^Gaussian LO waist spans {steps:g} grid "
                                                   "steps, under the 2 that resolve it: "
                                                   "set a larger grid_n$"):
            squeezing([det], LocalOscillator(waist=steps * x_step), modes)

    @pytest.mark.parametrize("steps", [2.0, 3.0])
    def test_waist_of_two_grid_steps_is_resolved(self, dense_b4, steps):
        # a band of 20 steps, where the spot has died out at both edges: the
        # sampled spot agrees with 5x the points within 5.3e-9 at 2 steps
        # and 2.3e-14 at 3
        modes, fine, x_step = dense_b4
        det = DetectorMask.interval(20.5 * x_step, modes.grid.domain)
        lo = LocalOscillator(waist=steps * x_step)
        got, ref = (squeezing([det], lo, m)[0] for m in (modes, fine))
        assert got.shot == pytest.approx(ref.shot, rel=1e-8)
        for vn, vn_ref in ((got.vn_squeezed, ref.vn_squeezed),
                           (got.vn_antisqueezed, ref.vn_antisqueezed)):
            assert abs(vn - vn_ref) <= 1e-8 * max(1.0, abs(vn_ref))

    @pytest.mark.parametrize("kwargs", [
        {"amplitude": math.nan},
        {"amplitude": math.inf},
        {"amplitude": 0.0},
        {"waist": math.nan},
        {"waist": 0.0},
        {"waist": -1e-4},
        {"waist": None},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LocalOscillator(**kwargs)


@pytest.mark.parametrize("make", [
    lambda: DetectorMask.interval(None),
    lambda: DetectorMask.radial(None),
    lambda: DetectorMask.pixel_pair(None, 1e-5),
    lambda: DetectorMask.pixel_pair(1e-4, "1e-5"),
    lambda: DetectorMask.interval(1e-4 + 0j),
    lambda: DetectorMask("interval", "near", None, 1.0),
    lambda: DetectorMask("interval", "near", 0.0, "1.0"),
    lambda: LocalOscillator(amplitude=None),
    lambda: LocalOscillator(waist="x"),
], ids=["interval-none", "radial-none", "pixel-center-none", "pixel-width-str",
        "interval-complex", "band-inner-none", "band-outer-str", "lo-amplitude-none",
        "lo-waist-str"])
def test_non_real_input_rejected(make):
    # library callers get the documented error, not a TypeError from the
    # range check
    with pytest.raises(ConfigurationError):
        make()


class TestShotNoise:
    def test_plane_lo_counts_cells(self, plane_params):
        g = Grid1D(64, 1.0, "near")
        # detector edge chosen to enclose exactly 10 cells
        edge = g.points[36] + g.step / 2
        det = DetectorMask.interval(edge, "near")
        lo = LocalOscillator(amplitude=1.0)
        assert grid_shot(lo, det, g, plane_params) == pytest.approx(10 * g.step, rel=1e-14)

    def test_quadratic_in_amplitude(self, plane_params):
        g = Grid1D(64, 1.0, "near")
        det = DetectorMask.interval(0.3, "near")
        n1 = grid_shot(LocalOscillator(amplitude=1.0), det, g, plane_params)
        n3 = grid_shot(LocalOscillator(amplitude=3.0), det, g, plane_params)
        assert n3 == pytest.approx(9 * n1, rel=1e-14)

    def test_gaussian_lo_against_erf(self, plane_params):
        # N = integral |amp exp(-x^2/w^2)|^2 over the interval, closed form
        g = Grid1D(1024, 1.0, "near")
        w = 0.21
        d = g.points[768] + g.step / 2  # edge between cells
        det = DetectorMask.interval(d, "near")
        lo = LocalOscillator(waist=w, amplitude=1.3)
        num = grid_shot(lo, det, g, plane_params)
        exact = 1.3**2 * w * math.sqrt(math.pi / 2) * erf(math.sqrt(2) * d / w)
        assert num == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("amplitude", [1.0, 2.0])
    @pytest.mark.parametrize("plane,shape", [
        ("near", "interval"), ("near", "pixel_pair"),
        ("far", "interval"), ("far", "pixel_pair"), ("far", "radial"),
    ])
    def test_closed_form_shot_is_the_band_measure(self, plane_params, plane, shape, amplitude):
        # amplitude^2 times the measure of both halves of the band, m near and
        # 1/m far; the disk keeps its polar measure in r / r0 units
        unit = plane_params.l_coh if plane == "near" else plane_params.r0
        det = {"interval": DetectorMask.interval(0.5 * unit, plane),
               "pixel_pair": DetectorMask.pixel_pair(2.0 * unit, unit, plane),
               "radial": DetectorMask.radial(0.5 * unit)}[shape]
        (res,) = squeezing([det], LocalOscillator(amplitude=amplitude), plane_params)
        inner, outer = det.bounds_on_axis(plane_params)
        measure = (det.outer / unit) ** 2 / 2 if shape == "radial" else 2.0 * (outer - inner)
        assert res.shot == pytest.approx(amplitude**2 * measure, rel=1e-12)

    @pytest.mark.parametrize("amplitude", [1.0, 2.0])
    @pytest.mark.parametrize("plane", ["near", "far"])
    def test_dense_shot_matches_the_closed_form(self, plane_params, plane, amplitude):
        # the dense route counts whole cells: within one step per band edge
        p = plane_params
        if plane == "near":
            unit, g = p.l_coh, Grid1D(641, 20.0 * p.l_coh, "near")
        else:
            unit, g = p.r0, Grid1D(257, 8.0 / p.l_coh, "far")
        modes = solve_io(g, p)
        lo = LocalOscillator(amplitude=amplitude)
        dets = [DetectorMask.interval(0.5 * unit, plane),
                DetectorMask.pixel_pair(2.0 * unit, unit, plane)]
        for det, dense, closed in zip(dets, squeezing(dets, lo, modes), squeezing(dets, lo, p)):
            edges = 2 if det.inner == 0 else 4
            assert abs(dense.shot - closed.shot) <= amplitude**2 * g.step * edges

    def test_far_gaussian_lo_detection_plane_convention(self, plane_params):
        # far-plane Gaussian LO waist is given in detection-plane meters:
        # |alpha(q)| = exp(-(x/waist)^2) at x = q lambda f / (2 pi)
        g = Grid1D(129, 4.0e5, "far")
        w = 1e-4
        lo = LocalOscillator(waist=w)
        mag = lo.magnitude(g, plane_params)
        x_of_q = plane_params.lambda_s * plane_params.f_lens / (2 * math.pi)
        i = 100
        assert mag[i] == pytest.approx(
            math.exp(-(g.points[i] * x_of_q / w) ** 2), rel=1e-14
        )


class TestSqueezingNumericVacuum:
    @pytest.mark.parametrize("lo", [
        LocalOscillator(),
        LocalOscillator(amplitude=2.0),
        LocalOscillator(waist=3e-4),
    ])
    def test_zero_pump_is_shot_noise(self, plane_params, lo):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.0, w_p=math.inf
        )
        g = Grid1D(257, 8.0 * plane_params.l_coh, "near")
        modes = solve_io(g, p)
        dets = [DetectorMask.interval(2e-5, "near"), DetectorMask.pixel_pair(5e-5, 2e-5, "near")]
        for res in squeezing(dets, lo, modes):
            assert abs(res.vn_squeezed - 1.0) <= 1e-12
            assert abs(res.vn_antisqueezed - 1.0) <= 1e-12

    def test_requires_negative_frequency_pair(self, plane_params):
        # detuned with nonzero analysis frequency: the noise needs V at the
        # opposite frequency, which the oracle solves for separately and the
        # modes give in closed form from the one solve
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.5,
            w_p=math.inf, detuning=0.5, omega_bar=1.0,
        )
        g = Grid1D(129, 8.0 * plane_params.l_coh, "near")
        modes = solve_io(g, p)
        oracle = lu_noise(g, p)
        det = DetectorMask.interval(2e-5, "near")
        lo = LocalOscillator()
        (res,) = squeezing([det], lo, modes)
        for phase, vn in ((math.pi / 2, res.vn_squeezed), (0.0, res.vn_antisqueezed)):
            ref = oracle(lo.magnitude(g, p) * det.indicator(g, p), phase)
            assert vn > 0
            assert abs(vn - ref) <= 1e-12 * max(1.0, abs(ref))


class TestModeRouteMatchesLU:
    @pytest.mark.parametrize("plane,b,n,detuning,omega_bar", [
        ("near", 9.0, 321, 0.0, 0.0),
        ("near", 16.0, 401, 0.3, -0.7),
        ("far", 25.0, 257, 0.5, 1.0),
        ("far", 49.0, 321, 0.0, 1.3),
        ("near", 4.0, 257, 0.8, 0.0),
        ("near", 9.0, 320, 0.3, 0.9),  # even n: no center point on the grid
    ])
    def test_vn_matches_two_solve_oracle(self, plane_params, plane, b, n, detuning,
                                         omega_bar):
        # one eigendecomposition against the LU oracle (two solves when
        # detuned at nonzero frequency), both quadratures, several detectors
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9,
            w_p=math.sqrt(b) * plane_params.l_coh, detuning=detuning, omega_bar=omega_bar,
        )
        extent = 4.0 * p.w_p if plane == "near" else 16.0 / p.w_p
        g = Grid1D(n, extent, plane)
        modes = solve_io(g, p)
        oracle = lu_noise(g, p)
        x_of_q = 1.0 if plane == "near" else p.lambda_s * p.f_lens / (2 * math.pi)
        gaussian = LocalOscillator(waist=0.4 * extent * x_of_q)
        dets = [DetectorMask.interval(frac * extent * x_of_q, plane) for frac in (0.05, 0.3, 0.7)]
        for lo in (LocalOscillator(), gaussian):
            for det, res in zip(dets, squeezing(dets, lo, modes)):
                lvec = lo.magnitude(g, p) * det.indicator(g, p)
                for phase, vn in ((math.pi / 2, res.vn_squeezed), (0.0, res.vn_antisqueezed)):
                    ref = oracle(lvec, phase)
                    assert abs(vn - ref) <= 1e-12 * max(1.0, abs(ref))


def _extended_image(g, vec):
    """Even half (j < m) of W vec by the defining sum in np.longdouble, with
    the phase q_j x_k = pi N_jk / (2n), N_jk = n^2 - 2n(j + k + 1)
    + (2j + 1)(2k + 1), reduced modulo 4n in integers."""
    n, m = g.n, g.n_even
    pi = 4 * np.arctan(np.longdouble(1))
    cos = np.cos(pi * np.arange(4 * n, dtype=np.longdouble) / (2 * n))  # at each N mod 4n
    k = np.arange(n)
    out = np.empty(m, dtype=np.longdouble)
    for lo in range(0, m, 256):
        j = np.arange(lo, min(m, lo + 256))[:, None]
        phase = (n * n - 2 * n * (j + k + 1) + (2 * j + 1) * (2 * k + 1)) % (4 * n)
        out[lo:lo + 256] = cos[phase] @ vec.astype(np.longdouble)
    return out / np.sqrt(np.longdouble(n))


class TestConjugateImage:
    # a near detector reaches the far modes through one FFT: fold(W l) = C fold(l),
    # column by column
    @pytest.mark.parametrize("n", [33, 34, 320, 641])
    def test_matches_cosine_matrix(self, rng, n):
        g = Grid1D(n, 1e-3, "near")
        v = rng.standard_normal((n, 3))
        v += v[::-1]
        ref = cosine(g) @ g.fold(v)
        out = g.fold(_conjugate_image(g, v))
        assert np.all(np.abs(out - ref).max(0) <= 1e-13 * np.abs(ref).max(0))

    def test_matches_extended_precision(self):
        # a Gaussian LO on an interval detector, at n = 4001
        g = Grid1D(4001, 1e-3, "near")
        v = np.exp(-(g.points / 3e-4) ** 2) * (np.abs(g.points) <= 5e-4)
        ref = _extended_image(g, v)
        ref = np.concatenate([ref, ref[: g.n - g.n_even][::-1]])  # the image is even
        out = _conjugate_image(g, v[:, None])[:, 0]
        assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()


class TestThinCrystalSingleMode:
    def test_detector_independent_single_opo_value(self):
        # thin crystal, plane pump, plane LO: the squeezed quadrature tends
        # to the single-mode value 1/9 regardless of the detection region,
        # its excess falling as l_coh / d: 10 times over two decades of l_c
        # at intervals of 0.2, 1 and 4 w_C, and within 1e-3 at l_c = 5e-8 m
        excess = []
        for l_c in (5e-6, 5e-8):
            p = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=l_c, z_C=0.05, A_p=0.5, w_p=math.inf)
            dets = [DetectorMask.interval(frac * p.w_C, "near") for frac in (0.2, 1.0, 4.0)]
            excess.append([res.vn_squeezed - 1.0 / 9.0
                           for res in squeezing(dets, LocalOscillator(), p)])
        wide, thin = np.array(excess)
        assert np.all(thin > 0)
        assert np.abs(wide / thin - 10.0).max() <= 0.1
        assert thin.max() <= 1e-3


class TestNoiseDensity:
    def test_zero_pump(self, plane_params):
        p = replace(plane_params, A_p=0.0)
        assert noise_density(0.0, p, math.pi / 2) == pytest.approx(1.0)

    def test_substitution_values(self, plane_params):
        p = replace(plane_params, A_p=0.5)
        r_sq = noise_density(0.0, p, math.pi / 2)
        r_anti = noise_density(0.0, p, 0.0)
        assert r_sq == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert r_anti == pytest.approx(9.0, rel=1e-12)

    def test_quadrature_duality(self, plane_params, rng):
        # R(pi/2) R(0) = 1 for every q at resonance and zero frequency
        q = rng.uniform(0.0, 5.0, size=100) / plane_params.l_coh
        r_sq = noise_density(q, plane_params, math.pi / 2)
        r_anti = noise_density(q, plane_params, 0.0)
        assert np.abs(r_sq * r_anti - 1.0).max() <= 1e-12


def disk(radius, p, lo):
    return squeezing([DetectorMask.radial(radius, "far")], lo, p)[0]


class TestRadialSpectrum:
    def test_small_radius_limit(self, plane_params):
        lo = LocalOscillator(waist=plane_params.r0)
        res = disk(1e-12 * plane_params.r0, plane_params, lo)
        assert res.vn_squeezed == pytest.approx(single_mode_vn(0.9), abs=1e-7)
        small = disk(0.01 * plane_params.r0, plane_params, lo)
        assert small.vn_squeezed == pytest.approx(single_mode_vn(0.9), abs=1e-4)

    def test_tiny_disk_detects_light(self, plane_params):
        # a non-empty disk has a positive LO measure however small it is,
        # int_0^X u exp(-2 u^2) du ~ X^2 / 2 in u = r / r0
        lo = LocalOscillator(waist=plane_params.r0)
        res = disk(1e-12 * plane_params.r0, plane_params, lo)
        assert res.shot > 0
        assert abs(res.shot - 0.5e-24) <= 1e-9 * 0.5e-24
        assert abs(res.vn_squeezed - single_mode_vn(0.9)) <= 1e-12

    def test_zero_pump_flat(self, plane_params):
        p = replace(plane_params, A_p=0.0)
        lo = LocalOscillator(waist=plane_params.r0)
        dets = [DetectorMask.radial(r * plane_params.r0) for r in (0.3, 1.0, 2.5)]
        for res in squeezing(dets, lo, p):
            assert res.vn_squeezed == pytest.approx(1.0, abs=1e-10)

    def test_squeezing_degrades_past_r0(self, plane_params):
        lo = LocalOscillator(waist=plane_params.r0)
        inner = disk(0.3 * plane_params.r0, plane_params, lo)
        outer = disk(3.0 * plane_params.r0, plane_params, lo)
        assert outer.vn_squeezed > inner.vn_squeezed
        assert inner.vn_squeezed < 0.02

    def test_disk_only_on_the_plane_pump_far_route(self, plane_params):
        # radial is a 2-D disk; the 1-D routes (near field, dense modes)
        # refuse it rather than run the interval of the same half width.
        # A near disk is a valid band: squeezing alone refuses it.
        r = 0.5 * plane_params.r0
        for det in (DetectorMask.radial(plane_params.l_coh, "near"),
                    DetectorMask("radial", "near", 0.0, plane_params.l_coh)):
            with pytest.raises(ConfigurationError, match="radial"):
                squeezing([det], LocalOscillator(), plane_params)
        p = replace(plane_params, w_p=3.0 * plane_params.l_coh)
        grid = _grid(p, "far", [DetectorMask.interval(r, "far")])
        for q in (p, plane_params):
            modes = solve_io(grid, q)
            with pytest.raises(ConfigurationError, match="radial"):
                squeezing([DetectorMask.radial(r, "far")], LocalOscillator(), modes)
        # a finite pump without modes has no route at all, disk or not
        with pytest.raises(ConfigurationError, match="finite pump"):
            squeezing([DetectorMask.radial(r, "far")], LocalOscillator(), p)

    @pytest.mark.parametrize("radius", [-1e-4, math.inf, math.nan])
    def test_bad_radius_rejected(self, plane_params, radius):
        with pytest.raises(ConfigurationError):
            disk(radius, plane_params, LocalOscillator())

    @pytest.mark.parametrize("detuning,omega_bar", [(0.0, 0.0), (0.3, 0.5)])
    def test_matches_quadpack_oracle(self, plane_params, detuning, omega_bar):
        # Gauss panels against adaptive QUADPACK on the same density; the
        # narrow LO spots need panels narrower than the sinc lobes
        p = replace(plane_params, detuning=detuning, omega_bar=omega_bar)
        for w_lo in (None, p.r0, 0.01 * p.r0):
            c = 0.0 if w_lo is None else 2.0 * (p.r0 / w_lo) ** 2
            lo = (LocalOscillator() if w_lo is None
                  else LocalOscillator(waist=w_lo))
            for big_x in (0.4, 1.7, 3.0):
                res = disk(big_x * p.r0, p, lo)
                for phase, got in ((math.pi / 2, res.vn_squeezed), (0.0, res.vn_antisqueezed)):
                    ref = circular_vn(big_x, p, phase, c)
                    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_infinite_waist_is_the_plane_lo(self, plane_params):
        # the plane LO is the Gaussian of infinite waist: the default, and
        # the limit that ever wider Gaussian LOs approach
        r = 1.3 * plane_params.r0
        plane = disk(r, plane_params, LocalOscillator())
        infinite = disk(r, plane_params, LocalOscillator(waist=math.inf))
        assert (infinite.vn_squeezed, infinite.shot) == (plane.vn_squeezed, plane.shot)
        wide = disk(r, plane_params, LocalOscillator(waist=1e6 * plane_params.r0))
        assert abs(wide.vn_squeezed - plane.vn_squeezed) <= 1e-11
        assert abs(wide.shot / plane.shot - 1) <= 1e-11

    def test_vn_is_non_negative(self, plane_params):
        lo = LocalOscillator(waist=plane_params.r0)
        res = disk(1.3 * plane_params.r0, plane_params, lo)
        assert res.vn_squeezed >= 0.0 and res.vn_antisqueezed >= 0.0


class TestPlanePumpNearSpectrum:
    @pytest.mark.parametrize("d_scaled,expected", sorted(BRUTE_INTERVAL_VN.items()))
    def test_brute_force_reference(self, plane_params, d_scaled, expected):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.99, w_p=math.inf
        )
        det = DetectorMask.interval(d_scaled * plane_params.l_coh, "near")
        (res,) = squeezing([det], LocalOscillator(), p)
        assert res.vn_squeezed == pytest.approx(expected, abs=2e-5)

    @pytest.mark.parametrize("a_p", [0.9, 0.99])
    def test_sweep_matches_interval_oracle(self, plane_params, a_p):
        # half widths on both sides of 2d = 30 l_coh, where the panel width
        # starts to halve, through level 4 (2d = 300), where unhalved panels
        # would err by 5e-4, to levels 5 and 7 (2d = 600, 2000)
        p = replace(plane_params, A_p=a_p)
        d = np.array([0.05, 0.5, 5.0, 17.5, 22.5, 27.5, 60.0, 150.0, 300.0, 1000.0])
        dets = [_detector("interval", "near", x) for x in d * p.l_coh]
        vns = np.array([res.vn_squeezed for res in squeezing(dets, LocalOscillator(), p)])
        assert np.abs(vns - interval_vn(d, a_p)).max() <= 1e-9

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
    def test_near_threshold_matches_interval_oracle(self, plane_params, eps):
        # R - 1 keeps its absolute accuracy as the gain nears threshold;
        # weights split into |v|^2 and u v_- lost it all by A_p = 1 - 1e-8
        p = replace(plane_params, A_p=1.0 - eps)
        d = np.array([0.3, 1.0, 3.0])
        dets = [_detector("interval", "near", x) for x in d * p.l_coh]
        vns = np.array([res.vn_squeezed for res in squeezing(dets, LocalOscillator(), p)])
        assert np.abs(vns - interval_vn(d, p.A_p)).max() <= 1e-12

    def test_sweep_keeps_no_panels(self, plane_params):
        # 16 detectors at level 4 (2b in (240, 480] l_coh) read one stream of
        # panels, one 256-panel chunk at a time, and the call keeps none of
        # it: a process-wide cache of the level kept 2.5 MB and peaked at
        # 2.9 MB; here under 0.1 MB stays and the peak is under 1 MB.  A
        # configuration of its own keeps any other test's work out of it
        p = replace(plane_params, A_p=0.85)
        dets = [DetectorMask.interval(b * p.l_coh, "near") for b in np.linspace(125.0, 240.0, 16)]
        tracemalloc.start()
        try:
            results = squeezing(dets, LocalOscillator(), p)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [res.route for res in results] == ["planepump_near"] * 16
        assert retained < 0.1 * 2**20 and peak < 2**20

    def test_wide_detector_approaches_single_mode(self, plane_params):
        det = DetectorMask.interval(200.0 * plane_params.l_coh, "near")
        (res,) = squeezing([det], LocalOscillator(), plane_params)
        assert res.vn_squeezed == pytest.approx(single_mode_vn(0.9), abs=1e-3)

    def test_antisqueezed_quadrature(self, plane_params):
        det = DetectorMask.interval(2.0 * plane_params.l_coh, "near")
        (res,) = squeezing([det], LocalOscillator(), plane_params)
        assert res.vn_squeezed < 1.0 < res.vn_antisqueezed

    def test_dense_consistency_interval(self, plane_params,
                                        dense_plane_near):
        # dense matrix route and closed-form diagonal route agree where the
        # grid resolves the problem (detector edges snapped between cells)
        modes, g = dense_plane_near
        lo = LocalOscillator()
        dets = [DetectorMask.interval((cells + 0.5) * g.step, "near") for cells in (17, 34)]
        for dense, closed in zip(squeezing(dets, lo, modes), squeezing(dets, lo, plane_params)):
            assert dense.vn_squeezed == pytest.approx(closed.vn_squeezed, abs=1e-3)
            assert dense.shot == pytest.approx(closed.shot, rel=2e-2)

    def test_dense_consistency_pixel_pair(self, plane_params,
                                          dense_plane_near):
        modes, g = dense_plane_near
        lo = LocalOscillator()
        width = 32.5 * g.step
        dets = [DetectorMask.pixel_pair(rho_cells * g.step, width, "near")
                for rho_cells in (64, 96)]
        for dense, closed in zip(squeezing(dets, lo, modes), squeezing(dets, lo, plane_params)):
            assert dense.vn_squeezed == pytest.approx(closed.vn_squeezed, abs=2e-3)

    def test_merged_pixels_match_interval(self, plane_params):
        # pixels closer than half a width form one centered interval
        w = plane_params.l_coh
        lo = LocalOscillator()
        merged, interval = squeezing([DetectorMask.pixel_pair(0.0, w, "near"),
                                      DetectorMask.interval(w / 2, "near")], lo, plane_params)
        assert merged.vn_squeezed == pytest.approx(interval.vn_squeezed, rel=1e-9)

    def test_continuity_at_pixel_merge_point(self, plane_params):
        w = plane_params.l_coh
        lo = LocalOscillator()
        just_merged, just_split = squeezing([DetectorMask.pixel_pair(w / 2 * 0.9999, w, "near"),
                                             DetectorMask.pixel_pair(w / 2 * 1.0001, w, "near")],
                                            lo, plane_params)
        assert just_merged.vn_squeezed == pytest.approx(just_split.vn_squeezed, abs=1e-3)


class TestPlanePumpFarSpectrum:
    def far_setup(self, a_p=0.9):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=a_p, w_p=math.inf
        )
        return p

    def test_numeric_analytic_consistency(self):
        # dense far-field solve against the 1-D restriction of the closed
        # forms: same detector and LO expressed in each formalism, 1e-4
        p = self.far_setup()
        q_max = 2.0 / p.l_coh
        g = Grid1D(1025, 4.0 * q_max, "far")
        modes = solve_io(g, p)
        x_of_q = p.lambda_s * p.f_lens / (2 * math.pi)
        lo = LocalOscillator(waist=p.r0)
        dets = [DetectorMask.interval((cells + 0.5) * g.step * x_of_q, "far")
                for cells in (64, 192)]
        for det, dense, closed in zip(dets, squeezing(dets, lo, modes), squeezing(dets, lo, p)):
            assert dense.vn_squeezed == pytest.approx(closed.vn_squeezed, abs=1e-4)
            # independent Riemann evaluation of the same 1-D density ratio
            qs = np.abs(g.points)
            mask = det.indicator(g, p)
            wgt = np.exp(-2.0 * (qs[mask] * x_of_q / p.r0) ** 2)
            dens = noise_density(g.points[mask], p, math.pi / 2)
            riemann = float(np.sum(wgt * dens) / np.sum(wgt))
            assert dense.vn_squeezed == pytest.approx(riemann, abs=1e-4)

    def test_nonzero_frequency_matches_density(self):
        # at resonance with nonzero analysis frequency the single dense pair
        # suffices (V at -omega is its conjugate); cross-check against the
        # closed-form density, which evaluates V(-omega) explicitly
        p = self.far_setup()
        p = replace(p, omega_bar=1.0)
        q_max = 2.0 / p.l_coh
        g = Grid1D(1025, 4.0 * q_max, "far")
        modes = solve_io(g, p)
        x_of_q = p.lambda_s * p.f_lens / (2 * math.pi)
        lo = LocalOscillator()
        phases = (math.pi / 2, 0.0)
        dets = [DetectorMask.interval((cells + 0.5) * g.step * x_of_q, "far")
                for cells in (96, 160)]
        for phase, det, dense in zip(phases, dets, squeezing(dets, lo, modes)):
            vn = dense.vn_squeezed if phase else dense.vn_antisqueezed
            mask = det.indicator(g, p)
            dens = noise_density(g.points[mask], p, phase)
            assert vn == pytest.approx(float(np.mean(dens)), abs=1e-4)

    @pytest.mark.parametrize("detuning,omega_bar", [(0.0, 0.0), (0.3, 0.5)])
    def test_matches_quadpack_oracle(self, detuning, omega_bar):
        p = self.far_setup()
        p = replace(p, detuning=detuning, omega_bar=omega_bar)
        x_of_q = p.lambda_s * p.f_lens / (2 * math.pi)
        unit = x_of_q / p.l_coh  # detection-plane meters per unit of q l_coh
        gauss = LocalOscillator(waist=p.r0)
        narrow = LocalOscillator(waist=0.01 * p.r0)
        cases = [
            (DetectorMask.interval(7.3 * unit, "far"), LocalOscillator()),
            (DetectorMask.pixel_pair(5.0 * unit, 3.0 * unit, "far"), LocalOscillator()),
            (DetectorMask.interval(7.3 * unit, "far"), gauss),
            (DetectorMask.pixel_pair(2.0 * unit, 2.5 * unit, "far"), gauss),
            (DetectorMask.interval(1.0 * unit, "far"), narrow),
        ]
        for det, lo in cases:
            c = 0.0 if math.isinf(lo.waist) else 2.0 * (x_of_q / (lo.waist * p.l_coh)) ** 2
            x_lo, x_hi = (b * p.l_coh for b in det.bounds_on_axis(p))
            (res,) = squeezing([det], lo, p)
            for phase, got in ((math.pi / 2, res.vn_squeezed), (0.0, res.vn_antisqueezed)):
                ref = far_vn(x_lo, x_hi, p, phase, c)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_pixel_pair_small_width_matches_density(self):
        p = self.far_setup()
        x_of_q = p.lambda_s * p.f_lens / (2 * math.pi)
        q_c = 0.8 / p.l_coh
        det = DetectorMask.pixel_pair(q_c * x_of_q, 0.002 * x_of_q / p.l_coh, "far")
        (res,) = squeezing([det], LocalOscillator(), p)
        assert res.vn_squeezed == pytest.approx(
            float(noise_density(q_c, p, math.pi / 2)), abs=1e-4
        )

    def test_gaussian_pump_approaches_the_plane_pump(self, plane_params):
        # b -> inf in the far field: detectors fixed in r0 units under a plane
        # LO, one dense sweep per shape on the grid the CLI sizes, against the
        # plane-pump closed form.  The squeezed gap falls about as 1/sqrt(b);
        # at b = 25, 100 and 900 it reads 5.68e-2, 2.86e-2 and 9.60e-3 for the
        # 0.5 r0 interval, and at most 1.02e-2 at b = 900 (the 1 r0 pair).
        # The pair at 2 r0 reads 7.73e-3, 1.00e-2 and 4.91e-3, not monotone,
        # so it is held to the end points only.
        p, r0, lo = plane_params, plane_params.r0, LocalOscillator()
        sweeps = [([_detector("interval", "far", x * r0) for x in (0.5, 1.0, 2.0)], (0, 1, 2)),
                  ([_detector("pixel_pair", "far", x * r0, r0) for x in (1.0, 2.0, 3.0)],
                   (0, 2))]
        for dets, monotone in sweeps:
            plane = [res.vn_squeezed for res in squeezing(dets, lo, p)]
            gaps = []  # [b][detector]
            for b in (25.0, 100.0, 900.0):
                q = replace(p, w_p=math.sqrt(b) * p.l_coh)
                modes = solve_io(_grid(q, "far", dets), q)
                gaps.append([abs(res.vn_squeezed - vn)
                             for res, vn in zip(squeezing(dets, lo, modes), plane)])
            for i, det in enumerate(dets):
                at25, at100, at900 = (row[i] for row in gaps)
                assert at900 < at25 and at900 <= 1.5e-2, (det, at25, at100, at900)
                if i in monotone:
                    assert at25 > at100 > at900, (det, at25, at100, at900)

    def test_panel_blocks_continue_past_the_first(self, monkeypatch, plane_params):
        # a band past t = 2 sqrt(_CHUNK pi) ~ 227, a far detector wider than
        # ~113 r0, takes its sinc zeros in more than one block; every result
        # equals the one-block evaluation
        import confocal_opo.homodyne as homodyne

        p = plane_params
        cases = [(getattr(DetectorMask, shape)(x * p.r0, "far"), lo)
                 for shape in ("interval", "radial") for x in (150.0, 400.0)
                 for lo in (LocalOscillator(), LocalOscillator(waist=30.0 * p.r0))]
        for det, _ in cases:  # t = 2 r / r0 spans more sinc zeros than one block
            assert (2.0 * det.outer / p.r0) ** 2 / (4.0 * math.pi) > homodyne._CHUNK
        blocks = [squeezing([det], lo, p)[0] for det, lo in cases]
        monkeypatch.setattr(homodyne, "_CHUNK", 2**20)
        for (det, lo), got in zip(cases, blocks):
            (ref,) = squeezing([det], lo, p)
            assert got.route == ref.route
            assert abs(got.vn_squeezed - ref.vn_squeezed) <= 1e-14
            assert abs(got.vn_antisqueezed - ref.vn_antisqueezed) <= 1e-14
            assert abs(got.shot / ref.shot - 1.0) <= 1e-14

    def test_wide_band_memory_stays_small(self):
        # the widest far run of the goldens, ~70,000 sinc zeros: its chunks
        # of 256 panels keep the Python heap under 2 MiB (4,096-panel chunks
        # peaked at 7.35 MiB)
        sc = scenario_from_config(parse_config(GOLDEN / "planepump_far_wide.cfg"))
        dets = [_detector(sc.detector, sc.plane, float(x)) for x in sc.values]
        assert sum(det is not None for det in dets) == 2
        tracemalloc.start()
        try:
            squeezing([det for det in dets if det is not None], sc.lo, sc.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _curve_rows(p, plane, shape, values, lo, pixel_width=None):
    """The rows the CLI writes for a sweep of ``values`` (abscissa in
    detection-plane meters), each as its printed fields."""
    sc = Scenario(p, plane, shape, list(values), lo, abscissa_name="x", label="run",
                  pixel_width=pixel_width)
    (_, _, _, rows), _ = run_scenario(sc)
    return [[_fmt(x) for x in row] for row in rows]


class TestSweep:
    def test_zero_size_point_is_shot_noise(self, plane_params):
        # a zero-size detector detects nothing: the CLI writes shot noise
        rows = _curve_rows(plane_params, "near", "interval",
                           [0.0, plane_params.l_coh], LocalOscillator())
        assert rows[0] == ["0", "1", "1", "0"]
        assert float(rows[1][1]) < 1.0 < float(rows[1][2])

    @pytest.mark.parametrize("plane_pump", [True, False])
    def test_zero_radius_far_point_is_shot_noise(self, plane_params, plane_pump):
        # an empty detector detects nothing on either pump route: a disk on
        # the plane-pump route, its 1-D counterpart, the interval, on the
        # dense one (which computes no disk)
        p = plane_params if plane_pump else replace(
            plane_params, w_p=4 * plane_params.l_coh)
        r0 = plane_params.r0
        shape = "radial" if plane_pump else "interval"
        rows = _curve_rows(p, "far", shape, [0.0, 0.5 * r0], LocalOscillator(waist=r0))
        assert [float(x) for x in rows[0][1:]] == [1.0, 1.0, 0.0]
        vn_sq, vn_anti, shot = (float(x) for x in rows[1][1:])
        assert vn_sq < 1.0 < vn_anti and shot > 0

    @pytest.mark.parametrize("plane", ["near", "far"])
    def test_finite_pump_needs_modes(self, plane_params, plane):
        # squeezing contracts the modes it is given and solves none: a
        # finite pump without them is refused in either plane
        p = replace(plane_params, w_p=2.0 * plane_params.l_coh)
        unit = p.l_coh if plane == "near" else p.r0
        with pytest.raises(ConfigurationError, match="finite pump"):
            squeezing([DetectorMask.interval(unit, plane)], LocalOscillator(), p)

    def test_more_modes_keep_squeezing_at_large_detectors(self):
        # ordering by mode count: at a fixed large detector the wider pump
        # (larger b) keeps more squeezing
        p0 = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9, w_p=math.inf
        )
        radius = 7.5 * p0.l_coh
        vns = {}
        for b in (4.0, 25.0):
            p = replace(p0, w_p=math.sqrt(b) * p0.l_coh)
            g = Grid1D(961, 4 * radius, "near")
            modes = solve_io(g, p)
            det = DetectorMask.interval(radius, "near")
            vns[b] = squeezing([det], LocalOscillator(), modes)[0].vn_squeezed
        assert vns[25.0] <= vns[4.0]

    def test_gaussian_pump_pixel_sweep_returns_to_shot_noise(self):
        p0 = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9, w_p=math.inf
        )
        p = replace(p0, w_p=2.0 * p0.l_coh)
        values = [0.0, 6.0 * p0.l_coh]
        lo = LocalOscillator()
        dets = [_detector("pixel_pair", "near", v, p0.l_coh) for v in values]
        modes = solve_io(_grid(p, "near", dets), p)
        pts = squeezing(dets, lo, modes)
        assert pts[0].vn_squeezed < 0.9  # squeezing survives at contact
        assert pts[1].vn_squeezed > 0.95  # far pixels are uncorrelated vacuum

    def test_detuned_finite_frequency_sweep(self, plane_params):
        # both detuning and analysis frequency nonzero: the modes of one
        # solve give the opposite-frequency system too
        p = replace(plane_params, w_p=3 * plane_params.l_coh,
                    detuning=0.3, omega_bar=0.5)
        det = DetectorMask.interval(2 * plane_params.l_coh, "near")
        modes = solve_io(_grid(p, "near", [det]), p)
        (pt,) = squeezing([det], LocalOscillator(), modes)
        assert 0.0 <= pt.vn_squeezed < 1.0
        assert np.isfinite(pt.vn_antisqueezed)

    def test_detector_beyond_grid_rejected(self, plane_params):
        p = replace(plane_params, w_p=4 * plane_params.l_coh)
        g = Grid1D(257, 16 * plane_params.l_coh, "near")
        modes = solve_io(g, p)
        reach, half = 20 * plane_params.l_coh, 16 * plane_params.l_coh
        with pytest.raises(NumericalFailure, match=f"^detector reach {reach:.3e} exceeds "
                                                   f"the grid half extent {half:.3e}$"):
            squeezing([DetectorMask.interval(20 * plane_params.l_coh, "near")],
                      LocalOscillator(), modes)

    @pytest.mark.parametrize("pixel_width", [None, 1e-5])
    def test_unknown_shape_rejected(self, tmp_path, capsys, pixel_width):
        # "disk" is neither run as a pixel pair nor left to a TypeError: a
        # run naming it exits 2 with one line
        text = ("lambda_s = 1.064e-6\nn_s = 2.12\nl_c = 0.01\nz_C = 0.05\nA_p = 0.9\n"
                "pump = plane\nplane = far\ndetector = disk\nsweep_min = 0\nsweep_max = 1e-4\n")
        if pixel_width is not None:
            text += f"pixel_width = {pixel_width}\n"
        cfg = tmp_path / "disk.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "disk" in line

    def test_vn_nonnegative_and_quadratures_ordered(self, plane_params):
        # vn >= 0 on every route; at resonance and zero frequency the pi/2
        # quadrature never exceeds the phi = 0 one
        lo, far_lo = LocalOscillator(), LocalOscillator(waist=plane_params.r0)
        near = squeezing([_detector("interval", "near", x)
                          for x in np.linspace(0.1, 4.0, 9) * plane_params.l_coh], lo, plane_params)
        far = squeezing([_detector("radial", "far", x)
                         for x in np.linspace(0.1, 2.0, 5) * plane_params.r0], far_lo, plane_params)
        p_g = replace(plane_params, w_p=3 * plane_params.l_coh)
        dets = [_detector("interval", "near", x)
                for x in np.linspace(0.5, 6.0, 4) * plane_params.l_coh]
        modes = solve_io(_grid(p_g, "near", dets), p_g)
        dense = squeezing(dets, lo, modes)
        for pt in near + far + dense:
            assert pt.vn_squeezed >= 0.0
            assert pt.vn_squeezed <= pt.vn_antisqueezed + 1e-12

    def test_interval_monotonicity_before_kernel_zero(self, plane_params):
        # vn cannot rise while the detector's largest separation 2d stays
        # below the first zero u_C of the noise correlation (see
        # planepump_reference); beyond d = u_C / 2 it may, and near threshold
        # it does around d ~ l_coh
        u_c = correlation_first_zero(plane_params.A_p)
        half_widths = np.linspace(0.0, u_c / 2.0, 20)
        # the zero-size detector at d = 0 detects nothing: shot noise
        dets = [_detector("interval", "near", x) for x in half_widths[1:] * plane_params.l_coh]
        vns = [1.0] + [res.vn_squeezed for res in squeezing(dets, LocalOscillator(), plane_params)]
        assert not rises(half_widths, vns)


def _curve_case(plane_params, route):
    """(19 detectors, LO, cavity) of a curve on ``route``: two full solves of
    8 windows and one filled with copies of its last window on the dense
    routes, several shared panel levels on the plane-pump near route."""
    p, l_coh, r0 = plane_params, plane_params.l_coh, plane_params.r0
    if route == "planepump-near":
        sizes = np.linspace(0.2, 240.0, 19) * l_coh
        return [DetectorMask.interval(x, "near") for x in sizes], LocalOscillator(), p
    if route == "planepump-far":
        sizes = np.linspace(0.1, 3.0, 19) * r0
        return ([DetectorMask.pixel_pair(x, 0.5 * r0, "far") for x in sizes],
                LocalOscillator(waist=r0), p)
    if route == "dense-near":  # b = 25, at resonance: real factors
        q = replace(p, w_p=5.0 * l_coh)
        dets = [DetectorMask.interval(x, "near") for x in np.linspace(0.3, 12.0, 19) * l_coh]
        lo = LocalOscillator()
    else:  # b = 4, detuned at omega_bar = 0.5: complex factors
        q = replace(p, w_p=2.0 * l_coh, detuning=0.3, omega_bar=0.5)
        sizes = np.linspace(0.1, 3.0, 19) * r0
        dets = [DetectorMask.pixel_pair(x, 0.5 * r0, "far") for x in sizes]
        lo = LocalOscillator(waist=r0)
    return dets, lo, solve_io(_grid(q, dets[0].plane, dets), q)


class TestCurveCall:
    @pytest.mark.parametrize("route", ["dense-near", "dense-far-detuned", "planepump-near",
                                       "planepump-far"])
    def test_curve_is_its_points(self, plane_params, route):
        # one call for a curve returns, bit for bit, what one call per
        # detector returns: a detector's result does not depend on the other
        # detectors of its call, or on its place in a solve of 8 windows
        dets, lo, cavity = _curve_case(plane_params, route)
        curve = squeezing(dets, lo, cavity)
        assert len(curve) == 19 and curve[0] != curve[1]
        assert curve == [squeezing([det], lo, cavity)[0] for det in dets]

    @pytest.mark.parametrize("route", ["dense-near", "planepump-near"])
    def test_empty_curve(self, plane_params, route):
        _, lo, cavity = _curve_case(plane_params, route)
        assert squeezing([], lo, cavity) == []


class TestDenseMemory:
    def test_sweep_memory_does_not_grow_with_its_length(self, plane_params):
        # the windows go through solves of 8 columns, so a 200-detector
        # sweep at n = 2,001 (m = 1,001) peaks within 1.5x an 8-detector
        # one and below one m x m float array, whatever its length
        p = replace(plane_params, w_p=5.0 * plane_params.l_coh)
        modes = solve_io(Grid1D(2001, 20.0 * p.l_coh, "near"), p)
        sizes = np.linspace(0.5, 15.0, 200) * p.l_coh
        peaks = []
        for count in (8, 200):
            dets = [DetectorMask.interval(x, "near") for x in sizes[:count]]
            tracemalloc.start()
            try:
                squeezing(dets, LocalOscillator(), modes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        short, long = peaks
        assert long <= 1.5 * short and long < 8 * modes.grid.n_even**2


class TestOnePath:
    @pytest.mark.parametrize("pump,plane,shape,lo_profile", [
        ("gaussian", "near", "interval", "plane"),
        ("gaussian", "far", "pixel_pair", "gaussian"),
        ("plane", "near", "interval", "plane"),
        ("plane", "near", "pixel_pair", "plane"),
        ("plane", "far", "interval", "plane"),
        ("plane", "far", "interval", "gaussian"),
        ("plane", "far", "pixel_pair", "plane"),
        ("plane", "far", "pixel_pair", "gaussian"),
        ("plane", "far", "radial", "gaussian"),
    ], ids=["dense-near", "dense-far", "near-interval", "near-pixel_pair",
            "far-interval-plane_lo", "far-interval-gaussian_lo",
            "far-pixel_pair-plane_lo", "far-pixel_pair-gaussian_lo", "disk"])
    def test_sweep_point_is_squeezing(self, plane_params, pump, plane, shape, lo_profile):
        # every row of a CLI curve, in both quadratures and in shot, is what
        # squeezing returns for the same detector on the modes of the same
        # grid, as printed, on the route its pump and detector select
        p = plane_params
        if pump == "gaussian":
            p = replace(p, w_p=3.0 * plane_params.l_coh)
        x_of_q = p.lambda_s * p.f_lens / (2 * math.pi)
        unit = p.l_coh if plane == "near" else x_of_q / plane_params.l_coh
        lo = LocalOscillator()
        if lo_profile == "gaussian":
            lo = LocalOscillator(waist=2.0 * unit)
        pixel_width = unit if shape == "pixel_pair" else None
        values = [0.7 * unit, 2.3 * unit]
        dets = [_detector(shape, plane, v, pixel_width) for v in values]
        modes = None
        if pump == "gaussian":
            modes = solve_io(_grid(p, plane, dets), p)
        rows = _curve_rows(p, plane, shape, values, lo, pixel_width)
        route = ("dense" if modes is not None else "planepump_near" if plane == "near"
                 else "planepump_disk" if shape == "radial" else "planepump_far")
        assert len(rows) == len(values)
        results = squeezing(dets, lo, p if modes is None else modes)
        for row, value, res in zip(rows, values, results):
            assert row == [_fmt(x) for x in (value / _unit(p, plane), res.vn_squeezed, res.vn_antisqueezed,
                                              res.shot)]
            assert res.route == route

    def test_plane_pump_sweep_groups_its_spans_in_one_pass(self, monkeypatch, plane_params):
        # 500 far intervals, each on its own spans, are grouped in one pass:
        # at most one spans comparison per detector, where a scan of every
        # window per group makes 500^2
        import confocal_opo.homodyne as homodyne

        compared, window = [], homodyne._planepump_window

        class Spans(tuple):
            __hash__ = tuple.__hash__

            def __eq__(self, other):
                compared.append(other)
                return tuple.__eq__(self, other)

        def counted_window(*args):
            spans, weight, norm = window(*args)
            return Spans(spans), weight, norm

        monkeypatch.setattr(homodyne, "_planepump_window", counted_window)
        sizes = np.linspace(0.1, 3.0, 500) * plane_params.r0
        dets = [DetectorMask.interval(x, "far") for x in sizes]
        results = squeezing(dets, LocalOscillator(), plane_params)
        assert len({res.vn_squeezed for res in results}) == 500
        assert len(compared) <= 500

    @pytest.mark.parametrize("shape", ["radial", "interval"])
    def test_far_routes_evaluate_gain_once_per_chunk(self, monkeypatch, plane_params,
                                                     shape):
        # both quadratures of a far-field point come from one quadrature pass:
        # one mode-gain evaluation and one per-mode noise call, which returns
        # both phases, per chunk of Gauss nodes, not one pass per quadrature
        import confocal_opo.homodyne as homodyne

        passes, chunks, gains, noises = [], [], [], []
        panels, sinc, noise = homodyne._gauss_panels, homodyne.phase_match_sinc, homodyne._mode_noise

        def counted_panels(*args, **kwargs):
            passes.append(args)
            for chunk in panels(*args, **kwargs):
                chunks.append(chunk)
                yield chunk

        def counted_sinc(q, p):
            gains.append(q.shape)
            return sinc(q, p)

        def counted_noise(lam, *at):
            noises.append(lam.shape)
            return noise(lam, *at)

        monkeypatch.setattr(homodyne, "_gauss_panels", counted_panels)
        monkeypatch.setattr(homodyne, "phase_match_sinc", counted_sinc)
        monkeypatch.setattr(homodyne, "_mode_noise", counted_noise)
        lo = LocalOscillator(waist=plane_params.r0)
        det = _detector(shape, "far", 1.3 * plane_params.r0)
        squeezing([det], lo, plane_params)
        assert len(passes) == 1 and len(chunks) >= 1
        assert gains == [t.shape for t, _ in chunks]
        assert noises == [t.shape for t, _ in chunks]

    def test_band_past_the_lo_spot_is_refused(self, plane_params):
        # a Gaussian LO whose intensity underflows to 0 on the whole band
        # leaves no shot noise to normalize by, on either far route
        unit = plane_params.r0
        lo = LocalOscillator(waist=0.3 * unit)
        p = replace(plane_params, w_p=2.0 * plane_params.l_coh)
        det = DetectorMask.pixel_pair(20.0 * unit, unit, "far")
        for cavity in (plane_params, solve_io(_grid(p, "far", [det]), p)):
            with pytest.raises(ConfigurationError,
                               match=r"^no LO light reaches the pixel_pair band \["):
                squeezing([det], lo, cavity)

    def test_route_errors(self, plane_params):
        det = DetectorMask.interval(plane_params.l_coh, "near")
        gaussian_lo = LocalOscillator(waist=plane_params.l_coh)
        with pytest.raises(ConfigurationError, match="plane LO"):
            squeezing([det], gaussian_lo, plane_params)
        p = replace(plane_params, w_p=3.0 * plane_params.l_coh)
        with pytest.raises(ConfigurationError, match="modes"):
            squeezing([det], LocalOscillator(), p)

    @pytest.mark.parametrize("cavity, name", [(None, "NoneType"), ("x", "str")])
    def test_cavity_of_another_type_is_refused(self, cavity, name):
        # neither modes nor a configuration: refused by its type, not an AttributeError
        det = DetectorMask.interval(1e-4, "near")
        with pytest.raises(ConfigurationError, match=f"^cavity must be CavityModes or "
                                                     f"OpoParams, got {name}$"):
            squeezing([det], LocalOscillator(), cavity)
