import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import sici

from confocal_opo import (
    ConfigurationError,
    Grid1D,
    NumericalFailure,
    OpoParams,
    auto_grid,
    delta_2d,
    phase_match_sinc,
    si,
)
from confocal_opo.kernels import (
    _SI_SWITCH,
    _gauss_legendre,
    build_kernel_matrix,
)
from far_reference import entries, far_entries, fold_block
from helpers import flip, kernel_block, ktilde_far, unchecked_kernel, unfold
from kernels_2d_reference import kint_near_2d, ktilde_far_2d
from modes_reference import even_diagonal
from near_reference import near_entries

# Frozen oracle values: adaptive high-precision quadrature of sin(u)/u
# (30-digit arithmetic), independent of both ``si`` and scipy.special.sici.
SI_ORACLE = {
    0.5: 0.49310741804306668916,
    1.0: 0.94608307036718301494,
    2.0: 1.6054129768026948486,
    6.0: 1.4246875512805065358,
    10.0: 1.6583475942188740493,
    25.0: 1.5314825509999613226,
    100.0: 1.5622254668890562934,
    1e4: 1.5708915453859619157,
}
# First root of Si(u) = pi/2 from the same oracle; the kernel's first zero
# sits at sqrt(u1) coherence lengths.
SI_EQ_HALFPI_ROOT = 1.926447660317370582
FIRST_ZERO_LCOH = 1.3879652950695023


class TestSineIntegral:
    @pytest.mark.parametrize("x,expected", sorted(SI_ORACLE.items()))
    def test_frozen_oracle_values(self, x, expected):
        assert abs(si(x) - expected) <= 1e-12

    def test_zero(self):
        assert si(0.0) == 0.0

    def test_odd(self, rng):
        x = rng.uniform(0.01, 50.0, size=200)
        assert np.allclose(si(-x), -si(x), rtol=0, atol=0)

    def test_asymptote(self):
        # |Si(x) - pi/2| <= 2/x tail bound; at 1e6 the true gap is ~9.37e-7
        assert abs(si(1e6) - math.pi / 2) <= 2e-6
        assert si(math.inf) == math.pi / 2 and si(-math.inf) == -math.pi / 2

    def test_branch_agreement_at_switch(self):
        # the series below the switch meets the continued fraction above it
        below, above = si(_SI_SWITCH - 1e-12), si(_SI_SWITCH + 1e-12)
        assert abs(below - above) <= 1e-13

    def test_envelope_and_cross_implementation(self):
        # agreement with the Cephes sici of scipy.special on both branches and
        # across the switch, and the oscillation amplitude <= 2/x about pi/2
        for xs in (np.geomspace(1e-8, 1e8, 4000), np.linspace(0.0, 40.0, 4000)):
            for x in (xs, -xs):
                assert np.max(np.abs(si(x) - sici(x)[0])) <= 4e-15
            tail = xs[xs >= 10.0]
            assert np.all(np.abs(si(tail) - math.pi / 2) <= 2.0 / tail)

    @given(st.floats(min_value=0.0, max_value=1e12))
    def test_odd_and_tail_bound(self, x):
        # odd, zero at zero, |Si(x) - pi/2| <= 2/x for x >= 10
        assert si(-x) == -si(x)
        assert si(0.0) == 0.0
        if x >= 10.0:
            assert abs(si(x) - math.pi / 2) <= 2.0 / x

    def test_docstring_bound_against_mpmath(self):
        # the largest absolute error the docstring states, on its 8,000
        # points, against 30-digit arithmetic
        xs = np.concatenate([np.geomspace(1e-8, 1e8, 4000), np.linspace(0.0, 40.0, 4000)])
        xs = np.concatenate([xs, -xs])
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.si(mpmath.mpf(float(v)))) for v in xs])
        assert np.max(np.abs(si(xs) - exact)) <= 1e-15

    def test_nan(self):
        # NaN stays NaN, leaves its neighbours as they are and takes neither
        # branch's loop to its step bound: no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(si(math.nan))
            out = si([math.nan, 1.0, 10.0])
        assert math.isnan(out[0]) and out[1] == si(1.0) and out[2] == si(10.0)

    def test_array_shape(self):
        out = si(np.ones((3, 4)))
        assert out.shape == (3, 4)
        assert isinstance(si(1.0), float)


def _roots_and_weights(poly, weight, x):
    """40-digit roots of ``poly`` refined from the nodes ``x``, and the exact
    weights ``weight`` of the nodes as given, both rounded to floats."""
    with mpmath.workdps(40):
        roots = [mpmath.findroot(poly, mpmath.mpf(v), tol=mpmath.mpf(10) ** -70, verify=False)
                 for v in x]
        return (np.array([float(r) for r in roots]),
                np.array([float(weight(mpmath.mpf(v))) for v in x]))


class TestGaussRules:
    # the rule of the plane-pump panels, built by Newton's method without
    # numpy.polynomial's companion-matrix eigensolver

    @pytest.mark.parametrize("n", [16, 24])
    def test_legendre_matches_leggauss_and_its_exact_weights(self, n):
        # the nodes equal leggauss's; the weights are checked against their
        # exact value 2 / ((1 - x^2) P_n'(x)^2), not against leggauss, whose
        # end weights at n = 24 are 1.1e-13 off it (these: 4.2e-15)
        x, w = _gauss_legendre(n)
        ref_x, _ = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        roots, exact = _roots_and_weights(
            lambda z: mpmath.legendre(n, z),
            lambda z: 2 / ((1 - z * z) * mpmath.diff(lambda y: mpmath.legendre(n, y), z) ** 2), x)
        assert np.max(np.abs(x - roots)) <= 1e-15
        assert np.max(np.abs(w / exact - 1.0)) <= 1e-14
        assert np.all(np.diff(x) > 0) and np.all(x == -x[::-1]) and np.all(w == w[::-1])


class TestDelta2D:
    def test_value_at_zero(self, plane_params):
        p = plane_params
        assert abs(delta_2d(0.0, p) * 2.0 * p.l_coh**2 - 1.0) <= 1e-12

    def test_first_zero_position(self, plane_params):
        p = plane_params
        f = lambda r: float(delta_2d(r * p.l_coh, p))
        root = brentq(f, 1.0, 1.6, xtol=1e-12)
        assert 1.34 <= root <= 1.40  # anchored at 1.37 +- 0.03
        assert abs(root - FIRST_ZERO_LCOH) <= 1e-6
        assert abs(root - math.sqrt(SI_EQ_HALFPI_ROOT)) <= 1e-9

    def test_negligible_far_tail(self, plane_params):
        p = plane_params
        # oracle value at r = 10 l_coh: (pi/2 - Si(100))/pi = 2.728e-3, and
        # the tail envelope |Delta| l_coh^2 <= 1/(pi (r/l_coh)^2) beyond
        val = abs(delta_2d(10 * p.l_coh, p)) * p.l_coh**2
        assert val == pytest.approx((math.pi / 2 - sici(100.0)[0]) / math.pi, rel=1e-10)
        assert val < 3.2e-3
        for r_scaled in (10.0, 14.0, 30.0, 100.0):
            tail = abs(delta_2d(r_scaled * p.l_coh, p)) * p.l_coh**2
            assert tail <= 1.0 / (math.pi * r_scaled**2) * 1.0000001

    def test_unit_transverse_integral(self, plane_params):
        # integral of Delta over the plane equals 1 (it tends to a 2-D
        # delta).  In v = (r/l_coh)^2 the disk integral is
        # int_0^V (pi/2 - Si(v)) dv = V (pi/2 - Si(V)) + 1 - cos V exactly
        # (integration by parts), against which the quadrature is checked.
        for big_v in (20.0, 35.5):
            num = quad(
                lambda v: math.pi / 2 - sici(v)[0], 0.0, big_v,
                limit=200, epsabs=1e-11,
            )[0]
            exact = big_v * (math.pi / 2 - sici(big_v)[0]) + 1.0 - math.cos(big_v)
            assert abs(num - exact) <= 1e-9
        # the same identity through the implementation under test
        big_v = 1e6
        val = big_v * (math.pi / 2 - si(big_v)) + 1.0 - math.cos(big_v)
        assert abs(val - 1.0) <= 2e-6


class TestNearKernel2D:
    def test_plane_pump_origin(self, plane_params):
        p = plane_params
        val = kint_near_2d((0.0, 0.0), (0.0, 0.0), p)
        assert abs(val - p.A_p / (2.0 * p.l_coh**2)) <= 1e-9 * abs(val)

    def test_swap_symmetry(self, plane_params, rng):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.7,
            w_p=10 * plane_params.l_coh,
        )
        for _ in range(20):
            x = rng.uniform(-3, 3, 2) * p.l_coh
            y = rng.uniform(-3, 3, 2) * p.l_coh
            assert kint_near_2d(x, y, p) == pytest.approx(
                kint_near_2d(y, x, p), rel=1e-12
            )

    def test_parity(self, plane_params, rng):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.7,
            w_p=10 * plane_params.l_coh,
        )
        for _ in range(20):
            x = rng.uniform(-3, 3, 2) * p.l_coh
            y = rng.uniform(-3, 3, 2) * p.l_coh
            assert kint_near_2d(-x, y, p) == pytest.approx(
                kint_near_2d(x, y, p), rel=1e-12
            )

    def test_near_zero_at_kernel_null(self, plane_params):
        # both terms small: one argument at the kernel zero, the other deep
        # in the tail
        p = plane_params
        x = np.array([20.0, 0.0]) * p.l_coh
        y = x - np.array([1.37, 0.0]) * p.l_coh
        val = kint_near_2d(x, y, p)
        assert abs(val) < 0.01 * p.A_p * delta_2d(0.0, p)


class TestPhaseMismatch:
    def test_sinc_factor(self, plane_params):
        assert phase_match_sinc(0.0, plane_params) == 1.0
        q_zero = 2.0 * math.sqrt(math.pi) / plane_params.l_coh
        assert abs(phase_match_sinc(q_zero, plane_params)) <= 1e-12


class TestFarKernel:
    def gauss_params(self, b=25.0):
        p0 = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.8, w_p=math.inf
        )
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.8,
            w_p=math.sqrt(b) * p0.l_coh,
        )
        return p

    def test_origin_value_is_pump_transform_peak(self):
        # integral-normalized transform: K(0,0) = A_p w_p / (2 sqrt(pi)).
        # The peak is not A_p itself; that normalization would not recover
        # the plane-pump operator in the wide-pump limit.
        p = self.gauss_params()
        expected = p.A_p * p.w_p / (2.0 * math.sqrt(math.pi))
        assert ktilde_far(0.0, 0.0, p) == pytest.approx(expected, rel=1e-12)

    def test_transform_integrates_to_amplitude(self):
        # Integral normalization behind threshold units: the pump transform
        # G extracted from the kernel, G(k) = K(0, k) / sinc(m(0, k)),
        # integrates to A_p, so the wide-pump operator recovers the
        # plane-pump coupling A_p at q = 0.
        p = self.gauss_params()

        def transform(k):
            m = (p.l_coh**2 / 4.0) * (k / 2.0) ** 2
            return ktilde_far(0.0, k, p) / np.sinc(m / math.pi)

        val = quad(transform, -10 / p.w_p, 10 / p.w_p, limit=300, epsrel=1e-11)[0]
        assert val == pytest.approx(p.A_p, rel=1e-8)

    def test_swap_and_parity(self, rng):
        p = self.gauss_params()
        for _ in range(20):
            q = float(rng.uniform(-3, 3) / p.l_coh)
            q2 = float(rng.uniform(-3, 3) / p.l_coh)
            assert ktilde_far(q, q2, p) == pytest.approx(
                ktilde_far(q2, q, p), rel=1e-12
            )
            assert ktilde_far(-q, q2, p) == pytest.approx(
                ktilde_far(q, q2, p), rel=1e-12
            )

    def test_plane_pump_rejected(self, plane_params):
        with pytest.raises(ConfigurationError):
            ktilde_far(0.0, 0.0, plane_params)
        with pytest.raises(ConfigurationError):
            ktilde_far_2d((0.0, 0.0), (0.0, 0.0), plane_params)

    def test_2d_origin(self):
        p = self.gauss_params()
        expected = p.A_p * p.w_p**2 / (4.0 * math.pi)
        assert ktilde_far_2d((0.0, 0.0), (0.0, 0.0), p) == pytest.approx(
            expected, rel=1e-12
        )


class TestGrid1D:
    @pytest.mark.parametrize("n", [32, 33, 256, 257])
    def test_symmetry_and_weights(self, n):
        g = Grid1D(n, 1.25e-3, "near")
        assert np.all(np.diff(g.points) > 0)
        assert np.allclose(g.points, -g.points[::-1], rtol=0, atol=1e-18)
        # midpoint rule: n cells of width step fill [-L, L]
        assert np.allclose(np.diff(g.points), g.step, rtol=1e-12, atol=0)
        assert abs(g.n * g.step - 2 * 1.25e-3) <= 1e-12 * 2.5e-3
        assert (0.0 in g.points) == (n % 2 == 1)

    def test_conjugate_roundtrip(self):
        g = Grid1D(129, 2e-3, "near")
        gq = g.conjugate()
        assert gq.domain == "far"
        assert gq.step * g.step == pytest.approx(2 * math.pi / g.n, rel=1e-14)
        back = gq.conjugate()
        assert back.domain == "near"
        assert np.allclose(back.points, g.points, rtol=1e-14)

    @pytest.mark.parametrize("n,half_extent,domain", [
        (1, 1.0, "near"), (33, 0.0, "near"), (33, -1.0, "far"), (33, 1.0, "focal"),
        (33, math.nan, "near"), (33, math.inf, "far"),
        # a size that is not an integer, and a half extent that is not a number
        pytest.param(641.0, 1.0, "near", id="n-float"),
        pytest.param(641.5, 1.0, "near", id="n-fraction"),
        pytest.param("129", 1.0, "near", id="n-str"),
        pytest.param(None, 1.0, "near", id="n-none"),
        pytest.param(33, "1.0", "near", id="half_extent-str"),
        pytest.param(33, None, "far", id="half_extent-none"),
    ])
    def test_bad_uniform_grid_rejected(self, n, half_extent, domain):
        with pytest.raises(ConfigurationError):
            Grid1D(n, half_extent, domain)

    def test_replace_checks_the_grid(self):
        # points derive from the fields, and a replaced grid is checked again
        g = Grid1D(33, 1.0, "near")
        assert np.array_equal(replace(g, half_extent=2.0).points, 2.0 * g.points)
        for change in ({"n": 1}, {"half_extent": math.nan}, {"domain": "focal"}):
            with pytest.raises(ConfigurationError):
                replace(g, **change)

    def test_numpy_integer_size_accepted(self):
        g = Grid1D(np.int64(33), 1.0, "near")
        assert g.n == 33 and len(g.points) == 33

    def test_flip_index(self):
        g = Grid1D(64, 1.0, "far")
        i = np.arange(64)
        assert np.allclose(g.points[flip(g, i)], -g.points[i])

    @pytest.mark.parametrize("n", [32, 33])
    def test_even_basis_fold_unfold(self, n, rng):
        # unfold is the orthonormal even basis E (n x m), fold its transpose:
        # E^T E = I and E E^T is the even projector
        g = Grid1D(n, 1.0, "near")
        assert g.n_even == (n + 1) // 2
        block = rng.normal(size=(g.n_even, 3))
        vals = unfold(g, block)
        assert vals.shape == (n, 3)
        assert np.array_equal(vals, vals[::-1])
        assert np.abs(g.fold(vals) - block).max() <= 1e-15
        x = rng.normal(size=n)
        assert np.abs(unfold(g, g.fold(x)) - 0.5 * (x + x[::-1])).max() <= 1e-15
        assert g.fold(x) @ g.fold(x) == pytest.approx(unfold(g, g.fold(x)) @ x, rel=1e-14)


def _gauss_setup(b=16.0, a_p=0.8, n=None, domain="far"):
    p0 = OpoParams(
        lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=a_p, w_p=math.inf
    )
    p = OpoParams(
        lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=a_p,
        w_p=math.sqrt(b) * p0.l_coh,
    )
    if n is None:
        g = auto_grid(p, domain)
    elif domain == "far":
        g = Grid1D(n, 16.0 / p.w_p, "far")
    else:
        g = Grid1D(n, 4.0 * p.w_p, "near")
    return p, g


class TestKernelMatrix:
    def test_plane_pump_far_is_diagonal_on_even_subspace(self, plane_params):
        g = Grid1D(257, 20.0 / plane_params.l_coh, "far")
        op = entries(g, kernel_block(g, plane_params))
        n = g.n
        idx = np.arange(n)
        mask = np.ones((n, n), dtype=bool)
        mask[idx, idx] = False
        mask[idx, flip(g, idx)] = False
        # only the two parity channels are populated
        assert np.abs(op[mask]).max() <= 1e-15 * np.abs(op).max()
        sig = plane_params.A_p * phase_match_sinc(g.points, plane_params)
        assert np.allclose(even_diagonal(op), sig, atol=1e-14)

    def test_zero_pump_gives_zero_matrix(self, plane_params):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.0,
            w_p=4 * plane_params.l_coh,
        )
        g = auto_grid(p, "far")
        assert np.abs(entries(g, kernel_block(g, p))).max() == 0.0

    def test_no_kept_entry_is_negligible(self):
        # l_c = 1e308 (b = 4.0e-310) puts every entry between 1.6e-168 and
        # 1.3e-154: a cut relative to the largest entry kept them all, and
        # their subnormal products made a run on this grid (pixels 4e-5 wide
        # out to 2e-4, grid_n = 2001) take 4.7 s where it now takes 0.3 s
        p = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=1e308, z_C=0.05, A_p=0.9, w_p=8e-5)
        g = auto_grid(p, "near", (2.2e-4,), 2001)
        kept = np.abs(build_kernel_matrix(g, p))
        assert not np.any((kept > 0.0) & (kept < 1e-100))

    @pytest.mark.parametrize("domain", ["far", "near"])
    def test_parity_and_symmetry_invariants(self, domain):
        p, g = _gauss_setup(b=9.0, n=257, domain=domain)
        op = entries(g, kernel_block(g, p))
        n = g.n
        idx = np.arange(n)
        mirror = flip(g, idx)
        scale = np.abs(op).max()
        assert np.abs(op[mirror][:, :] - op).max() <= 1e-10 * scale
        assert np.abs(op[:, mirror] - op).max() <= 1e-10 * scale
        # unweighted kernel symmetric under swap (uniform weights cancel)
        assert np.abs(op - op.T).max() <= 1e-10 * scale

    @pytest.mark.parametrize("n", [256, 257])
    def test_near_matches_two_dft_oracle(self, n):
        # the far block, taken to the near grid by the cosine oracle, unfolds
        # to the full complex two-DFT transform of the conjugate-grid far operator
        p, g = _gauss_setup(b=16.0, n=n, domain="near")
        block = kernel_block(g, p)
        ref = near_entries(g, p)
        assert block.shape == (g.n_even, g.n_even)
        assert np.abs(entries(g, block) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("domain", ["far", "near"])
    @pytest.mark.parametrize("n,plane", [
        (256, False), (257, False), (1921, False), (256, True), (257, True),
    ])
    def test_gathered_block_matches_far_oracle(
        self, plane_params, domain, n, plane
    ):
        # the Hankel/Toeplitz gather reproduces the fold of the far kernel
        # evaluated on all n^2 grid pairs, which is flip-even only to
        # rounding; the gathered block is flip-even by construction
        if plane:
            p = plane_params
            g = Grid1D(n, 20.0 / p.l_coh, "far")
            g = g if domain == "far" else g.conjugate()
        else:
            p, g = _gauss_setup(b=16.0, n=n, domain=domain)
        far_grid = g if domain == "far" else g.conjugate()
        block = unchecked_kernel(g, p)
        ref = fold_block(far_grid, far_entries(far_grid, p))
        assert block.shape == (g.n_even, g.n_even)
        assert np.abs(block - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_transform_pair_consistency(self):
        # the double DFT of the near matrix reproduces the far matrix built
        # on the conjugate grid (n >= 256, 1e-8 relative)
        p, g = _gauss_setup(b=16.0, n=257, domain="near")
        K_near = kernel_block(g, p)
        conj = g.conjugate()
        K_far = unchecked_kernel(conj, p)
        fmat = (g.step / math.sqrt(2 * math.pi)) * np.exp(
            -1j * np.outer(conj.points, g.points)
        )
        bmat = (conj.step / g.step) * fmat.conj().T
        # forward transform of the near operator: K_far = F K_near B
        K_fwd = fmat @ entries(g, K_near) @ bmat
        far_op = entries(conj, K_far)
        scale = np.abs(far_op).max()
        assert np.abs(K_fwd - far_op).max() <= 1e-8 * scale

    def test_thin_crystal_locality_and_row_sums(self):
        # vanishing l_c / z_C on a grid of step ~ 8 l_coh, which the sizing
        # rule refuses (it samples the thin-crystal limit), gathered without
        # the rule: rows concentrate on the parity channels within two steps
        # and row sums reproduce the pump profile
        from dataclasses import replace

        p0 = OpoParams(
            lambda_s=1e-6, n_s=1.0, l_c=1e-6, z_C=0.01, A_p=0.8, w_p=math.inf
        )
        p = replace(p0, w_p=100 * p0.l_coh)
        g = Grid1D(101, 4 * p.w_p, "near")
        op = entries(g, unchecked_kernel(g, p))
        n = g.n
        idx = np.arange(n)
        near_band = np.zeros((n, n), dtype=bool)
        for off in (-2, -1, 0, 1, 2):
            rows = idx
            cols = np.clip(idx + off, 0, n - 1)
            near_band[rows, cols] = True
            near_band[rows, np.clip(flip(g, idx) + off, 0, n - 1)] = True
        # rows concentrate on the parity band: outside it only alternating
        # discretization ripple far below the peak survives
        off_peak = np.abs(np.where(near_band, 0.0, op)).max(axis=1)
        peak = np.abs(op).max(axis=1)
        center = np.abs(g.points) <= p.w_p  # rows where the pump is appreciable
        assert np.all(off_peak[center] <= 0.05 * peak[center])
        # row sums reproduce the pump profile
        pump = p.A_p * np.exp(-(g.points / p.w_p) ** 2)
        assert np.abs(op.sum(axis=1) - pump).max() <= 1e-3
        # and the action on smooth even fields is pointwise pump
        # multiplication, the defining local-interaction property
        probe = np.exp(-(g.points / (2 * p.w_p)) ** 2)
        assert np.abs(op @ probe - pump * probe).max() <= 1e-3

    def test_grid_too_coarse(self, plane_params):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.5,
            w_p=100 * plane_params.l_coh,
        )
        g = Grid1D(16, 4 * p.w_p, "near")
        with pytest.raises(NumericalFailure, match=r"^near grid step \S+ m exceeds l_coh/8 = "):
            build_kernel_matrix(g, p)
        # far domain: extent below 4x the pump ridge scale
        g2 = Grid1D(64, 1.0 / p.w_p, "far")
        with pytest.raises(NumericalFailure,
                           match=r"^far grid half extent \S+ is below 4 x the pump envelope "):
            build_kernel_matrix(g2, p)

    def test_auto_grid_needs_an_extent(self, plane_params):
        # a plane pump has no envelope, so a near grid with no reach and no
        # half extent has nothing to size
        with pytest.raises(NumericalFailure, match="^no finite extent available to size the grid$"):
            auto_grid(plane_params, "near")

    def test_auto_grid_satisfies_rule(self):
        p, _ = _gauss_setup(b=25.0)
        for domain in ("near", "far"):
            g = auto_grid(p, domain)
            build_kernel_matrix(g, p)  # must not raise
            assert g.n % 2 == 1
