import math
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg

import confocal_opo.iosolver as iosolver
import confocal_opo.kernels as kernels
from confocal_opo import (
    Grid1D,
    LocalOscillator,
    NumericalFailure,
    OpoParams,
    auto_grid,
    phase_match_sinc,
    solve_io,
    squeezing,
)
from confocal_opo.cli import _detector, _grid, fig_scenarios, main, parse_config, \
    scenario_from_config
from confocal_opo.cli import _unit as cli_unit
from confocal_opo.homodyne import _mode_noise, _window_noise
from confocal_opo.kernels import build_kernel_matrix
from lu_reference import lu_uv, residuals
from helpers import (
    GOLDEN,
    analytic_uv_planepump,
    flip,
    golden_commands,
    kernel_block,
    mode_uv,
    output_files,
    threshold_margin,
    unpack,
)
from modes_reference import dense_uv, even_diagonal


def gauss_setup(b=16.0, a_p=0.8, n=257, domain="far", detuning=0.0, omega_bar=0.0):
    p0 = OpoParams(
        lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=a_p, w_p=math.inf,
        detuning=detuning, omega_bar=omega_bar,
    )
    p = replace(p0, w_p=math.sqrt(b) * p0.l_coh)
    if domain == "far":
        g = Grid1D(n, 16.0 / p.w_p, "far")
    else:
        g = Grid1D(n, 4.0 * p.w_p, "near")
    return p, g


class TestAnalyticPair:
    def test_empty_cavity(self, plane_params):
        p = replace(plane_params, A_p=0.0)
        u, v = analytic_uv_planepump(0.0, p)
        assert u == pytest.approx(1.0, abs=1e-15)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_hand_checked_point(self, plane_params):
        # direct substitution at A_p = 0.5, q = 0, resonance, zero frequency
        p = replace(plane_params, A_p=0.5)
        u, v = analytic_uv_planepump(0.0, p)
        assert u == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert v == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_commutator_identity_probe_set(self, plane_params, rng):
        # |U|^2 - |V|^2 = 1 across a 1000-point (q, omega_bar, detuning)
        # probe set, machine precision
        worst = 0.0
        for _ in range(10):
            p = replace(
                plane_params,
                A_p=float(rng.uniform(0, 0.99)),
                detuning=float(rng.uniform(-2, 2)),
                omega_bar=float(rng.uniform(-3, 3)),
            )
            q = rng.uniform(0, 4, size=100) / plane_params.l_coh
            u, v = analytic_uv_planepump(q, p)
            worst = max(worst, np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0).max())
        assert worst <= 1e-12

    def test_plane_pump_is_the_mode_function(self, plane_params):
        # the closed form is the per-mode transform at gain A_p sigma(q)
        p = replace(plane_params, detuning=0.4, omega_bar=-1.2)
        q = np.linspace(0, 2, 7) / plane_params.l_coh
        lam = p.A_p * phase_match_sinc(q, p)
        u, v = analytic_uv_planepump(q, p)
        um, vm = mode_uv(lam, 0.4, -1.2)
        assert np.array_equal(u, um) and np.array_equal(v, vm)


class TestDenseSolve:
    def test_empty_cavity_reflection(self, plane_params):
        p, g = gauss_setup(b=9.0, a_p=0.0)
        assert solve_io(g, p).margin == 1.0
        u, v = dense_uv(g, p)
        off = u - np.diag(np.diag(u))
        assert np.abs(off).max() <= 1e-14
        assert np.abs(np.abs(np.diag(u)) - 1.0).max() <= 1e-12
        assert np.abs(v).max() <= 1e-14

    @pytest.mark.parametrize("detuning,omega_bar", [(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.5, 1.0)])
    def test_plane_pump_reproduces_analytic(self, detuning, omega_bar):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9,
            w_p=math.inf, detuning=detuning, omega_bar=omega_bar,
        )
        g = Grid1D(257, 16.0 / p.l_coh, "far")
        u, v = dense_uv(g, p)
        ua, va = analytic_uv_planepump(g.points, p)
        assert np.abs(even_diagonal(u) - ua).max() <= 1e-8 * np.abs(ua).max()
        assert np.abs(even_diagonal(v) - va).max() <= 1e-8 * max(np.abs(va).max(), 1.0)

    @pytest.mark.parametrize("domain,n,b", [("far", 256, 49.0), ("near", 257, 9.0)])
    def test_bogoliubov_residuals(self, domain, n, b):
        p, g = gauss_setup(b=b, a_p=0.9, n=n, domain=domain)
        r1, r2 = residuals(*dense_uv(g, p))
        assert r1 <= 1e-10
        assert r2 <= 1e-10

    def test_residuals_with_detuning_and_frequency(self):
        p, g = gauss_setup(b=25.0, a_p=0.7, detuning=0.8, omega_bar=1.5)
        assert max(residuals(*dense_uv(g, p))) <= 1e-10
        modes = solve_io(g, p)
        assert (modes.p.detuning, modes.p.omega_bar) == (0.8, 1.5)

    def test_thin_crystal_diagonal_dominance(self):
        # local interaction at l_c / z_C = 1e-4 on a fully resolved grid:
        # U and V concentrate within a few coherence lengths of the parity
        # channels (the raw tail mass decays like the kernel's, 1/width),
        # and act on smooth even fields as pointwise multipliers to well
        # under 1 percent, which is the operational meaning of a local
        # parametric interaction.
        p0 = OpoParams(
            lambda_s=1e-6, n_s=1.0, l_c=1e-6, z_C=0.01, A_p=0.8, w_p=math.inf
        )
        p = replace(p0, w_p=10 * p0.l_coh)
        g = Grid1D(641, 4 * p.w_p, "near")
        u, v = dense_uv(g, p)
        n = g.n
        idx = np.arange(n)
        width = int(round(8 * p.l_coh / g.step))
        dist_diag = np.abs(idx[:, None] - idx[None, :])
        dist_anti = np.abs(idx[:, None] - flip(g, idx)[None, :])
        band = (dist_diag <= width) | (dist_anti <= width)
        for mat in (u - np.eye(n), v):
            off_mass = np.abs(np.where(band, 0.0, mat)).sum()
            assert off_mass <= 0.01 * np.abs(mat).sum()
        probe = np.exp(-(g.points / (1.5 * p.w_p)) ** 2)
        for mat in (u, v):
            rho = mat.sum(axis=1)
            err = np.abs(mat @ probe - rho * probe).max()
            assert err <= 0.01 * np.abs(rho * probe).max()

    def test_continuity_in_pump_amplitude(self):
        p, g = gauss_setup(b=25.0, a_p=0.5)
        u1, v1 = dense_uv(g, p)
        p2 = replace(p, A_p=0.505)
        u2, v2 = dense_uv(g, p2)
        assert np.abs(u2 - u1).max() <= 0.2
        assert np.abs(v2 - v1).max() <= 0.2

    def test_singular_system_near_threshold(self, plane_params):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05,
            A_p=1.0 - 1e-13, w_p=math.inf,
        )
        g = Grid1D(129, 8.0 / plane_params.l_coh, "far")
        with pytest.raises(NumericalFailure, match=r"^input/output system condition \S+ exceeds "
                                                   r"1e\+12; the configuration is at/above"):
            solve_io(g, p)

    def test_grid_too_coarse(self):
        # the solve gathers its own block, under the kernel's sizing rule
        p, _ = gauss_setup(b=16.0)
        for g, match in ((Grid1D(16, 4 * p.w_p, "near"),
                          r"^near grid step \S+ m exceeds l_coh/8 = "),
                         (Grid1D(64, 1.0 / p.w_p, "far"),
                          r"^far grid half extent \S+ is below 4 x the pump envelope scale ")):
            with pytest.raises(NumericalFailure, match=match):
                solve_io(g, p)

    @pytest.mark.parametrize("domain", ["near", "far"])
    def test_non_finite_kernel_is_refused(self, monkeypatch, domain):
        # a block that is not finite is refused before any factor, with no
        # numpy warning (the test settings make one an error); no input
        # reaches one through the scaled kernel, so the pump transform is
        # patched to inf
        p, g = gauss_setup(b=16.0, domain=domain)
        monkeypatch.setattr(kernels, "_pump_transform", lambda k, p: np.full(np.shape(k), np.inf))
        with pytest.raises(NumericalFailure, match=r"^coupling kernel is not finite"):
            solve_io(g, p)

    def test_gate_refuses_a_corrupted_factor(self):
        # every solve checks its backward error: a factor block that the
        # solution reaches, scaled by as little as 1 + 1e-9, is refused in
        # either plane and either shift, and the untouched factors pass
        for plane, detuning in (("far", 0.0), ("near", 0.5)):
            p, _ = gauss_setup(b=25.0, a_p=0.9, detuning=detuning, omega_bar=0.5 * detuning)
            det = _detector("interval", plane, 3.0 * cli_unit(p, plane))
            modes = solve_io(_grid(p, plane, [det]), p)
            assert len(modes.inverses) >= 2
            squeezing([det], LocalOscillator(), modes)
            for eps, block, shift in ((1e-9, -1, 0), (1e-6, -1, 1), (1e-3, -2, 1)):
                inverses = modes.inverses.copy()
                inverses[block, shift] *= 1.0 + eps
                with pytest.raises(NumericalFailure, match=r"^shifted solve backward error \S+ "
                                                           r"exceeds 1e-12; the factorization"):
                    squeezing([det], LocalOscillator(), replace(modes, inverses=inverses))

    def test_eigensolver_matches_divide_and_conquer(self):
        # Lanczos's max|lambda| against LAPACK's divide-and-conquer spectrum
        # of the dense far block of fig 6 at b = 100 on a grid three times
        # as wide as its own (n = 1921, m = 961), within 1e-13
        (sc,) = fig_scenarios(6, {"b": [100.0]})
        g = auto_grid(sc.params, sc.plane, half=12.0 * sc.params.w_p)
        block = kernel_block(g, sc.params)
        assert block.shape == (961, 961)
        lam_evd = scipy.linalg.eigh(block, driver="evd", eigvals_only=True)
        margin = solve_io(g, sc.params).margin
        assert abs(margin - (1.0 - np.abs(lam_evd).max())) <= 1e-13

    @pytest.mark.parametrize("setup", [
        dict(b=16.0, a_p=0.9, n=321, domain="near", detuning=0.4, omega_bar=-0.9),
        dict(b=25.0, a_p=0.9, n=961, domain="far", detuning=0.5, omega_bar=0.5),
    ], ids=["near", "far-wide"])
    def test_shifted_solves_match_dense_lu(self, setup):
        # the shifted solves of a detuned run at nonzero frequency (complex
        # shift) match a dense LU of s I -/+ K, column by column: on the near
        # grid's narrow blocks, and on two 241-row complex blocks of an
        # explicit far grid
        p, g = gauss_setup(**setup)
        modes = solve_io(g, p)
        block = kernel_block(g, p)
        x = np.random.default_rng(3).standard_normal((g.n_even, 3))
        for y, sign in zip(modes.solve(x), (1.0, -1.0)):
            ref = np.linalg.solve(modes.shift * np.eye(g.n_even) - sign * block, x)
            assert np.all(np.abs(y - ref).max(0) <= 1e-12 * np.abs(ref).max(0))

    def test_matches_lu_oracle(self):
        # the eigenbasis oracle rebuilds the LU solution of the cavity
        # relation of a detuned near run at nonzero frequency
        p, g = gauss_setup(b=16.0, a_p=0.9, n=321, domain="near",
                              detuning=0.4, omega_bar=-0.9)
        u, v = dense_uv(g, p)
        u_lu, v_lu = lu_uv(g, p)
        assert np.abs(u - u_lu).max() <= 1e-12 * np.abs(u_lu).max()
        assert np.abs(v - v_lu).max() <= 1e-12 * np.abs(v_lu).max()

    @pytest.mark.parametrize("detuning,omega_bar", [(0.0, 0.0), (0.7, 0.0), (0.4, -1.3)])
    def test_contraction_identity(self, detuning, omega_bar):
        # ||g_z(K) x||^2 - ||x||^2 from two shifted solves equals
        # sum_k c_k^2 (R_phi(lambda_k) - 1) over an eigenbasis of K, on a
        # random banded K of 3 blocks of 8 with 3 padded rows, within 1e-13,
        # for each column of x; the solve's margin is 1 - max|lambda| of the
        # same spectrum
        rng = np.random.default_rng(11)
        nb, s, m = 3, 8, 21
        blocks = rng.standard_normal((nb, 2, s, s))
        blocks[:, 0] += np.swapaxes(blocks[:, 0], -1, -2)
        blocks[-1, 1] = 0.0
        tail = slice(m - (nb - 1) * s, None)  # the padded rows of the last block
        blocks[-1, 0, tail] = blocks[-1, 0, :, tail] = blocks[-2, 1, tail] = 0.0
        blocks *= 0.9 / np.abs(unpack(blocks, m)).sum(axis=1).max()  # every |lambda| < 0.9
        p = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9, w_p=1e-4,
                      detuning=detuning, omega_bar=omega_bar)
        with patch.object(iosolver, "build_kernel_matrix", lambda grid, p: blocks):
            modes = solve_io(Grid1D(2 * m - 1, 1.0, "far"), p)
        x = rng.standard_normal((m, 3))
        lam, q = np.linalg.eigh(unpack(blocks, m))
        assert abs(modes.margin - (1.0 - np.abs(lam).max())) <= 1e-13
        weights = ((q.T @ x) ** 2).T
        for got, noise in zip(_window_noise(modes, x), _mode_noise(lam, detuning, omega_bar)):
            want = weights @ noise
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, weights @ np.abs(noise)))

    def test_two_solves_write_identical_bytes(self, tmp_path):
        # a detuned run at nonzero frequency (complex factors), twice
        cfg = str(GOLDEN / "detuned_near.cfg")
        outputs = []
        for name in ("first", "second"):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs.append(output_files(tmp_path / name))
        assert outputs[0] and outputs[0] == outputs[1]


class TestDenseMemory:
    def test_no_n_by_n_array_in_build_or_solve(self):
        # the dense route keeps K in banded blocks and its factors in blocks
        # of the same size: neither the kernel build nor the solve, its own
        # build included, allocates as much as one m x m float64 array
        # (m = ceil(n/2)) above what is live on entry, near (n = 2,001,
        # band 15) or far (n = 2,881, band 91)
        near = gauss_setup(b=100.0, a_p=0.9, n=2001, domain="near")
        p_far, _ = gauss_setup(b=900.0, a_p=0.9)
        far = (p_far, auto_grid(p_far, "far"))
        assert (near[1].n, far[1].n) == (2001, 2881)

        def allocated(fn, *args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base

        for p, g in (near, far):
            unit = g.n_even**2 * np.dtype(float).itemsize
            tracemalloc.start()
            try:
                _, build = allocated(build_kernel_matrix, g, p)
                _, solve = allocated(solve_io, g, p)
            finally:
                tracemalloc.stop()
            assert build < unit, f"build_kernel_matrix allocated {build / unit:.2f} m^2 floats"
            assert solve < unit, f"solve_io allocated {solve / unit:.2f} m^2 floats"

    def test_margin_holds_no_krylov_basis(self):
        # Lanczos runs on three m-vectors and stores no basis: on fig 9's far
        # grid at b = 900 (n = 2,881, m = 1,441) _largest_gain allocates under
        # 32 m-vectors above what is live on entry (a stored basis took 131)
        p, _ = gauss_setup(b=900.0, a_p=0.9)
        g = auto_grid(p, "far")
        assert g.n == 2881
        blocks = build_kernel_matrix(g, p)
        unit = g.n_even * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            iosolver._largest_gain(blocks, g.n_even)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 32 * unit, f"_largest_gain allocated {peak / unit:.1f} m-vectors"


class TestThresholdMargin:
    def test_zero_pump(self):
        p, g = gauss_setup(b=16.0, a_p=0.0)
        assert solve_io(g, p).margin == pytest.approx(1.0, abs=1e-14)

    def test_plane_pump_margin(self, plane_params):
        # odd grid holds the q = 0 threshold mode, where sinc is exactly 1
        g = Grid1D(257, 16.0 / plane_params.l_coh, "far")
        assert abs(solve_io(g, plane_params).margin - 0.1) <= 1e-9

    def test_margin_grows_for_tighter_pump(self):
        margins = []
        for b in (100.0, 25.0, 4.0):
            p, g = gauss_setup(b=b, a_p=0.9)
            margins.append(solve_io(g, p).margin)
        assert margins[0] < margins[1] < margins[2]
        assert margins[0] > 0.1  # finite pump is always further from threshold

    def test_margin_matches_eigvalsh_on_every_golden_dense_run(self):
        # the margin that summary.txt prints, from Lanczos, against the
        # eigvalsh spectrum of the same block, on every dense scenario of
        # the golden commands (figs 6, 7, 9 and 10, at b = 900 too, and the
        # Gaussian-pump run configs), within 1e-13
        scenarios = []
        for args in golden_commands().values():
            if args[0] == "run":
                scenarios.append(scenario_from_config(parse_config(args[2])))
            elif args[2] in ("6", "7", "9", "10"):
                b = [float(args[4][2:])] if len(args) > 3 else None
                scenarios += fig_scenarios(int(args[2]), {"b": b} if b else {})
        dense = [sc for sc in scenarios if not sc.params.plane_pump]
        assert len(dense) == 20
        for sc in dense:
            p = sc.params
            dets = [_detector(sc.detector, sc.plane, float(v), sc.pixel_width) for v in sc.values]
            g = _grid(p, sc.plane, dets, sc.grid_n, sc.grid_L)
            assert abs(solve_io(g, p).margin - threshold_margin(g, p)) <= 1e-13, sc.label

    @pytest.mark.parametrize("domain", ["near", "far"])
    @pytest.mark.parametrize("b", [*np.geomspace(1.0, 400.0, 8).round(2), 21.3, 39.9])
    def test_margin_matches_eigvalsh_across_b_and_pump(self, monkeypatch, b, domain):
        # Lanczos without reorthogonalization, on auto grids from no pump to
        # 1e-12 below threshold, within 1e-13 of eigvalsh and in at most 100
        # steps; spurious copies of the converged top value can delay the
        # stop, most at b = 39.9 (68 steps near, at A_p = 0.99999)
        steps = []
        product = iosolver._kernel_product
        monkeypatch.setattr(iosolver, "_kernel_product", lambda *a: steps.append(1) or product(*a))
        for a_p in (0.0, 0.1, 0.9, 0.99999, 1.0 - 1e-12):
            p, _ = gauss_setup(b=b, a_p=a_p)
            g = auto_grid(p, domain)
            steps.clear()
            assert abs(solve_io(g, p).margin - threshold_margin(g, p)) <= 1e-13, a_p
            assert len(steps) <= 100, a_p


class TestEvenDiagonal:
    def test_parity_block_matrix(self):
        n = 5
        idx = np.arange(n)
        flip = n - 1 - idx
        diag = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        anti = np.array([0.5, 0.25, 0.0, 0.25, 0.5])
        mat = np.diag(diag)
        mat[idx, flip] += anti
        # center point is self-paired: its single entry carries both channels
        expected = diag + np.where(flip != idx, anti, 0.0)
        assert np.allclose(even_diagonal(mat), expected)
