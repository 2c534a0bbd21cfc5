import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import confocal_opo.iosolver as iosolver
from confocal_opo import (
    Grid1D,
    GridTooCoarse,
    OpoParams,
    SingularSystem,
    auto_grid,
    mode_uv,
    phase_match_sinc,
    solve_io,
)
from confocal_opo.cli import fig_scenarios
from confocal_opo.kernels import build_kernel_matrix
from lu_reference import lu_uv, residuals
from helpers import analytic_uv_planepump, flip, threshold_margin
from modes_reference import dense_uv, even_diagonal


def gauss_setup(b=16.0, a_p=0.8, n=257, domain="far", detuning=0.0, omega_bar=0.0):
    p0 = OpoParams(
        lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=a_p, w_p=math.inf,
        detuning=detuning, omega_bar=omega_bar,
    )
    p = replace(p0, w_p=math.sqrt(b) * p0.l_coh)
    if domain == "far":
        g = Grid1D.uniform(n, 16.0 / p.w_p, "far")
    else:
        g = Grid1D.uniform(n, 4.0 * p.w_p, "near")
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
        u, v = dense_uv(solve_io(g, p))
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
        g = Grid1D.uniform(257, 16.0 / p.l_coh, "far")
        u, v = dense_uv(solve_io(g, p))
        ua, va = analytic_uv_planepump(g.points, p)
        assert np.abs(even_diagonal(u) - ua).max() <= 1e-8 * np.abs(ua).max()
        assert np.abs(even_diagonal(v) - va).max() <= 1e-8 * max(np.abs(va).max(), 1.0)

    @pytest.mark.parametrize("domain,n,b", [("far", 256, 49.0), ("near", 257, 9.0)])
    def test_bogoliubov_residuals(self, domain, n, b):
        p, g = gauss_setup(b=b, a_p=0.9, n=n, domain=domain)
        r1, r2 = residuals(*dense_uv(solve_io(g, p)))
        assert r1 <= 1e-10
        assert r2 <= 1e-10

    def test_residuals_with_detuning_and_frequency(self):
        p, g = gauss_setup(b=25.0, a_p=0.7, detuning=0.8, omega_bar=1.5)
        modes = solve_io(g, p)
        assert max(residuals(*dense_uv(modes))) <= 1e-10
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
        g = Grid1D.uniform(641, 4 * p.w_p, "near")
        u, v = dense_uv(solve_io(g, p))
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
        u1, v1 = dense_uv(solve_io(g, p))
        p2 = replace(p, A_p=0.505)
        u2, v2 = dense_uv(solve_io(g, p2))
        assert np.abs(u2 - u1).max() <= 0.2
        assert np.abs(v2 - v1).max() <= 0.2

    def test_singular_system_near_threshold(self, plane_params):
        p = OpoParams(
            lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05,
            A_p=1.0 - 1e-13, w_p=math.inf,
        )
        g = Grid1D.uniform(129, 8.0 / plane_params.l_coh, "far")
        with pytest.raises(SingularSystem):
            solve_io(g, p)

    def test_grid_too_coarse(self):
        # the solve gathers its own block, under the kernel's sizing rule
        p, _ = gauss_setup(b=16.0)
        for g in (Grid1D.uniform(16, 4 * p.w_p, "near"), Grid1D.uniform(64, 1.0 / p.w_p, "far")):
            with pytest.raises(GridTooCoarse):
                solve_io(g, p)

    def test_gate_rejects_non_orthogonal_modes(self, monkeypatch):
        # tilting the strongest mode toward its neighbour breaks the
        # Bogoliubov identities of the rebuilt transform; whenever the n^3
        # residual check would see more than 1e-6, the mode-basis gate must
        # refuse the modes
        p, g = gauss_setup(b=25.0, a_p=0.9)
        block = build_kernel_matrix(g, p)
        exact = iosolver.eigh
        for eps in (1e-9, 1e-6, 1e-3):
            def corrupted(a, **kwargs):
                lam, q = exact(a, **kwargs)
                q[:, -1] += eps * q[:, -2]
                return lam, q

            lam, q = corrupted(block)
            modes = iosolver.CavityModes(grid=g, p=p, q=q, lam=lam)
            broken = max(residuals(*dense_uv(modes))) > 1e-6
            assert broken or eps < 1e-3
            monkeypatch.setattr(iosolver, "eigh", corrupted)
            if broken:
                with pytest.raises(SingularSystem):
                    solve_io(g, p)
            monkeypatch.setattr(iosolver, "eigh", exact)

    def test_eigensolver_matches_divide_and_conquer(self):
        # the gate needs modes orthogonal to well below its 1e-6 bound; pin
        # the eigensolver against LAPACK's divide-and-conquer driver on the
        # far block of fig 6 at b = 100 on a grid three times as wide as its
        # own (n = 1921, m = 961)
        (sc,) = fig_scenarios(6, {"b": [100.0]})
        g = auto_grid(sc.params, sc.plane, extents=(12.0 * sc.params.w_p,))
        block = build_kernel_matrix(g, sc.params)
        assert block.shape == (961, 961)
        lam, q = iosolver.eigh(block)
        gram = q.T @ q - np.eye(len(lam))
        assert np.linalg.norm(gram) <= 1e-12
        lam_evd = scipy.linalg.eigh(block, driver="evd", eigvals_only=True)
        assert np.abs(lam - lam_evd).max() <= 1e-13 * np.abs(lam_evd).max()

    def test_matches_lu_oracle(self):
        # the modes rebuild the LU solution of the cavity relation
        p, g = gauss_setup(b=16.0, a_p=0.9, n=321, domain="near",
                              detuning=0.4, omega_bar=-0.9)
        u, v = dense_uv(solve_io(g, p))
        u_lu, v_lu = lu_uv(g, p)
        assert np.abs(u - u_lu).max() <= 1e-12 * np.abs(u_lu).max()
        assert np.abs(v - v_lu).max() <= 1e-12 * np.abs(v_lu).max()


class TestDenseMemory:
    def test_no_n_by_n_array_in_build_or_solve(self):
        # every dense step runs on m x m arrays (m = ceil(n/2)): neither the
        # kernel build nor the solve, its own build included, allocates as much
        # as one n x n float64
        # array above what is live on entry
        p, g = gauss_setup(b=100.0, a_p=0.9, n=2001, domain="near")
        unit = g.n**2 * np.dtype(float).itemsize

        def allocated(fn, *args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            _, build = allocated(build_kernel_matrix, g, p)
            _, solve = allocated(solve_io, g, p)
        finally:
            tracemalloc.stop()
        assert build < unit, f"build_kernel_matrix allocated {build / unit:.2f} n^2 floats"
        assert solve < unit, f"solve_io allocated {solve / unit:.2f} n^2 floats"


class TestThresholdMargin:
    def test_zero_pump(self):
        p, g = gauss_setup(b=16.0, a_p=0.0)
        assert threshold_margin(g, p) == pytest.approx(1.0, abs=1e-14)

    def test_plane_pump_margin(self, plane_params):
        # odd grid holds the q = 0 threshold mode, where sinc is exactly 1
        g = Grid1D.uniform(257, 16.0 / plane_params.l_coh, "far")
        assert abs(threshold_margin(g, plane_params) - 0.1) <= 1e-9

    def test_margin_grows_for_tighter_pump(self):
        margins = []
        for b in (100.0, 25.0, 4.0):
            p, g = gauss_setup(b=b, a_p=0.9)
            margins.append(threshold_margin(g, p))
        assert margins[0] < margins[1] < margins[2]
        assert margins[0] > 0.1  # finite pump is always further from threshold


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
