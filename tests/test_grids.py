"""Automatic grid sizing: pinned sizes, and convergence against wider grids.

``auto_grid`` keeps the step rule (l_coh / 8 near, min(2 / l_coh, 1 / w_p) / 8
far) and sizes the half extent by what the modes and the detectors need:
4 w_p near, the phase-matching band 6 / l_coh far, each detector reach plus
one step.  The gates compare an auto-sized sweep with the same sweep on a
grid of the same step and 5x the extent, whose cells contain the auto
grid's cell for cell (5 n points on 5 L, n odd): every vn within
1e-5 max(1, |vn|) in both quadratures, and the threshold margin that
``summary.txt`` prints within 1e-8.
"""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from confocal_opo import (
    CavityModes,
    Grid1D,
    LocalOscillator,
    auto_grid,
    solve_io,
    sweep,
    sweep_extents,
)
from confocal_opo.cli import Scenario, fig_scenarios, main

B_VALUES = (4.0, 25.0, 100.0)
FIG_OF_PLANE = {"near": 6, "far": 9}
VN_TOL = 1e-5
MARGIN_TOL = 1e-8


@dataclass(frozen=True)
class Case:
    """A figure's scenario at one b, its auto grid and the modes of the
    same-step grid with 5x the extent."""

    b: float
    sc: Scenario
    grid: Grid1D
    wide: CavityModes


def _auto(sc, shape, values, lo, pixel_width=None):
    reaches, extents = sweep_extents(sc.params, sc.plane, shape, values, lo, pixel_width)
    return auto_grid(sc.params, sc.plane, reaches, extents)


@pytest.fixture(scope="module", params=[(plane, b) for plane in FIG_OF_PLANE for b in B_VALUES],
                ids=lambda case: f"{case[0]}-b{case[1]:g}")
def case(request):
    plane, b = request.param
    (sc,) = fig_scenarios(FIG_OF_PLANE[plane], {"b": (b,)})
    p = sc.params
    grid = _auto(sc, sc.detector, sc.values, sc.lo)
    wide = Grid1D.uniform(5 * grid.n, 5 * grid.half_extent, plane)
    return Case(b, sc, grid, solve_io(wide, p))


def _pump_unit(sc):
    # w_p near; in the far field the detection-plane length of 1 / w_p
    return sc.params.w_p if sc.plane == "near" else sc.abscissa_scale


def _assert_matches_wide(case, shape, values, lo, pixel_width=None):
    sc = case.sc
    p = sc.params
    grid = _auto(sc, shape, values, lo, pixel_width)
    assert (grid.n, grid.half_extent) == (case.grid.n, case.grid.half_extent)
    auto = sweep(p, sc.plane, shape, values, lo, pixel_width=pixel_width)
    ref = sweep(p, sc.plane, shape, values, lo, pixel_width=pixel_width, modes=case.wide)
    for value, pt, wide in zip(values, auto, ref):
        for vn, vn_wide in ((pt.vn_squeezed, wide.vn_squeezed),
                            (pt.vn_antisqueezed, wide.vn_antisqueezed)):
            assert abs(vn - vn_wide) <= VN_TOL * max(1.0, abs(vn_wide)), (shape, lo, value)


def test_fig6_grid_sizes():
    # near n ~ 64 sqrt(b): the pump's 4 w_p in steps of l_coh / 8 (fig 6
    # reaches 3 w_p); no solve
    sizes = {}
    for sc in fig_scenarios(6, {"b": (4.0, 25.0, 100.0, 900.0)}):
        sizes[round(sc.params.b)] = _auto(sc, sc.detector, sc.values, sc.lo).n
    assert [sizes[b] for b in (4, 25, 100)] == [129, 321, 641]
    assert sizes[900] <= 2000


def test_sweeps_match_wider_grid(case):
    # intervals and pixel pairs from 0.1 pump units to beyond the pump under a
    # plane LO; under a Gaussian LO of one pump unit (4 waists: the auto
    # grid's own extent near), intervals and the pixel pairs inside its spot.
    # A pixel pair outside the spot sees only the LO's tail at its inner
    # edge, a feature narrower than a cell, which no extent resolves.
    unit = _pump_unit(case.sc)
    last = 3.0 if case.sc.plane == "near" else 5.0
    sizes = [0.1 * unit, 0.5 * unit, unit, 2.0 * unit, last * unit]
    _assert_matches_wide(case, "interval", sizes, LocalOscillator())
    _assert_matches_wide(case, "pixel_pair", [0.0, *sizes[1:]], LocalOscillator(),
                         pixel_width=0.5 * unit)
    lo = LocalOscillator(waist=unit)
    _assert_matches_wide(case, "interval", sizes, lo)
    _assert_matches_wide(case, "pixel_pair", [0.0, 0.5 * unit, unit], lo, pixel_width=0.5 * unit)


def test_small_detectors_match_wider_grid(case):
    # six intervals of at most one pump unit: in the far field (fig 9
    # geometry) their reach alone once sized the grid at 8 / w_p, short of
    # the phase-matching band
    _assert_matches_wide(case, "interval", list(np.linspace(0.1, 1.0, 6) * _pump_unit(case.sc)),
                         LocalOscillator())


def test_summary_margin_matches_wider_grid(case, tmp_path):
    fig = FIG_OF_PLANE[case.sc.plane]
    assert main(["fig", "--id", str(fig), "--set", f"b={case.b:g}", "--out", str(tmp_path)]) == 0
    (printed,) = re.findall(r"threshold_margin = (\S+)", (tmp_path / "summary.txt").read_text())
    wide = 1.0 - float(np.abs(case.wide.lam).max())
    assert math.isclose(float(printed), wide, rel_tol=0.0, abs_tol=MARGIN_TOL)
