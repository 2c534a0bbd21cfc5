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
from dataclasses import dataclass, replace

import numpy as np
import pytest

from confocal_opo import (
    CavityModes,
    Grid1D,
    LocalOscillator,
    NumericalFailure,
    auto_grid,
    solve_io,
    squeezing,
)
from confocal_opo.cli import (Scenario, _detector, _grid, _unit, fig_scenarios, main, parse_config,
                              scenario_from_config)
from helpers import GOLDEN

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


def _dets(sc, shape, values, pixel_width=None):
    return [_detector(shape, sc.plane, float(v), pixel_width) for v in values]


@pytest.fixture(scope="module", params=[(plane, b) for plane in FIG_OF_PLANE for b in B_VALUES],
                ids=lambda case: f"{case[0]}-b{case[1]:g}")
def case(request):
    plane, b = request.param
    (sc,) = fig_scenarios(FIG_OF_PLANE[plane], {"b": (b,)})
    p = sc.params
    grid = _grid(p, plane, _dets(sc, sc.detector, sc.values))
    wide = Grid1D(5 * grid.n, 5 * grid.half_extent, plane)
    return Case(b, sc, grid, solve_io(wide, p))


def _pump_unit(sc):
    # w_p near; in the far field the detection-plane length of 1 / w_p
    return sc.params.w_p if sc.plane == "near" else _unit(sc.params, sc.plane)


def _assert_matches_wide(case, shape, values, lo, pixel_width=None):
    sc = case.sc
    p = sc.params
    dets = _dets(sc, shape, values, pixel_width)
    grid = _grid(p, sc.plane, dets)
    assert (grid.n, grid.half_extent) == (case.grid.n, case.grid.half_extent)
    modes = solve_io(grid, p)
    for value, pt, wide in zip(values, squeezing(dets, lo, modes), squeezing(dets, lo, case.wide)):
        for vn, vn_wide in ((pt.vn_squeezed, wide.vn_squeezed),
                            (pt.vn_antisqueezed, wide.vn_antisqueezed)):
            assert abs(vn - vn_wide) <= VN_TOL * max(1.0, abs(vn_wide)), (shape, lo, value)


def test_fig6_grid_sizes():
    # near n ~ 64 sqrt(b): the pump's 4 w_p in steps of l_coh / 8 (fig 6
    # reaches 3 w_p); far n ~ 96 sqrt(b): the band 6 / l_coh in steps of
    # 1 / (8 w_p) (fig 9 reaches 5 / w_p); no solve
    sizes = {}
    for fig in (6, 9):
        for sc in fig_scenarios(fig, {"b": (4.0, 25.0, 100.0, 900.0)}):
            dets = _dets(sc, sc.detector, sc.values)
            sizes[fig, round(sc.params.b)] = _grid(sc.params, sc.plane, dets).n
    assert [sizes[6, b] for b in (4, 25, 100)] == [129, 321, 641]
    assert sizes[6, 900] <= 2000
    assert [sizes[9, b] for b in (4, 25, 100, 900)] == [193, 481, 961, 2881]


@pytest.mark.parametrize("name,n,half", [
    ("grid_n", 401, 8e-4), ("grid_L", 401, 1e-3), ("grid_n+grid_L", 521, 1.6e5),
])
def test_explicit_grid_keys_size_as_given(name, n, half):
    # grid_n alone keeps the rule's half extent (4 w_p), grid_L alone takes
    # n from the step rule on it (l_coh / 8), and both are taken as they
    # are: one auto_grid call with the detectors' reaches
    sc = scenario_from_config(parse_config(GOLDEN / f"{name}.cfg"))
    dets = _dets(sc, sc.detector, sc.values, sc.pixel_width)
    reaches = [det.bounds_on_axis(sc.params)[1] for det in dets if det is not None]
    grid = auto_grid(sc.params, sc.plane, reaches, sc.grid_n, sc.grid_L)
    assert (grid.n, grid.half_extent, grid.domain) == (n, half, sc.plane)


def test_given_n_keeps_the_rule_cap():
    # a given n still runs the rule, whose n past MAX_GRID_N is refused as
    # when no n is given: fig 9 at b = 1e4 needs 9,600 points
    (sc,) = fig_scenarios(9, {"b": (1e4,)})
    reaches = [det.bounds_on_axis(sc.params)[1] for det in _dets(sc, sc.detector, sc.values)]
    message = (r"^sizing rule demands n = 9\.600e\+03 > 6000 points "
               r"\(extent 1\.501e\+05, step 3\.127e\+01\)$")
    for n in (None, 401):
        with pytest.raises(NumericalFailure, match=message):
            auto_grid(sc.params, sc.plane, reaches, n)


@pytest.mark.parametrize("plane", ["near", "far"])
def test_the_lo_sizes_no_grid(monkeypatch, plane):
    # a dense run solves on the grid its pump and detectors size: a Gaussian
    # LO of 10 pump units, whose 4 waists reach past both, leaves it as it is
    import confocal_opo.cli as cli

    class Solved(Exception):
        pass

    def record(grid, p):
        grids.append((grid.n, grid.half_extent))
        raise Solved

    monkeypatch.setattr(cli, "solve_io", record)
    (sc,) = fig_scenarios(FIG_OF_PLANE[plane], {"b": (4.0,)})
    grids = []
    for lo in (LocalOscillator(), LocalOscillator(waist=10.0 * _pump_unit(sc))):
        with pytest.raises(Solved):
            cli.run_scenario(replace(sc, lo=lo))
    assert grids[0] == grids[1]


def test_sweeps_match_wider_grid(case):
    # intervals and pixel pairs from 0.1 pump units to beyond the pump under a
    # plane LO; under a Gaussian LO of one pump unit, intervals and the
    # pixel pairs inside its spot.
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
    assert math.isclose(float(printed), case.wide.margin, rel_tol=0.0, abs_tol=MARGIN_TOL)
