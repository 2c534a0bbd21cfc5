"""Property tests over random valid inputs and fuzzed configurations, and
the invariance of every route under a change of length scales.

The examples are derandomized, so every run draws the same cases; a failure
prints the smallest input hypothesis found.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numpy as np

from confocal_opo import Grid1D, LocalOscillator, NumericalFailure, OpoParams, solve_io, squeezing
from confocal_opo.cli import _detector, _grid, _unit, main
from helpers import kernel_block
from lu_reference import residuals
from modes_reference import dense_uv

#: the uncertainty bound vn_sq * vn_anti >= 1, less rounding (the benchmark's
#: output check uses the same floor)
PRODUCT_FLOOR = 1.0 - 1e-9

SIZES = st.floats(0.05, 20.0)  # in the plane's coherence unit


@st.composite
def plane_pump_detectors(draw):
    """(params, plane, shape, value, pixel width, LO) of one detector
    on a plane-pump closed form, every size and LO waist in the plane's
    coherence unit: l_coh near, r0 far."""
    p = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, w_p=math.inf,
                  A_p=draw(st.floats(0.0, 0.99)), detuning=draw(st.floats(-3.0, 3.0)),
                  omega_bar=draw(st.floats(-3.0, 3.0)))
    plane = draw(st.sampled_from(["near", "far"]))
    shape = draw(st.sampled_from(["interval", "pixel_pair"] + ["radial"] * (plane == "far")))
    unit = p.l_coh if plane == "near" else p.r0
    pixel = draw(SIZES) * unit if shape == "pixel_pair" else None
    # the near-field closed form takes a plane LO only
    waists = st.just(math.inf) if plane == "near" else st.just(math.inf) | st.floats(0.3, 5.0)
    lo = LocalOscillator(waist=draw(waists) * unit)
    return p, plane, shape, draw(SIZES) * unit, pixel, lo


@settings(derandomize=True, deadline=None, max_examples=200)
@given(plane_pump_detectors())
def test_plane_pump_closed_forms_obey_the_uncertainty_bound(case):
    p, plane, shape, value, pixel, lo = case
    # a band the LO spot never reaches is refused instead (see
    # test_homodyne's test_band_past_the_lo_spot_is_refused)
    inner = max(0.0, value - pixel / 2) if pixel else 0.0
    assume(math.exp(-2.0 * (inner / lo.waist) ** 2) > 1e-200)
    det = _detector(shape, plane, value, pixel)
    (pt,) = squeezing([det], lo, p)
    assert pt.shot > 0
    assert pt.vn_squeezed > 0 and pt.vn_antisqueezed > 0
    assert pt.vn_squeezed * pt.vn_antisqueezed >= PRODUCT_FLOOR


def _gaussian_pump(draw, b_max: float) -> OpoParams:
    # draws A_p, detuning, omega_bar, then b in [1, b_max]: the derandomized
    # examples of every strategy that calls this depend on that order
    p = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, w_p=math.inf,
                  A_p=draw(st.floats(0.0, 0.95)), detuning=draw(st.floats(-2.0, 2.0)),
                  omega_bar=draw(st.floats(-2.0, 2.0)))
    return replace(p, w_p=math.sqrt(draw(st.floats(1.0, b_max))) * p.l_coh)


@st.composite
def dense_detectors(draw):
    """(params, detector, LO) of one detector on the dense route: a Gaussian
    pump of b in [1, 25], every size and LO waist in the plane's coherence
    unit (l_coh near, the detection-plane size of 1/w_p far).  Sizes start
    at two grid steps, so a pixel always holds a grid point."""
    p = _gaussian_pump(draw, 25.0)
    plane = draw(st.sampled_from(["near", "far"]))
    shape = draw(st.sampled_from(["interval", "pixel_pair"]))
    unit = _unit(p, plane)
    pixel = draw(st.floats(0.25, 10.0)) * unit if shape == "pixel_pair" else None
    det = _detector(shape, plane, draw(st.floats(0.25, 10.0)) * unit, pixel)
    lo = LocalOscillator(waist=draw(st.just(math.inf) | st.floats(0.3, 5.0)) * unit)
    return p, det, lo


@settings(derandomize=True, deadline=None, max_examples=40)
@given(dense_detectors())
def test_dense_route_obeys_the_uncertainty_bound(case):
    p, det, lo = case
    assume(math.exp(-2.0 * (det.inner / lo.waist) ** 2) > 1e-200)
    (res,) = squeezing([det], lo, solve_io(_grid(p, det.plane, [det]), p))
    assert res.vn_squeezed > 0 and res.vn_antisqueezed > 0
    assert res.vn_squeezed * res.vn_antisqueezed >= PRODUCT_FLOOR


@st.composite
def dense_cavities(draw):
    """(params, plane) of a dense solve: the pump draws of
    ``dense_detectors``, with b in [1, 9] so that the n x n check is cheap."""
    return _gaussian_pump(draw, 9.0), draw(st.sampled_from(["near", "far"]))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(dense_cavities())
def test_dense_modes_obey_the_symplectic_identities(case):
    # U U^+ - V V^+ = I and U V^T = V U^T of the transform that the banded
    # K the library solves with stands for (its eigenbasis, rebuilt by the
    # oracle), at any gain, detuning and analysis frequency, on the grid the
    # pump alone sizes
    p, plane = case
    assert max(residuals(*dense_uv(_grid(p, plane, []), p))) <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.sampled_from([4.0, 25.0, math.inf]))
@example(1.0 - 1e-13, 0.0, 0.0, 4.0)
@example(1.0 - 1e-13, 0.0, 0.0, math.inf)
@example(1.0 - 1e-13, 0.5, 1e-7, math.inf)
def test_condition_refusal_needs_only_the_largest_gain(a_p, detuning, omega_bar, b):
    # the solve's 1e12 condition refusal, from max|lambda| alone, refuses
    # exactly what max/min |a abar - lambda^2| over the eigvalsh spectrum
    # (and the odd subspace's lambda = 0) refuses; b = inf is a plane pump
    p = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, w_p=math.inf, A_p=a_p,
                  detuning=detuning, omega_bar=omega_bar)
    p = replace(p, w_p=math.sqrt(b) * p.l_coh)
    g = Grid1D(129, 8.0 / p.l_coh, "far") if p.plane_pump else _grid(p, "far", [])
    c = (1.0 + 1j * (detuning + omega_bar)) * (1.0 + 1j * (omega_bar - detuning))
    den = np.abs(c - np.append(np.linalg.eigvalsh(kernel_block(g, p)), 0.0) ** 2)
    try:
        solve_io(g, p)
        refused = False
    except NumericalFailure as exc:
        assert str(exc).startswith("input/output system condition ")
        refused = True
    assert refused == (not den.max() <= 1e12 * den.min())


# A configuration and its copy at other length scales: l_coh grows by
# sqrt(3) (l_c x 3), lambda_s and n_s grow together (k_s stays) and r0 moves
# again with f_lens; b, A_p, the detuning and omega_bar stay.
SCALED = [dict(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, f_lens=0.1),
          dict(lambda_s=1.37 * 1.064e-6, n_s=1.37 * 2.12, l_c=0.03, f_lens=0.07)]
# (route, b, plane, shape, size, pixel width, LO waist, dense grid): lengths in
# the plane's coherence unit (``cli._unit``), the dense grid as (n, half
# extent) in l_coh near and 1/w_p far, its cells clear of every band edge
SCALE_CASES = [
    ("planepump_near", math.inf, "near", "interval", 1.7, None, math.inf, None),
    ("planepump_near", math.inf, "near", "pixel_pair", 1.2, 0.8, math.inf, None),
    ("planepump_far", math.inf, "far", "pixel_pair", 1.2, 0.8, 1.3, None),
    ("planepump_disk", math.inf, "far", "radial", 0.8, None, 1.0, None),
    ("dense", 9.0, "near", "interval", 2.0, None, math.inf, (321, 12.0)),
    ("dense", 9.0, "far", "pixel_pair", 1.0, 0.5, 2.0, (401, 24.0)),
]


@pytest.mark.parametrize("case", SCALE_CASES,
                         ids=lambda case: f"{case[0]}-{case[2]}-{case[3]}")
def test_routes_are_invariant_under_length_scales(case):
    route, b, plane, shape, size, pixel, waist, grid = case
    results = []
    for lengths in SCALED:
        p = OpoParams(**lengths, z_C=0.05, A_p=0.8, detuning=0.3, omega_bar=0.5, w_p=math.inf)
        p = replace(p, w_p=math.sqrt(b) * p.l_coh)
        unit = _unit(p, plane)
        det = _detector(shape, plane, size * unit, None if pixel is None else pixel * unit)
        modes = None
        if grid is not None:
            n, extent = grid
            modes = solve_io(Grid1D(n, extent * (p.l_coh if plane == "near"
                                                         else 1.0 / p.w_p), plane), p)
        results.append(squeezing([det], LocalOscillator(waist=waist * unit),
                                 p if modes is None else modes)[0])
    first, second = results
    assert first.route == second.route == route
    for vn, vn_scaled in ((first.vn_squeezed, second.vn_squeezed),
                          (first.vn_antisqueezed, second.vn_antisqueezed)):
        assert abs(vn_scaled - vn) <= 1e-12 * max(1.0, abs(vn))


# Cheap configurations to mutate: every Gaussian pump has b = 4, so a solve
# that goes ahead stays small.
_BASE = {"lambda_s": "1.064e-6", "n_s": "2.12", "l_c": "0.01", "z_C": "0.05", "A_p": "0.9",
         "sweep_min": "0", "sweep_points": "3"}
BASES = [
    {**_BASE, "pump": "plane", "plane": "near", "detector": "interval", "sweep_max": "3e-4"},
    {**_BASE, "pump": "plane", "plane": "far", "detector": "radial", "sweep_max": "2e-3",
     "lo": "gaussian", "lo_waist": "8e-4"},
    {**_BASE, "pump": "gaussian", "w_p": "8e-5", "plane": "near", "detector": "pixel_pair",
     "sweep_max": "2e-4", "pixel_width": "4e-5"},
    {**_BASE, "pump": "gaussian", "w_p": "8e-5", "plane": "far", "detector": "interval",
     "sweep_max": "1e-3", "detuning": "0.5", "omega_bar": "0.5"},
]
KEYS = sorted({key for base in BASES for key in base}
              | {"lo_amplitude", "grid_n", "grid_L", "output"})
EXTREMES = ["1e308", "-1e308", "1e-308", "5e-324", "1e999", "0", "-0", "-1", "1", "2",
            "0.999999", "nan", "inf", "-inf", "100001", "6001", "auto"]
GARBAGE = ["", "abc", "1,2", "0x10", "1e", "plane", "gaussian", "far", "radial", "pixel_pair"]
SCALES = [1e-3, 0.5, 2.0, 10.0]  # a base value times one of these stays cheap to run


def _text(base, **changes) -> str:
    return "".join(f"{k} = {v}\n" for k, v in {**base, **changes}.items())


@st.composite
def fuzzed_configs(draw):
    """Config text: a base with one to three edits.  An edit sets a key to
    an extreme, non-finite or garbage value, scales a numeric base value,
    repeats a line or drops a key."""
    config = dict(draw(st.sampled_from(BASES)))
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["scale"] * 4 + ["extreme"] * 3 + ["garbage", "repeat",
                                                                       "drop"]))
        numeric = sorted(key for key in config if _is_number(config[key]))
        key = draw(st.sampled_from(
            numeric if edit == "scale" else KEYS if edit in ("extreme", "garbage")
            else sorted(config)))
        if edit == "scale":
            config[key] = f"{float(config[key]) * draw(st.sampled_from(SCALES)):.6g}"
        elif edit == "repeat":
            extra.append(f"{key} = {config[key]}")
        elif edit == "drop":
            config.pop(key)
        else:
            config[key] = draw(st.sampled_from(EXTREMES if edit == "extreme" else GARBAGE))
    return _text(config) + "".join(line + "\n" for line in extra)


def _is_number(text) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


@settings(derandomize=True, deadline=None, max_examples=120)
@given(fuzzed_configs())
# a band past the float range: an overflow in the near panel level, an
# endless far panel loop
@example(_text(BASES[0], sweep_max="1e308"))
@example(_text(BASES[1], sweep_max="1e308"))
# a near band that underflows to 0 in l_coh units: no log of 0, and a 0/0 vn
# refused as a numerical failure
@example(_text(BASES[0], l_c="1e300", sweep_max="1e-300"))
# LO spots too narrow to square or to form, and bands the LO spot never reaches
@example(_text(BASES[1], lo_waist="1e-300"))
@example(_text(BASES[1], lo_waist="5e-324"))
@example(_text(BASES[1], detector="pixel_pair", sweep_min="0.015", sweep_max="0.02",
               lo_waist="2.5e-4"))
@example(_text(BASES[3], detector="pixel_pair", lo="gaussian", lo_waist="1e-6",
               sweep_min="5e-4"))
def test_fuzzed_run_config_ends_in_an_exit_code(text):
    # exit 0 with a curve, or 1 / 2 with one line on stderr; never a
    # traceback (nor a numpy warning, which the test settings make an error)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = stderr.getvalue().splitlines()
        if code == 0:
            assert (out / "curve.csv").is_file() and not err
        else:
            assert code in (1, 2)
            assert len(err) == 1 and err[0].startswith(
                ("configuration error: ", "numerical failure: ", "error: ")), err
