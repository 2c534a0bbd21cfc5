"""Property tests over random valid inputs and fuzzed configurations.

The examples are derandomized, so every run draws the same cases; a failure
prints the smallest input hypothesis found.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from confocal_opo import LocalOscillator, OpoParams, derive_scales, sweep
from confocal_opo.cli import main

#: the uncertainty bound vn_sq * vn_anti >= 1, less rounding (the benchmark's
#: output check uses the same floor)
PRODUCT_FLOOR = 1.0 - 1e-9

SIZES = st.floats(0.05, 20.0)  # in the plane's coherence unit


@st.composite
def plane_pump_detectors(draw):
    """(params, scales, plane, shape, value, pixel width, LO) of one detector
    on a plane-pump closed form, every size and LO waist in the plane's
    coherence unit: l_coh near, r0 far."""
    p = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, w_p=math.inf,
                  A_p=draw(st.floats(0.0, 0.99)), detuning=draw(st.floats(-3.0, 3.0)),
                  omega_bar=draw(st.floats(-3.0, 3.0)))
    s = derive_scales(p)
    plane = draw(st.sampled_from(["near", "far"]))
    shape = draw(st.sampled_from(["interval", "pixel_pair"] + ["radial"] * (plane == "far")))
    unit = s.l_coh if plane == "near" else s.r0
    pixel = draw(SIZES) * unit if shape == "pixel_pair" else None
    # the near-field closed form takes a plane LO only
    waists = st.just(math.inf) if plane == "near" else st.just(math.inf) | st.floats(0.3, 5.0)
    lo = LocalOscillator(waist=draw(waists) * unit)
    return p, s, plane, shape, draw(SIZES) * unit, pixel, lo


@settings(derandomize=True, deadline=None, max_examples=200)
@given(plane_pump_detectors())
def test_plane_pump_closed_forms_obey_the_uncertainty_bound(case):
    p, s, plane, shape, value, pixel, lo = case
    # a band the LO spot never reaches is refused instead (see
    # test_homodyne's test_band_past_the_lo_spot_is_refused)
    inner = max(0.0, value - pixel / 2) if pixel else 0.0
    assume(math.exp(-2.0 * (inner / lo.waist) ** 2) > 1e-200)
    (pt,) = sweep(p, s, plane, shape, [value], lo, pixel_width=pixel)
    assert pt.shot > 0
    assert pt.vn_squeezed > 0 and pt.vn_antisqueezed > 0
    assert pt.vn_squeezed * pt.vn_antisqueezed >= PRODUCT_FLOOR


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
# an LO spot too narrow to square, and bands the LO spot never reaches
@example(_text(BASES[1], lo_waist="1e-300"))
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
