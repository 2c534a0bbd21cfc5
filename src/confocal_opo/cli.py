"""Scenario runner: configuration files, figure presets, CSV curves.

``confocal-opo run --config file [--out dir]`` executes one sweep described
by a flat key=value configuration (SI units, keys documented in the README)
and writes ``curve.csv`` plus a machine-readable ``summary.txt``.

``confocal-opo fig --id N [--set key=value ...] [--out dir]`` reproduces the
built-in curve families (kernel profile, near- and far-field detector
sweeps, pixel-pair sweeps) with pinned artifact-default parameters.  Exit
codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, NumericalFailure, OpoError
from .homodyne import LocalOscillator, noise_density_planepump, sweep, sweep_extents
from .iosolver import threshold_margin
from .kernels import _EXTENT_FACTOR, MAX_GRID_N, Grid1D, auto_grid, build_kernel_matrix, delta_2d
from .params import OpoParams, derive_scales, validate

# Parameter values every preset shares.  These are artifact defaults chosen
# for this implementation (a 1 cm crystal at 1.064 um in a n = 2.12 medium
# puts the coherence length at 40 um); they are not published data, and the
# summary labels them accordingly.
ARTIFACT_DEFAULTS = dict(
    lambda_s=1.064e-6,
    n_s=2.12,
    l_c=0.01,
    z_C=0.05,
    f_lens=0.1,
    A_p=0.9,
    detuning=0.0,
    omega_bar=0.0,
)
PRESET_B_VALUES = (4.0, 25.0, 100.0)

_FLOAT_KEYS = {
    "lambda_s", "n_s", "l_c", "z_C", "A_p", "w_p", "detuning", "omega_bar",
    "f_lens", "pixel_width", "lo_waist", "lo_amplitude",
    "sweep_min", "sweep_max", "grid_L",
}
_INT_KEYS = {"sweep_points", "grid_n"}
_AUTO_KEYS = {"grid_n", "grid_L"}  # "auto" leaves the value to the sizing rule
_CHOICE_KEYS = {
    "pump": ("plane", "gaussian"),
    "plane": ("near", "far"),
    "detector": ("interval", "pixel_pair", "radial"),
    "lo": ("plane", "gaussian"),
}
_OTHER_KEYS = {"output"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | set(_CHOICE_KEYS) | _OTHER_KEYS


@dataclass
class Scenario:
    """One fully resolved sweep: physics, geometry, grid, output shaping."""

    params: OpoParams
    plane: str
    detector: str
    values: list
    lo: LocalOscillator
    pixel_width: float | None = None
    grid_n: int | None = None
    grid_L: float | None = None
    abscissa_scale: float = 1.0
    abscissa_name: str = "abscissa"
    label: str = "run"


def parse_config(path) -> dict:
    """Read a flat key=value file; unknown keys are a hard error."""
    cfg = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown configuration key: {key!r}")
        if key in cfg:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key: {key!r}")
        cfg[key] = _convert(key, value)
    return cfg

def _convert(key: str, value: str):
    if key in _AUTO_KEYS and value == "auto":
        return None
    if key in _FLOAT_KEYS:
        try:
            number = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"key {key!r}: not a number: {value!r}") from exc
        if not math.isfinite(number):
            raise ConfigurationError(f"key {key!r}: not a finite number: {value!r}")
        return number
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigurationError(f"key {key!r}: not an integer: {value!r}") from exc
    if key in _CHOICE_KEYS:
        if value not in _CHOICE_KEYS[key]:
            raise ConfigurationError(
                f"key {key!r}: must be one of {_CHOICE_KEYS[key]}, got {value!r}"
            )
    return value

def scenario_from_config(cfg: dict) -> Scenario:
    required = ["lambda_s", "n_s", "l_c", "z_C", "A_p", "pump", "plane",
                "detector", "sweep_min", "sweep_max"]
    for key in required:
        if key not in cfg:
            raise ConfigurationError(f"missing required configuration key: {key!r}")
    pump = cfg["pump"]
    if pump == "gaussian" and "w_p" not in cfg:
        raise ConfigurationError("key 'w_p': required for pump = gaussian")
    params = OpoParams(
        lambda_s=cfg["lambda_s"],
        n_s=cfg["n_s"],
        l_c=cfg["l_c"],
        z_C=cfg["z_C"],
        A_p=cfg["A_p"],
        w_p=cfg.get("w_p") if pump == "gaussian" else None,
        plane_pump=(pump == "plane"),
        detuning=cfg.get("detuning", 0.0),
        omega_bar=cfg.get("omega_bar", 0.0),
        f_lens=cfg.get("f_lens", 0.1),
    )
    validate(params)
    scales = derive_scales(params)
    npts = cfg.get("sweep_points", 25)
    if npts is None or npts < 2:
        raise ConfigurationError("key 'sweep_points': need at least 2 sweep points")
    if cfg["sweep_max"] <= cfg["sweep_min"]:
        raise ConfigurationError("key 'sweep_max': must exceed sweep_min")
    if cfg["sweep_min"] < 0:
        raise ConfigurationError("key 'sweep_min': must be non-negative")
    grid_n = cfg.get("grid_n")
    if grid_n is not None and not 2 <= grid_n <= MAX_GRID_N:
        raise ConfigurationError(
            f"key 'grid_n': need between 2 and {MAX_GRID_N} grid points, got {grid_n}"
        )
    grid_L = cfg.get("grid_L")
    if grid_L is not None and not (math.isfinite(grid_L) and grid_L > 0):
        raise ConfigurationError("key 'grid_L': must be a positive finite half extent")
    values = list(np.linspace(cfg["sweep_min"], cfg["sweep_max"], npts))
    lo_profile = cfg.get("lo", "plane")
    lo = LocalOscillator(
        profile=lo_profile,
        amplitude=cfg.get("lo_amplitude", 1.0),
        waist=cfg.get("lo_waist"),
    )
    pixel_width = cfg.get("pixel_width")
    if cfg["detector"] == "pixel_pair" and pixel_width is None:
        pixel_width = _default_pixel_width(params, scales, cfg["plane"])
    if cfg["plane"] == "near":
        scale, name = scales.l_coh, "size_over_lcoh"
    else:
        # abscissa in far-field coherence units q w_p (q = 2 pi x / lambda f);
        # the detection-plane size of one coherence unit is q_coh lambda f / 2 pi
        x_of_q = params.lambda_s * params.f_lens / (2.0 * math.pi)
        scale = x_of_q * scales.q_coh if scales.q_coh > 0 else scales.r0
        name = "q_times_wp" if scales.q_coh > 0 else "r_over_r0"
    return Scenario(
        params=params,
        plane=cfg["plane"],
        detector=cfg["detector"],
        values=values,
        lo=lo,
        pixel_width=pixel_width,
        grid_n=grid_n,
        grid_L=grid_L,
        abscissa_scale=scale,
        abscissa_name=name,
        label="run",
    )

def _default_pixel_width(params, scales, plane):
    """Pixel width defaults to the coherence scale of the chosen plane."""
    if plane == "near":
        return scales.l_coh
    qx = 2.0 * math.pi / (params.lambda_s * params.f_lens)
    return scales.q_coh / qx if scales.q_coh > 0 else scales.r0


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.12g}"

def _echo(pairs) -> str:
    return " ".join(f"{k}={_fmt(v) if isinstance(v, (int, float)) else v}" for k, v in pairs)

def _write_curve(path: Path, comment: str, header: str, rows) -> None:
    lines = [f"# {comment}", header]
    lines.extend(",".join(_fmt(col) for col in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")

def _scenario_echo(sc: Scenario):
    p = sc.params
    pairs = [
        ("label", sc.label),
        ("lambda_s", p.lambda_s), ("n_s", p.n_s), ("l_c", p.l_c), ("z_C", p.z_C),
        ("A_p", p.A_p),
        ("pump", "plane" if p.plane_pump else "gaussian"),
    ]
    if not p.plane_pump:
        pairs.append(("w_p", p.w_p))
    pairs += [
        ("detuning", p.detuning), ("omega_bar", p.omega_bar), ("f_lens", p.f_lens),
        ("plane", sc.plane), ("detector", sc.detector),
        ("lo", sc.lo.profile), ("lo_amplitude", sc.lo.amplitude),
    ]
    if sc.lo.waist is not None:
        pairs.append(("lo_waist", sc.lo.waist))
    if sc.pixel_width is not None:
        pairs.append(("pixel_width", sc.pixel_width))
    pairs.append(("abscissa", sc.abscissa_name))
    return pairs

def run_scenario(sc: Scenario, outdir: Path, csv_name: str = "curve.csv") -> Path:
    scales = derive_scales(sc.params)
    grid = _explicit_grid(sc, scales)
    points = sweep(
        sc.params, scales, sc.plane, sc.detector, sc.values, sc.lo,
        pixel_width=sc.pixel_width, grid=grid,
    )
    rows = [
        (pt.value / sc.abscissa_scale, pt.vn_squeezed, pt.vn_antisqueezed, pt.shot)
        for pt in points
    ]
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / csv_name
    _write_curve(path, _echo(_scenario_echo(sc)), "abscissa,vn_squeezed,vn_antisqueezed,shot", rows)
    return path

def _explicit_grid(sc: Scenario, scales) -> Grid1D | None:
    """Grid1D from explicit grid_n / grid_L, or None for automatic sizing.

    The value left out comes from the sizing rule: the half extent from the
    sweep's detectors, or the point count from the step rule on grid_L.
    """
    if sc.grid_n is None and sc.grid_L is None:
        return None
    if sc.params.plane_pump:
        return None  # closed-form routes, no grid involved
    n, half = sc.grid_n, sc.grid_L
    if n is None or half is None:
        if half is None:
            extents = sweep_extents(sc.params, sc.plane, sc.detector, sc.values,
                                    sc.lo, sc.pixel_width)
        else:
            extents = (half / _EXTENT_FACTOR,)  # auto_grid covers 4x each reach
        auto = auto_grid(sc.params, scales, sc.plane, extra_extents=extents)
        n = auto.n if n is None else n
        half = auto.half_extent if half is None else half
    return Grid1D.uniform(n, half, sc.plane)

def write_summary(outdir: Path, sc_list, extra_lines=()) -> Path:
    """Derived scales and threshold margin for every scenario in the run."""
    lines = [
        "configuration and derived scales (artifact defaults unless a config "
        "or --set override was given; preset parameter choices are made by "
        "this implementation, not published data)",
        "",
    ]
    for sc in sc_list:
        p = sc.params
        scales = derive_scales(p)
        lines.append(f"[{sc.label}]")
        lines.extend(f"  {k} = {v if isinstance(v, str) else _fmt(v)}"
                     for k, v in _scenario_echo(sc))
        lines.append(f"  l_coh = {_fmt(scales.l_coh)}")
        lines.append(f"  w_C = {_fmt(scales.w_C)}")
        lines.append(f"  r0 = {_fmt(scales.r0)}")
        b_text = "inf" if math.isinf(scales.b) else _fmt(scales.b)
        lines.append(f"  b = {b_text}")
        lines.append(f"  threshold_margin = {_fmt(_margin(p, scales))}")
        lines.append("")
    lines.extend(extra_lines)
    path = outdir / "summary.txt"
    path.write_text("\n".join(lines) + "\n")
    return path

def _margin(p: OpoParams, scales) -> float:
    if p.plane_pump:
        return 1.0 - p.A_p  # threshold mode is q = 0 where sinc = 1
    grid = auto_grid(p, scales, "far")
    return threshold_margin(build_kernel_matrix(grid, p, scales), p)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _preset_params(overrides: dict, **changes) -> OpoParams:
    base = dict(ARTIFACT_DEFAULTS)
    base.update({k: v for k, v in overrides.items() if k in base})
    base.update(changes)
    plane_pump = base.pop("plane_pump", False)
    w_p = base.pop("w_p", None)
    return OpoParams(plane_pump=plane_pump, w_p=w_p, **base)

def _b_list(overrides: dict):
    if "b" in overrides:
        return tuple(float(x) for x in str(overrides["b"]).split(","))
    return PRESET_B_VALUES

def fig_scenarios(fig_id: int, overrides: dict) -> list[Scenario]:
    """Scenario list for one figure preset (one scenario per curve)."""
    if fig_id == 5:
        p = _preset_params(overrides, plane_pump=True)
        s = derive_scales(p)
        values = list(np.linspace(0.05, 5.0, 100) * s.l_coh)
        return [Scenario(p, "near", "interval", values,
                         LocalOscillator(), abscissa_scale=s.l_coh,
                         abscissa_name="radius_over_lcoh", label="fig5")]
    if fig_id == 6 or fig_id == 7:
        out = []
        for b in _b_list(overrides):
            p = _preset_params(overrides)
            s0 = derive_scales(replace(p, plane_pump=True, w_p=None))
            p = replace(p, w_p=math.sqrt(b) * s0.l_coh)
            s = derive_scales(p)
            reach = 3.0 * math.sqrt(b)
            if fig_id == 6:
                values = list(np.linspace(0.1, reach, 30) * s.l_coh)
                sc = Scenario(p, "near", "interval", values, LocalOscillator(),
                              abscissa_scale=s.l_coh,
                              abscissa_name="radius_over_lcoh",
                              label=f"fig6_b{b:g}")
            else:
                values = list(np.linspace(0.0, reach, 31) * s.l_coh)
                sc = Scenario(p, "near", "pixel_pair", values, LocalOscillator(),
                              pixel_width=s.l_coh, abscissa_scale=s.l_coh,
                              abscissa_name="pixel_distance_over_lcoh",
                              label=f"fig7_b{b:g}")
            out.append(sc)
        return out
    if fig_id == 8:
        p = _preset_params(overrides, plane_pump=True)
        s = derive_scales(p)
        values = list(np.linspace(0.02, 3.0, 75) * s.r0)
        return [Scenario(p, "far", "radial", values,
                         LocalOscillator(profile="gaussian", waist=s.r0),
                         abscissa_scale=s.r0, abscissa_name="r_over_r0",
                         label="fig8_V")]
    if fig_id in (9, 10):
        out = []
        for b in _b_list(overrides):
            p = _preset_params(overrides)
            s0 = derive_scales(replace(p, plane_pump=True, w_p=None))
            p = replace(p, w_p=math.sqrt(b) * s0.l_coh)
            s = derive_scales(p)
            x_of_q = p.lambda_s * p.f_lens / (2.0 * math.pi)  # meters per 1/m
            coh_x = x_of_q * s.q_coh  # detection-plane size of 1/w_p
            if fig_id == 9:
                values = list(np.linspace(0.1, 5.0, 30) * coh_x)
                sc = Scenario(p, "far", "interval", values, LocalOscillator(),
                              abscissa_scale=coh_x,
                              abscissa_name="radius_times_qcoh",
                              label=f"fig9_b{b:g}")
            else:
                values = list(np.linspace(0.0, 5.0, 26) * coh_x)
                sc = Scenario(p, "far", "pixel_pair", values, LocalOscillator(),
                              pixel_width=coh_x, abscissa_scale=coh_x,
                              abscissa_name="pixel_distance_times_qcoh",
                              label=f"fig10_b{b:g}")
            out.append(sc)
        return out
    raise ConfigurationError(f"unknown figure preset id: {fig_id}")

def run_fig(fig_id: int, overrides: dict, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    if fig_id == 2:
        _run_fig2(overrides, outdir)
        return
    scenarios = fig_scenarios(fig_id, overrides)
    for sc in scenarios:
        name = "curve.csv" if fig_id == 5 else f"curve_{sc.label.split('_', 1)[-1]}.csv"
        run_scenario(sc, outdir, csv_name=name)
    if fig_id == 8:
        _run_fig8_density(scenarios[0], outdir)
    write_summary(outdir, scenarios)

def _run_fig2(overrides: dict, outdir: Path) -> None:
    p = _preset_params(overrides, plane_pump=True)
    s = derive_scales(p)
    xs = np.linspace(0.0, 4.0, 401)
    rows = [(x, float(delta_2d(x * s.l_coh, s)) * s.l_coh**2) for x in xs]
    sc_pairs = [("label", "fig2"), ("lambda_s", p.lambda_s), ("n_s", p.n_s),
                ("l_c", p.l_c), ("l_coh", s.l_coh)]
    _write_curve(outdir / "curve.csv", _echo(sc_pairs), "r_over_lcoh,delta_lcoh2", rows)
    lines = [
        "kernel profile preset (artifact defaults)",
        f"  l_coh = {_fmt(s.l_coh)}",
        f"  delta(0) * l_coh^2 = {_fmt(float(delta_2d(0.0, s)) * s.l_coh**2)}",
    ]
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")

def _run_fig8_density(sc: Scenario, outdir: Path) -> None:
    """Companion pixel-pair density curve R(r) for the far-field preset."""
    p = sc.params
    s = derive_scales(p)
    us = np.linspace(0.0, 5.0, 126)
    rows = []
    for u in us:
        q = 2.0 * u / s.l_coh  # r/r0 = u maps to sinc(u^2)
        r_sq = float(noise_density_planepump(q, p, s, math.pi / 2))
        r_anti = float(noise_density_planepump(q, p, s, 0.0))
        rows.append((u, r_sq, r_anti, 1.0))
    pairs = [("label", "fig8_R"), ("A_p", p.A_p), ("detector", "pixel_pair_density")]
    _write_curve(outdir / "curve_R.csv", _echo(pairs),
                 "abscissa,vn_squeezed,vn_antisqueezed,shot", rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_overrides(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "b":
            out[key] = value
        elif key in ARTIFACT_DEFAULTS:
            out[key] = _convert(key, value.strip())
        else:
            raise ConfigurationError(
                f"--set: key {key!r} is not a preset parameter; use b or one of "
                f"{', '.join(ARTIFACT_DEFAULTS)}"
            )
    return out

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confocal-opo",
        description="Multimode squeezing spectra of a confocal OPO with a thick crystal",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a configuration file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_fig = sub.add_parser("fig", help="run a figure preset")
    p_fig.add_argument("--id", type=int, required=True,
                       choices=(2, 5, 6, 7, 8, 9, 10))
    p_fig.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_fig.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = parse_config(args.config)
            sc = scenario_from_config(cfg)
            outdir = Path(args.out or cfg.get("output", "out"))
            outdir.mkdir(parents=True, exist_ok=True)
            run_scenario(sc, outdir)
            write_summary(outdir, [sc])
        else:
            overrides = _parse_overrides(args.set)
            outdir = Path(args.out or f"out_fig{args.id}")
            run_fig(args.id, overrides, outdir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OpoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
