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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, NumericalFailure, OpoError
from .homodyne import _PHASES, LocalOscillator, _check_threshold, _mode_noise, sweep, sweep_extents
from .iosolver import CavityModes, solve_io
from .kernels import MAX_GRID_N, Grid1D, auto_grid, delta_2d, phase_match_sinc
from .params import OpoParams

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
# The fig 2 kernel profile reads l_coh alone.  A_p changes none of its bytes
# either, but stays accepted until the benchmark, which sets it on every
# preset, stops passing it to fig 2.
_FIG2_KEYS = ("lambda_s", "n_s", "l_c", "A_p")

_FLOAT_KEYS = {
    "lambda_s", "n_s", "l_c", "z_C", "A_p", "w_p", "detuning", "omega_bar",
    "f_lens", "pixel_width", "lo_waist", "lo_amplitude",
    "sweep_min", "sweep_max", "grid_L",
}
_INT_KEYS = {"sweep_points", "grid_n"}
_MAX_SWEEP_POINTS = 100_000  # every point holds a result row until the curve is written
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
    abscissa_scale: float
    abscissa_name: str
    label: str
    pixel_width: float | None = None
    grid_n: int | None = None
    grid_L: float | None = None


def parse_config(path) -> dict:
    """Read a flat key=value file; unknown keys are a hard error."""
    cfg = {}
    text = Path(path).read_text(encoding="utf-8")
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
    for key, needs, setting in (("w_p", "pump", "gaussian"), ("lo_waist", "lo", "gaussian")):
        if cfg.get(needs) == setting and key not in cfg:
            raise ConfigurationError(f"key {key!r}: required for {needs} = {setting}")
    # a key that changes no row is refused, not echoed as if it applied
    for key, needs, setting in (("w_p", "pump", "gaussian"), ("lo_waist", "lo", "gaussian"),
                                ("pixel_width", "detector", "pixel_pair")):
        if key in cfg and cfg.get(needs) != setting:
            raise ConfigurationError(f"key {key!r}: applies to {needs} = {setting} only")
    if cfg["detector"] == "radial" and (cfg["pump"], cfg["plane"]) != ("plane", "far"):
        raise ConfigurationError(
            "key 'detector': radial is a 2-D disk, computed for pump = plane and "
            "plane = far only; the other routes are 1-D")
    if cfg.get("lo") == "gaussian" and (cfg["pump"], cfg["plane"]) == ("plane", "near"):
        raise ConfigurationError("key 'lo': a plane pump in the near plane takes a plane LO only")
    params = OpoParams(
        lambda_s=cfg["lambda_s"],
        n_s=cfg["n_s"],
        l_c=cfg["l_c"],
        z_C=cfg["z_C"],
        A_p=cfg["A_p"],
        w_p=cfg.get("w_p", math.inf),  # given exactly when pump = gaussian
        detuning=cfg.get("detuning", 0.0),
        omega_bar=cfg.get("omega_bar", 0.0),
        f_lens=cfg.get("f_lens", 0.1),
    )
    npts = cfg.get("sweep_points", 25)
    if npts is None or not 2 <= npts <= _MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"key 'sweep_points': need between 2 and {_MAX_SWEEP_POINTS} sweep points, got {npts}"
        )
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
    lo = LocalOscillator(amplitude=cfg.get("lo_amplitude", 1.0),
                         waist=cfg.get("lo_waist", math.inf))
    unit = _unit(params, cfg["plane"])
    pixel_width = cfg.get("pixel_width")
    if cfg["detector"] == "pixel_pair" and pixel_width is None:
        pixel_width = unit
    if cfg["plane"] == "near":
        name = "size_over_lcoh"
    else:
        name = "r_over_r0" if params.plane_pump else "q_times_wp"
    return Scenario(params, cfg["plane"], cfg["detector"], values, lo, abscissa_scale=unit,
                    abscissa_name=name, label="run", pixel_width=pixel_width,
                    grid_n=grid_n, grid_L=grid_L)

def _unit(p: OpoParams, plane: str) -> float:
    """Coherence unit of ``plane`` in detection-plane meters.

    l_coh near the crystal.  In the far field, q = 2 pi x / (lambda f) maps
    detection-plane positions to wavevectors, and the unit is the size of
    q_coh = 1/w_p there, or r0 for a plane pump.  It scales the abscissa,
    the preset sweeps and the default pixel width.
    """
    if plane == "near":
        return p.l_coh
    if p.plane_pump:
        return p.r0
    return p.lambda_s * p.f_lens / (2.0 * math.pi) * (1.0 / p.w_p)


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
        ("lo", "plane" if math.isinf(sc.lo.waist) else "gaussian"),
        ("lo_amplitude", sc.lo.amplitude),
    ]
    if math.isfinite(sc.lo.waist):
        pairs.append(("lo_waist", sc.lo.waist))
    if sc.pixel_width is not None:
        pairs.append(("pixel_width", sc.pixel_width))
    pairs.append(("abscissa", sc.abscissa_name))
    return pairs

def run_scenario(sc: Scenario, outdir: Path, csv_name: str = "curve.csv") -> float:
    """Write the sweep's curve; return the threshold margin 1 - max|lam| of
    its solve (1 - A_p for a plane pump, whose strongest mode is q = 0)."""
    p = sc.params
    modes = _modes(sc)
    results = sweep(
        p, sc.plane, sc.detector, sc.values, sc.lo,
        pixel_width=sc.pixel_width, modes=modes,
    )
    rows = [
        (float(value) / sc.abscissa_scale, res.vn_squeezed, res.vn_antisqueezed, res.shot)
        for value, res in zip(sc.values, results)
    ]
    outdir.mkdir(parents=True, exist_ok=True)
    _write_curve(outdir / csv_name, _echo(_scenario_echo(sc)),
                 "abscissa,vn_squeezed,vn_antisqueezed,shot", rows)
    return 1.0 - (p.A_p if modes is None else float(np.abs(modes.lam).max()))

def _modes(sc: Scenario) -> CavityModes | None:
    """The modes of the sweep's one dense solve, None for a plane pump.  A
    grid_n or grid_L left out comes from the sizing rule: the half extent
    from the sweep's detectors and LO, n from the step rule on grid_L."""
    p = sc.params
    if p.plane_pump:
        return None
    n, half = sc.grid_n, sc.grid_L
    if n is None or half is None:
        cover = ((), (half,)) if half is not None else sweep_extents(
            p, sc.plane, sc.detector, sc.values, sc.lo, sc.pixel_width)
        auto = auto_grid(p, sc.plane, *cover)
        n, half = n or auto.n, half or auto.half_extent
    return solve_io(Grid1D.uniform(n, half, sc.plane), p)

def write_summary(outdir: Path, runs) -> Path:
    """Derived scales and threshold margin of every (scenario, margin) run."""
    lines = [
        "configuration and derived scales (artifact defaults unless a config "
        "or --set override was given; preset parameter choices are made by "
        "this implementation, not published data)",
        "",
    ]
    for sc, margin in runs:
        p = sc.params
        lines.append(f"[{sc.label}]")
        lines.extend(f"  {k} = {v if isinstance(v, str) else _fmt(v)}"
                     for k, v in _scenario_echo(sc))
        lines.append(f"  l_coh = {_fmt(p.l_coh)}")
        lines.append(f"  w_C = {_fmt(p.w_C)}")
        lines.append(f"  r0 = {_fmt(p.r0)}")
        lines.append(f"  b = {_fmt(p.b)}")  # inf for a plane pump
        lines.append(f"  threshold_margin = {_fmt(margin)}")
        lines.append("")
    path = outdir / "summary.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _preset_params(overrides: dict, **changes) -> OpoParams:
    pinned = {k: overrides.get(k, v) for k, v in ARTIFACT_DEFAULTS.items()}
    return OpoParams(**pinned, **changes)

# Figs 5-10, one row each: (pump, plane, detector, first, last, points,
# abscissa name, LO waist, curve suffix).  first, last and the LO waist are
# in the plane's coherence unit (``_unit``); a last of None is 3 sqrt(b),
# and an LO waist of inf is the plane LO.  A Gaussian pump draws one curve
# per b, with w_p = sqrt(b) l_coh; a plane pump is its b = inf member.  A
# pixel is one unit wide.
_PRESETS = {
    5: ("plane", "near", "interval", 0.05, 5.0, 100, "radius_over_lcoh", math.inf, ""),
    6: ("gaussian", "near", "interval", 0.1, None, 30, "radius_over_lcoh", math.inf, "b{b:g}"),
    7: ("gaussian", "near", "pixel_pair", 0.0, None, 31, "pixel_distance_over_lcoh",
        math.inf, "b{b:g}"),
    8: ("plane", "far", "radial", 0.02, 3.0, 75, "r_over_r0", 1.0, "V"),
    9: ("gaussian", "far", "interval", 0.1, 5.0, 30, "radius_times_qcoh", math.inf, "b{b:g}"),
    10: ("gaussian", "far", "pixel_pair", 0.0, 5.0, 26, "pixel_distance_times_qcoh",
         math.inf, "b{b:g}"),
}

def fig_scenarios(fig_id: int, overrides: dict) -> list[Scenario]:
    """Scenario list for one figure preset (one scenario per curve)."""
    if fig_id not in _PRESETS:
        raise ConfigurationError(f"unknown figure preset id: {fig_id}")
    pump, plane, detector, first, last, points, name, lo_waist, suffix = _PRESETS[fig_id]
    l_coh = _preset_params(overrides, w_p=math.inf).l_coh
    out = []
    for b in overrides.get("b", PRESET_B_VALUES) if pump == "gaussian" else (math.inf,):
        p = _preset_params(overrides, w_p=math.sqrt(b) * l_coh)
        unit = _unit(p, plane)
        stop = 3.0 * math.sqrt(b) if last is None else last
        if not stop > first:  # the abscissa would run backwards
            raise ConfigurationError(f"key 'b': fig {fig_id} sweeps from {first:g} to 3 sqrt(b), "
                                     f"so b must exceed {(first / 3.0) ** 2:.6g}, got {b:g}")
        out.append(Scenario(
            p, plane, detector, list(np.linspace(first, stop, points) * unit),
            LocalOscillator(waist=lo_waist * unit),
            abscissa_scale=unit, abscissa_name=name,
            label=f"fig{fig_id}_{suffix.format(b=b)}".rstrip("_"),
            pixel_width=unit if detector == "pixel_pair" else None,
        ))
    labels = [sc.label for sc in out]
    if len(set(labels)) < len(labels):
        raise ConfigurationError(
            f"key 'b': values {overrides['b']} give repeated curve labels {labels}")
    return out

def run_fig(fig_id: int, overrides: dict, outdir: Path) -> None:
    families = [i for i, row in _PRESETS.items() if row[0] == "gaussian"]
    if "b" in overrides and fig_id not in families:
        raise ConfigurationError(
            f"key 'b': fig {fig_id} has no b family; b applies to figs "
            f"{', '.join(map(str, families))}"
        )
    unread = [key for key in overrides if fig_id == 2 and key not in _FIG2_KEYS]
    if unread:
        raise ConfigurationError(f"key {unread[0]!r}: fig 2 draws the kernel profile, "
                                 "which reads only lambda_s, n_s and l_c")
    outdir.mkdir(parents=True, exist_ok=True)
    if fig_id == 2:
        _run_fig2(overrides, outdir)
        return
    scenarios = fig_scenarios(fig_id, overrides)
    margins = []
    for sc in scenarios:
        suffix = sc.label.partition("_")[2]
        margins.append(run_scenario(
            sc, outdir, csv_name=f"curve_{suffix}.csv" if suffix else "curve.csv"))
    if fig_id == 8:
        _run_fig8_density(scenarios[0], outdir)
    write_summary(outdir, list(zip(scenarios, margins)))

def _run_fig2(overrides: dict, outdir: Path) -> None:
    p = _preset_params(overrides, w_p=math.inf)
    xs = np.linspace(0.0, 4.0, 401)
    rows = [(x, float(delta_2d(x * p.l_coh, p)) * p.l_coh**2) for x in xs]
    sc_pairs = [("label", "fig2"), ("lambda_s", p.lambda_s), ("n_s", p.n_s),
                ("l_c", p.l_c), ("l_coh", p.l_coh)]
    _write_curve(outdir / "curve.csv", _echo(sc_pairs), "r_over_lcoh,delta_lcoh2", rows)
    lines = [
        "kernel profile preset (artifact defaults)",
        f"  l_coh = {_fmt(p.l_coh)}",
        f"  delta(0) * l_coh^2 = {_fmt(float(delta_2d(0.0, p)) * p.l_coh**2)}",
    ]
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")

def _run_fig8_density(sc: Scenario, outdir: Path) -> None:
    """Companion pixel-pair density curve R(r) for the far-field preset."""
    p = sc.params
    _check_threshold(p)
    us = np.linspace(0.0, 5.0, 126)
    lam = p.A_p * phase_match_sinc(2.0 * us / p.l_coh, p)  # r/r0 = u maps to sinc(u^2)
    r_sq, r_anti = (1.0 + _mode_noise(lam, phase, p.detuning, p.omega_bar) for phase in _PHASES)
    rows = [(u, r1, r2, 1.0) for u, r1, r2 in zip(us, r_sq, r_anti)]
    pairs = [("label", "fig8_R"), ("A_p", p.A_p), ("detector", "pixel_pair_density")]
    _write_curve(outdir / "curve_R.csv", _echo(pairs),
                 "abscissa,vn_squeezed,vn_antisqueezed,shot", rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_b(value: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in value.split(","))
    except ValueError:
        values = ()
    if not values or not all(0 < b < math.inf for b in values):
        raise ConfigurationError(
            f"key 'b': need comma-separated finite positive numbers, got {value!r}"
        )
    return values

def _parse_overrides(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigurationError(f"--set: duplicate key: {key!r}")
        if key == "b":
            out[key] = _parse_b(value)
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
            write_summary(outdir, [(sc, run_scenario(sc, outdir))])
        else:
            overrides = _parse_overrides(args.set)
            outdir = Path(args.out or f"out_fig{args.id}")
            run_fig(args.id, overrides, outdir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable config or output path
        where, reason = ((exc.filename, exc.strerror) if isinstance(exc, OSError)
                         else (args.config, "not UTF-8 text"))
        print(f"configuration error: {where}: {reason}", file=sys.stderr)
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
