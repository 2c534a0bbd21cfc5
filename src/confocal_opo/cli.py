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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, NumericalFailure
from .homodyne import DetectorMask, LocalOscillator, SqueezingResult, _planepump_noise, squeezing
from .iosolver import solve_io
from .kernels import MAX_GRID_N, auto_grid, delta_2d
from .params import _RULES, OpoParams

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

_FLOAT_KEYS = {*_RULES, "pixel_width", "lo_waist", "lo_amplitude", "sweep_min", "sweep_max",
               "grid_L"}
_INT_KEYS = {"sweep_points", "grid_n"}
_MAX_SWEEP_POINTS = 100_000  # every point holds a result row until the curve is written
# (test, rule) of each bounded number key, OpoParams' fields too; b's holds per comma item
_BOUNDS = {
    **_RULES,
    "sweep_points": (lambda n: 2 <= n <= _MAX_SWEEP_POINTS,
                     f"must be between 2 and {_MAX_SWEEP_POINTS}"),
    "grid_n": (lambda n: 2 <= n <= MAX_GRID_N, f"must be between 2 and {MAX_GRID_N}"),
    "sweep_min": (lambda x: x >= 0, "must be non-negative"),
    **dict.fromkeys(("grid_L", "b", "lo_amplitude", "lo_waist", "pixel_width"),
                    (lambda x: x > 0, "must be positive")),
}
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
    abscissa_name: str
    label: str
    pixel_width: float | None = None
    grid_n: int | None = None
    grid_L: float | None = None


def parse_config(path) -> dict:
    """Read a flat key=value file (UTF-8, a byte-order mark allowed); unknown
    keys are a hard error."""
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [(f"{path}:{lineno}: ", raw.split("#", 1)[0].strip())
             for lineno, raw in enumerate(text.splitlines(), 1)]
    return _read_pairs([(where, line) for where, line in lines if line], _ALL_KEYS,
                       "not a configuration key")

class _Values(dict):
    """Values by key, with ``where[key]``, the ``path:line: `` of the key's line."""

def _read_pairs(pairs, keys, unaccepted: str) -> _Values:
    """Converted values of ``(where, "key = value")`` pairs.  A missing "=",
    a key outside ``keys`` (refused as ``unaccepted``), a key given twice or
    a bad value is refused with ``where`` ahead of the message."""
    out = _Values()
    out.where = {}
    for where, text in pairs:
        key, eq, value = (part.strip() for part in text.partition("="))
        fault = (f"expected 'key = value', got {_quote(text)}" if not eq
                 else f"key {_quote(key)}: {unaccepted}" if key not in keys
                 else f"key {key!r}: given twice" if key in out else None)
        if fault:
            raise ConfigurationError(where + fault)
        try:
            out[key] = _convert(key, value)
        except ConfigurationError as exc:
            raise ConfigurationError(where + str(exc)) from exc
        out.where[key] = where
    return out

def _quote(text: str) -> str:
    """``text`` quoted for a refusal, cut after 40 characters."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")

def _convert(key: str, value: str):
    if key == "b":
        return tuple(_number(key, item) for item in value.split(","))
    if key in _AUTO_KEYS and value == "auto":
        return None
    if key in _FLOAT_KEYS | _INT_KEYS:
        return _number(key, value)
    if key == "output" and not value:  # Path("") would write into the working directory
        raise ConfigurationError("key 'output': needs a directory, got ''")
    if key in _CHOICE_KEYS and value not in _CHOICE_KEYS[key]:
        raise ConfigurationError(f"key {key!r}: must be one of {_CHOICE_KEYS[key]}, "
                                 f"got {_quote(value)}")
    return value

def _number(key: str, text: str):
    """``text`` read as ``key``'s number, an int for the sizes and a finite
    float otherwise, refused unless it keeps its rule in ``_BOUNDS``."""
    kind = int if key in _INT_KEYS else float
    try:
        number = kind(text)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"key {key!r}: not {noun}: {_quote(text)}") from exc
    if kind is float and not math.isfinite(number):  # an int may be too long for a float
        raise ConfigurationError(f"key {key!r}: not a finite number: {_quote(text)}")
    if key in _BOUNDS and not _BOUNDS[key][0](number):
        raise ConfigurationError(f"key {key!r}: {_BOUNDS[key][1]}, got {_quote(text)}")
    return number

def scenario_from_config(cfg: dict) -> Scenario:
    """The ``Scenario`` of ``parse_config``'s result ``cfg``.  A refusal of
    a key that is set names the ``path:line:`` it was read at; a missing
    required key is named alone."""
    def at(key):  # the path:line: that parse_config read key at, "" for a missing key
        return cfg.where.get(key, "")

    required = ["lambda_s", "n_s", "l_c", "z_C", "A_p", "pump", "plane",
                "detector", "sweep_min", "sweep_max"]
    for key in required:
        if key not in cfg:
            raise ConfigurationError(f"missing required configuration key: {key!r}")
    for key, needs, setting in (("w_p", "pump", "gaussian"), ("lo_waist", "lo", "gaussian")):
        if cfg.get(needs) == setting and key not in cfg:
            raise ConfigurationError(f"{at(needs)}key {key!r}: required for {needs} = {setting}")
    # a key that changes no row is refused, not echoed as if it applied
    for key, needs, setting in (("w_p", "pump", "gaussian"), ("lo_waist", "lo", "gaussian"),
                                ("pixel_width", "detector", "pixel_pair")):
        if key in cfg and cfg.get(needs) != setting:
            raise ConfigurationError(f"{at(key)}key {key!r}: applies to {needs} = {setting} only")
    if cfg["detector"] == "radial" and (cfg["pump"], cfg["plane"]) != ("plane", "far"):
        raise ConfigurationError(
            f"{at('detector')}key 'detector': radial is a 2-D disk, computed for pump = plane "
            "and plane = far only; the other routes are 1-D")
    if cfg.get("lo") == "gaussian" and (cfg["pump"], cfg["plane"]) == ("plane", "near"):
        raise ConfigurationError(
            f"{at('lo')}key 'lo': a plane pump in the near plane takes a plane LO only")
    # a plane pump unless pump = gaussian gives w_p; OpoParams defaults the rest
    params = OpoParams(**{"w_p": math.inf,
                          **{f.name: cfg[f.name] for f in fields(OpoParams) if f.name in cfg}})
    if cfg["sweep_max"] <= cfg["sweep_min"]:
        raise ConfigurationError(f"{at('sweep_max')}key 'sweep_max': must exceed sweep_min")
    values = list(np.linspace(cfg["sweep_min"], cfg["sweep_max"], cfg.get("sweep_points", 25)))
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
    return Scenario(params, cfg["plane"], cfg["detector"], values, lo, abscissa_name=name,
                    label="run", pixel_width=pixel_width, grid_n=cfg.get("grid_n"),
                    grid_L=cfg.get("grid_L"))

def _unit(p: OpoParams, plane: str) -> float:
    """Coherence unit of ``plane`` in detection-plane meters.

    l_coh near the crystal.  In the far field, q = 2 pi x / (lambda f) maps
    detection-plane positions to wavevectors, and the unit is the size of
    q_coh = 1/w_p there, or r0 for a plane pump.  It scales the abscissa of
    every curve, the preset sweeps and the default pixel width.
    """
    if plane == "near":
        return p.l_coh
    if p.plane_pump:
        return p.r0
    return p.lambda_s * p.f_lens / (2.0 * math.pi) * (1.0 / p.w_p)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:  # a number to 12 significant digits, a string as it is
    return x if isinstance(x, str) else f"{float(x):.12g}"

def _echo(pairs) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in pairs)

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

def run_scenario(sc: Scenario):
    """The sweep's curve and the threshold margin 1 - max|lam| of its solve
    (1 - A_p for a plane pump, whose strongest mode is q = 0).  The curve is
    (file name, comment, header, rows), one row per value (abscissa: the
    value / ``_unit``): one ``squeezing`` call for all its detectors on the
    sweep's cavity (a plane pump's parameters, or the cavity of its one
    solve), and shot noise (vn = 1, N = 0) for a zero-size interval or disk,
    which detects nothing.  A label ``<name>_<suffix>`` names the file
    ``curve_<suffix>.csv``, one without "_" ``curve.csv``."""
    p = sc.params
    dets = [_detector(sc.detector, sc.plane, float(value), sc.pixel_width) for value in sc.values]
    cavity = p if p.plane_pump else solve_io(
        _grid(p, sc.plane, dets, sc.grid_n, sc.grid_L), p)
    unit = _unit(p, sc.plane)
    results = iter(squeezing([det for det in dets if det is not None], sc.lo, cavity))
    rows = []
    for value, det in zip(sc.values, dets):
        res = SqueezingResult(1.0, 1.0, 0.0, "") if det is None else next(results)
        rows.append((float(value) / unit, res.vn_squeezed, res.vn_antisqueezed, res.shot))
    suffix = sc.label.partition("_")[2]
    curve = (f"curve_{suffix}.csv" if suffix else "curve.csv", _echo(_scenario_echo(sc)),
             "abscissa,vn_squeezed,vn_antisqueezed,shot", rows)
    return curve, 1.0 - cavity.A_p if cavity is p else cavity.margin

def _detector(shape: str, plane: str, value: float,
              pixel_width: float | None = None) -> DetectorMask | None:
    """The ``shape`` detector on ``plane`` at ``value`` (a half width, radius
    or pixel center distance), None for a zero-size interval or disk."""
    if shape == "pixel_pair":
        return DetectorMask.pixel_pair(value, pixel_width, plane)
    if value == 0:
        return None
    return getattr(DetectorMask, shape)(value, plane)

def _grid(p: OpoParams, plane: str, dets, n: int | None = None, half: float | None = None):
    """The grid a run solves on ``plane``, its one ``auto_grid`` call: a given
    ``n`` or ``half`` (half extent) as it is, the rest from the sizing rule
    on the outer reach of the detectors ``dets`` (None skipped)."""
    reaches = [det.bounds_on_axis(p)[1] for det in dets if det is not None]
    return auto_grid(p, plane, reaches, n, half)

def write_summary(runs) -> str:
    """``summary.txt``: derived scales and threshold margin of each (scenario, margin) run."""
    lines = [
        "configuration and derived scales (artifact defaults unless a config "
        "or --set override was given; preset parameter choices are made by "
        "this implementation, not published data)",
        "",
    ]
    for sc, margin in runs:
        p = sc.params
        pairs = [*_scenario_echo(sc), ("l_coh", p.l_coh), ("w_C", p.w_C), ("r0", p.r0),
                 ("b", p.b), ("threshold_margin", margin)]  # b is inf for a plane pump
        lines += [f"[{sc.label}]", *(f"  {k} = {_fmt(v)}" for k, v in pairs), ""]
    return "\n".join(lines) + "\n"


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
    pump, plane, detector, first, last, points, name, lo_waist, suffix = _PRESETS[fig_id]
    l_coh = _preset_params(overrides, w_p=math.inf).l_coh
    out, labels = [], {}  # labels: the b of each curve label so far
    for b in overrides.get("b", PRESET_B_VALUES) if pump == "gaussian" else (math.inf,):
        p = _preset_params(overrides, w_p=math.sqrt(b) * l_coh)
        unit = _unit(p, plane)
        stop = 3.0 * math.sqrt(b) if last is None else last
        if not stop > first:  # the abscissa would run backwards
            raise ConfigurationError(f"key 'b': fig {fig_id} sweeps from {first:g} to 3 sqrt(b), "
                                     f"so b must exceed {(first / 3.0) ** 2:.6g}, got {b:g}")
        label = f"fig{fig_id}_{suffix.format(b=b)}".rstrip("_")
        if label in labels:  # the second curve would overwrite the first's file
            raise ConfigurationError(f"key 'b': values {labels[label]!r} and {b!r} give "
                                     f"the same curve label {label}")
        labels[label] = b
        out.append(Scenario(
            p, plane, detector, list(np.linspace(first, stop, points) * unit),
            LocalOscillator(waist=lo_waist * unit), abscissa_name=name, label=label,
            pixel_width=unit if detector == "pixel_pair" else None,
        ))
    return out

def run_fig(fig_id: int, overrides: dict):
    """(curves, ``summary.txt`` text) of one figure preset, each curve a
    (file name, comment, header, rows) as ``run_scenario`` returns it."""
    if fig_id == 2:
        return _run_fig2(overrides)
    scenarios = fig_scenarios(fig_id, overrides)
    curves, margins = zip(*map(run_scenario, scenarios))
    density = [_run_fig8_density(scenarios[0])] if fig_id == 8 else []
    return [*curves, *density], write_summary(zip(scenarios, margins))

def _run_fig2(overrides: dict):
    p = _preset_params(overrides, w_p=math.inf)
    xs = np.linspace(0.0, 4.0, 401)
    rows = list(zip(xs, delta_2d(xs * p.l_coh, p) * p.l_coh**2))
    sc_pairs = [("label", "fig2"), ("lambda_s", p.lambda_s), ("n_s", p.n_s),
                ("l_c", p.l_c), ("l_coh", p.l_coh)]
    lines = ["kernel profile preset (artifact defaults)", f"  l_coh = {_fmt(p.l_coh)}",
             f"  delta(0) * l_coh^2 = {_fmt(float(delta_2d(0.0, p)) * p.l_coh**2)}", ""]
    return [("curve.csv", _echo(sc_pairs), "r_over_lcoh,delta_lcoh2", rows)], "\n".join(lines)

def _run_fig8_density(sc: Scenario):
    """Companion pixel-pair density curve R(r) for the far-field preset."""
    p = sc.params
    us = np.linspace(0.0, 5.0, 126)
    r_sq, r_anti = 1.0 + _planepump_noise(p, 2.0 * us)  # r/r0 = u maps to sinc(u^2)
    rows = [(u, r1, r2, 1.0) for u, r1, r2 in zip(us, r_sq, r_anti)]
    pairs = [("label", "fig8_R"), ("A_p", p.A_p), ("detector", "pixel_pair_density")]
    return "curve_R.csv", _echo(pairs), "abscissa,vn_squeezed,vn_antisqueezed,shot", rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

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
                       choices=(2, *_PRESETS))
    p_fig.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_fig.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.out == "":  # Path("") would write into the working directory
            raise ConfigurationError("--out: needs a directory, got ''")
        if args.command == "run":
            cfg = parse_config(args.config)
            sc = scenario_from_config(cfg)
            curve, margin = run_scenario(sc)
            curves, summary = [curve], write_summary([(sc, margin)])
            outdir = Path(args.out or cfg.get("output", "out"))
        else:
            keys = (_FIG2_KEYS if args.id == 2 else (*ARTIFACT_DEFAULTS, "b")
                    if _PRESETS[args.id][0] == "gaussian" else ARTIFACT_DEFAULTS)
            overrides = _read_pairs([("", item) for item in args.set], keys,
                                    f"fig {args.id} takes only {', '.join(keys)}")
            curves, summary = run_fig(args.id, overrides)
            outdir = Path(args.out or f"out_fig{args.id}")
        # written only once every curve is computed: a refused command leaves nothing
        outdir.mkdir(parents=True, exist_ok=True)
        for name, comment, header, rows in curves:
            lines = [f"# {comment}", header, *(",".join(map(_fmt, row)) for row in rows)]
            (outdir / name).write_text("\n".join(lines) + "\n")
        (outdir / "summary.txt").write_text(summary)
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
    return 0

if __name__ == "__main__":
    sys.exit(main())
