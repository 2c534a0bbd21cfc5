"""The benchmark's workloads: CLI invocations generated from a seed.

Every workload is a fixed list of ``confocal-opo`` invocations.  The seed
changes only values: it draws the pump amplitude ``A_p`` of each invocation
(``--set A_p=`` for a figure preset, a config value for ``run``) and shifts
the dense run configs' ``sweep_min``.  It never changes ``b``, a grid size,
the number of invocations or the number of sweep points, so every seed asks
for the same amount of work.  The dense configs keep ``sweep_max``, which
sets their automatic grid, so their ``n`` stays fixed.

The plane-pump near-field run config is the exception: its values are
fixed.  Beyond the Gauss-panel window its points run on adaptive QUADPACK,
whose cost depends on the values themselves (the same five points took
from 2.4 s to 7.4 s for A_p between 0.85 and 0.95 on a 2-core x86-64
machine), so a seed-drawn value would change the work, not just the data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Shared physics of every run config: the figure presets' artifact defaults
# (1 cm crystal at 1.064 um, n_s = 2.12, so l_coh = 40 um).
_BASE_CONFIG = {
    "lambda_s": "1.064e-6",
    "n_s": "2.12",
    "l_c": "0.01",
    "z_C": "0.05",
}
# b = (w_p / l_coh)^2 = 25
_W_P_B25 = "2.0e-4"

A_P_RANGE = (0.85, 0.95)
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Curve:
    """One CSV file an invocation must write.

    ``kind`` is "spectrum" (abscissa, vn_squeezed, vn_antisqueezed, shot) or
    "profile" (the fig 2 kernel profile).  ``route`` is "dense" or
    "closed", which selects the reference tolerance.  ``empty_at_zero``
    marks interval/radial sweeps, whose zero abscissa is an empty detector.
    """

    rows: int
    kind: str = "spectrum"
    route: str = "closed"
    empty_at_zero: bool = True


@dataclass(frozen=True)
class Invocation:
    """One CLI process: its arguments (without ``--out``) and expected CSVs."""

    name: str
    args: tuple
    curves: dict = field(default_factory=dict)
    config: str | None = None  # config file text for ``run``

    def argv(self, config_path, outdir) -> list[str]:
        args = list(self.args)
        if self.config is not None:
            args += ["--config", str(config_path)]
        return args + ["--out", str(outdir)]


def _config_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in {**_BASE_CONFIG, **values}.items())


def _a_p(rng: random.Random) -> str:
    lo, hi = A_P_RANGE
    return f"{lo + (hi - lo) * rng.random():.6f}"


def _fig(fig_id: int, rng: random.Random, curves: dict) -> Invocation:
    args = ("fig", "--id", str(fig_id), "--set", f"A_p={_a_p(rng)}")
    return Invocation(f"fig{fig_id}", args, curves)


def _run(name: str, values: dict, points: int, curve: Curve) -> Invocation:
    cfg = {**values, "sweep_points": str(points)}
    return Invocation(name, ("run",), {"curve.csv": curve}, _config_text(cfg))


def _shift(rng: random.Random, base_mm: float, spread_mm: float) -> str:
    return f"{(base_mm + spread_mm * (2.0 * rng.random() - 1.0)) * 1e-3:.9g}"


def near_dense(rng: random.Random) -> list[Invocation]:
    dense = Curve(30, route="dense")
    return [_fig(6, rng, {"curve_b4.csv": dense, "curve_b25.csv": dense,
                          "curve_b100.csv": dense})]


def closed_form(rng: random.Random) -> list[Invocation]:
    return [
        _fig(2, rng, {"curve.csv": Curve(401, kind="profile")}),
        _fig(5, rng, {"curve.csv": Curve(100)}),
        _fig(8, rng, {"curve_V.csv": Curve(75), "curve_R.csv": Curve(126)}),
        # 2d / l_coh = 15 and 25 on Gauss panels, 35, 45 and 55 adaptive
        _run("planepump_near", {
            "A_p": "0.9", "pump": "plane", "plane": "near", "detector": "interval",
            "sweep_min": "0.3e-3", "sweep_max": "1.1e-3",
        }, 5, Curve(5)),
    ]


def detuned_pair(rng: random.Random) -> list[Invocation]:
    detuned = {"pump": "gaussian", "w_p": _W_P_B25, "detuning": "0.5", "omega_bar": "0.5"}
    return [
        # near grid n = 993, set by the widest pixel pair
        _run("detuned_near", {
            **detuned, "A_p": _a_p(rng), "plane": "near", "detector": "pixel_pair",
            "sweep_min": _shift(rng, 0.01, 0.01), "sweep_max": "0.6e-3",
        }, 25, Curve(25, route="dense", empty_at_zero=False)),
        # far grid n = 321, set by the widest interval
        _run("detuned_far", {
            **detuned, "A_p": _a_p(rng), "plane": "far", "detector": "interval",
            "lo": "gaussian", "lo_waist": "0.25e-3",
            "sweep_min": _shift(rng, 0.015, 0.01), "sweep_max": "0.423e-3",
        }, 25, Curve(25, route="dense")),
    ]


WORKLOADS = {
    "near-dense": near_dense,
    "closed-form": closed_form,
    "detuned-pair": detuned_pair,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for ``seed``; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
