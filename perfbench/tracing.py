"""Traced CLI invocations and the per-layer metrics built from their spans.

Run as a script, this file executes one ``confocal-opo`` invocation the way
the console script does (``confocal_opo.cli.main`` in a fresh interpreter),
after wrapping the functions of each layer that ``cli.run_scenario`` and
``homodyne.sweep`` call.  Each wrapped call records a span (name, start,
end, parent, scenario label) in memory; the spans are written as JSON when
the invocation ends.  The program itself is not modified: the wrappers
replace the module attributes the callers look up, so the traced process
computes exactly what the untraced CLI computes.

    python3 perfbench/tracing.py --spans OUT.json [--label NAME]
        [--near-margin] -- fig --id 6 --out DIR

``--near-margin`` also times ``iosolver.threshold_margin`` on every near
kernel the invocation built.  The CLI evaluates the margin on the far grid
only, so this time is kept out of the invocation's spans.

Hot leaf functions (called thousands of times inside quadratures) keep a
call count and time totals instead of one span per call.  A function the
program no longer has is skipped; its time then shows in its caller.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("kernels", "iosolver", "homodyne", "cli")

# Computed floating-point work of the dense steps, in units of n^3 real
# flops (one complex multiply-add counts 8): the near kernel is two complex
# n x n products; solve_io is one complex product, an LU factorization
# (8/3) and two triangular solves with n right-hand sides (8 each); the
# Bogoliubov residual check is four complex products.
FLOP_N3 = {
    "kernels.build_kernel_matrix": 16.0,
    "iosolver.solve_io": 8.0 + 8.0 / 3.0 + 16.0,
    "iosolver.bogoliubov_residuals": 32.0,
}


def _grid_info(grid):
    return {"n": int(grid.n), "domain": grid.domain}


def _t_vector_info(args):
    tables, a_phys = args[0], args[1]
    return {"fast": bool(a_phys / tables.s.l_coh <= tables.FAST_A)}


@dataclass(frozen=True)
class Traced:
    """A layer function to wrap: where it lives and what to record."""

    module: str
    attr: str
    name: str
    hot: bool = False
    describe: object = None  # (args, result) -> dict of span info
    scenario: object = None  # args -> scenario label, or None to inherit


TRACED = (
    Traced("cli", "run_scenario", "cli.run_scenario",
           scenario=lambda args: args[0].label),
    Traced("cli", "write_summary", "cli.write_summary"),
    Traced("kernels", "auto_grid", "kernels.auto_grid",
           describe=lambda args, res: _grid_info(res)),
    Traced("kernels", "build_kernel_matrix", "kernels.build_kernel_matrix",
           describe=lambda args, res: _grid_info(args[0])),
    Traced("kernels", "delta_2d", "kernels.delta_2d"),
    Traced("kernels", "si", "kernels.si", hot=True),
    Traced("iosolver", "solve_io", "iosolver.solve_io",
           describe=lambda args, res: _grid_info(args[0].grid)),
    Traced("iosolver", "bogoliubov_residuals", "iosolver.bogoliubov_residuals",
           describe=lambda args, res: {"n": int(args[0].U.shape[0])}),
    Traced("iosolver", "threshold_margin", "iosolver.threshold_margin",
           describe=lambda args, res: _grid_info(args[0].grid)),
    Traced("iosolver", "analytic_uv_planepump", "iosolver.analytic_uv_planepump", hot=True),
    Traced("homodyne", "sweep", "homodyne.sweep"),
    # the per-detector contraction that sweep shares with squeezing_numeric
    Traced("homodyne", "_noise_terms", "homodyne.squeezing_numeric"),
    # the body of squeezing_planepump_near, which sweep calls directly
    Traced("homodyne", "_vn_planepump_near", "homodyne.squeezing_planepump_near"),
    Traced("homodyne", "_near_tables", "homodyne.planepump_near_tables"),
    Traced("homodyne", "_PlanePumpNearTables.t_vector", "homodyne.planepump_near_tables.t_vector",
           describe=lambda args, res: _t_vector_info(args)),
    Traced("homodyne", "spectrum_planepump_circular", "homodyne.spectrum_planepump_circular"),
    Traced("homodyne", "squeezing_planepump_far", "homodyne.squeezing_planepump_far"),
    Traced("homodyne", "noise_density_planepump", "homodyne.noise_density_planepump", hot=True),
)


class Tracer:
    """In-memory spans with parents, self times and per-scenario labels."""

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.spans: list[dict] = []
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.kept_near: list = []
        self.keep_near = False
        self._stack: list[list] = []  # [span id or None, child time, recorded ancestor]

    def wrap(self, spec: Traced, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._stack[-1] if tracer._stack else None
            ancestor = None if outer is None else (outer[0] if outer[0] is not None else outer[2])
            span_id = None if spec.hot else len(tracer.spans)
            if span_id is not None:
                tracer.spans.append(None)  # reserve the id in call order
            frame = [span_id, 0.0, ancestor]
            saved = tracer.scenario
            if spec.scenario is not None:
                label = spec.scenario(args)
                tracer.scenario = label if label and label != "run" else saved
            tracer._stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if outer is not None:
                    outer[1] += duration
                scenario = tracer.scenario
                tracer.scenario = saved
                entry = tracer.totals[(spec.name, scenario)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if span_id is not None:
                    span = {"id": span_id, "name": spec.name, "scenario": scenario,
                            "parent": ancestor, "start": start, "end": end,
                            "self_s": duration - frame[1]}
                    if spec.describe is not None:
                        try:
                            span.update(spec.describe(args, result))
                        except (AttributeError, IndexError, TypeError):
                            pass  # the call failed or its arguments changed shape
                    tracer.spans[span_id] = span
                    if tracer.keep_near and spec.name == "kernels.build_kernel_matrix" \
                            and span.get("domain") == "near" and result is not None:
                        tracer.kept_near.append((scenario, result, args[1]))

        return traced


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap every function of ``TRACED`` the program still has.

    Returns the originals by span name.  Every module attribute bound to an
    original (the callers' imported names included) is replaced.
    """
    originals = {}
    for spec in TRACED:
        owner = modules.get(spec.module)
        attr = spec.attr
        if "." in attr:
            cls_name, attr = attr.split(".", 1)
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        originals[spec.name] = original
        wrapped = tracer.wrap(spec, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    return originals


def blas_info() -> dict:
    """OpenBLAS version string and thread count of the running process."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            if "openblas" in line.lower() and "/" in line:
                paths.add(line[line.index("/"):].strip())
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"blas_config": config().decode(), "blas_threads": threads()}
    return {"blas_config": "unknown", "blas_threads": None}


def _run_child(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one traced confocal-opo invocation.")
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--label", default="run", help="scenario label outside run_scenario")
    parser.add_argument("--near-margin", action="store_true",
                        help="also time threshold_margin on every near kernel built")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import confocal_opo.cli as cli
    import_s = time.perf_counter() - t0
    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("confocal_opo.") and mod is not None}

    tracer = Tracer(args.label)
    tracer.keep_near = args.near_margin
    originals = install(tracer, modules)
    main = tracer.wrap(Traced("cli", "main", "cli.main"), cli.main)
    returncode = main(cli_args)

    near_margin = []
    margin = originals.get("iosolver.threshold_margin")
    t2 = time.perf_counter()
    for scenario, kmat, params in tracer.kept_near if margin is not None else ():
        start = time.perf_counter()
        value = margin(kmat, params)
        near_margin.append({"scenario": scenario, "n": int(kmat.grid.n),
                            "s": time.perf_counter() - start, "margin": value})
    tracer.kept_near.clear()
    extra_s = time.perf_counter() - t2

    record = {
        "label": args.label,
        "argv": cli_args,
        "returncode": returncode,
        "module_file": cli.__file__,
        "import_s": import_s,
        "extra_s": extra_s,
        **blas_info(),
        "spans": tracer.spans,
        "totals": [{"name": name, "scenario": scenario, "calls": c, "total_s": t, "self_s": s}
                   for (name, scenario), (c, t, s) in tracer.totals.items()],
        "near_margin": near_margin,
    }
    Path(args.spans).write_text(json.dumps(record))
    return returncode


# ---------------------------------------------------------------------------
# Per-layer metrics from the records of one workload's traced invocations
# ---------------------------------------------------------------------------

def _sum(values) -> float:
    return float(sum(values))


def _mean_ms(entries) -> float:
    calls = sum(e["calls"] for e in entries)
    return 1e3 * sum(e["total_s"] for e in entries) / calls if calls else 0.0


def scenario_table(records) -> dict:
    """Per scenario label: calls, total and self seconds, n, per span name."""
    table: dict = defaultdict(dict)
    for rec in records:
        for e in rec["totals"]:
            row = table[e["scenario"]].setdefault(
                e["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += e["calls"]
            row["total_s"] += e["total_s"]
            row["self_s"] += e["self_s"]
        for span in rec["spans"]:
            if "n" in span:
                row = table[span["scenario"]][span["name"]]
                row["n"] = max(row.get("n", 0), span["n"])
        for m in rec["near_margin"]:
            table[m["scenario"]]["iosolver.threshold_margin.near"] = {
                "calls": 1, "total_s": m["s"], "self_s": m["s"], "n": m["n"]}
    return {label: dict(sorted(rows.items())) for label, rows in sorted(table.items())}


def layer_metrics(records, untraced_walls, traced_spawns) -> dict:
    """Every per-layer number of one workload, summed over its invocations.

    ``untraced_walls`` are the spawn-to-exit times of the invocations run
    without tracing; ``traced_spawns`` the (spawn, exit) instants of the
    traced ones, on the ``time.perf_counter`` clock the spans use.  The
    traced wall time splits into set-up (spawn to the entry of
    ``cli.main``), the self times of the program's layers, and
    ``cli.unaccounted_s``; ``trace.overhead_frac`` compares it with the
    untraced wall time.
    """
    spans = [s for rec in records for s in rec["spans"]]
    totals = [e for rec in records for e in rec["totals"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def tot(name):
        return [e for e in totals if e["name"] == name]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _sum(e["self_s"] for e in totals if e["name"].split(".")[0] == layer)

    out["kernels.auto_grid.n"] = max((s.get("n", 0) for s in named("kernels.auto_grid")), default=0)
    builds = named("kernels.build_kernel_matrix")
    near_builds = [s for s in builds if s.get("domain") == "near"]
    out["kernels.build_kernel_matrix.s"] = _sum(s["end"] - s["start"] for s in builds)
    out["kernels.build_kernel_matrix.calls"] = len(builds)
    gflop = _sum(FLOP_N3["kernels.build_kernel_matrix"] * s["n"] ** 3 / 1e9 for s in near_builds)
    near_s = _sum(s["end"] - s["start"] for s in near_builds)
    out["kernels.build_kernel_matrix.gflop"] = gflop
    out["kernels.build_kernel_matrix.gflops"] = gflop / near_s if near_s > 0 else 0.0
    out["kernels.delta_2d.s"] = _sum(e["total_s"] for e in tot("kernels.delta_2d"))
    out["kernels.si.calls"] = sum(e["calls"] for e in tot("kernels.si"))

    solves = named("iosolver.solve_io")
    out["iosolver.solve_io.s"] = _sum(s["self_s"] for s in solves)
    out["iosolver.solve_io.calls"] = len(solves)
    out["iosolver.solve_io.gflop"] = _sum(
        FLOP_N3["iosolver.solve_io"] * s.get("n", 0) ** 3 / 1e9 for s in solves)
    checks = named("iosolver.bogoliubov_residuals")
    out["iosolver.bogoliubov_residuals.s"] = _sum(s["end"] - s["start"] for s in checks)
    out["iosolver.bogoliubov_residuals.gflop"] = _sum(
        FLOP_N3["iosolver.bogoliubov_residuals"] * s.get("n", 0) ** 3 / 1e9 for s in checks)
    out["iosolver.threshold_margin.s"] = _sum(e["total_s"] for e in tot("iosolver.threshold_margin"))
    out["iosolver.threshold_margin.near_s"] = _sum(
        m["s"] for rec in records for m in rec["near_margin"])
    out["iosolver.analytic_uv_planepump.calls"] = sum(
        e["calls"] for e in tot("iosolver.analytic_uv_planepump"))

    contractions = tot("homodyne.squeezing_numeric")
    out["homodyne.squeezing_numeric.calls"] = sum(e["calls"] for e in contractions)
    out["homodyne.squeezing_numeric.ms_per_detector"] = _mean_ms(contractions)
    near_pts = named("homodyne.squeezing_planepump_near")
    first = {}
    for s in near_pts:
        first.setdefault(s["scenario"], s["end"] - s["start"])
    t_vecs = named("homodyne.planepump_near_tables.t_vector")
    fast = [s["end"] - s["start"] for s in t_vecs if s.get("fast") is True]
    adaptive = [s["end"] - s["start"] for s in t_vecs if s.get("fast") is False]
    near_total = _sum(s["end"] - s["start"] for s in near_pts)
    out["homodyne.squeezing_planepump_near.calls"] = len(near_pts)
    out["homodyne.squeezing_planepump_near.first_s"] = _sum(first.values())
    out["homodyne.squeezing_planepump_near.fast_ms"] = 1e3 * fmean(fast) if fast else 0.0
    out["homodyne.squeezing_planepump_near.adaptive_ms"] = 1e3 * fmean(adaptive) if adaptive else 0.0
    out["homodyne.squeezing_planepump_near.adaptive_share"] = (
        _sum(adaptive) / near_total if near_total > 0 else 0.0)
    for name in ("squeezing_planepump_far", "spectrum_planepump_circular", "noise_density_planepump"):
        out[f"homodyne.{name}.ms"] = _mean_ms(tot(f"homodyne.{name}"))

    out["cli.run_scenario.s"] = _sum(e["total_s"] for e in tot("cli.run_scenario"))
    out["cli.write_summary.s"] = _sum(e["total_s"] for e in tot("cli.write_summary"))
    program_self = sum(out[f"{layer}.self_s"] for layer in LAYERS if layer != "cli")
    traced_s = setup_s = 0.0
    for rec, (spawned, exited) in zip(records, traced_spawns):
        setup_s += next(s["start"] for s in rec["spans"] if s["name"] == "cli.main") - spawned
        traced_s += exited - spawned - rec["extra_s"]
    out["trace.setup_s"] = setup_s
    out["cli.unaccounted_s"] = traced_s - setup_s - program_self
    out["trace.overhead_frac"] = traced_s / _sum(untraced_walls) - 1.0
    return out


def roadmap_table(records, scenario: str = "fig6_b100") -> dict | None:
    """The ROADMAP per-layer rows (build, solve, residual check, near margin)."""
    rows = scenario_table(records).get(scenario)
    if not rows or "iosolver.solve_io" not in rows:
        return None

    def seconds(name, key="total_s"):
        return rows.get(name, {}).get(key)

    return {
        "scenario": scenario,
        "n": seconds("kernels.auto_grid", "n"),
        "build_kernel_matrix_s": seconds("kernels.build_kernel_matrix"),
        "solve_io_s": seconds("iosolver.solve_io", "self_s"),
        "bogoliubov_residuals_s": seconds("iosolver.bogoliubov_residuals"),
        "threshold_margin_near_s": seconds("iosolver.threshold_margin.near"),
    }


if __name__ == "__main__":
    sys.exit(_run_child())
