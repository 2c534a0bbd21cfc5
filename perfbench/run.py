"""Benchmark of the confocal-opo CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload near-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

The harness runs the program as a user does: one fresh ``confocal-opo``
process per invocation (``from confocal_opo.cli import main`` with the
checkout's ``src`` on the path, as the console script does), invocations
one after another from this single process (a closed loop with one
client), OpenBLAS at its default thread count.  Only per-process
measurement is used: a wall clock around each child and the child's own
resource usage from ``os.wait4``.  Nothing traces the system, drops caches
or touches cgroup or kernel settings.

``--trace 0`` repeats the workload until ``--seconds`` have passed and
reports the end-to-end metrics.  ``--trace 1`` runs the workload once
untraced and once traced (see ``tracing.py``) and reports the per-layer
metrics; near-dense also repeats its b = 100 sweep with one BLAS thread.
Every invocation's outputs are checked (see ``checks.py``).  The last line
of standard output is one JSON object; the output schema is described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 7
# Children still running this long after a workload started are killed.
TIME_LIMIT_S = 165.0
REPLICA_TOLERANCE = 1e-12
ONE_THREAD_LAYERS = ("kernels.build_kernel_matrix", "iosolver.solve_io",
                     "iosolver.bogoliubov_residuals", "homodyne.squeezing_numeric")
CLI_MAIN = "import sys; from confocal_opo.cli import main; sys.exit(main())"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}
PER_LAYER = {
    "kernels.self_s": "s",
    "iosolver.self_s": "s",
    "homodyne.self_s": "s",
    "cli.self_s": "s",
    "cli.run_scenario.s": "s",
    "cli.write_summary.s": "s",
    "cli.unaccounted_s": "s",
    "trace.overhead_frac": "frac",
    "kernels.auto_grid.n": "count",
    "kernels.build_kernel_matrix.calls": "count",
    "kernels.build_kernel_matrix.gflop": "GFLOP",
    "kernels.si.calls": "count",
    "iosolver.solve_io.calls": "count",
    "iosolver.solve_io.gflop": "GFLOP",
    "iosolver.bogoliubov_residuals.gflop": "GFLOP",
    "iosolver.analytic_uv_planepump.calls": "count",
    "homodyne.squeezing_numeric.calls": "count",
    "homodyne.squeezing_planepump_near.calls": "count",
    "homodyne.squeezing_planepump_near.adaptive_share": "frac",
}


@dataclass
class Child:
    """One finished child process, measured from spawn to exit."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    spawned: float  # time.perf_counter() instants
    exited: float


@dataclass
class Pass:
    """One run of every invocation of the workload, in order."""

    children: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def passed(self, inv) -> bool:
        return any(name == inv.name for name, _ in self.digests)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)


def child_env(blas_threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(argv: list, cwd: Path, env: dict, log: Path, deadline: float) -> Child:
    """Run one child to completion; its stdout and stderr go to ``log``.

    A child still running at ``deadline`` (a ``time.perf_counter`` instant)
    is killed, so the benchmark ends in time even if the program hangs; it
    then counts as failed.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, start, end)


def preflight(work: Path) -> str | None:
    """Why the checkout cannot be benchmarked, or None when it can."""
    if not (ROOT / "src" / "confocal_opo" / "cli.py").is_file():
        return f"no program to benchmark: {ROOT / 'src' / 'confocal_opo'} is missing"
    code = "import confocal_opo.cli as c; print(c.__file__)"
    probe = subprocess.run([sys.executable, "-c", code], cwd=work, env=child_env(),
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        return f"confocal_opo.cli does not import:\n{probe.stderr}"
    found = Path(probe.stdout.strip()).resolve()
    if ROOT / "src" not in found.parents:
        return f"confocal_opo.cli imports from {found}, outside this checkout"
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **tracing.blas_info(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "measurement": ("per-process only: wall clock around each child process and "
                        "its os.wait4 resource usage; no system tracing, no cache "
                        "dropping, no cgroup or kernel settings"),
    }


class Harness:
    """One workload at one seed: its invocations, scratch directory and counts."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.invocations = workloads.invocations(workload, seed)
        self.env = child_env()
        self.log = work / "children.log"
        self.attempted = 0
        self.failed = 0
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        for inv in self.invocations:
            if inv.config is not None:
                self.config_path(inv).write_text(inv.config)

    def config_path(self, inv) -> Path:
        return self.work / f"{inv.name}.cfg"

    def count(self, problems: list) -> list:
        self.attempted += 1
        self.failed += bool(problems)
        return problems

    def setup_times(self, spawns: int) -> list:
        argv = [sys.executable, "-c", "import confocal_opo.cli"]
        times = []
        for _ in range(spawns):
            child = spawn(argv, self.work, self.env, self.log, self.deadline)
            if child.returncode != 0:
                raise RuntimeError("import confocal_opo.cli failed; see children.log")
            times.append(child.wall_s)
        return times

    def invoke(self, inv, outdir: Path, launcher: list) -> tuple[Child, list]:
        """Run one invocation and check its outputs; returns the problems found."""
        outdir.mkdir(parents=True)
        argv = launcher + inv.argv(self.config_path(inv), outdir)
        child = spawn(argv, self.work, self.env, self.log, self.deadline)
        return child, self.count(checks.check_invocation(inv, outdir, child.returncode))

    def run_pass(self, tag: str) -> Pass:
        """Every invocation once, each in a fresh CLI process."""
        result = Pass()
        for inv in self.invocations:
            outdir = self.work / tag / inv.name
            child, problems = self.invoke(inv, outdir, [sys.executable, "-c", CLI_MAIN])
            result.children.append(child)
            result.problems += problems
            if not problems:
                for name in inv.curves:
                    result.digests[(inv.name, name)] = checks.digest(outdir / name)
        return result

    def reference_problems(self, done: Pass, tag: str) -> list:
        """Reference differences of a pass's passing invocations (reference seed only)."""
        if self.seed != workloads.REFERENCE_SEED:
            return []
        problems = []
        for inv in self.invocations:
            if done.passed(inv):
                found = checks.compare_reference(self.workload, inv, self.work / tag / inv.name)
                self.failed += bool(found)
                problems += found
        return problems


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def measure(h: Harness, seconds: float) -> tuple[dict, list]:
    setup = h.setup_times(SETUP_SPAWNS)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() + passes[-1].wall_s > h.deadline:
            break
        passes.append(h.run_pass(f"pass{len(passes)}"))
    problems = [p for ps in passes for p in ps.problems]
    first = passes[0].digests
    for ps in passes[1:]:
        changed = sorted(k for k in first if ps.digests.get(k, first[k]) != first[k])
        h.failed += len({inv for inv, _ in changed})
        problems += [f"{inv}/{name}: bytes differ between repeats of one seed"
                     for inv, name in changed]
    problems += h.reference_problems(passes[0], "pass0")

    walls = [ps.wall_s for ps in passes]
    cpus = [ps.cpu_s for ps in passes]
    # Each invocation's median over the passes, summed: a slow spell of the
    # host that hits one invocation in one pass does not move the result.
    per_invocation = list(zip(*(ps.children for ps in passes)))
    metrics = {
        "wall_s": sum(statistics.median(c.wall_s for c in runs) for runs in per_invocation),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c.peak_rss_mb for ps in passes for c in ps.children),
        "cpu_s": sum(statistics.median(c.cpu_s for c in runs) for runs in per_invocation),
    }
    print(f"workload {h.workload}, seed {h.seed}: {len(h.invocations)} invocations "
          f"x {len(passes)} passes, closed loop, one client")
    for name, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup)):
        q1, med, q3 = _quartiles(values)
        print(f"  {name:12s} {metrics[name]:.4f} s; over {len(values)} samples: "
              f"median {med:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
    print(f"  {'peak_rss_mb':12s} {metrics['peak_rss_mb']:.1f} MB (largest single process)")
    for inv, runs in zip(h.invocations, per_invocation):
        print(f"    {inv.name:16s} median {statistics.median(c.wall_s for c in runs):8.3f} s  "
              f"{max(c.peak_rss_mb for c in runs):7.1f} MB  "
              f"cpu {statistics.median(c.cpu_s for c in runs):7.3f} s")
    return metrics, problems


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def trace(h: Harness) -> tuple[dict, list, dict]:
    plain = h.run_pass("untraced")
    problems = list(plain.problems) + h.reference_problems(plain, "untraced")

    spans_dir = h.work / "spans"
    spans_dir.mkdir()
    records, traced = [], []
    shim = [sys.executable, str(HERE / "tracing.py")]
    near = ["--near-margin"] if h.workload == "near-dense" else []
    for inv in h.invocations:
        outdir = h.work / "traced" / inv.name
        spans = spans_dir / f"{inv.name}.json"
        launcher = shim + ["--spans", str(spans), "--label", inv.name, *near, "--"]
        child, found = h.invoke(inv, outdir, launcher)
        problems += found
        if found or not spans.is_file():
            continue
        traced.append(child)
        records.append(_load(spans))
        if not plain.passed(inv):
            continue  # the untraced invocation failed and counts already
        diff = checks.max_curve_difference(outdir, h.work / "untraced" / inv.name, inv.curves)
        if diff > REPLICA_TOLERANCE:
            h.failed += 1
            problems.append(f"{inv.name}: traced curves differ from the CLI's by {diff:.3e}")

    if len(records) != len(h.invocations):
        return {}, problems + ["traced run incomplete"], {}
    untraced_walls = [c.wall_s for c in plain.children]
    layers = tracing.layer_metrics(records, untraced_walls,
                                   [(c.spawned, c.exited) for c in traced])
    report = {
        "workload": h.workload,
        "seed": h.seed,
        "environment": environment(),
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": [c.wall_s for c in traced],
        "layers": layers,
        "scenarios": tracing.scenario_table(records),
        "roadmap_table": tracing.roadmap_table(records),
        "records": records,
    }
    if h.workload == "near-dense":
        report["one_thread"] = one_thread_baseline(h, shim, report["scenarios"], problems)
    return {name: layers[name] for name in PER_LAYER}, problems, report


def one_thread_baseline(h: Harness, shim: list, scenarios: dict, problems: list) -> dict:
    """The b = 100 dense layers again with OPENBLAS_NUM_THREADS=1."""
    inv = h.invocations[0]
    outdir = h.work / "one_thread"
    outdir.mkdir()
    spans = h.work / "spans" / "one_thread.json"
    argv = shim + ["--spans", str(spans), "--label", inv.name, "--"]
    argv += inv.argv(h.config_path(inv), outdir) + ["--set", "b=100"]
    child = spawn(argv, h.work, child_env(blas_threads=1), h.log, h.deadline)
    found = h.count([] if child.returncode == 0 and spans.is_file()
                     else [f"one-thread run: exit code {child.returncode}"])
    problems += found
    if found:
        return {}
    record = _load(spans)
    single = tracing.scenario_table([record]).get("fig6_b100", {})
    default = scenarios.get("fig6_b100", {})
    out = {"blas_threads": record["blas_threads"], "wall_s": child.wall_s, "layers": {},
           "max_curve_difference": checks.max_curve_difference(
               outdir, h.work / "traced" / inv.name, ["curve_b100.csv"])}
    for name in ONE_THREAD_LAYERS:
        key = "self_s" if name == "iosolver.solve_io" else "total_s"
        one = single.get(name, {}).get(key)
        many = default.get(name, {}).get(key)
        if one and many:
            out["layers"][name] = {"one_thread_s": one, "default_threads_s": many,
                                   "speedup": one / many}
    return out


def print_trace_report(report: dict) -> None:
    env = report["environment"]
    print("environment: " + ", ".join(f"{k} {env[k]}" for k in
                                      ("python", "numpy", "scipy", "blas_config",
                                       "blas_threads", "nproc")))
    print(f"  {env['measurement']}")
    print(f"per-layer metrics, {report['workload']} seed {report['seed']} "
          f"(sums over invocations):")
    for name, value in report["layers"].items():
        print(f"  {name:52s} {value:.6g}")
    print("per-scenario layer times (s, total / self):")
    for label, rows in report["scenarios"].items():
        for name, row in rows.items():
            n = f"  n={row['n']}" if "n" in row else ""
            print(f"  {label:16s} {name:44s} {row['calls']:7d} calls "
                  f"{row['total_s']:9.4f} / {row['self_s']:9.4f}{n}")
    table = report.get("roadmap_table")
    if table:
        print(f"ROADMAP per-layer table, {table['scenario']} (n = {table['n']}):")
        for key in ("build_kernel_matrix_s", "solve_io_s", "bogoliubov_residuals_s",
                    "threshold_margin_near_s"):
            value = "not measured" if table[key] is None else f"{table[key]:.3f}"
            print(f"  {key:28s} {value}")
    for name, row in report.get("one_thread", {}).get("layers", {}).items():
        print(f"  one BLAS thread: {name:34s} {row['one_thread_s']:.3f} s against "
              f"{row['default_threads_s']:.3f} s, speed-up {row['speedup']:.2f}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Measure one workload; prints its report and returns its result object."""
    harness = Harness(workload, seed, work)
    if traced:
        metrics, problems, report = trace(harness)
        if report:
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            path = results / f"trace-{workload}-seed{seed}.json"
            path.write_text(json.dumps(report, indent=1))
            print_trace_report(report)
            print(f"trace written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        metrics, problems = measure(harness, seconds)
        units = END_TO_END
    verdict = "PASS" if not problems else "FAIL"
    print(f"output check: {verdict}, {harness.failed} of {harness.attempted} invocations failed")
    for problem in problems[:20]:
        print(f"  {problem}")
    return {
        "correct": not problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="a workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    results = {}
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=scratch))
        try:
            reason = preflight(work)
            if reason:
                print(f"perfbench: {reason}", file=sys.stderr)
                return 2
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
