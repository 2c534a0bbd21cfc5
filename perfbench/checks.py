"""Output checks applied to every CLI invocation the benchmark makes.

An invocation passes when it exited 0 and wrote every expected CSV with the
expected row count, and every row is physically sane:

* all values finite, every vn > 0;
* ``shot > 0`` on every non-empty detector;
* ``vn_squeezed * vn_antisqueezed >= 1 - 1e-9`` (a pure squeezing
  transform saturates the uncertainty product; mixing modes only raises it);
* the fig 2 kernel profile starts at Delta(0) l_coh^2 = 1/2 and has its
  first zero between 1.38 and 1.40 l_coh.

For the reference seed the curves must also agree with the reference copies
kept under ``reference/``.  Closed-form routes get a tight tolerance.  Dense
routes get one no tighter than their known grid error: the auto-grid step
quantizes detector edges to whole cells, which moves vn by up to 6.3e-2, so
vn may differ by 0.1 * max(1, |vn|) and the shot noise by one cell per
detector edge at the sizing rule's largest step.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PRODUCT_FLOOR = 1.0 - 1e-9
CLOSED_ATOL = 1e-7
DENSE_VN_TOL = 0.1
# Grid sizing rule: step <= l_coh / 8 (near), min(2 / l_coh, 1 / w_p) / 8 (far)
STEP_DIVISOR = 8.0


def read_curve(path: Path):
    """(comment fields, header, rows) of a CSV written by the CLI."""
    lines = path.read_text().splitlines()
    fields = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split() if "=" in item)
    header = lines[1].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    return fields, header, rows


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_spectrum(rows, curve) -> list[str]:
    problems = []
    for i, (x, vsq, vanti, shot) in enumerate(rows):
        empty = curve.empty_at_zero and x == 0.0
        if vsq <= 0 or vanti <= 0:
            problems.append(f"row {i}: vn not positive ({vsq}, {vanti})")
        if not empty and shot <= 0:
            problems.append(f"row {i}: shot {shot} not positive on a non-empty detector")
        if vsq * vanti < PRODUCT_FLOOR:
            problems.append(f"row {i}: vn product {vsq * vanti!r} below 1 - 1e-9")
    return problems


def _check_profile(rows) -> list[str]:
    problems = []
    if abs(rows[0][1] - 0.5) > 1e-9:
        problems.append(f"Delta(0) l_coh^2 = {rows[0][1]!r}, expected 0.5")
    zero = next((x for (x, d), (_, d2) in zip(rows, rows[1:]) if d > 0 >= d2), None)
    if zero is None or not 1.38 <= zero <= 1.40:
        problems.append(f"first kernel zero near {zero}, expected in [1.38, 1.40] l_coh")
    return problems


def check_invocation(inv, outdir: Path, returncode: int) -> list[str]:
    """Problems found in one invocation's outputs (empty when it passed)."""
    if returncode != 0:
        return [f"{inv.name}: exit code {returncode}"]
    problems = []
    for name, curve in inv.curves.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{inv.name}: missing {name}")
            continue
        _, header, rows = read_curve(path)
        width = 2 if curve.kind == "profile" else 4
        if len(rows) != curve.rows or any(len(r) != width for r in rows) or len(header) != width:
            problems.append(f"{inv.name}/{name}: expected {curve.rows} rows of {width} columns")
            continue
        if not all(math.isfinite(v) for r in rows for v in r):
            problems.append(f"{inv.name}/{name}: non-finite value")
            continue
        found = _check_profile(rows) if curve.kind == "profile" else _check_spectrum(rows, curve)
        problems += [f"{inv.name}/{name}: {p}" for p in found]
    if not (outdir / "summary.txt").is_file():
        problems.append(f"{inv.name}: missing summary.txt")
    return problems


def _largest_step(fields: dict, plane: str) -> float:
    """Largest grid step the sizing rule allows for the curve's parameters."""
    l_coh = math.sqrt(float(fields["lambda_s"]) * float(fields["l_c"])
                      / (math.pi * float(fields["n_s"])))
    if plane == "near":
        return l_coh / STEP_DIVISOR
    return min(2.0 / l_coh, 1.0 / float(fields["w_p"])) / STEP_DIVISOR


def compare_reference(workload: str, inv, outdir: Path) -> list[str]:
    """Differences from the reference curves beyond the route's tolerance."""
    problems = []
    for name, curve in inv.curves.items():
        ref_path = REFERENCE_DIR / workload / inv.name / name
        if not ref_path.is_file():
            problems.append(f"{inv.name}/{name}: no reference curve at {ref_path.name}")
            continue
        fields, _, ref = read_curve(ref_path)
        _, _, got = read_curve(outdir / name)
        if len(got) != len(ref):
            problems.append(f"{inv.name}/{name}: {len(got)} rows, reference has {len(ref)}")
            continue
        if curve.route == "dense":
            edges = 4 if fields.get("detector") == "pixel_pair" else 2
            amp = float(fields.get("lo_amplitude", 1.0))
            shot_tol = edges * _largest_step(fields, fields["plane"]) * amp**2
        for i, (g, r) in enumerate(zip(got, ref)):
            if curve.route == "dense":
                tols = [1e-12 * max(1.0, abs(r[0]))]
                tols += [DENSE_VN_TOL * max(1.0, abs(v)) for v in r[1:3]] + [shot_tol]
            else:
                tols = [CLOSED_ATOL * max(1.0, abs(v)) for v in r]
            bad = [j for j, (a, b, t) in enumerate(zip(g, r, tols)) if abs(a - b) > t]
            if bad:
                problems.append(
                    f"{inv.name}/{name} row {i} column {bad[0]}: {g[bad[0]]!r} "
                    f"against reference {r[bad[0]]!r}"
                )
                break
    return problems


def max_curve_difference(dir_a: Path, dir_b: Path, names) -> float:
    """Largest |a - b| / max(1, |b|) over the named CSVs of two output dirs."""
    worst = 0.0
    for name in names:
        _, _, rows_a = read_curve(dir_a / name)
        _, _, rows_b = read_curve(dir_b / name)
        if len(rows_a) != len(rows_b):
            return math.inf
        for ra, rb in zip(rows_a, rows_b):
            for a, b in zip(ra, rb):
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst
