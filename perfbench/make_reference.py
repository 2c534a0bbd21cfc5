"""Regenerate the reference curves of the reference seed from the checkout.

    python3 perfbench/make_reference.py

Runs every workload once at ``workloads.REFERENCE_SEED`` and copies its CSV
files to ``perfbench/reference/<workload>/<invocation>/``.  Run it only when
a change to the program is meant to move the curves beyond the reference
tolerances of ``checks.py``, and say so in the change.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import HERE, Harness, preflight


def main() -> int:
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        reason = preflight(work)
        if reason:
            print(reason, file=sys.stderr)
            return 2
        for workload in workloads.WORKLOADS:
            (work / workload).mkdir()
            harness = Harness(workload, workloads.REFERENCE_SEED, work / workload)
            result = harness.run_pass("pass")
            if result.problems:
                print("\n".join(result.problems), file=sys.stderr)
                return 1
            for inv in harness.invocations:
                target = checks.REFERENCE_DIR / workload / inv.name
                target.mkdir(parents=True, exist_ok=True)
                for name in inv.curves:
                    shutil.copyfile(work / workload / "pass" / inv.name / name, target / name)
                print(f"{workload}/{inv.name}: {', '.join(inv.curves)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
