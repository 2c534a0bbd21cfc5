"""The package's one-OpenBLAS-thread default: set before numpy loads, a
user's OPENBLAS_NUM_THREADS or OMP_NUM_THREADS kept, and no output changed
by the thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import confocal_opo
from helpers import GOLDEN, output_files

#: records OPENBLAS_NUM_THREADS as numpy is first imported, during
#: ``import confocal_opo.cli``, and the threads of the process after it
#: (None without /proc); checks that the import left out numpy.polynomial,
#: which no route uses (``test_cli.ROUTES_CODE`` runs them)
PROBE = """
import os, sys

seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
import confocal_opo.cli
assert "numpy.polynomial" not in sys.modules, "numpy.polynomial imported at start-up"
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(seen, tasks)
"""


def _env(**threads):
    """This environment with the package first on the path, its thread
    variables removed and then set to ``threads``: the package has set
    OPENBLAS_NUM_THREADS in this process, and children inherit it."""
    env = dict(os.environ, PYTHONPATH=str(Path(confocal_opo.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    env.update(threads)
    return env


@pytest.mark.parametrize("threads,want", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, None),  # OpenBLAS reads OMP_NUM_THREADS itself
], ids=["unset", "user-2", "omp-2"])
def test_thread_count_is_in_place_before_numpy_loads(threads, want):
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=_env(**threads))
    assert proc.returncode == 0, proc.stderr
    seen, tasks = proc.stdout.split()
    assert seen == repr([want])
    if not threads and tasks != "None":  # OpenBLAS started no worker thread
        assert tasks == "1"


def test_thread_count_leaves_every_output_as_it_is(tmp_path):
    # a dense run on the package's one thread and one on two threads write
    # the same bytes
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / str(len(outputs))
        subprocess.run([sys.executable, "-m", "confocal_opo.cli", "run",
                        "--config", str(GOLDEN / "detuned_far.cfg"), "--out", str(out)],
                       check=True, capture_output=True, env=_env(**threads))
        outputs.append(output_files(out))
    assert outputs[0] and outputs[0] == outputs[1]
