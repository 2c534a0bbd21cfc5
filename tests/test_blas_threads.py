"""The package's OpenBLAS spin-wait default: set before numpy loads, a user's
value kept, and no output changed by it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import confocal_opo
from helpers import GOLDEN, output_files

#: the OPENBLAS_THREAD_TIMEOUT that ``confocal_opo/__init__.py`` sets
PACKAGE_TIMEOUT = "20"

#: records OPENBLAS_THREAD_TIMEOUT as numpy is first imported, during
#: ``import confocal_opo.cli``, and checks that the import left out
#: numpy.polynomial, which no route uses (``test_cli.ROUTES_CODE`` runs them)
PROBE = """
import os, sys

seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Probe())
import confocal_opo.cli
assert "numpy.polynomial" not in sys.modules, "numpy.polynomial imported at start-up"
print(seen)
"""


def _env(timeout):
    """This environment with the package first on the path and
    OPENBLAS_THREAD_TIMEOUT removed (``None``) or set to ``timeout``: the
    package has set it in this process, and children inherit it."""
    env = dict(os.environ, PYTHONPATH=str(Path(confocal_opo.__file__).parents[1]))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


@pytest.mark.parametrize("timeout,want", [(None, PACKAGE_TIMEOUT), ("28", "28")],
                         ids=["unset", "user-28"])
def test_timeout_is_in_place_before_numpy_loads(timeout, want):
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=_env(timeout))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [repr([want])]


def test_spin_timeout_leaves_every_output_as_it_is(tmp_path):
    # the timeout only decides when an idle worker sleeps: a dense run with
    # the package's value and one at OpenBLAS's own default, 2^28 cycles,
    # write the same bytes
    outputs = []
    for timeout in (None, "28"):
        out = tmp_path / str(timeout)
        subprocess.run([sys.executable, "-m", "confocal_opo.cli", "run",
                        "--config", str(GOLDEN / "detuned_far.cfg"), "--out", str(out)],
                       check=True, capture_output=True, env=_env(timeout))
        outputs.append(output_files(out))
    assert outputs[0] and outputs[0] == outputs[1]
