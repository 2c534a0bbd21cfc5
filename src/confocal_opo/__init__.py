"""Multimode squeezing spectra of a degenerate confocal OPO below threshold.

The package models a type-I parametric medium of finite length inside a
confocal cavity, keeping diffraction inside the crystal.  It provides the
thick-crystal coupling kernels in near and far field, the input/output
Bogoliubov transform of the cavity (closed form for a plane pump, banded
shifted solves of the coupling operator for a finite pump),
and balanced-homodyne noise spectra for arbitrary symmetric detectors and
local oscillators, normalized to shot noise.
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread: each BLAS call of the dense route works on one band
# block, where a second thread never pays.  Set before numpy loads; a user's
# OPENBLAS_NUM_THREADS, or OMP_NUM_THREADS (read when it is unset), wins.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ConfigurationError, NumericalFailure
from .params import OpoParams
from .kernels import (
    Grid1D,
    auto_grid,
    delta_2d,
    phase_match_sinc,
    si,
)
from .iosolver import (
    CavityModes,
    solve_io,
)
from .homodyne import (
    DetectorMask,
    LocalOscillator,
    SqueezingResult,
    squeezing,
)

__all__ = [
    "__version__", "OpoParams",
    "Grid1D", "auto_grid", "delta_2d", "phase_match_sinc", "si",
    "CavityModes", "solve_io",
    "DetectorMask", "LocalOscillator", "SqueezingResult",
    "squeezing",
    "ConfigurationError", "NumericalFailure",
]
