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

# OpenBLAS's idle worker busy-waits 2^28 cycles (~0.1 s) after the library
# loads and after every BLAS call: ~0.1 s of CPU, a third of a fig 6 run on a
# 2-core host (OpenBLAS 0.3.31).  2^20 cycles keeps the thread count, every
# output and the wall time of the largest solves, which one thread leaves
# within 4 % too.  It must be set before numpy loads; a user's value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

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
