"""Multimode squeezing spectra of a degenerate confocal OPO below threshold.

The package models a type-I parametric medium of finite length inside a
confocal cavity, keeping diffraction inside the crystal.  It provides the
thick-crystal coupling kernels in near and far field, the input/output
Bogoliubov transform of the cavity as independent modes (closed form for a
plane pump, eigendecomposition of the coupling matrix for a finite pump),
and balanced-homodyne noise spectra for arbitrary symmetric detectors and
local oscillators, normalized to shot noise.
"""

__version__ = "0.1.0"

from .errors import (
    AboveThreshold,
    AtOrAboveThreshold,
    ConfigurationError,
    EmptyDetector,
    GridTooCoarse,
    NonPhysical,
    NumericalFailure,
    OpoError,
    PlaneMismatch,
    SingularSystem,
)
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
    mode_uv,
    solve_io,
)
from .homodyne import (
    DetectorMask,
    LocalOscillator,
    SqueezingResult,
    squeezing,
    sweep,
    sweep_extents,
)

__all__ = [
    "__version__", "OpoParams",
    "Grid1D", "auto_grid", "delta_2d", "phase_match_sinc", "si",
    "CavityModes", "mode_uv", "solve_io",
    "DetectorMask", "LocalOscillator", "SqueezingResult",
    "squeezing", "sweep", "sweep_extents",
    "OpoError", "ConfigurationError", "NumericalFailure", "NonPhysical",
    "AboveThreshold", "EmptyDetector", "PlaneMismatch",
    "GridTooCoarse", "SingularSystem", "AtOrAboveThreshold",
]
