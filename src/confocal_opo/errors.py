"""Exception hierarchy shared by all modules.

Two families matter to callers: configuration problems (bad input, bad
geometry) and numerical failures (a solve or a grid that cannot deliver the
requested accuracy).  The CLI maps them to exit codes 2 and 1 respectively.
"""

__all__ = [
    "OpoError", "ConfigurationError", "NonPhysical", "AboveThreshold", "EmptyDetector",
    "PlaneMismatch", "NumericalFailure", "GridTooCoarse", "SingularSystem", "AtOrAboveThreshold",
]


class OpoError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(OpoError):
    """Invalid parameters, configuration keys, or detection geometry."""


class NonPhysical(ConfigurationError):
    """A length is non-positive or a refractive index is below 1."""


class AboveThreshold(ConfigurationError):
    """Pump amplitude at or above the oscillation threshold (A_p >= 1)."""


class EmptyDetector(ConfigurationError):
    """No grid point falls inside the detector mask, or no LO light reaches it."""


class PlaneMismatch(ConfigurationError):
    """Detector, local oscillator, and field live in different planes."""


class NumericalFailure(OpoError):
    """A numerical operation cannot meet its accuracy contract."""


class GridTooCoarse(NumericalFailure):
    """Grid cannot resolve the pump envelope or the coherence-scale kernel."""


class SingularSystem(NumericalFailure):
    """Input/output solve is singular or near-singular (condition > 1e12)."""


class AtOrAboveThreshold(NumericalFailure):
    """Closed-form response diverges: the mode is at or above threshold."""
