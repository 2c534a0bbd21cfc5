"""The two errors the package raises, one per CLI exit code.

``ConfigurationError`` (exit 2) covers bad input: a non-physical parameter,
a pump at or above threshold, an unknown key, a detector that no grid point
or LO light reaches, or a detector on a grid of the other plane.
``NumericalFailure`` (exit 1) covers a computation that cannot meet its
accuracy contract: a grid that breaks the sizing rule, an ill-conditioned or
non-finite solve, or a closed form that diverges at threshold.  The message
says which.
"""

__all__ = ["ConfigurationError", "NumericalFailure"]


class ConfigurationError(Exception):
    """Invalid parameters, configuration keys, or detection geometry."""


class NumericalFailure(Exception):
    """A numerical operation cannot meet its accuracy contract."""
