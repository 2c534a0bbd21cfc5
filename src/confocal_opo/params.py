"""Physical configuration of the cavity and the length scales derived from it.

Conventions
-----------
* All inputs are SI (meters, radians).  An ``OpoParams`` is checked when it
  is made, ``dataclasses.replace`` included, and its derived scales are
  read-only properties of it.
* The pump amplitude ``A_p`` is dimensionless, expressed in threshold units:
  with a plane pump at zero detuning and zero analysis frequency the
  oscillation threshold sits exactly at ``A_p = 1``.  The microscopic
  coupling constant and the cavity escape rate are absorbed into this
  normalization and never appear explicitly.
* The analysis frequency ``omega_bar`` and the detuning are given in units
  of the cavity escape rate.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigurationError

__all__ = ["OpoParams"]


def _real(value) -> bool:
    """Whether ``value`` is a real number (NaN included), before a range check
    compares it: None, a string or a complex number ends in ConfigurationError
    rather than a TypeError."""
    return isinstance(value, numbers.Real)


def _positive(**scales) -> None:
    for name, value in scales.items():
        if not 0.0 < value < math.inf:
            raise ConfigurationError(f"derived scale {name} = {value!r} is not positive and "
                                     "finite: the inputs reach past the floating-point range")


@dataclass(frozen=True)
class OpoParams:
    """Physical configuration of the degenerate OPO, checked when it is made.

    Attributes
    ----------
    lambda_s : float
        Signal vacuum wavelength (m).
    n_s : float
        Signal refractive index inside the crystal (dimensionless, >= 1).
    l_c : float
        Crystal length (m).
    z_C : float
        Rayleigh range of the cavity mode (m).
    A_p : float
        Pump amplitude in threshold units, 0 <= A_p < 1 (strictly below
        threshold; A_p = 1 is rejected).
    w_p : float
        Pump waist (m) of the Gaussian amplitude profile exp(-|x|^2 / w_p^2).
        ``math.inf`` is the plane pump, the limit of the Gaussian as the
        waist grows (``plane_pump``).
    detuning : float
        Normalized cavity detuning of the resonant even mode family.
    omega_bar : float
        Analysis frequency in units of the cavity escape rate.
    f_lens : float
        Focal length (m) of the imaging lens that maps the far field onto
        the detection plane, position x <-> wavevector q = 2 pi x / (lambda f).

    Raises ``ConfigurationError`` if A_p >= 1 (at or above threshold), a
    field is not a real number, a length is not positive (w_p = inf is
    allowed), n_s < 1, A_p < 0, detuning or omega_bar is not finite, or a
    derived scale or the far-field lens factor 2 pi / (lambda_s f_lens) is
    not in (0, inf).
    """

    lambda_s: float
    n_s: float
    l_c: float
    z_C: float
    A_p: float
    w_p: float
    detuning: float = 0.0
    omega_bar: float = 0.0
    f_lens: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if not _real(getattr(self, f.name)):
                raise ConfigurationError(
                    f"{f.name} must be a real number, got {getattr(self, f.name)!r}")
        for name in ("lambda_s", "l_c", "z_C", "f_lens"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be a positive length, got {value!r}")
        if not (math.isfinite(self.n_s) and self.n_s >= 1.0):
            raise ConfigurationError(f"n_s must be >= 1, got {self.n_s!r}")
        if not (0.0 <= self.A_p):
            raise ConfigurationError(f"A_p must be non-negative, got {self.A_p!r}")
        if self.A_p >= 1.0:
            raise ConfigurationError(f"A_p = {self.A_p!r} is at or above the oscillation "
                                     "threshold (A_p < 1 required)")
        if not self.w_p > 0:
            raise ConfigurationError(
                f"w_p must be a positive length or inf (a plane pump), got {self.w_p!r}")
        if not (math.isfinite(self.detuning) and math.isfinite(self.omega_bar)):
            raise ConfigurationError("detuning and omega_bar must be finite")
        # in this order: r0 divides by l_coh
        _positive(l_coh=self.l_coh, w_C=self.w_C,
                  lens_factor=2.0 * math.pi / self.lambda_s / self.f_lens)
        _positive(r0=self.r0)
        if not self.plane_pump:
            b = math.inf
            with contextlib.suppress(OverflowError):  # an overflow leaves inf, refused
                b = self.b
            _positive(b=b)

    @property
    def plane_pump(self) -> bool:
        """Whether the pump is the plane wave w_p = inf."""
        return self.w_p == math.inf

    @property
    def l_coh(self) -> float:
        """Transverse coherence length sqrt(lambda_s l_c / (pi n_s)) (m), the
        minimum detector size over which near-field squeezing survives."""
        return math.sqrt(self.lambda_s * self.l_c / (math.pi * self.n_s))

    @property
    def b(self) -> float:
        """Mode-count parameter w_p^2 / l_coh^2 (inf for a plane pump)."""
        return math.inf if self.plane_pump else (self.w_p / self.l_coh) ** 2

    @property
    def w_C(self) -> float:
        """Cavity waist implied by the Rayleigh range, sqrt(lambda_s z_C / pi) (m)."""
        return math.sqrt(self.lambda_s * self.z_C / math.pi)

    @property
    def r0(self) -> float:
        """Far-field detection-plane scale lambda_s f / (pi l_coh) (m) beyond
        which phase matching suppresses squeezing."""
        return self.lambda_s * self.f_lens / (math.pi * self.l_coh)
