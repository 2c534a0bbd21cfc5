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


_LENGTH = (lambda x: 0.0 < x < math.inf, "must be a positive length")
_FINITE = (math.isfinite, "must be finite")
# (test, rule) of each field, kept by OpoParams and by the config reader
_RULES = {
    "lambda_s": _LENGTH, "n_s": (lambda x: 1.0 <= x < math.inf, "must be >= 1"),
    "l_c": _LENGTH, "z_C": _LENGTH,
    "A_p": (lambda x: 0.0 <= x < 1.0, "must be in [0, 1): 1 is the oscillation threshold"),
    "w_p": (lambda x: x > 0, "must be a positive length or inf (a plane pump)"),
    "detuning": _FINITE, "omega_bar": _FINITE, "f_lens": _LENGTH,
}


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

    Raises ``ConfigurationError`` if a field is not a real number or breaks
    its rule in ``_RULES``, checked in field order: a length is positive and
    finite (w_p = inf is allowed), n_s >= 1, 0 <= A_p < 1 (A_p = 1 is the
    threshold), and detuning and omega_bar are finite; or if a derived scale
    or the far-field lens factor 2 pi / (lambda_s f_lens) is not in (0, inf).
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
            value, (test, rule) = getattr(self, f.name), _RULES[f.name]
            if not _real(value):
                raise ConfigurationError(f"{f.name} must be a real number, got {value!r}")
            if not test(value):
                raise ConfigurationError(f"{f.name} {rule}, got {value!r}")
        # in this order: r0 divides by l_coh
        _positive(l_coh=self.l_coh, w_C=self.w_C,
                  lens_factor=2.0 * math.pi / self.lambda_s / self.f_lens)
        _positive(r0=self.r0)
        if not self.plane_pump:
            _positive(b=self.b)

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
        """Mode-count parameter w_p^2 / l_coh^2 (inf for a plane pump or past the float range)."""
        ratio = self.w_p / self.l_coh
        return ratio * ratio

    @property
    def w_C(self) -> float:
        """Cavity waist implied by the Rayleigh range, sqrt(lambda_s z_C / pi) (m)."""
        return math.sqrt(self.lambda_s * self.z_C / math.pi)

    @property
    def r0(self) -> float:
        """Far-field detection-plane scale lambda_s f / (pi l_coh) (m) beyond
        which phase matching suppresses squeezing."""
        return self.lambda_s * self.f_lens / (math.pi * self.l_coh)
