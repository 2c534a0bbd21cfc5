"""Physical configuration of the cavity and the length scales derived from it.

Conventions
-----------
* All inputs are SI (meters, radians); every derived scale is computed once
  here and reused by the other modules.
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
from dataclasses import dataclass

from .errors import AboveThreshold, NonPhysical

__all__ = ["OpoParams", "DerivedScales", "validate", "derive_scales"]


@dataclass(frozen=True)
class OpoParams:
    """Physical configuration of the degenerate OPO.

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

    @property
    def plane_pump(self) -> bool:
        """Whether the pump is the plane wave w_p = inf."""
        return self.w_p == math.inf


@dataclass(frozen=True)
class DerivedScales:
    """Secondary scales, all computed once from a validated OpoParams.

    Attributes
    ----------
    k_s : float
        Signal wavenumber in the crystal, 2 pi n_s / lambda_s (1/m).
    l_coh : float
        Transverse coherence length sqrt(lambda_s l_c / (pi n_s)) (m); the
        minimum detector size over which near-field squeezing survives.
    b : float
        Mode-count parameter w_p^2 / l_coh^2 (infinite for a plane pump).
    w_C : float
        Cavity waist implied by the Rayleigh range, sqrt(lambda_s z_C / pi).
    r0 : float
        Far-field detection-plane scale lambda_s f / (pi l_coh) (m) beyond
        which phase matching suppresses squeezing.
    q_coh : float
        Far-field coherence scale in wavevector units, 1 / w_p (1/m); zero
        for a plane pump.
    z_p : float
        Pump diffraction length, defined as pi w_p^2 / (2 lambda_s) so that
        the identity b = 2 n_s z_p / l_c holds exactly.
    """

    k_s: float
    l_coh: float
    b: float
    w_C: float
    r0: float
    q_coh: float
    z_p: float


def validate(p: OpoParams) -> OpoParams:
    """Check every invariant of the configuration and return it unchanged.

    Raises
    ------
    AboveThreshold
        If ``A_p >= 1`` (the linearized below-threshold model breaks down)
        or ``A_p < 0``.
    NonPhysical
        If any length is non-positive (``w_p = inf``, the plane pump, is
        allowed) or ``n_s < 1``.
    """
    for name in ("lambda_s", "l_c", "z_C", "f_lens"):
        value = getattr(p, name)
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise NonPhysical(f"{name} must be a positive length, got {value!r}")
    if not (math.isfinite(p.n_s) and p.n_s >= 1.0):
        raise NonPhysical(f"n_s must be >= 1, got {p.n_s!r}")
    if not (0.0 <= p.A_p):
        raise NonPhysical(f"A_p must be non-negative, got {p.A_p!r}")
    if p.A_p >= 1.0:
        raise AboveThreshold(
            f"A_p = {p.A_p!r} is at or above the oscillation threshold (A_p < 1 required)"
        )
    if not (isinstance(p.w_p, (int, float)) and p.w_p > 0):
        raise NonPhysical(f"w_p must be a positive length or inf (a plane pump), got {p.w_p!r}")
    if not (math.isfinite(p.detuning) and math.isfinite(p.omega_bar)):
        raise NonPhysical("detuning and omega_bar must be finite")
    return p


def _positive(**scales) -> None:
    for name, value in scales.items():
        if not 0.0 < value < math.inf:
            raise NonPhysical(f"derived scale {name} = {value!r} is not positive and "
                              "finite: the inputs reach past the floating-point range")


def derive_scales(p: OpoParams) -> DerivedScales:
    """Compute every derived scale from a validated configuration.

    Pure function: identical inputs give bit-identical outputs.  The two
    closed forms of the coherence length, sqrt(lambda l_c / (pi n_s)) and
    sqrt(2 l_c / k_s), agree to rounding by construction.  Raises
    ``NonPhysical`` unless every scale, and the far-field lens factor
    2 pi / (lambda_s f_lens), is positive and finite.
    """
    validate(p)
    k_s = 2.0 * math.pi * p.n_s / p.lambda_s
    l_coh = math.sqrt(p.lambda_s * p.l_c / (math.pi * p.n_s))
    w_C = math.sqrt(p.lambda_s * p.z_C / math.pi)
    _positive(k_s=k_s, l_coh=l_coh, w_C=w_C, lens_factor=2.0 * math.pi / p.lambda_s / p.f_lens)
    r0 = p.lambda_s * p.f_lens / (math.pi * l_coh)
    _positive(r0=r0)
    b, q_coh, z_p = math.inf, 0.0, math.inf  # a plane pump
    if not p.plane_pump:
        q_coh = 1.0 / p.w_p
        with contextlib.suppress(OverflowError):  # an overflow leaves inf, refused below
            b = (p.w_p / l_coh) ** 2
            z_p = math.pi * p.w_p**2 / (2.0 * p.lambda_s)
        _positive(b=b, q_coh=q_coh, z_p=z_p)
    return DerivedScales(k_s=k_s, l_coh=l_coh, b=b, w_C=w_C, r0=r0, q_coh=q_coh, z_p=z_p)
