"""Independent references for the plane-pump closed-form routes.

The near-field references work in the scaled wavevector x = q l_coh and in
lengths scaled to l_coh, at resonance and zero analysis frequency.  There the
squeezed (phi_LO = pi/2) noise density is written out directly,

    R(x) = ((1 - A_p sigma) / (1 + A_p sigma))^2,   sigma = sinc(x^2 / 4),

and integrated with QUADPACK on panels between the sinc zeros
x_k = 2 sqrt(k pi).  Nothing goes through the library's (U, V) routine or its
near-field tables, so agreement with ``sweep`` is a real cross-check.

Two quantities follow from R.

* The spatial correlation of the squeezed-quadrature noise,

      C(u) = (1/pi) integral_0^inf (R(x) - 1) cos(x u) dx.

  For a centred interval of half width d,

      vn(d)  = 1 + 2 integral_0^{2d} (1 - u / 2d) C(u) du,
      dvn/dd = (1 / d^2) integral_0^{2d} u C(u) du,

  and C < 0 from u = 0 up to its first zero u_C.  So vn is guaranteed to be
  non-increasing only while every separation inside the detector, up to 2d,
  stays below u_C: for d <= u_C / 2.  Past that, the separations beyond
  u_C, where C > 0, can lift vn as the detector grows, and at large pump
  they do (a few 1e-3 around d ~ l_coh at A_p = 0.99).
* vn(d) itself, as 1 + (2 / (pi d)) integral_0^inf sin^2(x d) / x^2
  (R(x) - 1) dx, the detector window times the density.

The far-field and circular references, ``far_vn`` and ``circular_vn``,
take the library's closed-form density R (any detuning and frequency) and
integrate it with adaptive QUADPACK between consecutive sinc zeros, so they
check the library's Gauss-panel quadrature, not the density.
"""

import math
import warnings

import numpy as np
import scipy.integrate
from scipy.optimize import brentq

from helpers import noise_density

#: truncation of the x integrals.  Beyond it R - 1 is a chirp of amplitude
#: < 16 A_p / x^2; doubling the cut moves u_C by ~1e-6 and the windowed vn
#: by < 1e-8.
CUT = 100.0
#: sinc-zero panel edges on [0, CUT]
EDGES = (
    [0.0]
    + [2.0 * math.sqrt(k * math.pi) for k in range(1, int(CUT**2 / (4 * math.pi)) + 1)]
    + [CUT]
)
#: scan stride (l_coh) when bracketing the first zero of C
STEP = 0.25
#: tolerance on an increase of vn between neighbouring detector sizes
SLACK = 1e-6


def density_minus_one(x: float, a_p: float) -> float:
    """R(x) - 1 for the squeezed quadrature (scalar x = q l_coh)."""
    t = x * x / 4.0
    sig = math.sin(t) / t if t > 0.0 else 1.0
    return ((1.0 - a_p * sig) / (1.0 + a_p * sig)) ** 2 - 1.0


def correlation(u: float, a_p: float) -> float:
    """C(u), u in l_coh units, by cosine-weighted QUADPACK on each panel."""
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        for lo, hi in zip(EDGES[:-1], EDGES[1:]):
            total += scipy.integrate.quad(
                density_minus_one, lo, hi, args=(a_p,), weight="cos", wvar=u,
                epsabs=1e-12,
            )[0]
    return total / math.pi


def correlation_first_zero(a_p: float) -> float:
    """First zero u_C of C(u) in l_coh units.

    C(0) < 0 because R < 1 everywhere; C is scanned in ``STEP`` strides for
    its first sign change, which ``brentq`` then refines.
    """
    lo = 0.0
    assert correlation(lo, a_p) < 0.0
    while lo < 4.0:
        hi = lo + STEP
        if correlation(hi, a_p) > 0.0:
            return brentq(correlation, lo, hi, args=(a_p,), xtol=1e-9)
        lo = hi
    raise AssertionError(f"no sign change of C(u) below 4 l_coh at A_p = {a_p}")


def interval_vn(half_widths, a_p: float) -> np.ndarray:
    """Squeezed vn of centred intervals (half widths in l_coh units).

    Direct quadrature of window x density, one adaptive vector-valued rule
    over all half widths at once; a zero half width is shot noise (1).
    """
    d = np.asarray(half_widths, dtype=float)

    def integrand(x):
        if x == 0.0:
            return d * d * density_minus_one(0.0, a_p)
        return np.sin(x * d) ** 2 / (x * x) * density_minus_one(x, a_p)

    val = scipy.integrate.quad_vec(
        integrand, 0.0, CUT, points=EDGES[1:-1], epsabs=1e-10, epsrel=1e-10,
        limit=10000,
    )[0]
    out = np.ones_like(d)
    nonzero = d > 0.0
    out[nonzero] = 1.0 + 2.0 / (math.pi * d[nonzero]) * val[nonzero]
    return out


def _sinc_zero_quad(f, x_lo: float, x_hi: float) -> float:
    """integral_{x_lo}^{x_hi} f(x) dx, one tight QUADPACK call per sinc-zero interval."""
    edges = [x_lo] + [z for z in sinc_zeros_below(x_hi) if x_lo < z < x_hi] + [x_hi]
    return sum(
        scipy.integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def sinc_zeros_below(x_hi: float) -> list[float]:
    """Sinc zeros x_k = 2 sqrt(k pi) below x_hi."""
    return [2.0 * math.sqrt(k * math.pi) for k in range(1, int(x_hi**2 / (4 * math.pi)) + 2)]


def far_vn(x_lo: float, x_hi: float, p, s, phase: float, c: float = 0.0) -> float:
    """vn of the positive-q half [x_lo, x_hi] of a far-field detector.

    x = q l_coh; the LO weight is exp(-c x^2) (c = 0: plane LO).
    """
    def weight(x):
        return math.exp(-c * x * x)

    def num(x):
        return weight(x) * float(noise_density(x / s.l_coh, p, s, phase))

    return _sinc_zero_quad(num, x_lo, x_hi) / _sinc_zero_quad(weight, x_lo, x_hi)


def circular_vn(big_x: float, p, s, phase: float, c: float = 0.0) -> float:
    """vn of a far-field disk of radius big_x r0 with LO weight exp(-c u^2).

    Radial variable u = r / r0, density at q = 2 u / l_coh (sinc(u^2)); the
    denominator integral_0^X u exp(-c u^2) du is closed form.
    """
    def num(u):
        q = 2.0 * u / s.l_coh
        return u * math.exp(-c * u * u) * float(noise_density(q, p, s, phase))

    # sinc zeros sit at u = sqrt(k pi): integrate in x = 2u, du = dx / 2
    total = _sinc_zero_quad(lambda x: num(x / 2.0), 0.0, 2.0 * big_x) / 2.0
    den = big_x**2 / 2.0 if c == 0.0 else (1.0 - math.exp(-c * big_x**2)) / (2.0 * c)
    return total / den


def rises(values, vns) -> list[tuple[float, float]]:
    """(value, increase) for every step where vns grows by more than SLACK."""
    return [
        (values[i + 1], vns[i + 1] - vns[i])
        for i in range(len(vns) - 1)
        if vns[i + 1] > vns[i] + SLACK
    ]
