import dataclasses
import math
from dataclasses import replace

import pytest

from confocal_opo import ConfigurationError, OpoParams, cli

THRESHOLD = r"must be in \[0, 1\): 1 is the oscillation threshold, got"
LENGTH = "must be a positive length, got"


def make(**kw):
    base = dict(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.5, w_p=4e-4)
    base.update(kw)
    return OpoParams(**base)


class TestValidate:
    """The checks an OpoParams makes when it is made, replace() included."""

    def test_valid_passes_through(self):
        p = make()
        assert dataclasses.astuple(p) == (1.064e-6, 2.12, 0.01, 0.05, 0.5, 4e-4, 0.0, 0.0, 0.1)
        assert replace(p) == p

    def test_at_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match=rf"^A_p {THRESHOLD} 1\.0$"):
            make(A_p=1.0)
        with pytest.raises(ConfigurationError, match=rf"^A_p {THRESHOLD} 1\.2$"):
            make(A_p=1.2)

    def test_replace_is_checked(self):
        # a valid OpoParams stays valid: every replace() is checked as well
        with pytest.raises(ConfigurationError, match=rf"^A_p {THRESHOLD} 1\.0$"):
            replace(make(), A_p=1.0)
        with pytest.raises(ConfigurationError, match=rf"^l_c {LENGTH} 0\.0$"):
            replace(make(), l_c=0.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError, match=rf"^l_c {LENGTH} -0\.01$"):
            make(l_c=-0.01)
        with pytest.raises(ConfigurationError, match=rf"^z_C {LENGTH} 0\.0$"):
            make(z_C=0.0)
        with pytest.raises(ConfigurationError, match=rf"^lambda_s {LENGTH} -1e-06$"):
            make(lambda_s=-1e-6)

    def test_index_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^n_s must be >= 1, got 0\.99$"):
            make(n_s=0.99)

    def test_pump_waist_must_be_positive_or_inf(self):
        # one field says which pump: a positive waist, or inf for the plane
        # pump; anything else is no pump at all
        for w_p in (None, math.nan, 0.0, -math.inf, "4e-4"):
            with pytest.raises(ConfigurationError,
                               match=r"^w_p must be a (real number|positive length or inf)"):
                make(w_p=w_p)
        assert make(w_p=math.inf).plane_pump
        assert not make(w_p=1e100).plane_pump
        # a waist whose b = (w_p / l_coh)^2 overflows is refused when made
        with pytest.raises(ConfigurationError, match=r"^derived scale b = inf is not positive"):
            make(w_p=1e300)

    def test_negative_waist_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"^w_p must be a positive length or inf \(a plane pump\), "
                                 r"got -0\.0001$"):
            make(w_p=-1e-4)

    def test_negative_pump_amplitude_rejected(self):
        with pytest.raises(ConfigurationError, match=rf"^A_p {THRESHOLD} -0\.1$"):
            make(A_p=-0.1)

    @pytest.mark.parametrize("value", [None, "0.5", 0.5 + 0j], ids=["none", "str", "complex"])
    @pytest.mark.parametrize("name", ["A_p", "n_s", "detuning", "omega_bar"])
    def test_non_real_field_rejected(self, name, value):
        # refused as non-physical, not left to a TypeError of a range check
        with pytest.raises(ConfigurationError, match=f"^{name} must be a real number, got "):
            make(**{name: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["detuning", "omega_bar"])
    def test_non_finite_detuning_rejected(self, name, value):
        # the CLI refuses a non-finite number as it reads it, so only a
        # library caller reaches this check
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got {value!r}$"):
            make(**{name: value})

    def test_lcoh_past_the_float_range_rejected(self):
        # l_coh underflows to 0 here; it is refused before r0 divides by it
        with pytest.raises(ConfigurationError,
                           match=r"^derived scale l_coh = 0\.0 is not positive"):
            make(l_c=1e-320)


class TestDerivedScales:
    """The derived-scale properties of an OpoParams."""

    def test_lcoh_two_closed_forms_agree(self, rng):
        for _ in range(25):
            p = make(
                lambda_s=float(rng.uniform(0.4e-6, 2e-6)),
                n_s=float(rng.uniform(1.0, 3.5)),
                l_c=float(rng.uniform(1e-4, 0.05)),
            )
            k_s = 2.0 * math.pi * p.n_s / p.lambda_s  # signal wavenumber in the crystal
            alt = math.sqrt(2.0 * p.l_c / k_s)
            assert abs(p.l_coh - alt) <= 1e-12 * alt

    def test_lcoh_cavity_waist_form(self):
        # l_coh = w_C sqrt(l_c / (n_s z_C)) is the same length in cavity units
        p = make()
        alt = p.w_C * math.sqrt(p.l_c / (p.n_s * p.z_C))
        assert abs(p.l_coh - alt) <= 1e-12 * alt

    def test_coherence_length_anchor_40um(self):
        # 1 cm crystal at 1.064 um in an n = 2.12 medium: l_coh is 40 um
        # within 10 percent (the assumed wavelength and index are artifact
        # choices recorded with the preset).
        assert abs(make().l_coh - 40e-6) <= 0.10 * 40e-6

    def test_lcoh_vanishes_with_crystal_length(self):
        assert make(l_c=1e-10).l_coh < 1e-6

    def test_b_is_waist_over_lcoh_squared(self):
        p = make(w_p=math.inf)
        p10 = make(w_p=10 * p.l_coh)
        assert abs(p10.b - 100.0) <= 1e-9

    def test_b_pump_rayleigh_cross_check(self, rng):
        for _ in range(10):
            p = make(w_p=float(rng.uniform(1e-5, 1e-3)))
            z_p = math.pi * p.w_p**2 / (2.0 * p.lambda_s)  # pump diffraction length
            assert abs(p.b - 2.0 * p.n_s * z_p / p.l_c) <= 1e-12 * p.b

    def test_plane_pump_scales(self):
        p = make(w_p=math.inf)
        assert p.plane_pump
        assert math.isinf(p.b)
        assert all(0.0 < x < math.inf for x in (p.l_coh, p.w_C, p.r0))

    def test_far_field_scales(self):
        p = make()
        assert abs(p.r0 - p.lambda_s * p.f_lens / (math.pi * p.l_coh)) <= 1e-15
        # the far-field coherence unit: q_coh = 1 / w_p in detection-plane meters
        q_coh = cli._unit(p, "far") * 2.0 * math.pi / (p.lambda_s * p.f_lens)
        assert abs(q_coh - 1.0 / p.w_p) <= 1e-15 / p.w_p

    def test_pure_function(self):
        scales = [(p.l_coh, p.b, p.w_C, p.r0) for p in (make(), make())]
        assert scales[0] == scales[1]


# repr of (l_coh, w_C, r0, b) and the far abscissa unit, as the removed
# derive_scales computed them: fig 5 (the plane pump) and the fig 9 presets.
# summary.txt rounds to 12 digits, which would hide an ulp of drift.
_PINNED = {
    "fig5": ("3.996942929074772e-05", "0.00013013103375051496", "0.0008473519009638516",
             "inf", None),
    "fig9_b4": ("3.996942929074772e-05", "0.00013013103375051496",
                "0.0008473519009638516", "4.0", "0.00021183797524096287"),
    "fig9_b25": ("3.996942929074772e-05", "0.00013013103375051496",
                 "0.0008473519009638516", "25.0", "8.473519009638515e-05"),
    "fig9_b100": ("3.996942929074772e-05", "0.00013013103375051496",
                  "0.0008473519009638516", "100.0", "4.2367595048192573e-05"),
}


@pytest.mark.parametrize("label", sorted(_PINNED))
def test_preset_scales_are_pinned_to_the_ulp(label):
    fig = int(label[3:].partition("_")[0])
    (sc,) = [sc for sc in cli.fig_scenarios(fig, {}) if sc.label == label]
    p = sc.params
    l_coh, w_c, r0, b, unit = _PINNED[label]
    assert (repr(p.l_coh), repr(p.w_C), repr(p.r0), repr(p.b)) == (l_coh, w_c, r0, b)
    if unit is not None:
        assert repr(cli._unit(sc.params, sc.plane)) == unit


def test_non_round_b_is_pinned_to_the_ulp():
    # the b of the benchmark's detuned runs, w_p = 2e-4 at the preset crystal
    assert repr(make(A_p=0.9, w_p=2.0e-4).b) == "25.03825723913669"
