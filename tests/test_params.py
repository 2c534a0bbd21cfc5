import math

import numpy as np
import pytest

from confocal_opo import (
    AboveThreshold,
    NonPhysical,
    OpoParams,
    derive_scales,
    validate,
)


def make(**kw):
    base = dict(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.5, w_p=4e-4)
    base.update(kw)
    return OpoParams(**base)


class TestValidate:
    def test_valid_passes_through(self):
        p = make()
        assert validate(p) is p

    def test_at_threshold_rejected(self):
        with pytest.raises(AboveThreshold):
            validate(make(A_p=1.0))
        with pytest.raises(AboveThreshold):
            validate(make(A_p=1.2))

    def test_negative_length_rejected(self):
        with pytest.raises(NonPhysical):
            validate(make(l_c=-0.01))
        with pytest.raises(NonPhysical):
            validate(make(z_C=0.0))
        with pytest.raises(NonPhysical):
            validate(make(lambda_s=-1e-6))

    def test_index_below_one_rejected(self):
        with pytest.raises(NonPhysical):
            validate(make(n_s=0.99))

    def test_pump_waist_must_be_positive_or_inf(self):
        # one field says which pump: a positive waist, or inf for the plane
        # pump; anything else is no pump at all
        for w_p in (None, math.nan, 0.0, -math.inf, "4e-4"):
            with pytest.raises(NonPhysical, match="w_p"):
                validate(make(w_p=w_p))
        assert validate(make(w_p=math.inf)).plane_pump
        assert not validate(make(w_p=1e300)).plane_pump

    def test_negative_waist_rejected(self):
        with pytest.raises(NonPhysical):
            validate(make(w_p=-1e-4))

    def test_negative_pump_amplitude_rejected(self):
        with pytest.raises(NonPhysical):
            validate(make(A_p=-0.1))


class TestDerivedScales:
    def test_lcoh_two_closed_forms_agree(self, rng):
        for _ in range(25):
            p = make(
                lambda_s=float(rng.uniform(0.4e-6, 2e-6)),
                n_s=float(rng.uniform(1.0, 3.5)),
                l_c=float(rng.uniform(1e-4, 0.05)),
            )
            s = derive_scales(p)
            alt = math.sqrt(2.0 * p.l_c / s.k_s)
            assert abs(s.l_coh - alt) <= 1e-12 * alt

    def test_lcoh_cavity_waist_form(self):
        # l_coh = w_C sqrt(l_c / (n_s z_C)) is the same length in cavity units
        p = make()
        s = derive_scales(p)
        alt = s.w_C * math.sqrt(p.l_c / (p.n_s * p.z_C))
        assert abs(s.l_coh - alt) <= 1e-12 * alt

    def test_coherence_length_anchor_40um(self):
        # 1 cm crystal at 1.064 um in an n = 2.12 medium: l_coh is 40 um
        # within 10 percent (the assumed wavelength and index are artifact
        # choices recorded with the preset).
        s = derive_scales(make())
        assert abs(s.l_coh - 40e-6) <= 0.10 * 40e-6

    def test_lcoh_vanishes_with_crystal_length(self):
        s1 = derive_scales(make(l_c=1e-10))
        assert s1.l_coh < 1e-6

    def test_b_is_waist_over_lcoh_squared(self):
        p = make(w_p=math.inf)
        s0 = derive_scales(p)
        p10 = make(w_p=10 * s0.l_coh)
        assert abs(derive_scales(p10).b - 100.0) <= 1e-9

    def test_b_pump_rayleigh_cross_check(self, rng):
        for _ in range(10):
            p = make(w_p=float(rng.uniform(1e-5, 1e-3)))
            s = derive_scales(p)
            assert abs(s.b - 2.0 * p.n_s * s.z_p / p.l_c) <= 1e-12 * s.b

    def test_plane_pump_scales(self):
        s = derive_scales(make(w_p=math.inf))
        assert math.isinf(s.b)
        assert s.q_coh == 0.0

    def test_far_field_scales(self):
        p = make()
        s = derive_scales(p)
        assert abs(s.r0 - p.lambda_s * p.f_lens / (math.pi * s.l_coh)) <= 1e-15
        assert abs(s.q_coh - 1.0 / p.w_p) <= 1e-15 / p.w_p

    def test_pure_function(self):
        p = make()
        assert derive_scales(p) == derive_scales(p)
