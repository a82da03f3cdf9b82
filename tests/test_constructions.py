import math

import numpy as np
import pytest

from warpcheck.constructions import (certify_collar, collar_closability,
                                     docking_ambient, gN_regions,
                                     neck_family_check, sha_yang_space,
                                     theorem22_hypotheses)
from warpcheck.curvature import MultiWarpedMetric
from warpcheck.errors import InputError
from warpcheck.factors import (abstract_factor, round_sphere_factor,
                               unit_sphere_volume)
from warpcheck.profiles import closed_form_profile, sha_yang_profiles


def einstein_factor(n):
    return abstract_factor("M", n, (float(n - 1), float(n - 1)))


def round_cross_section(n):
    """dt^2 + sin^2 ds_{n-2}^2 on [0, pi]: the round unit S^(n-1)."""
    return MultiWarpedMetric(
        (0.0, math.pi),
        ((round_sphere_factor(n - 2, 1.0),
          closed_form_profile("sine", (0.0, math.pi))),),
        collapse_left=0, collapse_right=0)


class TestShaYangSpace:
    def test_full_pipeline_passes(self):
        v = sha_yang_space(2, 2, einstein_factor(2), 50.0)
        assert v.overall
        gmin = next(c for c in v.checks if c.name == "ricci_global_min")
        assert gmin.value >= -1e-7

    def test_limit_radius_target_for_alpha_two(self):
        v = sha_yang_space(3, 2, einstein_factor(3), 50.0)
        h = v.artifacts["h"]
        assert abs(h.eval(50.0)[0] - 1.0) <= 0.05  # 2/alpha = 1 here
        assert v.overall

    def test_asymptotic_checks_monotone_in_T(self):
        v30 = sha_yang_space(2, 3, einstein_factor(2), 30.0)
        v50 = sha_yang_space(2, 3, einstein_factor(2), 50.0)

        def dev(v):
            return next(c.value for c in v.checks if c.name == "radial_speed_limit")

        assert dev(v50) <= dev(v30)

    def test_dimension_precondition(self):
        with pytest.raises(InputError):
            sha_yang_space(3, 2, einstein_factor(2), 10.0)

    def test_curvature_precondition(self):
        weak = abstract_factor("M", 3, (1.5, 1.5))  # needs >= 2
        with pytest.raises(InputError):
            sha_yang_space(3, 2, weak, 10.0)

    def test_verdict_reproducible_bit_for_bit(self):
        from warpcheck.report import report_bytes
        a = sha_yang_space(2, 2, einstein_factor(2), 20.0)
        b = sha_yang_space(2, 2, einstein_factor(2), 20.0)
        assert report_bytes(a.to_report()) == report_bytes(b.to_report())

    def test_sha_yang_blocks(self):
        # on each window [T, 2T], sup |h/t| and sup |f/t - 1|
        f, h, alpha = sha_yang_profiles(2, 2, 80.0)
        windows = [10.0, 20.0, 40.0]
        sups = np.empty((len(windows), 2))
        for k, T in enumerate(windows):
            ts = np.linspace(T, 2.0 * T, 512)
            sups[k] = (np.max(np.abs(h.eval(ts)[0] / ts)),
                       np.max(np.abs(f.eval(ts)[0] / ts - 1.0)))
        # collapsing block: sup |h/t| <= (2/alpha)/T since h <= 2/alpha
        for k, T in enumerate(windows):
            assert sups[k, 0] <= (2.0 / alpha) / T + 1e-12
        # cone block sups strictly decrease across windows
        assert np.all(np.diff(sups[:, 1]) < 0.0)


class TestNeckFamily:
    def test_family_certified(self):
        v = neck_family_check(0.1, 5, [0.5, 0.25, 0.1, 0.01], 0.2)
        assert v.overall
        assert v.config["delta"] > 0.0

    def test_delta_stable_under_s_refinement(self):
        d1 = neck_family_check(0.1, 5, [0.5, 0.25], 0.2).config["delta"]
        d2 = neck_family_check(0.1, 5, [0.5, 0.375, 0.3125, 0.25],
                               0.2).config["delta"]
        assert abs(d1 - d2) <= 1e-6

    def test_s_out_of_range(self):
        with pytest.raises(InputError):
            neck_family_check(0.1, 5, [10.0], 0.2)

    def test_core_curvature_floor_enforced(self):
        with pytest.raises(InputError):
            neck_family_check(0.1, 5, [0.5], 0.1)  # needs >= 2 nu = 0.2


class TestCollarClosability:
    def test_certifies_largest_slope_up_to_cmax(self):
        v = collar_closability(1.0, 0.3, 4)
        assert v.overall
        assert v.config["c_star"] == 0.3
        glue_sum = next(c for c in v.checks if c.name == "core_glue_ii_sum")
        assert glue_sum.value == pytest.approx(1.0 - 2 * 0.3, abs=1e-12)

    def test_binding_constraint_found_by_bisection(self):
        v = collar_closability(1.0, 10.0, 4)
        c_star = v.config["c_star"]
        assert 0.0 < c_star < 0.5  # the glue sum 1 - 2c forces c < 1/2
        assert v.overall
        worse = certify_collar(1.0, c_star * 1.15, 4)
        assert not worse.overall

    def test_fails_with_diagnostics_at_ten_c_star(self):
        v = collar_closability(1.0, 0.3, 4)
        at10 = certify_collar(1.0, 10.0 * v.config["c_star"], 4)
        assert not at10.overall
        names = {c.name for c in at10.failed_checks()}
        assert "core_glue_ii_sum" in names
        assert "collar_ricci_near_boundary" in names

    def test_collar_slope_constant_beyond_ramp(self):
        v = collar_closability(1.0, 0.2, 4)
        profile = v.artifacts["profile"]
        assert profile.eval(1.1)[1] == v.config["c_star"]

    def test_core_preconditions(self):
        with pytest.raises(InputError, match="strictly convex"):
            collar_closability(-1.0, 0.3, 4)
        with pytest.raises(InputError, match="strictly convex"):
            collar_closability(0.0, 0.3, 4)


class TestGnRegions:
    def worst_case(self, n, eps=0.2):
        Y = abstract_factor("Y", n - 1, (float(-(n - 2)), float(-(n - 2))))
        return gN_regions(Y, eps, n)

    def test_worst_case_strict_positivity(self):
        v = self.worst_case(5)
        assert v.overall
        gmin = next(c for c in v.checks if c.name == "regionA_ricci_min")
        assert gmin.value > 0.0

    def test_region_b_circle_direction_exactly_zero(self):
        v = self.worst_case(5)
        c = next(c for c in v.checks if c.name == "regionB_circle_direction")
        assert c.value == 0.0 and c.passed

    def test_floor_monotone_in_hypersurface_curvature(self):
        n = 5
        lows = []
        for rho in (-3.0, -1.5, 0.0):
            Y = abstract_factor("Y", 4, (rho, rho))
            v = gN_regions(Y, 0.2, n)
            lows.append(v.artifacts["ricci_report"].global_min)
        assert lows[0] <= lows[1] <= lows[2]

    def test_preconditions(self):
        with pytest.raises(InputError):
            gN_regions(abstract_factor("Y", 3, (-3.0, -3.0)), 0.2, 5)  # dim
        with pytest.raises(InputError):
            gN_regions(abstract_factor("Y", 4, (-4.0, -4.0)), 0.2, 5)  # floor
        with pytest.raises(InputError, match="admissible region"):
            self.worst_case(5, eps=1.0)  # radial profile collapses first


class TestDockingAmbient:
    @pytest.mark.parametrize("n", [3, 4])
    def test_round_model_reproduction(self, n):
        v = docking_ambient(n)
        assert v.overall
        spread = next(c for c in v.checks if c.name == "max_component_spread")
        assert spread.value <= 1e-9


class TestTheorem22:
    def certificate(self, n):
        return collar_closability(1.0, 0.3, n - 1)

    def test_round_model_saturates_both_bounds(self):
        n = 4
        v = theorem22_hypotheses([round_cross_section(n)], n,
                                 self.certificate(n))
        assert v.overall
        vol = next(c for c in v.checks if c.name == "member0_volume_cap")
        assert vol.value == pytest.approx(unit_sphere_volume(n - 1), rel=1e-8)
        floor = next(c for c in v.checks if c.name == "member0_ricci_floor")
        assert floor.value == pytest.approx(n - 2, abs=1e-9)

    def test_member_below_ricci_floor_fails(self):
        n = 5
        weak = abstract_factor("X", n - 2, (float(n - 3) - 0.1, float(n - 3) - 0.1),
                               volume=unit_sphere_volume(n - 2))
        member = MultiWarpedMetric(
            (0.0, math.pi),
            ((weak, closed_form_profile("sine", (0.0, math.pi))),),
            collapse_left=0, collapse_right=0)
        v = theorem22_hypotheses([round_cross_section(n), member], n,
                                 self.certificate(n))
        assert not v.overall
        assert any(c.name == "member1_ricci_floor" and not c.passed
                   for c in v.checks)

    def test_certificate_required(self):
        failing = certify_collar(1.0, 0.6, 3)  # glue sum 1 - 2c < 0
        assert not failing.overall
        with pytest.raises(InputError, match="passing closability"):
            theorem22_hypotheses([round_cross_section(4)], 4, failing)

    def test_missing_volume_raises(self):
        factor = abstract_factor("X", 2, (1.0, 1.0))
        member = MultiWarpedMetric(
            (0.0, math.pi),
            ((factor, closed_form_profile("sine", (0.0, math.pi))),),
            collapse_left=0, collapse_right=0)
        with pytest.raises(InputError, match="has no volume"):
            theorem22_hypotheses([member], 4, self.certificate(4))

    def test_volume_spread_and_rescale_reported(self):
        n = 4
        v = theorem22_hypotheses([round_cross_section(n)], n,
                                 self.certificate(n))
        assert v.config["volume_spread"] == 0.0
        assert v.config["volume_rescale_factor"] == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_thm22_ricci_floor_slack_scales_with_the_floor(n):
    # the reference reports replay thm22 only at n = 4
    v = theorem22_hypotheses([round_cross_section(n)], n,
                             TestTheorem22().certificate(n), grid_size=64)
    floor = next(c for c in v.checks if c.name == "member0_ricci_floor")
    assert floor.threshold == (n - 2) - 1e-8 * max(1, n - 2)


def test_nonnegative_ricci_checks_allow_the_unit_slack():
    sha = sha_yang_space(3, 2, einstein_factor(3), 50.0, grid_size=200)
    collar = collar_closability(1.0, 0.45, 3,
                                grid_size=64)
    for v, name in ((sha, "ricci_global_min"),
                    (collar, "collar_ricci_nonnegative")):
        check = next(c for c in v.checks if c.name == name)
        assert check.threshold == -1e-8
        assert v.config["ricci_slack"] == 1e-8
