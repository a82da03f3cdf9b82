import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cone_profile, constant_profile, random_block_metrics
from warpcheck.curvature import (BoundaryData, MultiWarpedMetric,
                                 _component_arrays, boundary_data, glue_check,
                                 ricci_components, ricci_generic,
                                 ricci_report, second_fundamental_form,
                                 volume)
from warpcheck.errors import (DataMissingError, InputError, SingularPointError)
from warpcheck.factors import abstract_factor, round_sphere_factor
from warpcheck.profiles import (closed_form_profile, neck_profile,
                                profile_from_callable, sha_yang_profiles)


def warped_round_sphere(n):
    """dt^2 + sin^2(t) ds_{n-1}^2 on [0, pi]: the round unit S^n."""
    return MultiWarpedMetric(
        (0.0, math.pi),
        ((round_sphere_factor(n - 1, 1.0), closed_form_profile("sine", (0.0, math.pi))),),
        collapse_left=0, collapse_right=0)


def flat_cone(n):
    return MultiWarpedMetric(
        (0.0, 5.0),
        ((round_sphere_factor(n - 1, 1.0),
          cone_profile(5.0)),),
        collapse_left=0)


def components_gap(a, b):
    gap = abs(a.ric_tt - b.ric_tt)
    for lo1, lo2 in zip(a.blocks, b.blocks):
        gap = max(gap, abs(lo1 - lo2))
    return gap


class TestModelSpaces:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_round_sphere_components(self, n):
        rep = ricci_report(warped_round_sphere(n), 2000)
        for extremes in rep.extrema:
            assert np.max(np.abs(np.array(extremes) - (n - 1))) <= 1e-9

    def test_round_sphere_pointwise(self):
        c = ricci_components(warped_round_sphere(4), math.pi / 2)
        assert c.ric_tt == pytest.approx(3.0, abs=1e-12)
        assert c.blocks[0] == pytest.approx(3.0, abs=1e-12)

    def test_flat_cone_components(self):
        c = ricci_components(flat_cone(4), 1.0)
        assert c.ric_tt == 0.0
        assert c.blocks[0] == 0.0
        rep = ricci_report(flat_cone(5), 3000)
        for extremes in rep.extrema:
            assert np.max(np.abs(extremes)) <= 1e-12

    def test_flat_cone_report_verdicts(self):
        # the report only measures; a caller's verdict compares global_min
        # with its own target: the flat cone meets Ric >= 0, not Ric >= 0.1
        rep = ricci_report(flat_cone(4), 500)
        assert abs(rep.global_min) <= 1e-12
        assert rep.global_min >= 0.0 - 1e-12
        assert not rep.global_min >= 0.1

    def test_riemannian_product(self):
        # constant warps: Ric(dt,dt) = 0 and the block value is the factor's
        # lower bound divided by the squared warp
        f1 = constant_profile((0.0, 2.0), 2.0)
        factor = abstract_factor("B", 3, (0.6, 1.2))
        m = MultiWarpedMetric((0.0, 2.0), ((factor, f1),))
        c = ricci_components(m, 1.0)
        assert c.ric_tt == 0.0
        assert c.blocks == pytest.approx((0.6 / 4.0,), abs=1e-15)


class TestOracleEquivalence:
    def test_round_sphere_generic_matches_with_second_order(self):
        m = warped_round_sphere(4)
        c = ricci_components(m, 1.0)
        gaps = [components_gap(c, ricci_generic(m, 1.0, dt))
                for dt in (2e-3, 1e-3)]
        assert gaps[0] <= 2e-5
        assert gaps[0] / gaps[1] >= 3.5
        assert components_gap(c, ricci_generic(m, 1.0, 1e-4)) <= 1e-6

    def test_sha_yang_cross_check(self):
        f, h, _ = sha_yang_profiles(2, 2, 10.0)
        M = abstract_factor("M", 2, (1.0, 1.0))
        m = MultiWarpedMetric((0.0, 10.0),
                              ((round_sphere_factor(1, 1.0), h), (M, f)),
                              collapse_left=0)
        gap = components_gap(ricci_components(m, 1.0), ricci_generic(m, 1.0, 1e-4))
        assert gap <= 1e-6

    def test_random_metrics_agree(self):
        for m in random_block_metrics(10, seed=3):
            for t in (0.6, 1.0, 1.4):
                gap = components_gap(ricci_components(m, t),
                                     ricci_generic(m, t, 1e-4))
                assert gap <= 1e-6


class TestSecondFundamentalForm:
    def test_equator_is_totally_geodesic(self):
        m = MultiWarpedMetric(
            (0.0, math.pi / 2),
            ((round_sphere_factor(3, 1.0),
              closed_form_profile("sine", (0.0, math.pi / 2))),),
            collapse_left=0)
        bd = boundary_data(m, "right")
        assert bd.blocks[0].kappa == 0.0
        assert bd.blocks[0].radius == 1.0

    def test_unit_sphere_in_flat_space(self):
        bd = second_fundamental_form(flat_cone(4), 1.0, +1)
        assert bd.blocks[0].kappa == 1.0
        assert bd.blocks[0].induced.round_radius == 1.0

    def test_neck_outer_curvature(self):
        nu = 0.1
        m = MultiWarpedMetric((0.5, math.pi / (4 * nu)),
                              ((round_sphere_factor(4, 1.0), neck_profile(nu, 0.5)),))
        bd = boundary_data(m, "right")
        assert bd.blocks[0].kappa == pytest.approx(nu, abs=1e-14)

    def test_collapsed_slice_rejected(self):
        with pytest.raises(SingularPointError):
            second_fundamental_form(warped_round_sphere(3), 0.0, +1)

    def test_orientation_validation(self):
        with pytest.raises(InputError):
            second_fundamental_form(flat_cone(3), 1.0, 2)


class TestRicciReport:
    def test_round_sphere_report_against_target(self):
        rep = ricci_report(warped_round_sphere(5), 10_000)
        assert rep.global_min == pytest.approx(4.0, abs=1e-9)

    def test_grid_skips_the_exclusion_zones(self):
        rep = ricci_report(warped_round_sphere(3), 100)
        assert rep.grid[0] == pytest.approx(1e-3)
        assert rep.grid[-1] == pytest.approx(math.pi - 1e-3)

    def test_deterministic_repeat(self):
        a = ricci_report(warped_round_sphere(3), 1000)
        b = ricci_report(warped_round_sphere(3), 1000)
        assert a.global_min == b.global_min
        assert a.extrema == b.extrema
        ts = a.grid
        for x, y in zip(_component_arrays(warped_round_sphere(3), ts),
                        _component_arrays(warped_round_sphere(3), ts)):
            assert np.array_equal(x, y)

    def test_evaluation_in_exclusion_zone_rejected(self):
        m = warped_round_sphere(3)
        with pytest.raises(SingularPointError):
            ricci_components(m, 5e-4)
        with pytest.raises(SingularPointError):
            ricci_generic(m, math.pi - 1e-4, 1e-5)

    def test_grid_size_validation(self):
        with pytest.raises(InputError):
            ricci_report(flat_cone(3), 1)


class TestVolume:
    def test_warped_three_sphere(self):
        m = MultiWarpedMetric(
            (0.0, math.pi),
            ((round_sphere_factor(2, 1.0), closed_form_profile("sine", (0.0, math.pi))),),
            collapse_left=0, collapse_right=0)
        assert volume(m) == pytest.approx(2 * math.pi ** 2, abs=1e-8)

    def test_product_volume(self):
        factor = abstract_factor("B", 3, (0.0, 0.0), volume=7.0)
        m = MultiWarpedMetric(
            (0.0, 2.0), ((factor, constant_profile((0.0, 2.0), 1.5)),))
        assert volume(m) == pytest.approx(2.0 * 1.5 ** 3 * 7.0, rel=1e-12)

    def test_collapsing_family_volume_grows_superlinearly(self):
        f, h, _ = sha_yang_profiles(2, 2, 20.0)
        sphere = round_sphere_factor(1, 1.0)
        M = round_sphere_factor(2, 1.0)
        v10 = volume(MultiWarpedMetric((0.0, 10.0), ((sphere, h), (M, f)),
                                       collapse_left=0))
        v20 = volume(MultiWarpedMetric((0.0, 20.0), ((sphere, h), (M, f)),
                                       collapse_left=0))
        assert v10 > 0.0
        assert v20 > 2.0 * v10

    def test_missing_volume_raises(self):
        factor = abstract_factor("B", 3, (0.0, 0.0))
        m = MultiWarpedMetric(
            (0.0, 2.0), ((factor, constant_profile((0.0, 2.0), 1.0)),))
        with pytest.raises(DataMissingError):
            volume(m)


class TestGlueCheck:
    def test_hemisphere_doubling(self):
        m = MultiWarpedMetric(
            (0.0, math.pi / 2),
            ((round_sphere_factor(3, 1.0),
              closed_form_profile("sine", (0.0, math.pi / 2))),),
            collapse_left=0)
        bd = boundary_data(m, "right")
        verdict = glue_check(bd, bd)
        assert verdict.isometry_gap <= 1e-9
        assert verdict.ii_sum_min == 0.0

    def test_neck_against_core_in_unit_frame(self):
        # normalized curvatures: core at 2 nu versus the neck's
        # -sqrt(2) nu cos(nu s); their sum stays positive
        from warpcheck.constructions import round_boundary
        nu, s = 0.1, 0.5
        inner = -math.sqrt(2) * nu * math.cos(nu * s)
        assert inner == pytest.approx(-0.1413, abs=1e-4)
        verdict = glue_check(round_boundary(4, 1.0, 2 * nu),
                             round_boundary(4, 1.0, inner))
        assert verdict.isometry_gap <= 1e-9
        assert verdict.ii_sum_min == pytest.approx(0.2 - 0.141245, abs=1e-4)

    def test_radius_mismatch_fails_isometry(self):
        from warpcheck.constructions import round_boundary
        verdict = glue_check(round_boundary(3, 1.0, 0.5),
                             round_boundary(3, 1.1, 0.5))
        assert not verdict.isometry_gap <= 1e-6

    def test_block_count_mismatch_is_verdict_not_error(self):
        from warpcheck.constructions import round_boundary
        b1 = round_boundary(3, 1.0, 0.5)
        bd = second_fundamental_form(flat_cone(4), 1.0, +1)
        two = boundary_data(MultiWarpedMetric(
            (0.5, 1.0),
            ((round_sphere_factor(2, 1.0), constant_profile((0.5, 1.0), 1.0)),
             (round_sphere_factor(3, 1.0), constant_profile((0.5, 1.0), 1.0)))),
            "right")
        verdict = glue_check(b1, two)
        assert verdict.isometry_gap == math.inf
        assert math.isnan(verdict.ii_sum_min)

    def test_dimension_mismatch_gap_is_inf(self):
        from warpcheck.constructions import round_boundary
        verdict = glue_check(round_boundary(2, 1.0, 0.5),
                             round_boundary(3, 1.0, 0.5))
        assert verdict.isometry_gap == math.inf

    def test_nan_radius_fails_against_glue_tol(self):
        # a NaN in the second block's radius must not be dropped by the
        # maximum over blocks, whichever position it takes
        from warpcheck.constructions import GLUE_TOL, round_boundary
        (block,) = round_boundary(3, 1.0, 0.5).blocks
        good = BoundaryData(blocks=(block, block))
        bad = BoundaryData(blocks=(block, block.replace(radius=math.nan)))
        for b1, b2 in ((good, bad), (bad, good)):
            assert not glue_check(b1, b2).isometry_gap <= GLUE_TOL

    @given(r=st.floats(0.2, 3.0), k1=st.floats(-2.0, 2.0), k2=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, r, k1, k2):
        from warpcheck.constructions import round_boundary
        a = round_boundary(3, r, k1)
        b = round_boundary(3, r, k2)
        va = glue_check(a, b)
        vb = glue_check(b, a)
        assert va.ii_sum_min == vb.ii_sum_min
        assert va.isometry_gap == vb.isometry_gap


def rescaled(metric, R):
    """The metric with distances divided by R: its interval divided by R,
    each profile t -> f(R t)/R, and the factors untouched. Its Ricci
    components at t are R^2 times the original ones at R t."""

    def scaled(p):
        return profile_from_callable(
            (p.t0 / R, p.t1 / R), lambda t: p.eval(R * t)[0] / R,
            lambda t: p.eval(R * t)[1], lambda t: R * p.eval(R * t)[2])

    t0, t1 = metric.interval
    return MultiWarpedMetric((t0 / R, t1 / R), tuple(
        (factor, scaled(p)) for factor, p in metric.blocks))


class TestRescale:
    def test_sha_yang_tangent_rescaling(self):
        f, h, _ = sha_yang_profiles(2, 2, 120.0)
        M = abstract_factor("M", 2, (1.0, 1.0))
        m = MultiWarpedMetric((0.0, 120.0),
                              ((round_sphere_factor(1, 1.0), h), (M, f)),
                              collapse_left=0)
        r = rescaled(m, 0.1)
        a = ricci_components(r, 10.0)
        b = ricci_components(m, 100.0)
        assert a.blocks[1] == pytest.approx(0.01 * b.blocks[1],
                                            rel=1e-9, abs=1e-9)

    def test_scaling_covariance_random(self):
        for m in random_block_metrics(5, seed=11):
            for R in (0.8, 1.7):
                r = rescaled(m, R)
                t = 1.1
                a = ricci_components(r, t / R)
                b = ricci_components(m, t)
                assert abs(a.ric_tt - R * R * b.ric_tt) <= 1e-9 * max(1, abs(b.ric_tt))
                for lo1, lo2 in zip(a.blocks, b.blocks):
                    assert abs(lo1 - R * R * lo2) <= 1e-9 * max(1, abs(lo2))


class TestBlockPermutation:
    def test_two_and_three_block_exact_invariance(self):
        for m in random_block_metrics(6, seed=5):
            if len(m.blocks) < 2:
                continue
            for perm in itertools.permutations(range(len(m.blocks))):
                pm = MultiWarpedMetric(m.interval,
                                       tuple(m.blocks[i] for i in perm))
                a = ricci_components(m, 1.0)
                b = ricci_components(pm, 1.0)
                assert a.ric_tt == b.ric_tt
                for i, j in enumerate(perm):
                    assert a.blocks[j] == b.blocks[i]
                ra = ricci_report(m, 200)
                rb = ricci_report(pm, 200)
                assert ra.global_min == rb.global_min


class TestMetricValidation:
    def test_profile_domain_must_cover_interval(self):
        p = closed_form_profile("sine", (0.0, math.pi / 2))
        with pytest.raises(InputError):
            MultiWarpedMetric((0.0, 3.0), ((round_sphere_factor(2, 1.0), p),))

    def test_collapse_index_must_vanish_with_odd_parity(self):
        p = constant_profile((0.0, 1.0), 1.0)
        with pytest.raises(InputError):
            MultiWarpedMetric((0.0, 1.0), ((round_sphere_factor(2, 1.0), p),),
                              collapse_left=0)

    def test_unit_slope_enforced_for_unit_sphere_block(self):
        # slope 2 at the cone point of a unit sphere block is not a smooth
        # closure
        p = cone_profile(1.0, slope=2.0)
        with pytest.raises(InputError):
            MultiWarpedMetric((0.0, 1.0), ((round_sphere_factor(2, 1.0), p),),
                              collapse_left=0)

    def test_total_dim(self):
        m = warped_round_sphere(4)
        assert m.total_dim == 4
