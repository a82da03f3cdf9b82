import math

import numpy as np
import pytest

from conftest import cone_profile, reached
from warpcheck import profiles
from warpcheck.errors import InputError, WarpcheckError
from warpcheck.profiles import (EXCLUSION_WIDTH, SOLVER_TOL,
                                closability_ode_profile, closed_form_profile,
                                collar_profile, docking_R_profile, k_profile,
                                neck_profile, parity_check, power_rhs,
                                profile_from_callable, radial_floor_rhs,
                                radial_floor_value, sha_yang_profiles,
                                solve_ivp_profile)


def finite_difference_residual(p, dt: float, n: int = 129) -> float:
    """Max |f'(t) - (f(t+dt) - f(t-dt))/(2 dt)| over an interior grid; the
    profile invariant requires this to be O(dt^2)."""
    t0, t1 = p.domain
    lo, hi = t0 + 2 * dt + EXCLUSION_WIDTH, t1 - 2 * dt - EXCLUSION_WIDTH
    if hi <= lo:
        lo, hi = t0 + 2 * dt, t1 - 2 * dt
    ts = np.linspace(lo, hi, n)
    f_hi = p.eval(ts + dt)[0]
    f_lo = p.eval(ts - dt)[0]
    fp = p.eval(ts)[1]
    return float(np.max(np.abs(fp - (f_hi - f_lo) / (2.0 * dt))))


class TestClosedForms:
    def test_sine_values(self):
        p = closed_form_profile("sine", (0.0, math.pi))
        f, fp, fpp = p.eval(math.pi / 2)
        assert f == pytest.approx(1.0, abs=1e-15)
        assert fp == pytest.approx(0.0, abs=1e-15)
        assert fpp == pytest.approx(-1.0, abs=1e-15)

    def test_flat_cone_profile(self):
        # the odd tag serves the cone point's window with the same bits
        p = cone_profile(5.0)
        t = np.linspace(0.0, 5.0, 11)
        f, fp, fpp = p.eval(t)
        assert np.array_equal(f, t)
        assert np.all(fp == 1.0)
        assert np.all(fpp == 0.0)

    def test_interior_positivity_enforced(self):
        with pytest.raises(InputError):
            closed_form_profile("sine", (0.0, 1.5 * math.pi))

    def test_a_span_past_one_half_wave_is_refused(self):
        # 4096 periods: a 4097-point sample lands on aliases of sin(1) alone,
        # yet f reaches -1 inside
        with pytest.raises(InputError, match="half-wave"):
            closed_form_profile("sine", (1.0, 1.0 + 4096 * 2 * math.pi))
        with pytest.raises(InputError, match="half-wave"):
            closed_form_profile("cosine", (0.0, 1.0), omega=3.2)
        # one half-wave, with its rounding, is accepted
        closed_form_profile("sine", (0.0, math.pi))
        closed_form_profile("cosine", (0.0, math.pi / 2))
        closed_form_profile("sine", (0.0, 1.0), omega=math.pi)

    def test_vanishing_endpoint_gets_odd_tag(self):
        p = closed_form_profile("sine", (0.0, math.pi))
        assert p.parity["left"].kind == "odd"
        assert p.parity["right"].kind == "odd"
        assert p.parity["left"].coeffs[0] == 1.0

    def test_critical_endpoint_gets_even_tag(self):
        p = closed_form_profile("cosine", (0.0, math.pi / 2))
        assert p.parity["left"].kind == "even"
        assert p.parity["right"].kind == "odd"

    @pytest.mark.parametrize("kind, domain, end, k", [
        # f, or f' for k = 1, is about 1e-13 times the other there: the
        # end was tagged, and served f = 0 (or f' = 0) by an expansion
        # centred on it
        ("sine", (0.5, math.pi - 1e-13), "right", 0),
        ("cosine", (0.0, math.pi / 2 - 1e-13), "right", 0),
        ("sine", (0.5, math.pi / 2 - 1e-13), "right", 1),
    ])
    def test_an_end_near_a_zero_or_critical_point_is_untagged(
            self, kind, domain, end, k):
        p = closed_form_profile(kind, domain)
        assert end not in p.parity
        t = domain[0] if end == "left" else domain[1]
        sign = 1.0 if kind == "sine" else -1.0
        exact = (math.sin(t) if kind == "sine" else math.cos(t),
                 sign * (math.cos(t) if kind == "sine" else math.sin(t)))
        assert p.eval(t)[k] == pytest.approx(exact[k], rel=1e-12)
        assert p.eval(t)[k] != 0.0

    def test_sine_just_off_its_zero_evaluates_its_formula(self):
        p = closed_form_profile("sine", (1e-13, 1.0))
        assert p.eval(1e-13) == (1e-13, 1.0, -1e-13)

    def test_the_phase_decides_past_the_first_half_wave(self):
        # k pi/2 with k even is a zero of the sine and a critical point of
        # the cosine; with k odd the other way round
        sine = closed_form_profile("sine", (2 * math.pi, 3 * math.pi))
        cosine = closed_form_profile("cosine", (1.5 * math.pi, 2 * math.pi))
        assert [sine.parity[e].kind for e in ("left", "right")] == \
            ["odd", "odd"]
        assert [cosine.parity[e].kind for e in ("left", "right")] == \
            ["odd", "even"]


class TestIvpProfiles:
    def test_cone_point_rejected_without_closure_mode(self):
        # an IVP profile starts from a positive value; no mode starts one at
        # a cone point
        with pytest.raises(InputError):
            solve_ivp_profile(lambda t, f, fp: -f, 0.0, 1.0, (0.0, 3.0))

    def test_linear_rhs_exact(self):
        p = solve_ivp_profile(lambda t, f, fp: 0.0 * fp, 1.0, 2.0, (0.0, 4.0))
        t = np.linspace(0.0, 4.0, 101)
        assert np.max(np.abs(p.eval(t)[0] - (1.0 + 2.0 * t))) < 1e-12

    def test_first_integral_residual_oracle(self):
        p = solve_ivp_profile(power_rhs(0.5, -2.0), 1.0, 0.0, (0.0, 50.0))
        t = np.linspace(0.0, 50.0, 8192)
        f, fp, _ = p.eval(t)
        assert np.max(np.abs(fp ** 2 - (1.0 - 1.0 / f))) <= 1e-8

    def test_truncation_raises_with_reached_time(self):
        with pytest.raises(InputError, match="admissible region") as err:
            solve_ivp_profile(radial_floor_rhs(3.0), 1.0, 0.0, (0.0, 2.0))
        assert reached(err) < 2.0


class TestShaYangProfiles:
    def test_alpha_examples(self):
        assert sha_yang_profiles(3, 4, 1.0)[2] == 1.0
        assert sha_yang_profiles(3, 2, 1.0)[2] == 2.0

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 5), (5, 3)])
    def test_h_initial_conditions(self, n, m):
        _, h, _ = sha_yang_profiles(n, m, 2.0)
        hv, hpv, _ = h.eval(0.0)
        assert hv == 0.0
        assert hpv == 1.0

    def test_parity_tags(self):
        f, h, _ = sha_yang_profiles(2, 3, 5.0)
        assert h.parity["left"].kind == "odd"
        assert f.parity["left"].kind == "even"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_first_integral_residual_all_pairs(self, n, m):
        f, h, alpha = sha_yang_profiles(n, m, 50.0)
        t = np.linspace(0.0, 50.0, 4096)
        fv, fpv, _ = f.eval(t)
        residual = np.max(np.abs(fpv ** 2 - (1.0 - fv ** -alpha)))
        assert residual <= 10.0 * SOLVER_TOL
        assert f.solver_meta["first_integral_residual"] <= 10.0 * SOLVER_TOL

    def test_monotonicity(self):
        f, _, _ = sha_yang_profiles(3, 3, 50.0)
        t = np.linspace(1e-6, 50.0, 4096)
        fv, fpv, fppv = f.eval(t)
        assert np.all(fppv > 0.0)
        assert np.all(fpv >= 0.0)
        assert np.all(fpv < 1.0)

    def test_input_validation(self):
        with pytest.raises(InputError):
            sha_yang_profiles(1, 2, 1.0)
        with pytest.raises(InputError):
            sha_yang_profiles(2, 2, -1.0)


class TestClosabilityProfile:
    def test_initial_curvature(self):
        for n in (3, 4, 5):
            p = closability_ode_profile(n, 0.2)
            assert p.eval(0.0)[2] == pytest.approx(-(n - 1), abs=1e-12)

    def test_floor_identity_everywhere(self):
        for n in (3, 4, 5):
            p = closability_ode_profile(n, 0.3 if n == 3 else 0.2)
            t = np.linspace(0.0, p.t1, 3000)
            assert np.max(np.abs(radial_floor_value(p, n, t) - 1.0)) <= 1e-6

    def test_truncation_reports_reached_domain(self):
        # the solution collapses before eps = 2: no profile on a shorter
        # domain is returned in its place
        with pytest.raises(InputError, match="admissible region") as err:
            closability_ode_profile(5, 2.0)
        assert 0.0 < reached(err) < 2.0
        assert "requested endpoint 2.0" in str(err.value)

    def test_even_at_origin(self):
        p = closability_ode_profile(4, 0.2)
        assert parity_check(p, "left", "even").passed


class TestNeckProfile:
    def test_outer_radius_is_one(self):
        p = neck_profile(0.1, 0.5)
        assert p.eval(p.t1)[0] == pytest.approx(1.0, abs=1e-14)

    def test_outer_principal_curvature(self):
        p = neck_profile(0.1, 0.5)
        f, fp, _ = p.eval(p.t1)
        assert fp / f == pytest.approx(0.1, abs=1e-14)

    def test_inner_normalized_curvature_closed_form(self):
        # closed form -sqrt(2) nu cos(nu s) evaluated numerically
        p = neck_profile(0.1, 0.5)
        assert -p.eval(0.5)[1] == pytest.approx(-0.1413, abs=1e-4)
        assert -p.eval(0.5)[1] == pytest.approx(
            -math.sqrt(2) * 0.1 * math.cos(0.05), abs=1e-15)

    def test_s_range_validation(self):
        with pytest.raises(InputError):
            neck_profile(0.1, 0.0)
        with pytest.raises(InputError):
            neck_profile(0.1, math.pi / 0.4)


class TestKProfile:
    def test_odd_start_with_unit_slope(self):
        k = k_profile(0.2)
        kv, kpv, kppv = k.eval(0.0)
        assert kv == 0.0
        assert kpv == 1.0
        assert kppv == 0.0

    def test_concave_on_interior(self):
        k = k_profile(0.2)
        t = np.linspace(0.0, 0.2, 66)[1:-1]
        assert np.all(k.eval(t)[2] < 0.0)

    def test_flat_at_right_end(self):
        k = k_profile(0.2)
        kv, kpv, kppv = k.eval(0.2)
        assert kv > 0.0
        assert abs(kpv) <= 1e-10
        assert abs(kppv) <= 1e-10

    def test_third_derivative_negative_at_origin(self):
        k = k_profile(0.5)
        delta = 1e-4
        kpp = k.raw_eval(np.array([delta]))[2][0]
        assert kpp / delta < 0.0


class TestCollarProfile:
    def test_boundary_slope_is_twice_c(self):
        p = collar_profile(0.05)
        f, fp, _ = p.eval(0.0)
        assert f == 1.0
        assert fp == pytest.approx(0.1, abs=1e-15)

    def test_constant_slope_beyond_ramp(self):
        p = collar_profile(0.05)
        assert p.eval(2.0)[1] == 0.05
        assert p.eval(1.3)[2] == 0.0

    def test_concave_on_ramp(self):
        p = collar_profile(0.2)
        t = np.linspace(0.0, 1.0, 50, endpoint=False)
        assert np.all(p.eval(t)[2] < 0.0)

    def test_c2_at_transition(self):
        p = collar_profile(0.1)
        h = 1e-5
        for t0 in (1.0 - 2 * h, 1.0, 1.0 + 2 * h):
            f_m, f_0, f_p = (p.eval(t0 + k * h)[0] for k in (-1, 0, 1))
            assert (f_p - 2 * f_0 + f_m) / h ** 2 == pytest.approx(
                p.eval(t0)[2], abs=1e-4)

    def test_c2_post_check_fires(self, monkeypatch):
        # an f'' off by c, the step's slope off by 1, must fail the
        # construction's own check, which reads the profile through eval
        evaluate = profiles.WarpProfile.eval

        def off_by_c(self, t, **kw):
            f, fp, fpp = evaluate(self, t, **kw)
            return f, fp, fpp - 0.1

        monkeypatch.setattr(profiles.WarpProfile, "eval", off_by_c)
        with pytest.raises(WarpcheckError, match="not C2") as err:
            collar_profile(0.1)
        assert type(err.value) is WarpcheckError  # not a refusal of input

    def test_validation(self):
        with pytest.raises(InputError):
            collar_profile(0.0)
        with pytest.raises(InputError):
            collar_profile(0.1, length=0.5)


class TestDockingR:
    def test_endpoint_conditions(self):
        R = docking_R_profile()
        assert R.eval(0.0)[1] == 1.0
        assert R.eval(math.pi / 2)[1] == 0.0

    def test_concavity(self):
        R = docking_R_profile()
        t = np.linspace(0.0, math.pi / 2, 50)[1:-1]
        assert np.all(R.eval(t)[2] < 0.0)


class TestParityCheck:
    def test_sine_odd_at_origin(self):
        p = closed_form_profile("sine", (0.0, math.pi))
        rep = parity_check(p, "left", "odd")
        assert rep.passed
        assert all(residual <= 1e-12 for _, residual, _, _ in rep.conditions)

    def test_sha_yang_h_odd_with_unit_slope(self):
        _, h, _ = sha_yang_profiles(2, 2, 2.0)
        rep = parity_check(h, "left", "odd", unit_slope=True)
        assert rep.passed
        assert dict((c[0], c[1]) for c in rep.conditions)["unit_slope"] == 0.0

    def test_linear_fails_even_with_unit_residual(self):
        p = profile_from_callable((0.0, 1.0), lambda t: 1.0 + t,
                                  lambda t: 1.0 + 0.0 * t, lambda t: 0.0 * t)
        rep = parity_check(p, "left", "even")
        assert not rep.passed
        assert rep.conditions[0][1] == pytest.approx(1.0, abs=1e-15)

    def test_argument_validation(self):
        p = closed_form_profile("sine", (0.0, math.pi))
        with pytest.raises(InputError):
            parity_check(p, "middle", "odd")
        with pytest.raises(InputError):
            parity_check(p, "left", "flat")


class TestDerivativeConsistency:
    @pytest.mark.parametrize("maker, dt", [
        (lambda: closed_form_profile("sine", (0.0, math.pi)), 1e-3),
        (lambda: sha_yang_profiles(2, 2, 20.0)[0], 1e-3),
        (lambda: sha_yang_profiles(3, 2, 20.0)[1], 1e-3),
        (lambda: k_profile(0.5), 1e-3),
        (lambda: collar_profile(0.1), 1e-3),
        (lambda: closability_ode_profile(4, 0.2), 1e-3),
    ], ids=["sine", "sha-f", "sha-h", "k", "collar", "radial-floor"])
    def test_halving_reduces_residual_fourfold(self, maker, dt):
        p = maker()
        r1 = finite_difference_residual(p, dt)
        r2 = finite_difference_residual(p, dt / 2)
        if r1 < 1e-12:  # exact-derivative profiles (linear pieces)
            assert r2 < 1e-12
        else:
            assert r1 / r2 >= 3.5

    def test_eval_outside_domain_rejected(self):
        p = closed_form_profile("sine", (0.0, math.pi))
        with pytest.raises(InputError):
            p.eval(3.5)

    @pytest.mark.parametrize("build", [collar_profile, k_profile],
                             ids=["collar", "k"])
    @pytest.mark.parametrize("t", [math.nan, [0.1, math.nan],
                                   [math.nan, 0.1], -math.inf, math.inf],
                             ids=["nan", "nan-last", "nan-first", "-inf",
                                  "inf"])
    def test_eval_at_a_non_finite_point_rejected(self, build, t):
        # nan compares false both ways, so it must fail the domain test
        # rather than slip past it: the collar gave finite f', f'' at nan
        with pytest.raises(InputError, match="outside profile domain"):
            build(0.2).eval(np.asarray(t))


def test_profile_from_callable_roundtrip():
    p = profile_from_callable((0.0, 2.0), lambda t: 1.0 + t * t,
                              lambda t: 2.0 * t, lambda t: 2.0 + 0.0 * t)
    f, fp, fpp = p.eval(np.array([0.5, 1.5]))
    assert np.array_equal(f, np.array([1.25, 3.25]))
    assert np.array_equal(fp, np.array([1.0, 3.0]))
