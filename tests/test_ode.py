import numpy as np
import pytest

from conftest import reached
from warpcheck import kernels
from warpcheck.errors import InputError
from warpcheck.kernels import STATUS_TRUNCATED
from warpcheck.ode import integrate_ivp
from warpcheck.profiles import power_rhs, radial_floor_rhs


# f'' = 0 and the harmonic oscillator f'' = -f
def FREE(t, f, fp):
    return 0.0 * fp


def HARMONIC(t, f, fp):
    return -f


# the harmonic start of sin(t + 0.5), positive on [0, 2.5]
SINE_START = (np.sin(0.5), np.cos(0.5))


def test_trivial_linear_solution_is_exact():
    sol = integrate_ivp(FREE, 0.0, 5.0, 1.0, 2.0, 1e-10)
    t = np.linspace(0.0, 5.0, 777)
    f, fp, fpp = sol.eval(t)
    assert np.max(np.abs(f - (1.0 + 2.0 * t))) < 1e-13
    assert np.max(np.abs(fp - 2.0)) < 1e-13
    assert np.max(np.abs(fpp)) == 0.0


def test_harmonic_oscillator_matches_sine():
    sol = integrate_ivp(HARMONIC, 0.0, 2.5, *SINE_START, 1e-10)
    t = np.linspace(0.0, 2.5, 2001)
    f, fp, _ = sol.eval(t)
    assert np.max(np.abs(f - np.sin(t + 0.5))) < 1e-9
    assert np.max(np.abs(fp - np.cos(t + 0.5))) < 1e-9


def test_first_integral_of_power_rhs():
    # independent check of the integrator: f'' = (1/2) f^-2 conserves
    # f'^2 - (1 - 1/f) exactly along true solutions
    sol = integrate_ivp(power_rhs(0.5, -2.0), 0.0, 50.0, 1.0, 0.0, 1e-10)
    t = np.linspace(0.0, 50.0, 20001)
    f, fp, _ = sol.eval(t)
    assert np.max(np.abs(fp ** 2 - (1.0 - 1.0 / f))) <= 1e-8


def test_radial_floor_rhs_truncates_before_collapse():
    rhs = radial_floor_rhs(3.0)
    with pytest.raises(InputError, match="admissible region") as err:
        integrate_ivp(rhs, 0.0, 2.0, 1.0, 0.0, 1e-10)
    assert 0.0 < reached(err) < 2.0
    # the stepping loop's partial solution ends at the reached time and
    # stays above the positivity floor
    ts, fs, _, _, status, _ = kernels.rk45_callback(
        rhs, 0.0, 2.0, 1.0, 0.0, 1e-10, np.inf)
    assert status == STATUS_TRUNCATED and ts[-1] == reached(err)
    assert fs.min() >= 1e-4


def test_coded_and_callback_loops_agree_bitwise():
    # the expression of the former built-in linear form against a plain one
    a = integrate_ivp(lambda t, f, fp: 0.0 + -1.0 * f + 0.0 * fp, 0.0, 2.5,
                      *SINE_START, 1e-8)
    b = integrate_ivp(HARMONIC, 0.0, 2.5, *SINE_START, 1e-8)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.fs, b.fs)
    assert np.array_equal(a.fps, b.fps)


def test_second_derivative_recomputed_from_rhs():
    rhs = power_rhs(0.5, -2.0)
    sol = integrate_ivp(rhs, 0.0, 10.0, 1.0, 0.0, 1e-10)
    t = np.linspace(0.1, 9.9, 101)
    f, fp, fpp = sol.eval(t)
    assert np.array_equal(fpp, np.asarray(rhs(t, f, fp)))


def test_defect_scales_with_tolerance():
    loose = integrate_ivp(HARMONIC, 0.0, 2.5, *SINE_START, 1e-6)
    tight = integrate_ivp(HARMONIC, 0.0, 2.5, *SINE_START, 1e-10)
    assert tight.defect() < loose.defect()
    assert tight.t_end == 2.5


def test_domain_and_tolerance_validation():
    with pytest.raises(InputError):
        integrate_ivp(FREE, 1.0, 0.0, 1.0, 0.0, 1e-8)
    with pytest.raises(InputError):
        integrate_ivp(FREE, 0.0, 1.0, 1.0, 0.0, -1e-8)
    for tol in (np.inf, np.nan):
        with pytest.raises(InputError):
            integrate_ivp(FREE, 0.0, 1.0, 1.0, 0.0, tol)


@pytest.mark.parametrize("t0, t1, refused", [
    (0.0, 1e-11, True), (5.0, 5.0 + 4e-11, True),
    (0.0, 1.1e-11, False), (5.0, 5.0 + 6e-11, False),
])
def test_a_span_below_the_least_first_step_is_refused(t0, t1, refused):
    # exactly the spans on which the stepping loop stops before its first
    # step, with f never moved from its start
    ts, *_, status, _ = kernels.rk45_callback(FREE, t0, t1, 1.0, 0.0, 1e-8,
                                              np.inf)
    assert (ts.size == 1 and status == STATUS_TRUNCATED) == refused
    if not refused:
        assert integrate_ivp(FREE, t0, t1, 1.0, 0.0, 1e-8).t_end == t1
        return
    with pytest.raises(InputError, match=r"too short for the solver: its "
                       r"first step \S+ lies below its least step") as err:
        integrate_ivp(FREE, t0, t1, 1.0, 0.0, 1e-8)
    assert f"[{t0}, {t1}]" in str(err.value)


@pytest.mark.parametrize("f0", [0.0, 5e-5, -1.0, np.nan])
def test_a_start_below_the_positivity_floor_is_refused(f0):
    # no step lands below F_FLOOR, so neither may the start: there is no
    # start at a cone point
    with pytest.raises(InputError, match="F_FLOOR"):
        integrate_ivp(HARMONIC, 0.0, 1.0, f0, 1.0, 1e-8)
    sol = integrate_ivp(FREE, 0.0, 1.0, kernels.F_FLOOR, 1.0, 1e-8)
    assert sol.fs[0] == kernels.F_FLOOR and sol.t_end == 1.0


def test_error_norm_overflow_truncates_instead_of_raising():
    # at tol = 1e-300 the scaled local error overflows when squared; the
    # step is rejected like a non-finite one until the step size underflows
    with pytest.raises(InputError, match="admissible region"):
        integrate_ivp(radial_floor_rhs(1.0), 0.0, 5.0, 1.0, 0.0, 1e-300)


def test_step_budget_exhaustion_reports_reached_time(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_STEPS", 50)
    with pytest.raises(InputError, match="step budget") as err:
        integrate_ivp(HARMONIC, 0.0, 1000.0, *SINE_START, 1e-12)
    assert 0.0 < reached(err) < 1000.0


def test_unreachable_endpoint_is_rejected_before_stepping(monkeypatch):
    # every accepted step is at most h_max, so MAX_STEPS of them cannot
    # cover a longer interval; the right-hand side is never called
    calls = []

    def rhs(t, f, fp):
        calls.append(t)
        return 0.0

    monkeypatch.setattr(kernels, "MAX_STEPS", 399)
    with pytest.raises(InputError):
        integrate_ivp(rhs, 0.0, 100.0, 1.0, 0.0, 1e-8, h_max=0.25)
    assert calls == []
    # the bound is tight: f'' = 0 takes full h_max steps and just arrives
    monkeypatch.setattr(kernels, "MAX_STEPS", 400)
    sol = integrate_ivp(rhs, 0.0, 100.0, 1.0, 0.0, 1e-8, h_max=0.25)
    assert sol.t_end == 100.0 and len(sol.ts) - 1 == 400
