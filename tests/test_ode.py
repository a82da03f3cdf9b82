import numpy as np
import pytest

from warpcheck.errors import DomainTruncationError, InputError
from warpcheck.kernels import STATUS_OK
from warpcheck.ode import OdeRhs, integrate_ivp

# f'' = 0 and the harmonic oscillator f'' = -f
FREE = OdeRhs.from_callable(lambda t, f, fp: 0.0 * fp)
HARMONIC = OdeRhs.from_callable(lambda t, f, fp: -f)


def test_trivial_linear_solution_is_exact():
    sol = integrate_ivp(FREE, 0.0, 5.0, 1.0, 2.0, 1e-10)
    t = np.linspace(0.0, 5.0, 777)
    f, fp, fpp = sol.eval(t)
    assert np.max(np.abs(f - (1.0 + 2.0 * t))) < 1e-13
    assert np.max(np.abs(fp - 2.0)) < 1e-13
    assert np.max(np.abs(fpp)) == 0.0


def test_harmonic_oscillator_matches_sine():
    sol = integrate_ivp(HARMONIC, 0.0, 3.0, 0.0, 1.0, 1e-10)
    t = np.linspace(0.0, 3.0, 2001)
    f, fp, _ = sol.eval(t)
    assert np.max(np.abs(f - np.sin(t))) < 1e-9
    assert np.max(np.abs(fp - np.cos(t))) < 1e-9


def test_first_integral_of_power_rhs():
    # independent check of the integrator: f'' = (1/2) f^-2 conserves
    # f'^2 - (1 - 1/f) exactly along true solutions
    sol = integrate_ivp(OdeRhs.power(0.5, -2.0), 0.0, 50.0, 1.0, 0.0, 1e-10)
    t = np.linspace(0.0, 50.0, 20001)
    f, fp, _ = sol.eval(t)
    assert np.max(np.abs(fp ** 2 - (1.0 - 1.0 / f))) <= 1e-8


def test_radial_floor_rhs_truncates_before_collapse():
    with pytest.raises(DomainTruncationError) as err:
        integrate_ivp(OdeRhs.radial_floor(3.0), 0.0, 2.0, 1.0, 0.0, 1e-10)
    assert 0.0 < err.value.reached < 2.0
    assert err.value.solution is not None
    # the partial solution stays above the positivity floor
    assert err.value.solution.fs.min() >= 1e-4


def test_coded_and_callback_loops_agree_bitwise():
    # the expression of the former built-in linear form against a plain one
    a = integrate_ivp(OdeRhs.from_callable(
        lambda t, f, fp: 0.0 + -1.0 * f + 0.0 * fp), 0.0, 3.0, 0.0, 1.0, 1e-8)
    b = integrate_ivp(HARMONIC, 0.0, 3.0, 0.0, 1.0, 1e-8)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.fs, b.fs)
    assert np.array_equal(a.fps, b.fps)


def test_second_derivative_recomputed_from_rhs():
    rhs = OdeRhs.power(0.5, -2.0)
    sol = integrate_ivp(rhs, 0.0, 10.0, 1.0, 0.0, 1e-10)
    t = np.linspace(0.1, 9.9, 101)
    f, fp, fpp = sol.eval(t)
    assert np.array_equal(fpp, np.asarray(rhs(t, f, fp)))


def test_defect_scales_with_tolerance():
    loose = integrate_ivp(HARMONIC, 0.0, 3.0, 0.0, 1.0, 1e-6)
    tight = integrate_ivp(HARMONIC, 0.0, 3.0, 0.0, 1.0, 1e-10)
    assert tight.defect() < loose.defect()
    assert tight.status == STATUS_OK


def test_domain_and_tolerance_validation():
    with pytest.raises(InputError):
        integrate_ivp(FREE, 1.0, 0.0, 1.0, 0.0, 1e-8)
    with pytest.raises(InputError):
        integrate_ivp(FREE, 0.0, 1.0, 1.0, 0.0, -1e-8)
    for tol in (np.inf, np.nan):
        with pytest.raises(InputError):
            integrate_ivp(FREE, 0.0, 1.0, 1.0, 0.0, tol)


def test_error_norm_overflow_truncates_instead_of_raising():
    # at tol = 1e-300 the scaled local error overflows when squared; the
    # step is rejected like a non-finite one until the step size underflows
    with pytest.raises(DomainTruncationError):
        integrate_ivp(OdeRhs.radial_floor(1.0), 0.0, 5.0, 1.0, 0.0, 1e-300)


def test_step_budget_exhaustion_reports_reached_time():
    with pytest.raises(DomainTruncationError) as err:
        integrate_ivp(HARMONIC, 0.0, 1000.0, 0.0, 1.0, 1e-12,
                      max_steps=50)
    assert 0.0 < err.value.reached < 1000.0


def test_unreachable_endpoint_is_rejected_before_stepping():
    # every accepted step is at most h_max, so max_steps of them cannot
    # cover a longer interval; the right-hand side is never called
    calls = []

    def rhs(t, f, fp):
        calls.append(t)
        return 0.0

    with pytest.raises(InputError):
        integrate_ivp(OdeRhs.from_callable(rhs), 0.0, 100.0, 1.0, 0.0, 1e-8,
                      h_max=0.25, max_steps=399)
    assert calls == []
    # the bound is tight: f'' = 0 takes full h_max steps and just arrives
    sol = integrate_ivp(OdeRhs.from_callable(rhs), 0.0, 100.0, 1.0, 0.0, 1e-8,
                        h_max=0.25, max_steps=400)
    assert sol.status == STATUS_OK and len(sol.ts) - 1 == 400


def test_labels_format_arguments_as_passed():
    # labels go into solver metadata, hence into reports
    assert OdeRhs.power(0.5, -2).label == "power(0.5, -2)"
    assert OdeRhs.radial_floor(3).label == "radial_floor(3)"
    assert OdeRhs.from_callable(lambda t, f, fp: f).label == "callable"
