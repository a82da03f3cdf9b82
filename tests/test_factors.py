import math
import re

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from warpcheck.errors import InputError
from warpcheck.factors import (abstract_factor, round_sphere_factor,
                               scaled_ricci, unit_sphere_volume)


def test_unit_round_three_sphere_constants():
    f = round_sphere_factor(3, 1.0)
    assert f.ricci_interval == (2.0, 2.0)
    assert f.volume == pytest.approx(2 * math.pi ** 2, rel=1e-14)
    assert f.round_radius == 1.0


def test_circle():
    f = round_sphere_factor(1, 1.0)
    assert f.ricci_interval == (0.0, 0.0)
    assert f.volume == pytest.approx(2 * math.pi, rel=1e-14)


def test_curvature_and_volume_scaling_of_round_two_sphere():
    f = round_sphere_factor(2, 2.0)
    assert f.ricci_interval == (0.25, 0.25)
    assert f.volume == pytest.approx(16 * math.pi, rel=1e-14)


@pytest.mark.parametrize("dim,radius", [(0, 1.0), (3, 0.0), (3, -2.0)])
def test_round_sphere_input_errors(dim, radius):
    with pytest.raises(InputError):
        round_sphere_factor(dim, radius)


@pytest.mark.parametrize("dim, radius", [
    (2, math.inf),  # Ricci 0 and volume inf
    (2, 1e-200),    # radius^2 underflows to 0
    (2, 1e-160),    # radius^2 is subnormal, 1/radius^2 overflows
    (3, 1e-110),    # radius^3 underflows, so the volume is 0
    (16, 1e-20),    # the volume, 2.3967e-320, is subnormal
    (2, 1e200),     # radius^2 overflows
])
def test_round_sphere_rejects_a_radius_out_of_range(dim, radius):
    with pytest.raises(InputError, match=re.escape(
            f"radius {radius} is out of floating-point range")):
        round_sphere_factor(dim, radius)


def test_abstract_factor_hyperbolic_floor():
    y = abstract_factor("Y", 4, (-3.0, -3.0))
    assert y.ricci_lower == -3.0
    assert y.round_radius is None


def test_abstract_factor_einstein_surface():
    m = abstract_factor("M", 2, (1.0, 1.0))
    assert m.ricci_interval[0] == m.ricci_interval[1]


def test_one_dimensional_factors_are_ricci_flat():
    with pytest.raises(InputError):
        abstract_factor("Z", 1, (1.0, 1.0))


def test_interval_must_be_ordered():
    with pytest.raises(InputError):
        abstract_factor("X", 3, (2.0, 1.0))


def test_scale_identity():
    f = round_sphere_factor(3, 1.5)
    assert scaled_ricci(f.ricci_interval, 1.0) == f.ricci_interval


def test_scale_matches_direct_round_sphere():
    assert scaled_ricci(round_sphere_factor(2, 1.0).ricci_interval, 2.0) == \
        round_sphere_factor(2, 2.0).ricci_interval


def test_scale_divides_curvature_by_square():
    y = abstract_factor("Y", 4, (-3.0, -3.0))
    lo, hi = scaled_ricci(y.ricci_interval, math.sqrt(3.0))
    assert lo == pytest.approx(-1.0, rel=1e-12)
    assert hi == pytest.approx(-1.0, rel=1e-12)


def test_scale_rejects_nonpositive():
    with pytest.raises(InputError):
        scaled_ricci(round_sphere_factor(2, 1.0).ricci_interval, 0.0)


@pytest.mark.parametrize("dim, c", [
    (2, 1e-300),  # c^2 underflows to 0
    (2, 1e300),   # c^2 overflows
])
def test_scale_rejects_out_of_range(dim, c):
    with pytest.raises(InputError, match=re.escape(
            f"scale {c} is out of floating-point range")):
        scaled_ricci(round_sphere_factor(dim, 1.0).ricci_interval, c)


@pytest.mark.parametrize("dim, c", [
    (5, 1e100),   # c^5 overflows
    (2, 1e154),   # c^2 is finite, vol(S^2) * c^2 is not
    (16, 1e-20),  # vol(S^16) * c^16 is subnormal
])
def test_scale_reads_no_volume(dim, c):
    # the Ricci interval stays in range, whatever a scaled volume would do
    rho = dim - 1.0
    assert scaled_ricci(round_sphere_factor(dim, 1.0).ricci_interval, c) == \
        (rho / c ** 2, rho / c ** 2)


def test_scale_keeps_a_flat_interval_under_a_subnormal_square():
    # c^2 = 1e-320 is subnormal; 0/c^2 = 0 stays finite
    assert scaled_ricci((0.0, 0.0), 1e-160) == (0.0, 0.0)


def test_nan_scale_gives_a_nan_interval():
    # a NaN radius must fail the comparison it enters, not be refused
    assert all(map(math.isnan, scaled_ricci((1.0, 1.0), math.nan)))


@given(dim=st.integers(1, 6), radius=st.floats(0.2, 5.0))
def test_round_sphere_factor_is_scaled_unit_sphere(dim, radius):
    direct = round_sphere_factor(dim, radius)
    unit = round_sphere_factor(dim, 1.0)
    lo, hi = scaled_ricci(unit.ricci_interval, radius)
    assert direct.ricci_interval[0] == pytest.approx(lo, rel=1e-12,
                                                     abs=1e-300)
    assert direct.ricci_interval[1] == pytest.approx(hi, rel=1e-12,
                                                     abs=1e-300)


def test_constructed_factors_revalidate():
    for f in (round_sphere_factor(4, 0.7), abstract_factor("A", 3, (-1.0, 2.0), 5.0)):
        f.replace()


def test_unit_sphere_volumes():
    assert unit_sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert unit_sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


def test_unit_sphere_volume_keeps_the_direct_formula_while_gamma_is_finite():
    d = 342  # the last d whose Gamma((d + 1)/2) is finite
    direct = 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    assert unit_sphere_volume(d).hex() == direct.hex()


@pytest.mark.parametrize("dim", [343, 400, 437])
def test_unit_sphere_volume_is_computed_in_logs_past_gamma_overflow(dim):
    # Gamma((dim + 1)/2) overflows, the volume is a normal float (was an
    # InputError saying the volume overflows)
    with mp.workdps(40):
        exact = 2 * mp.pi ** (mpf(dim + 1) / 2) / mp.gamma(mpf(dim + 1) / 2)
        assert abs(unit_sphere_volume(dim) / exact - 1) <= 1e-12


@pytest.mark.parametrize("dim", [438, 10 ** 6])
def test_unit_sphere_volume_below_the_least_normal_float_is_refused(dim):
    with pytest.raises(InputError, match=f"unit {dim}-sphere underflows"):
        unit_sphere_volume(dim)


def test_scale_names_a_scale_whose_ricci_interval_overflows():
    # c^2 = 1e-320 is subnormal, not 0, so only 1/c^2 overflows
    with pytest.raises(InputError, match=r"scale 1e-160 .*Ricci interval"):
        scaled_ricci(round_sphere_factor(2, 1.0).ricci_interval, 1e-160)


def test_bishop_gromov_refuses_more_volume_than_the_round_model():
    # K = 1.5 on a closed surface allows an area of at most 4 pi/1.5 = 8 pi/3
    with pytest.raises(InputError, match="Bishop-Gromov bound") as err:
        abstract_factor("X", 2, (1.5, 1.5), volume=unit_sphere_volume(2))
    assert repr(8.0 * math.pi / 3.0)[:12] in str(err.value)
    assert abstract_factor("X", 2, (1.5, 1.5),
                           volume=8.0 * math.pi / 3.0).volume > 0


@pytest.mark.parametrize("dim", range(2, 13))
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_round_spheres_meet_the_bishop_gromov_bound(dim, radius):
    # the equality case, both as a round sphere and as abstract data
    f = round_sphere_factor(dim, radius)
    abstract_factor("X", dim, f.ricci_interval, volume=f.volume)


def test_bishop_gromov_cap_is_finite_where_its_factors_overflow():
    # vol(S^400) is about 1.7e-274 while Gamma(200.5) and (399/11)^200
    # overflow; the cap itself is about 1.4e38
    abstract_factor("X", 400, (11.0, 11.0), volume=1e38)
    with pytest.raises(InputError, match="Bishop-Gromov bound"):
        abstract_factor("X", 400, (11.0, 11.0), volume=1e39)
    # a negligible Ricci floor caps nothing that a float holds
    abstract_factor("X", 400, (1e-300, 1e-300), volume=1e300)
