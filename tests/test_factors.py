import math
import re

import pytest
from hypothesis import given, strategies as st

from warpcheck.errors import InputError
from warpcheck.factors import (abstract_factor, round_sphere_factor,
                               scale_factor, unit_sphere_volume)


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
    assert vars(scale_factor(f, 1.0)) == vars(f)


def test_scale_matches_direct_round_sphere():
    assert vars(scale_factor(round_sphere_factor(2, 1.0), 2.0)) == \
        vars(round_sphere_factor(2, 2.0))


def test_scale_divides_curvature_by_square():
    y = abstract_factor("Y", 4, (-3.0, -3.0))
    scaled = scale_factor(y, math.sqrt(3.0))
    assert scaled.ricci_interval[0] == pytest.approx(-1.0, rel=1e-12)
    assert scaled.ricci_interval[1] == pytest.approx(-1.0, rel=1e-12)


def test_scale_rejects_nonpositive():
    with pytest.raises(InputError):
        scale_factor(round_sphere_factor(2, 1.0), 0.0)


@pytest.mark.parametrize("dim, c", [
    (2, 1e-300),  # c^2 underflows to 0
    (2, 1e300),   # c^2 overflows
    (5, 1e100),   # c^5 overflows
    (2, 1e154),   # c^2 is finite, volume * c^2 is not
])
def test_scale_rejects_out_of_range(dim, c):
    with pytest.raises(InputError, match="out of floating-point range"):
        scale_factor(round_sphere_factor(dim, 1.0), c)


@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0),
       dim=st.integers(1, 6), radius=st.floats(0.2, 5.0))
def test_scale_composition(a, b, dim, radius):
    f = round_sphere_factor(dim, radius)
    left = scale_factor(scale_factor(f, a), b)
    right = scale_factor(f, a * b)
    assert left.ricci_interval[0] == pytest.approx(right.ricci_interval[0],
                                                   rel=1e-12, abs=1e-300)
    assert left.volume == pytest.approx(right.volume, rel=1e-12)
    assert left.round_radius == pytest.approx(right.round_radius, rel=1e-12)


@given(dim=st.integers(1, 6), radius=st.floats(0.2, 5.0))
def test_round_sphere_factor_is_scaled_unit_sphere(dim, radius):
    direct = round_sphere_factor(dim, radius)
    scaled = scale_factor(round_sphere_factor(dim, 1.0), radius)
    assert direct.dim == scaled.dim
    assert direct.ricci_interval[0] == pytest.approx(scaled.ricci_interval[0],
                                                     rel=1e-12, abs=1e-300)
    assert direct.volume == pytest.approx(scaled.volume, rel=1e-12)
    scaled.replace()


def test_constructed_factors_revalidate():
    for f in (round_sphere_factor(4, 0.7), abstract_factor("A", 3, (-1.0, 2.0), 5.0)):
        f.replace()


def test_unit_sphere_volumes():
    assert unit_sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert unit_sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


def test_scale_names_a_scale_whose_ricci_interval_overflows():
    # c^2 = 1e-320 is subnormal, not 0, so only 1/c^2 overflows
    with pytest.raises(InputError, match=r"scale 1e-160 .*Ricci interval"):
        scale_factor(round_sphere_factor(2, 1.0), 1e-160)


def test_scale_names_a_scale_whose_volume_underflows():
    # c^2 = 1e-220 is normal, c^3 = 1e-330 underflows to 0
    with pytest.raises(InputError, match=r"scale 1e-110 .*volume factor c\^3"):
        scale_factor(round_sphere_factor(3, 1.0), 1e-110)


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
