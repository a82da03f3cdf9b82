import math

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
