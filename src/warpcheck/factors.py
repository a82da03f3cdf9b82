"""Closed factor manifolds, reduced to the data curvature bounds consume.

A factor enters every formula in this package only through its dimension, the
interval of its Ricci curvature on unit vectors, and (for volume checks) its
total volume. Nothing else about the manifold is represented.
"""
from __future__ import annotations

import math
import sys
from typing import Optional

from .errors import InputError
from .records import Record

_REL = 1e-12


def log_unit_sphere_volume(dim: int) -> float:
    """log vol(S^dim), finite where Gamma((dim + 1)/2) overflows."""
    return (math.log(2.0) + (dim + 1) / 2.0 * math.log(math.pi)
            - math.lgamma((dim + 1) / 2.0))


# the largest dim whose vol(S^dim) is a normal float; it only falls past 6
SPHERE_DIM_MAX = next(d for d in range(343, 1000) if math.exp(
    log_unit_sphere_volume(d + 1)) < sys.float_info.min)


def unit_sphere_volume(dim: int) -> float:
    """Volume of the round unit sphere S^dim, from its log where Gamma
    overflows (dim >= 343); an InputError past ``SPHERE_DIM_MAX``."""
    if dim < 343:
        return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)
    if dim > SPHERE_DIM_MAX:
        raise InputError(f"the volume of the unit {dim}-sphere underflows")
    return math.exp(log_unit_sphere_volume(dim))


def bishop_gromov(d: int, lo: float, volume: float) -> None:
    """Refuse a volume above vol(S^d) * ((d - 1)/lo)^(d/2), the round
    sphere's, which caps a closed d-manifold (d >= 2) with Ricci >= lo > 0;
    compared in logs, so that no factor of the cap overflows."""
    log_cap = (log_unit_sphere_volume(d)
               + d / 2.0 * (math.log(d - 1) - math.log(lo)))
    if math.log(volume) > log_cap + math.log1p(_REL):
        raise InputError(
            f"volume {volume} exceeds the Bishop-Gromov bound "
            f"vol(S^{d}) * ((d - 1)/{lo})^(d/2) = {math.exp(log_cap)} "
            f"of a closed {d}-manifold with Ricci >= {lo}")


class FactorManifold(Record):
    """A closed manifold known only through curvature and volume data.

    ``ricci_interval`` bounds Ric(v, v) over unit vectors v. ``round_radius``
    is set only when the factor is a round sphere of that radius, which pins
    the interval and volume exactly.
    """

    name: str
    dim: int
    ricci_interval: tuple[float, float]
    volume: Optional[float] = None
    round_radius: Optional[float] = None

    def __post_init__(self):
        if not (isinstance(self.dim, int) and not isinstance(self.dim, bool)):
            raise InputError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise InputError(f"dim must be >= 1, got {self.dim}")
        lo, hi = self.ricci_interval
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError("ricci_interval must be finite")
        if lo > hi:
            raise InputError(f"ricci_interval out of order: [{lo}, {hi}]")
        if self.dim == 1 and (lo != 0.0 or hi != 0.0):
            raise InputError("1-dimensional factors are Ricci-flat; interval must be [0, 0]")
        if self.volume is not None and not self.volume > 0:
            raise InputError(f"volume must be positive, got {self.volume}")
        if self.round_radius is not None:
            r = self.round_radius
            if not r > 0:
                raise InputError(f"round_radius must be positive, got {r}")
            rho = (self.dim - 1) / r ** 2
            tol = _REL * max(1.0, abs(rho))
            if abs(lo - rho) > tol or abs(hi - rho) > tol:
                raise InputError(
                    f"round sphere of radius {r} must have Ricci constant {rho}, "
                    f"got [{lo}, {hi}]")
            vol = unit_sphere_volume(self.dim) * r ** self.dim
            if self.volume is None or abs(self.volume - vol) > _REL * vol:
                raise InputError(
                    f"round sphere of radius {r} must have volume {vol}, got {self.volume}")
        elif self.volume is not None and self.dim >= 2 and lo > 0:
            # the round branch above pins a sphere's volume to this cap
            bishop_gromov(self.dim, lo, self.volume)

    @property
    def ricci_lower(self) -> float:
        return self.ricci_interval[0]


def round_sphere_factor(dim: int, radius: float) -> FactorManifold:
    """Round sphere S^dim of the given radius."""
    if not (isinstance(dim, int) and not isinstance(dim, bool)) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    if not radius > 0:
        raise InputError(f"radius must be positive, got {radius}")
    try:
        rho = (dim - 1) / radius ** 2
        volume = unit_sphere_volume(dim) * radius ** dim
    except (OverflowError, ZeroDivisionError):
        rho = volume = math.inf
    # a subnormal volume keeps too few bits to be compared
    if not (math.isfinite(rho) and sys.float_info.min <= volume < math.inf):
        raise InputError(f"radius {radius} is out of floating-point range: "
                         "its curvature or volume is not a positive normal "
                         "float")
    return FactorManifold(
        name=f"S{dim}",
        dim=dim,
        ricci_interval=(rho, rho),
        volume=volume,
        round_radius=radius,
    )


def abstract_factor(name: str, dim: int, ricci_interval: tuple[float, float],
                    volume: Optional[float] = None) -> FactorManifold:
    """A factor certified externally: only its curvature interval is trusted."""
    return FactorManifold(name=name, dim=dim,
                          ricci_interval=(float(ricci_interval[0]), float(ricci_interval[1])),
                          volume=volume)


def scaled_ricci(interval: tuple[float, float],
                 c: float) -> tuple[float, float]:
    """A factor's Ricci ``interval`` with its metric g replaced by c^2 g:
    Ricci values on unit vectors scale by 1/c^2. A NaN c gives a NaN
    interval, which fails whatever compares it."""
    lo, hi = interval
    try:
        c2 = c ** 2
        ricci = (lo / c2, hi / c2)
    except (OverflowError, ZeroDivisionError):  # c^2 overflows or is 0
        c2 = math.inf
    # a subnormal c^2 overflows the divisions unless the interval is flat
    if c2 == math.inf or any(map(math.isinf, ricci)):
        raise InputError(f"scale {c} is out of floating-point range: the "
                         f"scaled Ricci interval [{lo}, {hi}]/c^2 is not "
                         "finite")
    return ricci
