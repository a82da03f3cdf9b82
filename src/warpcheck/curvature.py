"""Ricci curvature, boundary geometry, and gluing checks for multiply warped
product metrics dt^2 + sum_i f_i(t)^2 g_i.

Two independent evaluation paths are provided. ``ricci_components`` uses the
warped-product formulas

    Ric(dt, dt)          = - sum_i n_i f_i''/f_i
    Ric(v/f_i, v/f_i)    = - f_i''/f_i + (Ric_i(v,v) - (n_i - 1) f_i'^2)/f_i^2
                           - sum_{j != i} n_j f_i' f_j' / (f_i f_j)

with all mixed components zero, while ``ricci_generic`` specializes the
general cylinder-metric formulas (traces and norms of h_t' and h_t'' for
h_t = sum f_i^2 g_i) with derivatives taken by central finite differences of
f_i^2 alone. Factor Ricci curvatures enter only linearly through Ric_i, so a
factor's eigenvalue interval propagates to exact per-block component
intervals.

Block sums are accumulated in ascending order of the summands, making every
result exactly invariant under block permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataMissingError, InputError, SingularPointError
from .factors import FactorManifold, scale_factor
from .profiles import (EXCLUSION_WIDTH, WarpProfile, parity_check,
                       scale_profile)
from .quadrature import adaptive_quad


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in ascending value order: permutation-invariant.

    One or two rows need no sort: IEEE addition is commutative, so
    ``a + b`` has the bits of ``min + max``. Three or more rows are sorted,
    because a longer sum depends on the order it is accumulated in.
    """
    if rows.shape[0] == 1:
        return rows[0].copy()
    if rows.shape[0] == 2:
        return rows[0] + rows[1]
    ordered = np.sort(rows, axis=0)
    total = ordered[0].copy()
    for i in range(1, ordered.shape[0]):
        total += ordered[i]
    return total


@dataclass(frozen=True, eq=False)
class MultiWarpedMetric:
    """dt^2 + sum_i f_i(t)^2 g_i over an interval.

    ``collapse_left``/``collapse_right`` mark smooth-closure endpoints: there
    exactly one block's profile must vanish with odd parity (unit slope when
    the block is a unit sphere or 1-dimensional), which is verified at
    construction. Curvature grids exclude a width-EXCLUSION_WIDTH zone around
    such endpoints.
    """

    interval: tuple[float, float]
    blocks: tuple[tuple[FactorManifold, WarpProfile], ...]
    collapse_left: Optional[int] = None
    collapse_right: Optional[int] = None

    def __post_init__(self):
        t0, t1 = self.interval
        if not t1 > t0:
            raise InputError(f"empty metric interval [{t0}, {t1}]")
        if not self.blocks:
            raise InputError("metric needs at least one block")
        slack = 1e-9 * (t1 - t0) + 1e-12
        for factor, profile in self.blocks:
            p0, p1 = profile.domain
            if p0 > t0 + slack or p1 < t1 - slack:
                raise InputError(
                    f"profile domain [{p0}, {p1}] does not cover the metric "
                    f"interval [{t0}, {t1}]")
        for idx, endpoint, tstar in ((self.collapse_left, "left", t0),
                                     (self.collapse_right, "right", t1)):
            if idx is None:
                continue
            if not 0 <= idx < len(self.blocks):
                raise InputError(f"collapse index {idx} out of range")
            factor, profile = self.blocks[idx]
            unit = factor.round_radius == 1.0 or factor.dim == 1
            report = parity_check(profile, endpoint, "odd", 2, unit_slope=unit)
            if not report.passed:
                raise InputError(
                    f"block {idx} does not close smoothly at the {endpoint} "
                    f"endpoint: {report.conditions}")
            for j, (_, other) in enumerate(self.blocks):
                if j != idx and not other.eval(tstar)[0] > 0:
                    raise InputError(
                        f"block {j} must stay positive at the {endpoint} endpoint")

    @property
    def total_dim(self) -> int:
        return 1 + sum(factor.dim for factor, _ in self.blocks)

    def grid_bounds(self) -> tuple[float, float]:
        """Metric interval minus the closure exclusion zones."""
        t0, t1 = self.interval
        lo = t0 + EXCLUSION_WIDTH if self.collapse_left is not None else t0
        hi = t1 - EXCLUSION_WIDTH if self.collapse_right is not None else t1
        if not hi > lo:
            raise InputError("interval shorter than its exclusion zones")
        return lo, hi

    def _check_regular(self, t: float) -> None:
        t0, t1 = self.interval
        if not (t0 - 1e-12 <= t <= t1 + 1e-12):
            raise InputError(f"t = {t} outside metric interval [{t0}, {t1}]")
        if self.collapse_left is not None and t < t0 + EXCLUSION_WIDTH:
            raise SingularPointError(
                f"t = {t} lies in the exclusion zone of the collapsing left endpoint")
        if self.collapse_right is not None and t > t1 - EXCLUSION_WIDTH:
            raise SingularPointError(
                f"t = {t} lies in the exclusion zone of the collapsing right endpoint")


@dataclass(frozen=True)
class RicciComponents:
    """Ricci values at one t: the dt-dt component and, per block, the exact
    interval of Ric(v/f_i, v/f_i) induced by the factor's eigenvalue
    interval. Mixed components vanish identically for block-diagonal warps."""

    t: float
    ric_tt: float
    blocks: tuple  # ((lo, hi), ...)
    mixed_zero: bool = True

    @property
    def minimum(self) -> float:
        return min(self.ric_tt, min(lo for lo, _ in self.blocks))


def _component_arrays(metric: MultiWarpedMetric, ts: np.ndarray):
    """Vectorized warped-product Ricci over a grid; returns (tt, lo, hi)."""
    nb = len(metric.blocks)
    nt = len(ts)
    f = np.empty((nb, nt))
    fp = np.empty((nb, nt))
    fpp = np.empty((nb, nt))
    dims = np.empty((nb, 1))
    rho_lo = np.empty((nb, 1))
    rho_hi = np.empty((nb, 1))
    for i, (factor, profile) in enumerate(metric.blocks):
        f[i], fp[i], fpp[i] = profile.eval(ts)
        dims[i] = factor.dim
        rho_lo[i], rho_hi[i] = factor.ricci_interval

    phi = fp / f
    ric_tt = -_ordered_sum(dims * fpp / f)
    s_cross = _ordered_sum(dims * phi)

    base = -fpp / f - (dims - 1.0) * fp ** 2 / f ** 2 \
        - phi * (s_cross[None, :] - dims * phi)
    lo = base + rho_lo / f ** 2
    hi = base + rho_hi / f ** 2
    return ric_tt, lo, hi


def ricci_components(metric: MultiWarpedMetric, t: float) -> RicciComponents:
    """Ricci components at t from the closed warped-product formulas."""
    metric._check_regular(t)
    ts = np.array([float(t)])
    ric_tt, lo, hi = _component_arrays(metric, ts)
    return RicciComponents(
        t=float(t), ric_tt=float(ric_tt[0]),
        blocks=tuple((float(lo[i, 0]), float(hi[i, 0]))
                     for i in range(len(metric.blocks))))


def ricci_generic(metric: MultiWarpedMetric, t: float, dt: float) -> RicciComponents:
    """Independent oracle: the same components from the general cylinder
    formulas, with h_t-derivatives taken by central finite differences of the
    squared profiles. Shares no derivative data with ``ricci_components``."""
    metric._check_regular(t)
    if not dt > 0:
        raise InputError("dt must be positive")
    tt = float(t)
    lo_list = []
    hi_list = []
    phis = []
    psis = []
    dims = []
    for factor, profile in metric.blocks:
        a_m = profile.eval(tt - dt)[0] ** 2
        a_0 = profile.eval(tt)[0] ** 2
        a_p = profile.eval(tt + dt)[0] ** 2
        phis.append(((a_p - a_m) / (2.0 * dt)) / a_0)
        psis.append(((a_p - 2.0 * a_0 + a_m) / dt ** 2) / a_0)
        dims.append(float(factor.dim))

    phis = np.array(phis)
    psis = np.array(psis)
    dims_a = np.array(dims)
    tr_hp = float(_ordered_sum((dims_a * phis)[:, None])[0])
    tr_hpp = float(_ordered_sum((dims_a * psis)[:, None])[0])
    norm_hp = float(_ordered_sum((dims_a * phis ** 2)[:, None])[0])
    ric_tt = -0.5 * tr_hpp + 0.25 * norm_hp

    for i, (factor, profile) in enumerate(metric.blocks):
        a_0 = profile.eval(tt)[0] ** 2
        base = -0.5 * psis[i] + 0.5 * phis[i] ** 2 - 0.25 * phis[i] * tr_hp
        rlo, rhi = factor.ricci_interval
        lo_list.append(base + rlo / a_0)
        hi_list.append(base + rhi / a_0)

    return RicciComponents(t=tt, ric_tt=ric_tt,
                           blocks=tuple(zip(map(float, lo_list),
                                            map(float, hi_list))))


@dataclass(frozen=True)
class BoundaryBlock:
    """Per-factor boundary data of a slice: radius f_i, principal curvature
    kappa_i = sign * f_i'/f_i, its radius-normalized form sign * f_i', and
    the induced (scaled) factor metric."""

    radius: float
    kappa: float
    kappa_normalized: float
    factor: FactorManifold
    induced: FactorManifold


@dataclass(frozen=True)
class BoundaryData:
    """Geometry of a slice {t} with a chosen outward normal direction."""

    t: float
    orientation: int
    blocks: tuple


def second_fundamental_form(metric: MultiWarpedMetric, t: float,
                            orientation: int) -> BoundaryData:
    """Boundary data of the slice {t} x prod M_i.

    The slice is umbilic blockwise: II(v_i/f_i, v_j/f_j) = (f_i'/f_i) d_ij
    with respect to +dt; ``orientation`` flips the normal. Collapsed slices
    have no boundary data (SingularPointError).
    """
    if orientation not in (1, -1):
        raise InputError("orientation must be +1 or -1")
    metric._check_regular(t)
    blocks = []
    for factor, profile in metric.blocks:
        f, fp, _ = profile.eval(float(t))
        kappa = orientation * fp / f + 0.0
        blocks.append(BoundaryBlock(
            radius=float(f), kappa=float(kappa),
            kappa_normalized=float(orientation * fp + 0.0),
            factor=factor, induced=scale_factor(factor, float(f))))
    return BoundaryData(t=float(t), orientation=orientation, blocks=tuple(blocks))


def boundary_data(metric: MultiWarpedMetric, side: str) -> BoundaryData:
    """Boundary data at an endpoint with the outward normal of the manifold:
    -dt at the left endpoint, +dt at the right."""
    if side == "left":
        return second_fundamental_form(metric, metric.interval[0], -1)
    if side == "right":
        return second_fundamental_form(metric, metric.interval[1], +1)
    raise InputError("side must be 'left' or 'right'")


# points per block of the Ricci sweep; a multiple of 4 (see _sweep_bounds)
_SWEEP_BLOCK = 1 << 14


def _sweep_bounds(n: int) -> list[tuple[int, int]]:
    """(start, end) of each block of an n-point sweep.

    The blocks give the same bits as one sweep over all n points. Every
    component is elementwise except the ``CumulativeIntegral`` of k and
    collar profiles, a BLAS matrix-vector product that takes rows four at a
    time and rounds the n mod 4 leftover rows its own way; a single row is
    rounded differently again. So every block but the last has
    ``_SWEEP_BLOCK`` points, a multiple of 4, and a last block shorter than
    4 points is merged into the one before it.
    """
    bounds = [(s, min(s + _SWEEP_BLOCK, n)) for s in range(0, n, _SWEEP_BLOCK)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < 4:
        bounds[-2:] = [(bounds[-2][0], n)]
    return bounds


@dataclass(frozen=True)
class RicciReport:
    """Gridwise Ricci bounds with a deterministic global minimum.

    ``extrema`` holds the minimum and maximum over the grid of Ric(dt, dt)
    and of the per-block lower and upper components, over all blocks.
    """

    grid: np.ndarray
    extrema: tuple  # ((tt_min, tt_max), (lo_min, lo_max), (hi_min, hi_max))
    global_min: float
    lam: Optional[float]
    slack: float
    verdict: Optional[bool]
    excluded_zones: tuple

    def summary(self) -> dict:
        out = {
            "grid_size": int(len(self.grid)),
            "grid_start": float(self.grid[0]),
            "grid_end": float(self.grid[-1]),
            "global_min": self.global_min,
            "excluded_zones": [list(z) for z in self.excluded_zones],
        }
        if self.lam is not None:
            out.update({"lambda": self.lam, "slack": self.slack,
                        "verdict": bool(self.verdict)})
        return out


def ricci_report(metric: MultiWarpedMetric, grid_size: int,
                 lam: Optional[float] = None, *,
                 slack_factor: float = 1e-8) -> RicciReport:
    """Sweep Ricci components over a uniform grid (closure zones excluded)
    and compare the global minimum against a lower-bound target.

    The verdict allows ``slack_factor * max(1, |lam|)`` below lam to absorb
    solver tolerance; the slack used is recorded in the report.

    The grid is swept in the blocks of ``_sweep_bounds``, keeping only each
    component's minimum and maximum, so memory beyond the grid itself does
    not grow with its size.
    """
    if grid_size < 2:
        raise InputError("grid_size must be at least 2")
    lo, hi = metric.grid_bounds()
    ts = np.linspace(lo, hi, grid_size)
    mins = []
    maxs = []
    for s, e in _sweep_bounds(grid_size):
        arrays = _component_arrays(metric, ts[s:e])
        mins.append([a.min() for a in arrays])
        maxs.append([a.max() for a in arrays])
    # np.min/np.max over the blocks: a NaN in any block propagates
    extrema = tuple(zip(np.min(mins, axis=0), np.max(maxs, axis=0)))
    (tt_min, _), (lo_min, _), _ = extrema
    global_min = float(min(tt_min, lo_min))
    zones = []
    t0, t1 = metric.interval
    if metric.collapse_left is not None:
        zones.append((t0, lo))
    if metric.collapse_right is not None:
        zones.append((hi, t1))
    slack = slack_factor * max(1.0, abs(lam)) if lam is not None else 0.0
    verdict = (global_min >= lam - slack) if lam is not None else None
    return RicciReport(grid=ts, extrema=extrema,
                       global_min=global_min, lam=lam, slack=slack,
                       verdict=verdict, excluded_zones=tuple(zones))


def volume(metric: MultiWarpedMetric) -> float:
    """vol = prod_i vol(g_i) * integral of prod_i f_i(t)^{n_i} dt.

    Every factor must carry a volume; quadrature runs at relative tolerance
    1e-9.
    """
    vol_factors = 1.0
    for factor, _ in metric.blocks:
        if factor.volume is None:
            raise DataMissingError(
                f"factor {factor.name!r} has no volume; volume checks need it")
        vol_factors *= factor.volume

    def integrand(ts):
        ts = np.asarray(ts, dtype=float)
        out = np.ones_like(ts)
        for factor, profile in metric.blocks:
            out *= profile.eval(ts)[0] ** factor.dim
        return out

    t0, t1 = metric.interval
    return vol_factors * adaptive_quad(integrand, t0, t1, rtol=1e-9)


@dataclass(frozen=True)
class BlockMatch:
    """Per-block isometry comparison of two boundaries."""

    dims_match: bool
    radius_residual: float
    interval_residual: float
    ok: bool


@dataclass(frozen=True)
class GlueVerdict:
    """Hypotheses for gluing two positive-Ricci pieces at a shared boundary:
    blockwise isometry match and non-negativity of the summed second
    fundamental forms."""

    blocks: tuple
    isometry_ok: bool
    ii_sum_min: float
    tol: float
    passed: bool


def glue_check(b1: BoundaryData, b2: BoundaryData, tol: float) -> GlueVerdict:
    """Compare two boundaries: radii and induced factor intervals must match
    within tol and min_i (kappa_i^1 + kappa_i^2) must be >= -tol."""
    if not tol > 0:
        raise InputError("tol must be positive")
    if len(b1.blocks) != len(b2.blocks):
        return GlueVerdict(blocks=(), isometry_ok=False,
                           ii_sum_min=float("nan"), tol=tol, passed=False)
    matches = []
    sums = []
    for x, y in zip(b1.blocks, b2.blocks):
        dims = x.factor.dim == y.factor.dim
        r_res = abs(x.radius - y.radius)
        ilo = abs(x.induced.ricci_interval[0] - y.induced.ricci_interval[0])
        ihi = abs(x.induced.ricci_interval[1] - y.induced.ricci_interval[1])
        i_res = max(ilo, ihi)
        matches.append(BlockMatch(dims_match=dims, radius_residual=r_res,
                                  interval_residual=i_res,
                                  ok=dims and r_res <= tol and i_res <= tol))
        sums.append(x.kappa + y.kappa)
    isometry_ok = all(m.ok for m in matches)
    ii_sum_min = float(min(sums))
    return GlueVerdict(blocks=tuple(matches), isometry_ok=isometry_ok,
                       ii_sum_min=ii_sum_min, tol=tol,
                       passed=isometry_ok and ii_sum_min >= -tol)


def rescale_metric(metric: MultiWarpedMetric, R: float) -> MultiWarpedMetric:
    """Distances divided by R: the interval maps to interval/R and each
    profile to t -> f(R t)/R, leaving the factors untouched. Ricci components
    of the result at t equal R^2 times the original components at R t."""
    if not R > 0:
        raise InputError(f"R must be positive, got {R}")
    t0, t1 = metric.interval
    return MultiWarpedMetric(
        interval=(t0 / R, t1 / R),
        blocks=tuple((factor, scale_profile(profile, R))
                     for factor, profile in metric.blocks),
        collapse_left=metric.collapse_left,
        collapse_right=metric.collapse_right)
