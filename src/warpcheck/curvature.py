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
factor's Ricci lower bound gives the exact lower bound of its block's
component: the constructions certify Ricci lower bounds only.

Block sums are accumulated in ascending order of the summands, making every
result exactly invariant under block permutation.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DataMissingError, InputError, SingularPointError, removed
from .factors import FactorManifold, scale_factor
from .profiles import EXCLUSION_WIDTH, WarpProfile, parity_check
from .quadrature import adaptive_quad, grid_blocks
from .records import Record


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
    total = ordered[0]
    for i in range(1, ordered.shape[0]):
        total += ordered[i]
    return total


class MultiWarpedMetric(Record):
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
            report = parity_check(profile, endpoint, "odd", unit_slope=unit)
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


class RicciComponents(Record):
    """Ricci values at one t: the dt-dt component and, per block, the lower
    bound of Ric(v/f_i, v/f_i) that the factor's Ricci lower bound induces.
    Mixed components vanish identically for block-diagonal warps."""

    t: float
    ric_tt: float
    blocks: tuple  # (lo, ...)


def _block_constants(metric: MultiWarpedMetric):
    """The kernel's per-metric columns (dims, dims - 1, rho_lo)."""
    dims = np.array([[float(f.dim)] for f, _ in metric.blocks])
    rho_lo = np.array([[f.ricci_lower] for f, _ in metric.blocks], dtype=float)
    return dims, dims - 1.0, rho_lo


def _component_arrays(metric: MultiWarpedMetric, ts: np.ndarray,
                      constants=None):
    """Vectorized warped-product Ricci over a grid; returns (tt, lo).

    Computed in place in the rows of f, f', f'': phi = f'/f, f2 = f*f,
    tt = -sum((dims*f'')/f), base = ((-f'')/f - ((dims-1)*(f'*f'))/f2)
    - phi*(s_cross - dims*phi) and lo = base + rho_lo/f2, in this order up
    to commutation."""
    dims, dims_m1, rho_lo = constants or _block_constants(metric)
    f, fp, fpp = np.empty((3, len(metric.blocks), len(ts)))
    for i, (_, profile) in enumerate(metric.blocks):
        profile.eval(ts, out=(f[i], fp[i], fpp[i]))

    f2 = np.multiply(f, f)
    phi = np.divide(fp, f)
    cross = np.multiply(dims, phi)
    np.subtract(_ordered_sum(cross), cross, out=cross)  # s_cross - dims*phi
    cross *= phi
    ric_tt = -_ordered_sum(np.divide(np.multiply(dims, fpp, out=phi), f,
                                     out=phi))
    base = np.divide(np.negative(fpp, out=fpp), f, out=fpp)
    np.multiply(fp, fp, out=fp)
    fp *= dims_m1
    fp /= f2
    base -= fp
    base -= cross
    return ric_tt, np.add(np.divide(rho_lo, f2, out=fp), base, out=fp)


def ricci_components(metric: MultiWarpedMetric, t: float) -> RicciComponents:
    """Ricci components at t from the closed warped-product formulas."""
    metric._check_regular(t)
    ts = np.array([float(t)])
    ric_tt, lo = _component_arrays(metric, ts)
    return RicciComponents(t=float(t), ric_tt=float(ric_tt[0]),
                           blocks=tuple(map(float, lo[:, 0])))


def ricci_generic(metric: MultiWarpedMetric, t: float, dt: float) -> RicciComponents:
    """Independent oracle: the same components from the general cylinder
    formulas, with h_t-derivatives taken by central finite differences of the
    squared profiles. Shares no derivative data with ``ricci_components``."""
    metric._check_regular(t)
    if not dt > 0:
        raise InputError("dt must be positive")
    tt = float(t)
    a_m, a_0, a_p = np.array([[profile.eval(s)[0] ** 2
                               for _, profile in metric.blocks]
                              for s in (tt - dt, tt, tt + dt)])
    phis = ((a_p - a_m) / (2.0 * dt)) / a_0
    psis = ((a_p - 2.0 * a_0 + a_m) / dt ** 2) / a_0
    dims = np.array([float(factor.dim) for factor, _ in metric.blocks])
    tr_hp = float(_ordered_sum((dims * phis)[:, None])[0])
    tr_hpp = float(_ordered_sum((dims * psis)[:, None])[0])
    norm_hp = float(_ordered_sum((dims * phis ** 2)[:, None])[0])
    ric_tt = -0.5 * tr_hpp + 0.25 * norm_hp

    # per block, in scalars: NumPy's ** 2 of an array and of a scalar can
    # differ in the last bit
    lo = [-0.5 * psi + 0.5 * phi ** 2 - 0.25 * phi * tr_hp
          + factor.ricci_lower / a
          for (factor, _), phi, psi, a in zip(metric.blocks, phis, psis, a_0)]
    return RicciComponents(t=tt, ric_tt=ric_tt, blocks=tuple(map(float, lo)))


class BoundaryBlock(Record):
    """Per-factor boundary data of a slice: radius f_i, principal curvature
    kappa_i = sign * f_i'/f_i, its radius-normalized form sign * f_i', and
    the induced (scaled) factor metric."""

    radius: float
    kappa: float
    kappa_normalized: float
    factor: FactorManifold
    induced: FactorManifold


class BoundaryData(Record):
    """Geometry of a slice {t} with a chosen outward normal direction: one
    ``BoundaryBlock`` per factor."""

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
        if not f > 0:
            raise SingularPointError(f"the slice t = {t} is collapsed: a "
                                     "warp vanishes there")
        kappa = orientation * fp / f + 0.0
        blocks.append(BoundaryBlock(
            radius=float(f), kappa=float(kappa),
            kappa_normalized=float(orientation * fp + 0.0),
            factor=factor, induced=scale_factor(factor, float(f))))
    return BoundaryData(blocks=tuple(blocks))


def boundary_data(metric: MultiWarpedMetric, side: str) -> BoundaryData:
    """Boundary data at an endpoint with the outward normal of the manifold:
    -dt at the left endpoint, +dt at the right."""
    if side == "left":
        return second_fundamental_form(metric, metric.interval[0], -1)
    if side == "right":
        return second_fundamental_form(metric, metric.interval[1], +1)
    raise InputError("side must be 'left' or 'right'")


class RicciReport(Record):
    """Gridwise Ricci extrema and their global minimum: a measurement, which
    each caller compares against its own threshold.

    ``extrema`` holds the minimum and maximum over the grid of Ric(dt, dt)
    and of the per-block lower components, over all blocks. The
    grid is ``np.linspace(*grid_bounds, grid_size)``; ``grid`` rebuilds it.
    """

    grid_bounds: tuple[float, float]
    grid_size: int
    extrema: tuple  # ((tt_min, tt_max), (lo_min, lo_max))
    global_min: float

    @property
    def grid(self) -> np.ndarray:
        """The swept grid, built anew on each access."""
        return np.linspace(*self.grid_bounds, self.grid_size)


def ricci_report(metric: MultiWarpedMetric, grid_size: int) -> RicciReport:
    """Sweep Ricci components over a uniform grid (closure zones excluded)
    and measure their extrema; the caller judges ``global_min``.

    The grid is built and swept in the blocks of ``grid_blocks``, keeping
    only each component's minimum and maximum, so the memory the sweep
    needs does not grow with the grid size.
    """
    if grid_size < 2:
        raise InputError("grid_size must be at least 2")
    lo, hi = metric.grid_bounds()
    constants = _block_constants(metric)

    def extrema_of(ts):  # a block's rows are freed before the next is built
        return [(a.min(), a.max())
                for a in _component_arrays(metric, ts, constants)]

    # min/max over the blocks' (tt, lo) extrema: a NaN in any propagates
    lows, highs = np.array([
        extrema_of(ts) for ts in grid_blocks(lo, hi, grid_size)]).T
    extrema = tuple(zip(lows.min(axis=1), highs.max(axis=1)))
    (tt_min, _), (lo_min, _) = extrema
    return RicciReport(grid_bounds=(lo, hi), grid_size=grid_size,
                       extrema=extrema,
                       global_min=float(min(tt_min, lo_min)))


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


class GlueVerdict(Record):
    """Gluing data of two boundaries, measured: how far they are from
    matching blockwise and the least summed principal curvature. The caller
    decides which gap and which sum its gluing allows."""

    isometry_gap: float
    ii_sum_min: float


def glue_check(b1: BoundaryData, b2: BoundaryData) -> GlueVerdict:
    """Measure two boundaries: the largest difference of radius or of
    induced factor Ricci-interval endpoint over the blocks (+inf if block
    counts or factor dimensions differ, NaN if a difference is NaN), and
    min_i (kappa_i^1 + kappa_i^2); a sum that is not finite is an input
    error."""
    if len(b1.blocks) != len(b2.blocks):
        return GlueVerdict(isometry_gap=float("inf"), ii_sum_min=float("nan"))
    gaps = []
    sums = []
    for i, (x, y) in enumerate(zip(b1.blocks, b2.blocks)):
        (xlo, xhi), (ylo, yhi) = (x.induced.ricci_interval,
                                  y.induced.ricci_interval)
        gaps += [abs(x.radius - y.radius), abs(xlo - ylo), abs(xhi - yhi),
                 0.0 if x.factor.dim == y.factor.dim else float("inf")]
        sums.append(x.kappa + y.kappa)
        if not np.isfinite(sums[-1]):
            raise InputError(f"glued block {i}: the principal curvatures "
                             f"{x.kappa:g} and {y.kappa:g} have no finite sum")
    # np.max, unlike max, returns a NaN wherever in the list it stands
    return GlueVerdict(isometry_gap=float(np.max(gaps)),
                       ii_sum_min=float(min(sums)))


# deleted; perfbench/tracer.py's SPECS still looks the name up
rescale_metric = removed("rescale_metric")
