"""Named constructions assembled from factors, profiles, and curvature checks.

Each function builds one construction, measures every hypothesis it is
supposed to satisfy, and returns a ScenarioVerdict whose checks carry the
measured values and thresholds. Verification failures live in the verdict;
exceptions are reserved for invalid inputs.

``SCENARIOS`` lists the command-line subcommands (flags, default grid, and how
each turns parsed flags into a verdict and profiles); ``export`` is one that
returns no verdict, only the profile of ``PROFILES`` its flags name.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .curvature import (BoundaryBlock, MultiWarpedMetric, boundary_data,
                        glue_check, ricci_report, volume)
from .errors import InputError, int_ge, removed
from .factors import (SPHERE_DIM_MAX, FactorManifold, abstract_factor,
                      bishop_gromov, round_sphere_factor, scaled_ricci,
                      unit_sphere_volume)
from .kernels import MAX_STEPS, START_STEPS
from .ode import check_first_step
from .profiles import (EXCLUSION_WIDTH, SHA_YANG_STEP, SOLVER_TOL,
                       closability_ode_profile, closed_form_profile,
                       collar_profile, collar_top, docking_R_profile,
                       k_profile, k_third_derivative, neck_end, neck_profile,
                       parity_check, radial_floor_value, sha_yang_profiles)
from .report import (ScenarioVerdict, check_bool, check_eq, check_ge,
                     check_le)
from .records import Record

# Thresholds of the checks below, each echoed in the report's config under
# the key in quotes.
# sha-yang: |f'(T) - 1| ("asym_threshold"); the bound on |h(T) - 2/alpha|
# ("asym_threshold_h") is the same tolerance in the scale of its limit,
# (2/alpha) * ASYM_THRESHOLD, since h - 2/alpha = (2/alpha)(f' - 1) exactly
ASYM_THRESHOLD = 0.05
# sha-yang: the three rate identities tying h to f ("identity_tol")
IDENTITY_TOL = 1e-6
# radii and induced curvature intervals of two glued boundaries ("glue_tol")
GLUE_TOL = 1e-9
# a certified collar keeps Ricci >= 0 out to t = 1 + COLLAR_MARGIN
# ("margin") and Ricci > 0 on [0, STRICT_WINDOW] ("strict_window")
COLLAR_MARGIN = 0.25
STRICT_WINDOW = 0.5
# a Ricci sweep's global minimum may fall this far below its target lambda,
# relative to max(1, |lambda|), to absorb solver tolerance ("ricci_slack")
RICCI_SLACK = 1e-8


class CertifiedBlock(Record):
    """A building block taken on external authority: only its boundary data
    is trusted. ``note`` states what is being assumed."""

    boundary: tuple  # (BoundaryBlock, ...)
    note: str

    def scaled(self, lam: float) -> "CertifiedBlock":
        """The block with metric g replaced by lam^2 g."""
        if not lam > 0:
            raise InputError("scale must be positive")
        return self.replace(boundary=tuple(
            b.replace(radius=b.radius * lam, kappa=b.kappa / lam)
            for b in self.boundary))


def round_boundary(dim: int, radius: float, kappa: float) -> tuple:
    """Boundary data (one ``BoundaryBlock``) of a round S^dim boundary of
    the given radius whose principal curvatures all equal kappa (w.r.t. the
    outward normal)."""
    factor = round_sphere_factor(dim, 1.0)
    if not 0.0 < radius < math.inf:
        raise InputError(f"radius must be positive and finite, got {radius}")
    return (BoundaryBlock(radius=float(radius), kappa=float(kappa),
                          kappa_normalized=float(kappa) * float(radius),
                          factor=factor),)


def certified_core(dim: int, kappa: float) -> CertifiedBlock:
    """A core piece: round unit boundary S^(dim-1) with principal curvatures
    kappa, positive Ricci inside; everything interior is assumed."""
    return CertifiedBlock(boundary=round_boundary(dim - 1, 1.0, kappa),
                          note="assumed: positive-Ricci interior with round, "
                               "convex boundary (external construction)")


def sha_yang_space(n: int, m: int, M: FactorManifold, T: float, *,
                   grid_size: int = 10_000) -> ScenarioVerdict:
    """Complete metric dt^2 + h^2 ds_{m-1}^2 + f^2 g_M on [0, T] whose
    rescalings collapse to the cone over (M, g_M).

    Requires Ric_M >= n - 1 on unit vectors and dim M = n. Checks: the first
    integral of the profile equation; the three rate identities tying h to f;
    non-negativity of all Ricci components; odd/even closure parity at t = 0;
    and the asymptotic regime f' -> 1, h -> 2/alpha with strictly decreasing
    deviation sups on successive windows. Parameters for which the deviation
    1 - f' = 1 - sqrt(1 - f^-alpha) predicts on the first window is at most
    ``SOLVER_TOL`` are an input error: the decay cannot be measured.
    """
    int_ge("n", n, 2)
    int_ge("m", m, 2)
    if M.dim != n:
        raise InputError(f"M must have dimension n = {n}, got {M.dim}")
    if M.ricci_lower < n - 1 - 1e-12:
        raise InputError(
            f"M needs Ricci >= n - 1 = {n - 1} on unit vectors, got "
            f"{M.ricci_lower}")
    if not T > EXCLUSION_WIDTH:  # where the sweep and rate checks start
        raise InputError(f"T = {T:g} must exceed the exclusion width "
                         f"{EXCLUSION_WIDTH:g} at the cone point t = 0")

    f, h, alpha = sha_yang_profiles(n, m, T)
    w1 = np.linspace(T / 5.0, 2.0 * T / 5.0, 1024)
    # f and h share one solution: evaluating both on a window back to back
    # lets the second reuse the first's interpolation
    f1, fp1, _ = f.eval(w1)
    sup_f1 = float(np.max(np.abs(fp1 - 1.0)))
    sup_h1 = float(np.max(np.abs(h.eval(w1)[0] - 2.0 / alpha)))
    # f'^2 = 1 - f^-alpha along f, and h - 2/alpha = (2/alpha)(f' - 1): where
    # the deviation this predicts on the first window is within the solve
    # tolerance, the window sups measure solver error, not a decay
    predicted = float(np.max(1.0 - np.sqrt(1.0 - f1 ** -alpha)))
    if predicted <= SOLVER_TOL:
        raise InputError(
            f"n = {n}, m = {m}, T = {T}: the window decay is below the "
            f"solver's resolution, since 1 - f' = 1 - sqrt(1 - f^-alpha) is "
            f"at most {predicted:.3e} on the first decay window "
            f"[{T / 5.0}, {2.0 * T / 5.0}], not above tol = {SOLVER_TOL:g}")
    sphere = round_sphere_factor(m - 1, 1.0)
    metric = MultiWarpedMetric((0.0, T), ((sphere, h), (M, f)),
                               collapse_left=0)

    checks = []
    resid = f.solver_meta["first_integral_residual"]
    checks.append(check_le("first_integral_residual", "first-integral",
                           resid, 10.0 * SOLVER_TOL))

    ts = np.linspace(EXCLUSION_WIDTH, T, 4096)
    fv, fpv, _ = f.eval(ts)
    hv, hpv, hppv = h.eval(ts)
    lhs1 = (1.0 - hpv ** 2) / hv ** 2
    rhs1 = (alpha ** 2 / 4.0) * (1.0 - fv ** (-2.0 * alpha - 2.0)) / (1.0 - fv ** -alpha)
    bound1 = (alpha ** 2 / 4.0) * fv ** (-alpha - 2.0)
    checks.append(check_le("sphere_rate_identity", "identity-sphere-rate",
                           np.max(np.abs(lhs1 - rhs1)), IDENTITY_TOL))
    checks.append(check_ge("sphere_rate_lower_bound", "identity-sphere-rate",
                           np.min(lhs1 - bound1), -1e-12))
    lhs2 = hppv / hv
    rhs2 = -(alpha * (alpha + 1.0) / 2.0) * fv ** (-alpha - 2.0)
    checks.append(check_le("sphere_accel_identity", "identity-sphere-accel",
                           np.max(np.abs(lhs2 - rhs2)), IDENTITY_TOL))
    lhs3 = hpv * fpv / (hv * fv)
    rhs3 = (alpha / 2.0) * fv ** (-alpha - 2.0)
    checks.append(check_le("cross_rate_identity", "identity-cross-rate",
                           np.max(np.abs(lhs3 - rhs3)), IDENTITY_TOL))

    rep = ricci_report(metric, grid_size)
    checks.append(check_ge("ricci_global_min", "ricci-nonnegative",
                           rep.global_min, -RICCI_SLACK))

    checks.append(check_bool("sphere_warp_odd", "closure-parity",
                             parity_check(h, "left", "odd",
                                          unit_slope=True).passed))
    checks.append(check_bool("radial_warp_even", "closure-parity",
                             parity_check(f, "left", "even").passed))

    asym_threshold_h = (2.0 / alpha) * ASYM_THRESHOLD
    fp_T = f.eval(T)[1]
    h_T = h.eval(T)[0]
    checks.append(check_le("radial_speed_limit", "asymptotic-cone",
                           abs(fp_T - 1.0), ASYM_THRESHOLD))
    checks.append(check_le("sphere_radius_limit", "asymptotic-cone",
                           abs(h_T - 2.0 / alpha), asym_threshold_h))

    w2 = np.linspace(2.0 * T / 5.0, 4.0 * T / 5.0, 1024)
    sup_f2 = float(np.max(np.abs(f.eval(w2)[1] - 1.0)))
    sup_h2 = float(np.max(np.abs(h.eval(w2)[0] - 2.0 / alpha)))
    checks.append(check_ge("radial_speed_window_decay", "asymptotic-cone",
                           sup_f1 - sup_f2, 0.0, strict=True,
                           note=f"sup drops {sup_f1:.3e} -> {sup_f2:.3e}"))
    checks.append(check_ge("sphere_radius_window_decay", "asymptotic-cone",
                           sup_h1 - sup_h2, 0.0, strict=True,
                           note=f"sup drops {sup_h1:.3e} -> {sup_h2:.3e}"))

    config = {"n": n, "m": m, "T": T, "tol": SOLVER_TOL,
              "grid_size": grid_size,
              "alpha": alpha, "asym_threshold": ASYM_THRESHOLD,
              "asym_threshold_h": asym_threshold_h,
              "identity_tol": IDENTITY_TOL, "ricci_slack": RICCI_SLACK,
              "M": {"name": M.name, "dim": M.dim,
                    "ricci_interval": list(M.ricci_interval)}}
    return ScenarioVerdict("sha-yang", config, tuple(checks),
                           artifacts={"f": f, "h": h})


# deleted; perfbench/tracer.py's SPECS still looks the name up
cone_asymptotics = removed("cone_asymptotics")


def neck_family_check(nu: float, n: int, s_values: Sequence[float],
                      kappa: float, *,
                      grid_size: int = 2048) -> ScenarioVerdict:
    """The shrinking family dt^2 + 2 sin^2(nu t) ds_{n-1}^2 on [s, pi/(4 nu)],
    glued to a core whose round unit boundary S^(n-1) has principal
    curvatures kappa >= 2 nu.

    For every listed s the outer boundary must be round of radius 1 with
    principal curvatures nu, the inner boundary must glue against the core
    rescaled by sqrt(2) sin(nu s) with positive second-fundamental-form sum,
    and the member volumes must share one positive floor. One positive delta
    must bound the Ricci curvature of every member, listed or not: for
    nu > 1/sqrt(2) none does, since the sphere component (n-1) nu^2 +
    (n-2)(1 - 2 nu^2)/(2 sin^2(nu t)) falls without bound as t -> 0. Every
    member is built, and any input error raised, before the first is swept.
    """
    int_ge("n", n, 3)
    t_out = neck_end(nu)
    s_values = [float(s) for s in s_values]
    if not s_values:
        raise InputError("at least one s value is required")
    if kappa < 2.0 * nu - 1e-12:
        raise InputError(
            f"core principal curvatures must be at least 2 nu = {2 * nu}, "
            f"got {kappa}")
    core = certified_core(n, kappa)

    sphere = round_sphere_factor(n - 1, 1.0)

    def member(s: float) -> tuple:
        """The metric at s and what can refuse it: the profile, both
        boundaries (a radius out of floating-point range is an input error)
        and the glue against the rescaled core."""
        profile = neck_profile(nu, s)
        metric = MultiWarpedMetric((s, t_out), ((sphere, profile),))
        outer = boundary_data(metric, "right")
        inner = boundary_data(metric, "left")
        lam = math.sqrt(2.0) * math.sin(nu * s)
        glue = glue_check(core.scaled(lam).boundary, inner)
        return metric, {"s": s, "profile": profile, "outer": outer,
                        "inner": inner, "glue": glue}

    def measure(metric, e: dict) -> dict:
        ts = np.linspace(e["s"], t_out, 512)
        drift = float(np.max(np.abs(
            e["profile"].eval(ts)[0] - math.sqrt(2.0) * np.sin(nu * ts))))
        # only the minimum is read, so no member keeps its report
        return dict(e, ricci_min=ricci_report(metric, grid_size).global_min,
                    volume=volume(metric), drift=drift)

    # one member per distinct s, repeated in per_s as often as s is given
    built = [member(s) for s in dict.fromkeys(s_values)]
    measured = {e["s"]: measure(metric, e) for metric, e in built}
    per_s = [measured[s] for s in s_values]

    checks = []
    # the sphere component is at least the radial one, (n-1) nu^2, which
    # every member attains, unless 2 nu^2 > 1; with nu = p/q that is decided
    # exactly in integers (fractions would load decimal on every run)
    p, q = float(nu).as_integer_ratio()
    if 2 * p * p > q * q:
        delta, spread = -math.inf, math.inf
        floor_note = spread_note = (
            "nu > 1/sqrt(2): the sphere component falls without bound as "
            "s -> 0, so the family (0, pi/(4 nu)] has no Ricci floor")
    else:
        mins = [e["ricci_min"] for e in per_s]
        delta, spread = min(mins) - 1e-9, max(mins) - min(mins)
        floor_note = ("min over the s-family of gridwise Ricci minima, "
                      "minus 1e-9 slack")
        spread_note = ""
    checks.append(check_ge("uniform_ricci_floor_delta", "ricci-uniform-floor",
                           delta, 0.0, strict=True, note=floor_note))
    checks.append(check_le("ricci_floor_spread", "ricci-uniform-floor",
                           spread, 1e-6, note=spread_note))
    checks.append(check_le("outer_radius", "boundary-outer-round",
                           max(abs(e["outer"][0].radius - 1.0) for e in per_s),
                           1e-10))
    checks.append(check_le("outer_kappa", "boundary-outer-kappa",
                           max(abs(e["outer"][0].kappa - nu) for e in per_s),
                           1e-10))
    checks.append(check_le(
        "inner_kappa_normalized", "boundary-inner-kappa",
        max(abs(e["inner"][0].kappa_normalized
                - (-math.sqrt(2.0) * nu * math.cos(nu * e["s"]))) for e in per_s),
        1e-10))
    checks.append(check_bool("core_glue_isometry", "glue-isometry",
                             all(e["glue"].isometry_gap <= GLUE_TOL
                                 for e in per_s)))
    checks.append(check_ge("core_glue_ii_sum", "glue-ii-sum",
                           min(e["glue"].ii_sum_min for e in per_s), 0.0,
                           strict=True))
    checks.append(check_ge("uniform_volume_floor", "volume-uniform-floor",
                           min(e["volume"] for e in per_s), 0.0, strict=True))
    checks.append(check_le("profile_family_drift", "family-collapse-mechanism",
                           max(e["drift"] for e in per_s), 1e-12,
                           note="members coincide with the limit profile on "
                                "their shared domain; the glued core radius "
                                "sqrt(2) sin(nu s) -> 0 as s -> 0"))

    config = {"nu": nu, "n": n, "s_values": s_values, "grid_size": grid_size,
              "glue_tol": GLUE_TOL, "core_kappa": float(kappa),
              "core_note": core.note, "delta": delta}
    return ScenarioVerdict("neck", config, tuple(checks))


def certify_collar(kappa: float, c: float, n: int, *,
                   grid_size: int = 2048) -> ScenarioVerdict:
    """Certification of one collar slope c against a core whose round unit
    boundary S^(n-1) has principal curvatures kappa: the collar metric
    dt^2 + f(t)^2 g must keep Ricci >= 0 out to t = 1 + COLLAR_MARGIN,
    strictly positive Ricci near the gluing slice, and a strictly positive
    second-fundamental-form sum with the core."""
    int_ge("n", n, 2)
    if not kappa > 0:
        raise InputError("core boundary must be strictly convex (kappa > 0)")
    _collar_reach(c)
    length = 1.0 + COLLAR_MARGIN
    core = certified_core(n, kappa).boundary
    factor = core[0].factor
    profile = collar_profile(c, length=length)
    metric = MultiWarpedMetric((0.0, length), ((factor, profile),))
    rep_full = ricci_report(metric, grid_size)
    near = MultiWarpedMetric((0.0, STRICT_WINDOW), ((factor, profile),))
    rep_near = ricci_report(near, grid_size)
    glue = glue_check(core, boundary_data(metric, "left"))

    checks = (
        check_ge("collar_ricci_nonnegative", "ricci-nonnegative",
                 rep_full.global_min, -RICCI_SLACK,
                 note="the far collar is exactly conical, so 0 is attained"),
        check_ge("collar_ricci_near_boundary", "ricci-positive-near-glue",
                 rep_near.global_min, 0.0, strict=True),
        check_bool("core_glue_isometry", "glue-isometry",
                   glue.isometry_gap <= GLUE_TOL),
        check_ge("core_glue_ii_sum", "glue-ii-sum", glue.ii_sum_min, 0.0,
                 strict=True,
                 note=f"core kappa {float(kappa)} plus collar -2c = "
                      f"{float(kappa) - 2 * c}"),
    )
    config = {"c": c, "n": n, "margin": COLLAR_MARGIN,
              "strict_window": STRICT_WINDOW,
              "grid_size": grid_size, "glue_tol": GLUE_TOL,
              "core_kappa": float(kappa),
              "ricci_slack": RICCI_SLACK}
    return ScenarioVerdict("collar-certify", config, checks,
                           artifacts={"metric": metric, "profile": profile})


def _collar_reach(c: float) -> None:
    """Refuse a slope c whose certified collar on [0, 1 + COLLAR_MARGIN]
    has an f or f' (``collar_top``) that the Ricci sweep cannot square."""
    length = 1.0 + COLLAR_MARGIN
    top = collar_top(c, length)
    if not math.isfinite(top * top):
        raise InputError(f"c = {c} is out of floating-point range: the "
                         f"collar's f and f' reach up to 1 + 2c * {length}, "
                         "whose square overflows")


def collar_closability(kappa: float, c_max: float, n: int, *,
                       grid_size: int = 2048) -> ScenarioVerdict:
    """Search for the largest collar slope c in (0, c_max] whose collar
    certifies against a core with principal curvatures kappa (see
    certify_collar).

    Outside the ramp the certified collar is exactly dt^2 + (c t + c0)^2 g;
    the linear form is reported as a diagnostic. The search halves c from
    c_max up to 60 times, then bisects above the first slope that
    certifies; if none does, an InputError names the slopes tried and
    the checks the smallest of them fails.
    """
    if not c_max > 0:
        raise InputError("c_max must be positive")

    def ok(c):
        return certify_collar(kappa, c, n, grid_size=grid_size)

    verdict_hi = ok(c_max)
    if verdict_hi.overall:
        c_star, best = c_max, verdict_hi
    else:
        lo, lo_verdict = None, None
        hi = c_max
        c = c_max
        for _ in range(60):
            c *= 0.5
            v = ok(c)
            if v.overall:
                lo, lo_verdict = c, v
                break
            hi = c
        if lo is None:
            failed = ", ".join(ch.name for ch in v.failed_checks())
            raise InputError(
                f"no collar slope c_max * 2^-k (k = 0..60) in [{c}, {c_max}] "
                f"certifies; the smallest tried, {c}, fails {failed}")
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            v = ok(mid)
            if v.overall:
                lo, lo_verdict = mid, v
            else:
                hi = mid
        c_star, best = lo, lo_verdict

    profile = best.artifacts["profile"]
    c0 = profile.eval(1.0)[0] - c_star
    t_far = 1.0 + COLLAR_MARGIN
    f_far, fp_far, _ = profile.eval(t_far)
    far_dev = max(abs(f_far - (c_star * t_far + c0)), abs(fp_far - c_star))

    checks = best.checks + (
        check_ge("certified_c", "closable-slope", c_star, 0.0, strict=True),
        check_le("far_collar_linear_form", "cone-linear-form", far_dev, 1e-12,
                 note=f"f = c t + c0 with c = {c_star}, c0 = {c0} beyond the ramp"),
    )
    config = dict(best.config)
    config.update({"c_max": c_max, "c_star": c_star, "c0": c0})
    return ScenarioVerdict("closability", config, checks,
                           artifacts=best.artifacts)


def gN_regions(Y: FactorManifold, eps_prime: float, n: int, *,
               grid_size: int = 2048) -> ScenarioVerdict:
    """The two regions of the doubled-boundary space over a totally geodesic
    hypersurface Y.

    Region A is the triply warped k(t)^2 ds^2 + dt^2 + f(t)^2 g_Y near the
    hypersurface; region B is the product k(eps')^2 ds^2 + g0 elsewhere,
    certified analytically. Y must satisfy Ric >= -(n-2); f comes from the
    curvature-floor profile equation and k from the flat-step construction.
    An eps' at or beyond the collapse of f raises InputError.
    """
    int_ge("n", n, 3)
    if Y.dim != n - 1:
        raise InputError(f"Y must have dimension n - 1 = {n - 1}, got {Y.dim}")
    if Y.ricci_lower < -(n - 2) - 1e-12:
        raise InputError(
            f"Y needs Ricci >= -(n-2) = {-(n - 2)}, got {Y.ricci_lower}")
    if not eps_prime > EXCLUSION_WIDTH * 4:
        raise InputError(f"eps_prime too small, need > {4 * EXCLUSION_WIDTH}")

    f = closability_ode_profile(n, eps_prime)
    k = k_profile(eps_prime)
    g0_note = ("assumed: deformed interior metric with non-negative Ricci "
               "curvature (external deformation result)")

    circle = abstract_factor("I", 1, (0.0, 0.0))
    # strictness is checkable only away from the flat end t = eps', where the
    # circle-direction component decays to exactly 0; the boundary slice is
    # covered by the sign certificate below and by region B
    region_a = MultiWarpedMetric((0.0, eps_prime - EXCLUSION_WIDTH),
                                 ((circle, k), (Y, f)), collapse_left=0)
    rep = ricci_report(region_a, grid_size)

    checks = [
        check_ge("regionA_ricci_min", "ricci-strictly-positive",
                 rep.global_min, 0.0, strict=True,
                 note=f"grid on [{EXCLUSION_WIDTH}, {eps_prime - EXCLUSION_WIDTH}]"),
        check_eq("regionB_circle_direction", "product-flat-direction",
                 0.0, 0.0,
                 note="region B is a metric product with a fixed circle length "
                      "k(eps'); its circle-direction Ricci vanishes identically"),
        check_ge("regionB_interior_floor", "certified-interior",
                 0.0, 0.0, note=g0_note),
    ]

    fv0, fp0, _ = f.eval(0.0)
    checks.append(check_le("radial_warp_value", "closure-parity",
                           abs(fv0 - 1.0), 1e-12))
    checks.append(check_bool("radial_warp_even", "closure-parity",
                             parity_check(f, "left", "even").passed))
    checks.append(check_bool("circle_warp_odd_unit", "closure-parity",
                             parity_check(k, "left", "odd",
                                          unit_slope=True).passed))

    eq_grid = np.linspace(0.0, f.t1, 2048)
    eq_dev = float(np.max(np.abs(radial_floor_value(f, n, eq_grid) - 1.0)))
    checks.append(check_le("curvature_floor_identity", "radial-floor-identity",
                           eq_dev, 1e-6))

    sign_grid = np.linspace(0.0, eps_prime, 257)
    fp_all = f.eval(sign_grid)[1]
    kp_all = k.eval(sign_grid)[1]
    checks.append(check_le("radial_warp_monotone", "sign-bookkeeping",
                           float(np.max(fp_all)), 1e-12))
    checks.append(check_ge("circle_warp_monotone", "sign-bookkeeping",
                           float(np.min(kp_all)), -1e-12))
    checks.append(check_ge("cross_terms_nonnegative", "sign-bookkeeping",
                           float(np.min(-kp_all * fp_all)), -1e-15))

    tail = np.linspace(eps_prime - EXCLUSION_WIDTH, eps_prime, 65)
    ktail = k.eval(tail)
    ftail_p = f.eval(tail)[1]
    tail_ok = (np.max(ktail[2]) <= 1e-15 and np.min(ktail[1]) >= -1e-15
               and np.max(ftail_p) <= 1e-15)
    checks.append(check_bool(
        "regionA_boundary_tail_signs", "ricci-nonnegative",
        tail_ok,
        note="on the last width the signs k'' <= 0, k' >= 0, f' <= 0 make "
             "every component a sum of non-negative terms"))

    config = {"n": n, "eps_prime": eps_prime, "tol": SOLVER_TOL,
              "grid_size": grid_size,
              "Y": {"name": Y.name, "dim": Y.dim,
                    "ricci_interval": list(Y.ricci_interval)},
              "g0_note": g0_note}
    return ScenarioVerdict("gn", config, tuple(checks),
                           artifacts={"region_a": region_a, "f": f, "k": k,
                                      "ricci_report": rep})


def docking_ambient(n: int, *, grid_size: int = 2048) -> ScenarioVerdict:
    """The ambient doubly warped sphere dt^2 + cos^2(t) dx^2 + R(t)^2
    ds_{n-1}^2 on [0, pi/2], with R = sin (``docking_R_profile``).

    R must be odd with unit slope at 0, even at pi/2, and strictly concave.
    The metric is the round unit (n+1)-sphere: every Ricci component must
    equal n to within 1e-9.
    """
    int_ge("n", n, 3)
    Rp = docking_R_profile()
    half_pi = math.pi / 2.0

    circle = round_sphere_factor(1, 1.0)
    sphere = round_sphere_factor(n - 1, 1.0)
    cos_p = closed_form_profile("cosine", (0.0, half_pi))
    metric = MultiWarpedMetric((0.0, half_pi), ((circle, cos_p), (sphere, Rp)),
                               collapse_left=1, collapse_right=0)
    rep = ricci_report(metric, grid_size)

    interior = np.linspace(EXCLUSION_WIDTH, half_pi - EXCLUSION_WIDTH, 66)[1:-1]
    rpp = Rp.eval(interior)[2]
    checks = [
        check_bool("sphere_warp_odd_unit", "closure-parity",
                   parity_check(Rp, "left", "odd", unit_slope=True).passed),
        check_bool("sphere_warp_even_top", "closure-parity",
                   parity_check(Rp, "right", "even").passed),
        check_bool("circle_warp_odd_unit", "closure-parity",
                   parity_check(cos_p, "right", "odd", unit_slope=True).passed),
        check_ge("sphere_warp_concave", "warp-concavity",
                 float(-np.max(rpp)), 0.0, strict=True,
                 note="R'' < 0 sampled at 64 interior points"),
        check_ge("ricci_min", "ricci-strictly-positive", rep.global_min, 0.0,
                 strict=True),
    ]
    # fl(x - n) is monotone in x, so the largest |x - n| over a component is
    # attained at its minimum or its maximum
    dev = max(float(np.max(np.abs(np.array(e) - n))) for e in rep.extrema)
    checks.append(check_le("max_component_spread", "round-model", dev, 1e-9,
                           note=f"default R: the metric is the round unit "
                                f"S^{n + 1}, every component equals {n}"))

    # R is always the default, so the round check always runs
    config = {"n": n, "grid_size": grid_size, "default_R": True,
              "round_check": True}
    return ScenarioVerdict("docking", config, tuple(checks),
                           artifacts={"metric": metric})


def theorem22_hypotheses(family: Sequence[MultiWarpedMetric], n: int,
                         certificate: ScenarioVerdict, *,
                         grid_size: int = 2048) -> ScenarioVerdict:
    """Hypothesis checks for a family of cross-section metrics: volumes capped
    by the round model's, Ricci >= n - 2, and the first member carrying an
    attached closability certificate (no check depends on which member).

    Volume constancy across the family is reported (spread and the rescaling
    factor capping the largest member at the model volume), not enforced.
    """
    int_ge("n", n, 3)
    family = list(family)
    if not family:
        raise InputError("family must be non-empty")
    for i, m in enumerate(family):
        if m.total_dim != n - 1:
            raise InputError(
                f"family member {i} has dimension {m.total_dim}, expected "
                f"cross sections of dimension n - 1 = {n - 1}")
    if not certificate.overall:
        raise InputError(
            "the closable member needs an attached passing closability "
            "certificate")

    target = unit_sphere_volume(n - 1)
    vol_slack = 1e-8 * max(1.0, target)
    lam = float(n - 2)
    floor = lam - RICCI_SLACK * max(1.0, abs(lam))
    checks = []
    vols = []
    # (volume, Ricci minimum) per distinct member object: a family that
    # repeats a metric measures it once
    measured = {}
    for i, m in enumerate(family):
        if id(m) not in measured:
            measured[id(m)] = (volume(m),
                               ricci_report(m, grid_size).global_min)
        v, ric_min = measured[id(m)]
        vols.append(v)
        checks.append(check_le(f"member{i}_volume_cap", "volume-cap",
                               v, target + vol_slack,
                               note=f"round model volume {target}"))
        checks.append(check_ge(f"member{i}_ricci_floor", "ricci-floor",
                               ric_min, floor))
    checks.append(check_bool("closable_member_certificate", "closable-member",
                             certificate.overall,
                             note=f"member 0: certificate from "
                                  f"scenario {certificate.scenario!r}, "
                                  f"c* = {certificate.config.get('c_star')}"))

    spread = max(vols) - min(vols)
    rescale = (target / max(vols)) ** (1.0 / (n - 1))
    config = {"n": n, "grid_size": grid_size, "closable_index": 0,
              "volume_spread": spread, "volume_rescale_factor": rescale,
              "rescale_note": "scaling distances by the factor caps the "
                              "largest member volume at the model volume and "
                              "divides Ricci floors by its square",
              "volumes": vols, "lambda": lam}
    return ScenarioVerdict("thm22", config, tuple(checks))


# the most family members a run builds: the cross sections of thm22
# --members, or the neck metrics of the values in neck --s
MEMBERS_MAX = 1000
# the most points of a sweep grid or rows of a CSV dump: a sweep builds its
# grid block by block, so no allocation refuses a huge --grid, and --grid
# 1e12 would start a sweep of days; a whole sha-yang run at 1e6 points
# takes 0.07-0.12 s (in process, one BLAS thread, 2-CPU VM), so one at 1e8
# about 10 s
GRID_MAX = 10 ** 8
# the longest T a sha-yang solve covers: its full steps, without the
# allowance for the shorter steps of its start
T_MAX = SHA_YANG_STEP * (MAX_STEPS - START_STEPS)
N_MAX = SPHERE_DIM_MAX + 1  # the largest n whose S^(n-1) has a volume


def _number(kind, lo=-math.inf, hi=math.inf, strict=False):
    """argparse type: a ``kind`` (int or float) in float range, at least
    ``lo`` (above it if ``strict``) and at most ``hi``. The converter keeps
    ``lo``, ``hi`` and the ``domain`` it states."""
    name = kind.__name__
    ends = [f"{b:g}" if isinstance(b, float) else str(b) for b in (lo, hi)]
    if hi < math.inf:
        domain = f"{name} in {'(' if strict else '['}{ends[0]}, {ends[1]}]"
    elif lo > -math.inf:
        domain = f"{name} {'>' if strict else '>='} {ends[0]}"
    else:
        domain = f"finite {name}"

    def convert(text: str):
        value = kind(text)  # argparse reports a ValueError itself
        shown = text if len(text) <= 20 else text[:20] + "..."
        if not abs(value) <= sys.float_info.max:
            raise argparse.ArgumentTypeError(f"{shown!r} is not a finite {name}")
        if not (lo < value if strict else lo <= value) or value > hi:
            raise argparse.ArgumentTypeError(f"{shown!r} is not {convert.domain}")
        return value
    convert.__name__ = name  # as "invalid int value" names it
    convert.lo, convert.hi = lo, hi
    convert.domain = f"{'an' if domain.startswith('int') else 'a'} {domain}"
    return convert


_finite_float = _number(float)
_positive = _number(float, 0.0, strict=True)


def _csv_list(text: str) -> list[float]:
    """argparse type: at most MEMBERS_MAX comma-separated finite floats,
    none of them empty."""
    items = text.split(",")
    if len(items) > MEMBERS_MAX:
        raise argparse.ArgumentTypeError(
            f"{len(items)} values, more than the {MEMBERS_MAX} allowed")
    for i, x in enumerate(items, 1):
        if not x.strip():
            raise argparse.ArgumentTypeError(
                f"value {i} of {len(items)} in {text!r} is empty")
    return [_finite_float(x) for x in items]
_csv_list.__name__ = "float list"  # as "invalid float list value" names it


def _given(flags: str, check, *args):
    """``check(*args)``, with an InputError it raises prefixed by ``flags``,
    the command-line flags and values that set its arguments."""
    try:
        return check(*args)
    except InputError as exc:
        raise InputError(f"{flags}: {exc}") from None


def _admit_neck(nu, s_values, n=None):
    """--nu in ``neck_end``'s domain and each --s in (0, pi/(4 nu)); with n,
    the core glued at radius sqrt(2) sin(nu s) against S^(n-1)."""
    t_out = _given(f"--nu {nu!r}", neck_end, nu)
    for s in dict.fromkeys(s_values):
        given = f"--s {s!r} with --nu {nu!r}"
        if not 0.0 < s < t_out:
            raise InputError(f"{given}: s must lie in (0, pi/(4 nu)) = "
                             f"(0, {t_out})")
        if n is not None:  # the Ricci interval of the core's unit S^(n-1)
            _given(f"{given}, whose glued core radius is sqrt(2) sin(nu s)",
                   scaled_ricci, (n - 2.0, n - 2.0),
                   math.sqrt(2.0) * math.sin(nu * s))


def _admit_thm22(prm):
    n, deficit = prm["n"], prm["ric_deficit"]
    given = f"--ric-deficit {deficit!r} with --n {n}"
    if deficit and n < 4:
        raise InputError(f"{given}: a deficit needs n >= 4 (a 1-dimensional "
                         "cross-section factor is necessarily Ricci-flat)")
    rho = float(n - 3) - deficit
    # the sweep divides it by f^2 = sin(t)^2, at least sin(EXCLUSION_WIDTH)^2
    # on its grid, less a relative 1e-6 for rounding at the grid's ends
    if not math.isfinite(rho / (math.sin(EXCLUSION_WIDTH) ** 2
                                * (1.0 - 1e-6))):
        raise InputError(f"{given} is out of floating-point range: the last "
                         f"member's factor curvature n - 3 - deficit = {rho:g}"
                         " overflows when divided by the sweep's least "
                         f"warp^2, sin({EXCLUSION_WIDTH:g})^2")
    if rho != n - 3 and rho > 0:  # the factor _run_thm22 gives that member
        _given(given, bishop_gromov, n - 2, rho, unit_sphere_volume(n - 2))


def _admit_glue(prm):
    if prm["example"] is None:  # explicit round boundaries S^dim
        rho = prm["dim"] - 1.0  # the Ricci constant of the unit S^dim
        for i in (1, 2):
            _given(f"--r{i} {prm[f'r{i}']!r} with --dim {prm['dim']}",
                   scaled_ricci, (rho, rho), prm[f"r{i}"])
        if not math.isfinite(prm["k1"] + prm["k2"]):
            raise InputError(f"--k1 {prm['k1']!r} with --k2 {prm['k2']!r}: the"
                             " glued principal curvatures have no finite sum")


class Scenario(Record):
    """One command-line scenario.

    ``args`` holds ``(flags, argparse kwargs)`` pairs for its own flags, and
    ``common`` names the shared flags (``cli._SHARED``) it reads besides
    ``--out``, which every subcommand takes; the parser accepts no others.
    A numeric flag's type (``_number``) declares its bounds. ``grid`` is the
    default sweep grid (None: the scenario sweeps none).
    ``run(prm, grid)`` takes the parsed flags and returns (verdict or None,
    {name: profile}): the profiles ``--csv`` dumps, or without a verdict the
    run's whole output, each written as ``<name>.csv``.

    ``mode``, if set, is ``(dest, {value: {dest: default}})``: the value of
    flag ``dest`` selects which of the table's flags the run reads. These
    parse to None when absent, so presence decides: one the selected mode
    does not read is an input error, and one it reads and is not given
    takes its default, or is required if that is None.

    ``admit(prm)``, if set, raises an InputError that starts with the flags
    it names for what no flag's type refuses alone, before any work: it
    builds no profile, factor or grid.

    The runners below look construction and profile functions up by their
    module-global name when called, never through a stored reference, so
    that wrappers installed on this module (perfbench/tracer.py) see every
    call.
    """

    name: str
    help: str
    args: tuple
    common: tuple
    grid: Optional[int]
    run: Callable
    mode: Optional[tuple] = None
    admit: Optional[Callable] = None


def _run_sha_yang(prm, grid):
    n = prm["n"]
    M = abstract_factor("M", n, (n - 1, n - 1))  # Ric = n - 1, its floor
    v = sha_yang_space(n, prm["m"], M, prm["T"], grid_size=grid)
    return v, {"sha-f": v.artifacts["f"], "sha-h": v.artifacts["h"]}


def _run_neck(prm, grid):
    nu = prm["nu"]
    kappa = 2.0 * nu  # the core's principal curvatures at their floor
    return neck_family_check(nu, prm["n"], prm["s"], kappa,
                             grid_size=grid), {}


def _run_closability(prm, grid):
    v = collar_closability(prm["kappa"], prm["c_max"], prm["n"],
                           grid_size=grid)
    return v, {"collar": v.artifacts["profile"]}


def _run_gn(prm, grid):
    n = prm["n"]
    Y = abstract_factor("Y", n - 1, (2 - n, 2 - n))  # Ric = 2 - n, its floor
    v = gN_regions(Y, prm["eps_prime"], n, grid_size=grid)
    return v, {"k": v.artifacts["k"], "closability-f": v.artifacts["f"]}


def _run_docking(prm, grid):
    return docking_ambient(prm["n"], grid_size=grid), {}


def _run_thm22(prm, grid):
    n = prm["n"]
    rho_last = float(n - 3) - prm["ric_deficit"]

    def member(factor):
        return MultiWarpedMetric(
            (0.0, math.pi),
            ((factor, closed_form_profile("sine", (0.0, math.pi))),),
            collapse_left=0, collapse_right=0)

    # the regular members are one metric object, which theorem22_hypotheses
    # measures once; the last member is another when the deficit moves its
    # factor's curvature off n - 3
    members = [member(round_sphere_factor(n - 2, 1.0))] * prm["members"]
    if rho_last != n - 3:
        members[-1] = member(abstract_factor(
            "X", n - 2, (rho_last, rho_last),
            volume=unit_sphere_volume(n - 2)))
    certificate = collar_closability(1.0, 0.45, n - 1, grid_size=grid)
    return theorem22_hypotheses(members, n, certificate, grid_size=grid), {}


def _run_glue(prm, grid):
    if prm["example"] == "hemisphere":
        metric = MultiWarpedMetric(
            (0.0, math.pi / 2.0),
            ((round_sphere_factor(prm["n"] - 1, 1.0),
              closed_form_profile("sine", (0.0, math.pi / 2.0))),),
            collapse_left=0)
        b1 = b2 = boundary_data(metric, "right")
        note = "hemisphere glued to its mirror along the equator"
    else:
        b1, b2 = (round_boundary(prm["dim"], prm[f"r{i}"], prm[f"k{i}"])
                  for i in (1, 2))
        note = "explicit round boundaries"
    verdict = glue_check(b1, b2)
    checks = (
        check_bool("isometry_ok", "glue-isometry",
                   verdict.isometry_gap <= GLUE_TOL, note),
        check_ge("ii_sum_min", "glue-ii-sum", verdict.ii_sum_min, -GLUE_TOL),
    )
    config = {k: prm[k] for k in ("example", "n", "dim", "r1", "k1", "r2", "k2")}
    config["glue_tol"] = GLUE_TOL
    return ScenarioVerdict("glue", config, checks), {}


# export: profile id -> (the flags it reads with their defaults, builder of
# the profile from those flags' values in that order, looked up when called)
_SHA_YANG_READS = {"n": 3, "m": 2, "T": 50.0}
PROFILES = {
    "sha-f": (_SHA_YANG_READS, lambda *a: sha_yang_profiles(*a)[0]),
    "sha-h": (_SHA_YANG_READS, lambda *a: sha_yang_profiles(*a)[1]),
    "neck": ({"nu": 0.1, "s": 0.5}, lambda *a: neck_profile(*a)),
    "k": ({"eps_prime": 0.2}, lambda *a: k_profile(*a)),
    "collar": ({"c": 0.1}, lambda *a: collar_profile(*a)),
    "closability": ({"n": 3, "eps_prime": 0.2},
                    lambda *a: closability_ode_profile(*a)),
    "docking-r": ({}, lambda: docking_R_profile()),
}
def _admit_export(prm):
    """What each profile refuses beyond the types of the flags it reads."""
    pid = prm["profile"]
    if pid == "neck":
        _admit_neck(prm["nu"], [prm["s"]])
    elif pid == "k":
        _given(f"--eps-prime {prm['eps_prime']!r}", k_third_derivative,
               prm["eps_prime"])
    elif pid == "collar":  # at collar_profile's default length
        _given(f"--c {prm['c']!r}", collar_top, prm["c"], 2.0)
    elif pid == "closability":
        _given(f"--n {prm['n']}", int_ge, "n", prm["n"], 3)
        _given(f"--eps-prime {prm['eps_prime']!r}", check_first_step,
               0.0, prm["eps_prime"])
    elif pid in ("sha-f", "sha-h"):
        _given(f"--T {prm['T']!r}", check_first_step, 0.0, prm["T"],
               SHA_YANG_STEP)


def _run_export(prm, grid):
    reads, build = PROFILES[prm["profile"]]
    return None, {prm["profile"]: build(*(prm[d] for d in reads))}


SCENARIOS = {s.name: s for s in (
    Scenario("sha-yang", "complete metric collapsing to a cone over M", (
        (("--n",), {"type": _number(int, 2), "required": True}),
        (("--m",), {"type": _number(int, 2, N_MAX), "required": True}),
        (("--T",), {"type": _number(float, EXCLUSION_WIDTH, T_MAX, True),
                    "default": 50.0}),
    ), ("--grid", "--csv"), 10_000, _run_sha_yang),
    Scenario("neck", "shrinking neck family against a certified core", (
        (("--nu",), {"type": _positive, "required": True}),
        (("--n",), {"type": _number(int, 3, N_MAX), "required": True}),
        (("--s",), {"type": _csv_list, "required": True,
                    "help": "comma-separated list of s values"}),
    ), ("--grid",), 2048, _run_neck,
        admit=lambda prm: _admit_neck(prm["nu"], prm["s"], prm["n"])),
    Scenario("closability", "largest certified collar slope over a convex "
                            "core", (
        (("--n",), {"type": _number(int, 2, N_MAX), "required": True}),
        (("--c-max",), {"type": _positive, "default": 0.45}),
        (("--kappa",), {"type": _positive, "default": 1.0,
                        "help": "core boundary principal curvature"}),
    ), ("--grid", "--csv"), 2048, _run_closability,
        admit=lambda prm: _given(f"--c-max {prm['c_max']!r}", _collar_reach,
                                 prm["c_max"])),
    Scenario("gn", "doubled-region metric over a hypersurface", (
        (("--n",), {"type": _number(int, 3), "required": True}),
        (("--eps-prime",), {"type": _number(float, 4 * EXCLUSION_WIDTH,
                                            strict=True), "default": 0.2}),
    ), ("--grid", "--csv"), 2048, _run_gn),
    Scenario("docking", "ambient doubly warped sphere", (
        (("--n",), {"type": _number(int, 3, N_MAX), "required": True}),
    ), ("--grid",), 2048, _run_docking),
    Scenario("thm22", "family hypotheses: volume cap, Ricci floor, closable "
                      "member", (
        (("--n",), {"type": _number(int, 3, N_MAX), "required": True}),
        (("--members",), {"type": _number(int, 1, MEMBERS_MAX), "default": 1}),
        (("--ric-deficit",), {"type": _finite_float, "default": 0.0,
                              "help": "subtract from the last member's factor "
                                      "curvature (forces a Ricci-floor "
                                      "failure)"}),
    ), ("--grid",), 2048, _run_thm22, admit=_admit_thm22),
    Scenario("glue", "gluing hypotheses for a pair of boundaries", (
        (("--example",), {"choices": ["hemisphere"]}),
        (("--n",), {"type": _number(int, 2, N_MAX), "help": "total dimension"}),
        (("--dim",), {"type": _number(int, 1, SPHERE_DIM_MAX),
                      "help": "boundary factor dimension"}),
        (("--r1",), {"type": _positive}),
        (("--k1",), {"type": _finite_float}),
        (("--r2",), {"type": _positive}),
        (("--k2",), {"type": _finite_float}),
    ), (), None, _run_glue,
        # the example builds its own boundaries; explicit ones need all five
        ("example", {"hemisphere": {"n": 4},
                     None: dict.fromkeys(("dim", "r1", "k1", "r2", "k2"))}),
        _admit_glue),
    Scenario("export", "CSV export of a named profile", (
        (("--profile",), {"required": True, "choices": list(PROFILES)}),
        (("--n",), {"type": _number(int, 2)}),
        (("--m",), {"type": _number(int, 2)}),
        (("--T",), {"type": _number(float, 0.0, T_MAX, True)}),
        (("--nu",), {"type": _positive}),
        (("--s",), {"type": _finite_float}),
        (("--eps-prime",), {"type": _positive}),
        (("--c",), {"type": _positive}),
    ), ("--grid",), None, _run_export,
        ("profile", {pid: reads for pid, (reads, _) in PROFILES.items()}),
        _admit_export),
)}
