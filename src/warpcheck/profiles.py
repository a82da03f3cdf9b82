"""Warping profiles: positive functions f(t) with exact derivative access.

Profiles come from closed forms, initial value problems and quadratures.
Every profile evaluates to the triple (f, f', f''), vectorized over t. Near
an endpoint where the profile closes up smoothly (a cone point, or a
reflection-symmetric end) evaluation is served by the stored parity
expansion instead of the raw formula, so endpoint values like f(t*) = 0 or
f'(t*) = 0 are exact.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .errors import (ConstructionError, InputError, IntegrationQualityError,
                     int_ge, removed)
from .memo import QueryMemo
from .ode import DenseSolution, integrate_ivp
from .quadrature import CumulativeIntegral
from .records import Record

# Width of the endpoint window where tagged profiles evaluate via their parity
# expansion; also the exclusion radius used by curvature grids around
# collapsing endpoints.
EXCLUSION_WIDTH = 1e-3
# The tolerance of every IVP-defined profile: solve_ivp_profile integrates at
# it, the two scenario builders at an eighth of it, and each echoes it in
# solver_meta["tol"]. No flag or setting reads it.
SOLVER_TOL = 1e-10


class ParityTag(Record):
    """Certified endpoint behavior.

    kind "odd":  f(t*) = 0, even derivatives vanish; coeffs = (c1, c3) with
                 f ~ c1 s + c3 s^3/6 in the signed offset s = t - t*.
    kind "even": f'(t*) = 0; coeffs = (c0, c2) with f ~ c0 + c2 s^2/2.
    """

    kind: str
    coeffs: tuple

    def __post_init__(self):
        if self.kind not in ("odd", "even"):
            raise InputError(f"unknown parity kind {self.kind!r}")


class WarpProfile(Record):
    """A positive warping function on an interval with two derivatives.

    Instances are immutable; evaluation is a pure function of t.
    """

    domain: tuple[float, float]
    raw_eval: Callable
    parity: dict = {}
    solver_meta: Optional[dict] = None

    def __post_init__(self):
        t0, t1 = self.domain
        if not t1 > t0:
            raise InputError(f"empty profile domain [{t0}, {t1}]")

    @property
    def t0(self) -> float:
        return self.domain[0]

    @property
    def t1(self) -> float:
        return self.domain[1]

    def eval(self, t, *, out=None):
        """(f, f', f'') at t, scalar or ndarray; t must lie in the domain.

        ``out``, three float64 arrays of the shape of ``np.atleast_1d(t)``,
        receives the triple and is returned; a scalar t returns floats.
        """
        tq = np.asarray(t, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        t0, t1 = self.domain
        slack = 1e-9 * (t1 - t0) + 1e-12
        tc = tq
        inner = False
        if tq.size:
            lo, hi = tq.min(), tq.max()
            # written so that a nan, which compares false, fails it
            if not (lo >= t0 - slack and hi <= t1 + slack):
                raise InputError(
                    f"evaluation outside profile domain [{t0}, {t1}]: "
                    f"[{lo}, {hi}]")
            # on a tie np.clip may return the end's bits instead of the
            # point's (NumPy's rule has varied), which differ for a signed
            # zero; a strictly inner tq comes back unchanged under any rule
            inner = t0 < lo and hi < t1
            if not inner:
                tc = np.clip(tq, t0, t1)
        raw = self.raw_eval(tc)
        if out is None:  # allocated once raw_eval has freed its temporaries
            out = tuple(np.empty(tc.shape) for _ in range(3))
        for dst, src in zip(out, raw):
            np.copyto(dst, src)
        f, fp, fpp = out
        for endpoint, tstar in (("left", t0), ("right", t1)):
            tag = self.parity.get(endpoint)
            # an inner tq has no point at an even end, nor in an odd window
            # its extremes lie past
            if tag is None or (inner and tag.kind == "even"):
                continue
            if tag.kind == "odd":
                # cone points: serve the whole near-endpoint window, since the
                # raw formula degenerates as f -> 0
                if endpoint == "left":
                    edge = tstar + EXCLUSION_WIDTH
                    mask = None if inner and lo >= edge else tc < edge
                else:
                    edge = tstar - EXCLUSION_WIDTH
                    mask = None if inner and hi <= edge else tc > edge
            else:
                # even ends are regular; the expansion only pins the
                # endpoint values (f' exactly 0) without widening the error
                mask = tc == tstar
            if mask is None or not mask.any():
                continue
            s = tc[mask] - tstar
            if tag.kind == "odd":
                c1, c3 = tag.coeffs
                f[mask] = c1 * s + c3 * s ** 3 / 6.0
                fp[mask] = c1 + 0.5 * c3 * s ** 2
                fpp[mask] = c3 * s + 0.0
            else:
                c0, c2 = tag.coeffs
                f[mask] = c0 + 0.5 * c2 * s ** 2
                fp[mask] = c2 * s + 0.0
                fpp[mask] = np.full_like(s, c2)
        if scalar:
            return float(f[0]), float(fp[0]), float(fpp[0])
        return f, fp, fpp

    # deleted; perfbench/tracer.py's SPECS still looks both names up
    sample = removed("WarpProfile.sample")
    restrict = removed("WarpProfile.restrict")


def profile_from_callable(domain, f, fp, fpp, *,
                          parity: Optional[dict] = None) -> WarpProfile:
    """Wrap three vectorized callables (f, f', f'') as a profile."""

    def raw(t):
        return (np.asarray(f(t), dtype=float),
                np.asarray(fp(t), dtype=float),
                np.asarray(fpp(t), dtype=float))

    return WarpProfile(domain=(float(domain[0]), float(domain[1])),
                       raw_eval=raw, parity=dict(parity or {}))


def _auto_parity(domain, fn3_exact):
    """Tag endpoints of an analytic form where it vanishes (odd) or has a
    critical point (even); fn3_exact(t) -> (f, fp, fpp, fppp) scalars."""
    parity = {}
    for endpoint, tstar in (("left", domain[0]), ("right", domain[1])):
        f, fp, fpp, fppp = fn3_exact(tstar)
        scale = max(abs(f), abs(fp), 1e-300)
        if abs(f) <= 1e-12 * scale:
            parity[endpoint] = ParityTag("odd", coeffs=(fp, fppp))
        elif abs(fp) <= 1e-12 * scale:
            parity[endpoint] = ParityTag("even", coeffs=(f, fpp))
    return parity


def _sin_cos(th):
    return np.sin(th), np.cos(th)


# sin and cos of the last phase any closed form evaluated: a sweep evaluates
# a metric's warps at the same points, so closed forms of one omega (docking's
# cos and sin) share a block's sin and cos. 24 bytes per point are kept
_TRIG_MEMO = QueryMemo(1)


def closed_form_profile(kind: str, domain, *, amplitude: float = 1.0,
                        omega: float = 1.0) -> WarpProfile:
    """``amplitude*sin(omega*t)`` (kind "sine") or the corresponding cosine.

    The form must be positive on the open interior of the domain, so its
    phase span omega*(t1 - t0) is at most pi, one half-wave (up to rounding);
    positivity is checked on a dense sample. The form may vanish at an
    endpoint, which is then tagged as an odd smooth-closure point.
    """
    t0, t1 = float(domain[0]), float(domain[1])
    if not t1 > t0:
        raise InputError(f"empty domain [{t0}, {t1}]")
    if kind not in ("sine", "cosine"):
        raise InputError(f"unknown closed form {kind!r}")
    amp, w = float(amplitude), float(omega)
    if not amp > 0 or not w > 0:
        raise InputError("amplitude and omega must be positive")
    # the form's coefficients are amplitude * omega^k for k <= 3; all are
    # finite when the k = 3 one, the endpoint tags' third derivative, is
    try:
        top = amp * w ** 3
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise InputError(f"amplitude {amp} and omega {w} are out of "
                         "floating-point range: amplitude * omega^3 overflows")
    # a longer span has a zero inside, which a sample can miss by aliasing
    if w * (t1 - t0) > math.pi * (1.0 + 1e-12):
        raise InputError(f"{kind} profile on [{t0}, {t1}] spans the phase "
                         f"{w * (t1 - t0)}, more than one half-wave, pi")
    # order: the (sin, cos) pair as (trig, cotrig)
    trig, cotrig, sign, order = ((np.sin, np.cos, 1.0, 1) if kind == "sine"
                                 else (np.cos, np.sin, -1.0, -1))

    def triple(t):
        t = np.asarray(t, dtype=float)
        # + 0.0 turns a -0.0 product into +0.0 before the trig call
        th = w * t + 0.0
        tr, co = _TRIG_MEMO(th, _sin_cos)[::order]
        return amp * tr, sign * amp * w * co, -amp * w ** 2 * tr

    def exact(t):
        th = w * t + 0.0
        return (amp * float(trig(th)), sign * amp * w * float(cotrig(th)),
                -amp * w ** 2 * float(trig(th)),
                -sign * amp * w ** 3 * float(cotrig(th)))

    probe = np.linspace(t0, t1, 4097)
    vals = triple(probe)[0]
    scale = float(np.max(np.abs(vals))) or 1.0
    if vals[1:-1].min() <= 0.0:
        raise InputError(f"{kind} profile is not positive on the interior of "
                         f"[{t0}, {t1}]")
    if vals[0] < -1e-12 * scale or vals[-1] < -1e-12 * scale:
        raise InputError(f"{kind} profile is negative at an endpoint")

    return WarpProfile(domain=(t0, t1), raw_eval=triple,
                       parity=_auto_parity((t0, t1), exact))


def power_rhs(coef: float, exponent: float) -> Callable:
    """F(t, f, f') = coef * f**exponent (f > 0), as in sha_yang_profiles."""
    a, b = float(coef), float(exponent)
    return lambda t, f, fp: a * f ** b


def radial_floor_rhs(q: float) -> Callable:
    """F(t, f, f') = -f - q*(1 + f'^2)/f, the profile equation keeping the
    fiber Ricci term at its floor; q = n - 2 in n ambient dimensions."""
    qf = float(q)
    return lambda t, f, fp: -f - qf * (1.0 + fp * fp) / f


def solve_ivp_profile(rhs: Callable, f0: float, fp0: float,
                      domain) -> WarpProfile:
    """Profile defined by f'' = rhs(t, f, f'), integrated at ``SOLVER_TOL``.

    Dense output supplies (f, f', f'') anywhere in the domain, with f''
    recomputed from rhs. The solution must stay positive, starting from f0
    at least ``kernels.F_FLOOR``. Escape from positivity or a derivative
    blow-up raises DomainTruncationError carrying the reached t.
    """
    t0, t1 = float(domain[0]), float(domain[1])
    sol = integrate_ivp(rhs, t0, t1, float(f0), float(fp0), SOLVER_TOL)
    return _profile_from_solution(sol, {})


def _profile_from_solution(sol: DenseSolution, parity: dict,
                           extra_meta: Optional[dict] = None) -> WarpProfile:
    """The profile of ``sol`` on its domain, with the endpoint tags
    ``parity`` and the solver's statistics in ``solver_meta``."""
    meta = {"tol": SOLVER_TOL, "n_steps": len(sol.ts) - 1, "nfev": sol.nfev,
            "defect": sol.defect()}
    meta.update(extra_meta or {})
    return WarpProfile(domain=(sol.t0, sol.t_end),
                       raw_eval=lambda t: sol.eval(t), parity=parity,
                       solver_meta=meta)


def sha_yang_profiles(n: int, m: int, T: float):
    """The pair (f, h) closing a cone over an Einstein factor into a complete
    non-negatively curved space, together with the exponent alpha = 2(n-1)/m.

    f solves f'' = (alpha/2) f^(-alpha-1) with f(0) = 1, f'(0) = 0, and
    h = (2/alpha) f', so h(0) = 0, h'(0) = 1: h is odd and f even at t = 0.
    The conserved quantity f'^2 - (1 - f^-alpha) is evaluated along the
    solution; its maximum must stay below 10 * SOLVER_TOL.
    """
    int_ge("n", n, 2)
    int_ge("m", m, 2)
    if not T > 0:
        raise InputError(f"T must be positive, got {T}")

    alpha = 2.0 * (n - 1) / m
    rhs = power_rhs(alpha / 2.0, -alpha - 1.0)
    # integrate tighter than advertised so the first integral meets its bound;
    # cap the step so the dense output is second-derivative accurate (finite
    # differences of the interpolant are used as an oracle against it)
    sol = integrate_ivp(rhs, 0.0, T, 1.0, 0.0, SOLVER_TOL / 8.0, h_max=0.25)

    # a maximum: neither the order of the points nor a repeat changes it;
    # the solver's nodes already hold the endpoints 0 and T
    grid = np.concatenate((sol.ts, np.linspace(0.0, T, 4097)[1:-1]))
    f, fp, _ = sol.eval(grid)
    residual = float(np.max(np.abs(fp ** 2 - (1.0 - f ** -alpha))))
    if residual > 10.0 * SOLVER_TOL:
        raise IntegrationQualityError(
            f"first-integral residual {residual:.3e} exceeds "
            f"{10 * SOLVER_TOL:.3e}")

    f_profile = _profile_from_solution(
        sol, {"left": ParityTag("even", coeffs=(1.0, alpha / 2.0))},
        {"first_integral_residual": residual, "alpha": alpha})

    two_over_alpha = 2.0 / alpha

    def h_eval(t):
        fv, fpv, fppv = sol.eval(np.asarray(t, dtype=float))
        h = two_over_alpha * fpv
        hp = two_over_alpha * fppv
        hpp = -(alpha + 1.0) * fv ** (-alpha - 2.0) * fpv
        return h, hp, hpp

    h_profile = WarpProfile(
        domain=(0.0, sol.t_end), raw_eval=h_eval,
        parity={"left": ParityTag(
            "odd", coeffs=(1.0, -alpha * (alpha + 1.0) / 2.0))},
        solver_meta={"tol": SOLVER_TOL, "first_integral_residual": residual,
                     "alpha": alpha, "derived_from": "f via h = (2/alpha) f'"})
    return f_profile, h_profile, alpha


def closability_ode_profile(n: int, eps: float) -> WarpProfile:
    """Solution of f'' = -f - (n-2)(1 + f'^2)/f, f(0) = 1, f'(0) = 0, on
    [0, eps].

    Along the exact solution the expression -f''/f - (n-2)(1+f'^2)/f^2 equals
    1 identically. The solution collapses in finite time; if it leaves its
    admissible region before ``eps``, DomainTruncationError names the reached
    t and eps.
    """
    int_ge("n", n, 3)
    if not eps > 0:
        raise InputError("eps must be positive")
    sol = integrate_ivp(radial_floor_rhs(float(n - 2)), 0.0, eps, 1.0, 0.0,
                        SOLVER_TOL / 8.0)
    return _profile_from_solution(
        sol, {"left": ParityTag("even", coeffs=(1.0, float(-(n - 1))))})


def radial_floor_value(profile: WarpProfile, n: int, t):
    """-f''/f - (n-2)(1+f'^2)/f^2: the fiber Ricci of dt^2 + f^2 g when the
    fiber sits at its curvature floor -(n-2); identically 1 along
    closability_ode_profile solutions."""
    f, fp, fpp = profile.eval(t)
    return -fpp / f - (n - 2) * (1.0 + fp ** 2) / f ** 2


def neck_end(nu: float) -> float:
    """pi/(4 nu), where every neck warp of ``nu`` ends; an input error
    unless nu is positive and that end positive and finite."""
    if not nu > 0:
        raise InputError(f"nu must be positive, got {nu}")
    t_out = math.pi / (4.0 * nu)
    if math.isinf(t_out):
        raise InputError(f"nu = {nu} is too small: pi/(4 nu) overflows")
    if t_out == 0.0:
        raise InputError(f"nu = {nu} is too large: pi/(4 nu) rounds to 0")
    return t_out


def neck_profile(nu: float, s: float) -> WarpProfile:
    """sqrt(2)*sin(nu*t) on [s, pi/(4 nu)]: the neck warp whose outer slice
    has radius exactly 1 and principal curvature nu."""
    t_out = neck_end(nu)
    if not 0.0 < s < t_out:
        raise InputError(f"s must lie in (0, {t_out}), got {s}")
    return closed_form_profile("sine", (s, t_out),
                               amplitude=math.sqrt(2.0), omega=nu)


def _flat_decay_value(x):
    """exp(-x^2/(1-x)) for x < 1 and 0 from x = 1 on, without its slope.

    The formula is computed everywhere in one output array, with the
    operations of ``-x * x / (1.0 - x)`` in their order, and then zeroed
    where x < 1 fails (nan included); the discarded values may overflow or
    divide by zero, hence the silenced floating-point errors.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    with np.errstate(all="ignore"):
        np.negative(x, out=y)
        y *= x
        y /= 1.0 - x
        np.exp(y, out=y)
    y[~(x < 1.0)] = 0.0
    return y


@functools.cache
def _unit_integral(fn) -> CumulativeIntegral:
    """The antiderivative of the parameter-free integrand ``fn`` on [0, 1],
    built on first use and shared by every profile that rescales it."""
    return CumulativeIntegral(fn, 0.0, 1.0)


def _flat_decay(x):
    """exp(-x^2/(1-x)) on [0, 1): value 1 and slope 0 at 0, strictly
    decreasing, all derivatives vanish at 1. Returns (w, w')."""
    x = np.asarray(x, dtype=float)
    w = _flat_decay_value(x)
    with np.errstate(all="ignore"):
        wp = np.where(x < 1.0, -w * x * (2.0 - x) / (1.0 - x) ** 2, 0.0)
    return w, wp


def k_profile(eps_prime: float) -> WarpProfile:
    """The circle warp closing the doubled region: k(0) = 0, k'(0) = 1,
    k'' < 0 on the interior, and k together with all its derivatives is flat
    at eps_prime (k(eps_prime) > 0, k', k'' vanish there).

    k' is a smooth monotone step built from an exp(-1/x)-type bump; k is its
    integral. All stated conditions are re-checked after construction and a
    violation raises ConstructionError rather than returning silently.
    """
    if not eps_prime > 0:
        raise InputError(f"eps_prime must be positive, got {eps_prime}")
    ep = float(eps_prime)
    try:
        c3 = -2.0 / ep ** 2  # k'''(0)
    except (OverflowError, ZeroDivisionError):
        c3 = 0.0
    if c3 == 0.0 or math.isinf(c3):
        raise InputError(f"eps_prime {ep} is out of floating-point range: "
                         "1/eps_prime^2 over- or underflows")
    W = _unit_integral(_flat_decay_value)

    def triple(t):
        t = np.asarray(t, dtype=float)
        x = t / ep
        w, wp = _flat_decay(x)
        return ep * np.asarray(W(x), dtype=float), w, wp / ep

    k = WarpProfile(
        domain=(0.0, ep), raw_eval=triple,
        parity={"left": ParityTag("odd", coeffs=(1.0, c3)),
                "right": ParityTag("even", coeffs=(ep * float(W(1.0)), 0.0))},
        solver_meta={"eps_prime": ep})

    # post-conditions; failing any is a construction bug, not a verdict
    kv0, kp0, kpp0 = k.eval(0.0)
    kvE, kpE, kppE = k.eval(ep)
    checks = [
        ("k(0) = 0", abs(kv0) <= 1e-12),
        ("k'(0) = 1", abs(kp0 - 1.0) <= 1e-12),
        ("k(eps') > 0", kvE > 0.0),
        ("|k'(eps')| <= 1e-10", abs(kpE) <= 1e-10),
        ("|k''(eps')| <= 1e-10", abs(kppE) <= 1e-10),
    ]
    ts = np.linspace(0.0, ep, 66)[1:-1]
    kpp = k.eval(ts)[2]
    checks.append(("k'' < 0 on the interior (64 samples)", bool((kpp < 0.0).all())))
    delta = 1e-3 * ep
    k3 = (k.raw_eval(np.array([delta]))[2][0] - kpp0) / delta
    checks.append(("k'''(0) < 0", k3 < 0.0))
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise ConstructionError(f"k profile failed post-checks: {failed}")
    return k


def _collar_step(x):
    """exp(1 - 1/x) for x > 0 and 0 otherwise: rises from a flat 0 at x = 0
    to 1 at x = 1.

    The formula is computed everywhere in one output array and then zeroed
    where x > 0 fails (nan included); the discarded values divide by zero or
    overflow for x <= 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    with np.errstate(all="ignore"):
        np.divide(1.0, x, out=y)
        np.subtract(1.0, y, out=y)
        np.exp(y, out=y)
    y[~(x > 0.0)] = 0.0
    return y


def _collar_step_prime(x):
    """Derivative of ``_collar_step``: exp(1 - 1/x) / x^2 for x > 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return np.where(x > 0.0, np.exp(1.0 - 1.0 / x) / x ** 2, 0.0)


def collar_profile(c: float, length: float = 2.0) -> WarpProfile:
    """Cylinder warp with f(0) = 1, f'(0) = 2c, f'' < 0 on [0, 1) and
    f' = c from t = 1 on, smooth across the transition.

    f' ramps from 2c down to c through a one-sided flat step, so the join at
    t = 1 is infinitely smooth; f is recovered by quadrature. ``length`` is
    the domain extent and must exceed the unit ramp.
    """
    if not c > 0:
        raise InputError(f"c must be positive, got {c}")
    if not length > 1.0:
        raise InputError(f"length must exceed the unit ramp, got {length}")
    cc = float(c)
    # 0 < f' <= 2c, so f <= 1 + 2c * length; the C2 check below doubles f
    top = 1.0 + 2.0 * cc * float(length)
    if not math.isfinite(2.0 * top):
        raise InputError(f"c = {c} is out of floating-point range: the "
                         f"collar's f reaches up to 1 + 2c * {length}, whose "
                         "double overflows")

    big_phi = _unit_integral(_collar_step)
    phi_total = float(big_phi(1.0))

    def triple(t):
        t = np.asarray(t, dtype=float)
        u = np.clip(1.0 - t, 0.0, 1.0)
        f = 1.0 + cc * t + cc * (phi_total - np.asarray(big_phi(u), dtype=float))
        fp = cc * (1.0 + _collar_step(u))
        fpp = -cc * _collar_step_prime(u)
        return f, fp, fpp

    prof = WarpProfile(domain=(0.0, float(length)), raw_eval=triple,
                       solver_meta={"c": cc, "ramp": 1.0})

    # C2 smoke check across the transition by central differences, on the
    # stencils t - h, t, t + h around three centres t in one evaluation
    h = 1e-5
    centres = np.array([1.0 - 3 * h, 1.0, 1.0 + 3 * h])
    f, fp, fpp = prof.eval((centres[:, None] + np.array([-h, 0.0, h])).ravel())
    f_m, f_0, f_p = f.reshape(3, 3).T
    fp_fd = (f_p - f_m) / (2 * h)
    fpp_fd = (f_p - 2 * f_0 + f_m) / h ** 2
    if (np.abs(fp_fd - fp[1::3]) > 1e-7 * max(1.0, cc)).any() or \
       (np.abs(fpp_fd - fpp[1::3]) > 1e-4 * max(1.0, cc)).any():
        raise ConstructionError("collar profile is not C2 at the transition")
    return prof


def docking_R_profile() -> WarpProfile:
    """Default sphere warp for the ambient double construction: sin(t) on
    [0, pi/2], odd at 0 with slope 1, even at pi/2, concave throughout."""
    return closed_form_profile("sine", (0.0, math.pi / 2.0))


class ParityReport(Record):
    """Measured endpoint parity conditions; failures are carried, not raised."""

    conditions: tuple  # (name, residual, threshold, ok)
    passed: bool


def parity_check(p: WarpProfile, endpoint: str, parity: str, *,
                 unit_slope: bool = False) -> ParityReport:
    """Measure the endpoint conditions for the claimed parity.

    odd: f(t*) = 0 and f''(t*) = 0; with ``unit_slope`` also |f'(t*)| = 1
    (the smooth-closure condition for a unit-sphere block).
    even: f'(t*) = 0.
    """
    if endpoint not in ("left", "right"):
        raise InputError("endpoint must be 'left' or 'right'")
    if parity not in ("odd", "even"):
        raise InputError("parity must be 'odd' or 'even'")
    tstar = p.t0 if endpoint == "left" else p.t1
    f, fp, fpp = p.eval(tstar)
    tol = 1e-10
    if p.solver_meta and "tol" in p.solver_meta:
        tol = max(tol, 100.0 * p.solver_meta["tol"])

    conditions = []
    if parity == "odd":
        conditions.append(("value", abs(f), tol))
        if unit_slope:
            conditions.append(("unit_slope", abs(abs(fp) - 1.0), tol))
        conditions.append(("second_derivative", abs(fpp), tol))
    else:
        conditions.append(("slope", abs(fp), tol))
    rows = tuple((name, float(r), float(th), bool(r <= th))
                 for name, r, th in conditions)
    return ParityReport(conditions=rows, passed=all(r[3] for r in rows))


# deleted; perfbench/tracer.py's SPECS still looks each name up
splice_profiles = removed("splice_profiles")
mollify_profile = removed("mollify_profile")
scale_profile = removed("scale_profile")
finite_difference_residual = removed("finite_difference_residual")
