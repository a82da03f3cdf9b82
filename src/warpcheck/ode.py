"""Initial value problems f'' = F(t, f, f') with dense, derivative-consistent output."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import DomainTruncationError, InputError


@dataclass(frozen=True)
class OdeRhs:
    """Descriptor of a scalar second-order right-hand side f'' = F(t, f, f').

    Coded kinds reach the stepping loop as an integer code with packed
    parameters; ``from_callable`` passes the function itself. ``__call__``
    evaluates F vectorized, which is how second derivatives of dense output
    are recomputed (never differenced).
    """

    kind: str
    params: tuple = ()
    func: Optional[Callable] = None
    label: str = ""

    @staticmethod
    def linear(const: float = 0.0, coef_f: float = 0.0, coef_fp: float = 0.0) -> "OdeRhs":
        """F = const + coef_f * f + coef_fp * f'."""
        return OdeRhs("linear", (float(const), float(coef_f), float(coef_fp)),
                      label=f"linear({const}, {coef_f}, {coef_fp})")

    @staticmethod
    def power(coef: float, exponent: float) -> "OdeRhs":
        """F = coef * f**exponent (f > 0)."""
        return OdeRhs("power", (float(coef), float(exponent)),
                      label=f"power({coef}, {exponent})")

    @staticmethod
    def radial_floor(q: float) -> "OdeRhs":
        """F = -f - q*(1 + f'^2)/f, the profile equation keeping the fiber
        Ricci term at its floor; q = n - 2 in n ambient dimensions."""
        return OdeRhs("radial_floor", (float(q),), label=f"radial_floor({q})")

    @staticmethod
    def from_callable(func: Callable, label: str = "callable") -> "OdeRhs":
        """Wrap F(t, f, fp); must accept ndarray arguments elementwise."""
        return OdeRhs("callable", (), func, label=label)

    @property
    def code(self) -> int:
        return {"linear": kernels.RHS_LINEAR,
                "power": kernels.RHS_POWER,
                "radial_floor": kernels.RHS_RADIAL}[self.kind]

    def _packed(self) -> tuple[float, float, float]:
        p = list(self.params) + [0.0, 0.0, 0.0]
        return p[0], p[1], p[2]

    def __call__(self, t, f, fp):
        if self.kind == "linear":
            a0, a1, a2 = self.params
            return a0 + a1 * np.asarray(f, dtype=float) + a2 * np.asarray(fp, dtype=float)
        if self.kind == "power":
            a, b = self.params
            return a * np.asarray(f, dtype=float) ** b
        if self.kind == "radial_floor":
            (q,) = self.params
            f = np.asarray(f, dtype=float)
            fp = np.asarray(fp, dtype=float)
            return -f - q * (1.0 + fp * fp) / f
        return self.func(t, f, fp)


@dataclass(frozen=True)
class DenseSolution:
    """Accepted nodes plus a quintic-Hermite continuous extension."""

    rhs: OdeRhs
    ts: np.ndarray
    fs: np.ndarray
    fps: np.ndarray
    fpps: np.ndarray
    status: int
    tol: float
    nfev: int
    meta: dict = field(default_factory=dict)
    # (query copy, f, f', f'') of the last array query; see ``eval``
    _last: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def completed(self) -> bool:
        return self.status == kernels.STATUS_OK

    def eval(self, t):
        """(f, f', f'') at t; f'' is recomputed from the right-hand side.

        An array query whose bits equal the previous array query's returns
        copies of the stored result instead of interpolating again: profiles
        sharing one solution (f and h of sha-yang) are evaluated on the same
        grid one after the other. Keys compare as uint64, so -0.0 and 0.0
        differ; the query and the results are copied on the way in and out,
        so no caller can alter the stored slot.
        """
        tq = np.asarray(t, dtype=float)
        if tq.ndim == 0:
            tq1 = np.atleast_1d(tq)
            f, fp = kernels.dense_eval(self.ts, self.fs, self.fps, self.fpps, tq1)
            fpp = np.asarray(self.rhs(tq1, f, fp), dtype=float)
            return float(f[0]), float(fp[0]), float(fpp[0])
        last = self._last
        if last is not None and np.array_equal(last[0].view(np.uint64),
                                               tq.view(np.uint64)):
            return last[1].copy(), last[2].copy(), last[3].copy()
        f, fp = kernels.dense_eval(self.ts, self.fs, self.fps, self.fpps, tq)
        fpp = np.asarray(self.rhs(tq, f, fp), dtype=float)
        object.__setattr__(self, "_last", (tq.copy(), f, fp, fpp))
        return f.copy(), fp.copy(), fpp.copy()

    def defect(self) -> float:
        """Max mismatch |p''(t_mid) - F(t_mid, p, p')| of the interpolant at
        segment midpoints; an a-posteriori quality measure of the solution."""
        if len(self.ts) < 2:
            return 0.0
        tm = 0.5 * (self.ts[:-1] + self.ts[1:])
        f, fp = kernels.dense_eval(self.ts, self.fs, self.fps, self.fpps, tm)
        rhs_val = np.asarray(self.rhs(tm, f, fp), dtype=float)
        # curvature of the interpolant via a tight central difference of p'
        h = np.minimum(1e-6, 0.25 * np.diff(self.ts))
        _, fp_hi = kernels.dense_eval(self.ts, self.fs, self.fps, self.fpps, tm + h)
        _, fp_lo = kernels.dense_eval(self.ts, self.fs, self.fps, self.fpps, tm - h)
        curv = (fp_hi - fp_lo) / (2.0 * h)
        return float(np.max(np.abs(curv - rhs_val)))


def integrate_ivp(rhs: OdeRhs, t0: float, t1: float, f0: float, fp0: float,
                  tol: float, *, f_floor: float = 1e-4, fp_cap: float = 1e6,
                  h_max: float = np.inf, max_steps: int = 200_000,
                  on_truncate: str = "raise") -> DenseSolution:
    """Adaptively integrate f'' = F from t0 to t1.

    Stops early when f drops below ``f_floor`` (after having been above it) or
    |f'| exceeds ``fp_cap``; ``on_truncate`` decides whether that raises
    ``DomainTruncationError`` or returns the partial solution.
    """
    if not t1 > t0:
        raise InputError(f"need t1 > t0, got [{t0}, {t1}]")
    if not (tol > 0 and np.isfinite(tol)):
        raise InputError(f"tol must be positive and finite, got {tol}")
    if on_truncate not in ("raise", "return"):
        raise InputError("on_truncate must be 'raise' or 'return'")

    args = (float(t0), float(t1), float(f0), float(fp0), float(tol), float(tol),
            float(h_max), float(f_floor), float(fp_cap), int(max_steps))
    if rhs.kind == "callable":
        out = kernels.rk45_callback(rhs.func, *args)
    else:
        p0, p1, p2 = rhs._packed()
        out = kernels.rk45_coded(rhs.code, p0, p1, p2, *args)
    ts, fs, fps, fpps, status, nfev = out

    sol = DenseSolution(rhs=rhs, ts=ts, fs=fs, fps=fps, fpps=fpps,
                        status=int(status), tol=float(tol), nfev=int(nfev),
                        meta={"n_steps": len(ts) - 1})
    if status == kernels.STATUS_MAX_STEPS:
        raise DomainTruncationError(
            f"step budget exhausted at t = {sol.t_end}", sol.t_end, sol)
    if status == kernels.STATUS_TRUNCATED and on_truncate == "raise":
        raise DomainTruncationError(
            f"solution left its admissible region at t = {sol.t_end} "
            f"(requested endpoint {t1})", sol.t_end, sol)
    return sol
