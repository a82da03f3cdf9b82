"""Initial value problems f'' = F(t, f, f') with dense, derivative-consistent output."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import DomainTruncationError, InputError


@dataclass(frozen=True)
class OdeRhs:
    """A scalar second-order right-hand side f'' = F(t, f, f').

    ``func`` is called with Python floats by the stepping loop and with
    ndarrays when second derivatives of dense output are recomputed (never
    differenced); ``label`` names it in solver metadata.
    """

    func: Callable
    label: str = "callable"

    @staticmethod
    def linear(const: float = 0.0, coef_f: float = 0.0, coef_fp: float = 0.0) -> "OdeRhs":
        """F = const + coef_f * f + coef_fp * f'."""
        a0, a1, a2 = float(const), float(coef_f), float(coef_fp)
        return OdeRhs(lambda t, f, fp: a0 + a1 * f + a2 * fp,
                      f"linear({const}, {coef_f}, {coef_fp})")

    @staticmethod
    def power(coef: float, exponent: float) -> "OdeRhs":
        """F = coef * f**exponent (f > 0)."""
        a, b = float(coef), float(exponent)
        return OdeRhs(lambda t, f, fp: a * f ** b, f"power({coef}, {exponent})")

    @staticmethod
    def radial_floor(q: float) -> "OdeRhs":
        """F = -f - q*(1 + f'^2)/f, the profile equation keeping the fiber
        Ricci term at its floor; q = n - 2 in n ambient dimensions."""
        qf = float(q)
        return OdeRhs(lambda t, f, fp: -f - qf * (1.0 + fp * fp) / f,
                      f"radial_floor({q})")

    @staticmethod
    def from_callable(func: Callable, label: str = "callable") -> "OdeRhs":
        """Wrap F(t, f, fp); must accept ndarray arguments elementwise."""
        return OdeRhs(func, label)

    def __call__(self, t, f, fp):
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
                  tol: float, *, h_max: float = np.inf, max_steps: int = 200_000,
                  on_truncate: str = "raise") -> DenseSolution:
    """Adaptively integrate f'' = F from t0 to t1.

    Stops early when f drops below ``kernels.F_FLOOR`` (after having been
    above it) or |f'| exceeds ``kernels.FP_CAP``; ``on_truncate`` decides
    whether that raises ``DomainTruncationError`` or returns the partial
    solution. Every accepted step is at most ``h_max`` long, so an interval
    longer than ``h_max * max_steps`` is rejected before stepping.
    """
    if not t1 > t0:
        raise InputError(f"need t1 > t0, got [{t0}, {t1}]")
    if not (tol > 0 and np.isfinite(tol)):
        raise InputError(f"tol must be positive and finite, got {tol}")
    if on_truncate not in ("raise", "return"):
        raise InputError("on_truncate must be 'raise' or 'return'")
    if t1 - t0 > h_max * max_steps:
        raise InputError(f"[{t0}, {t1}] cannot be covered in {max_steps} "
                         f"steps of at most {h_max}")

    ts, fs, fps, fpps, status, nfev = kernels.rk45_callback(
        rhs.func, float(t0), float(t1), float(f0), float(fp0), float(tol),
        float(tol), float(h_max), int(max_steps))

    sol = DenseSolution(rhs=rhs, ts=ts, fs=fs, fps=fps, fpps=fpps,
                        status=int(status), nfev=int(nfev),
                        meta={"n_steps": len(ts) - 1})
    if status == kernels.STATUS_MAX_STEPS:
        raise DomainTruncationError(
            f"step budget exhausted at t = {sol.t_end}", sol.t_end, sol)
    if status == kernels.STATUS_TRUNCATED and on_truncate == "raise":
        raise DomainTruncationError(
            f"solution left its admissible region at t = {sol.t_end} "
            f"(requested endpoint {t1})", sol.t_end, sol)
    return sol
