"""Initial value problems f'' = F(t, f, f') with dense, derivative-consistent output."""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import kernels
from .errors import DomainTruncationError, InputError
from .memo import QueryMemo
from .records import Record


class OdeRhs(Record):
    """A scalar second-order right-hand side f'' = F(t, f, f').

    ``func`` is called with Python floats by the stepping loop and with
    ndarrays when second derivatives of dense output are recomputed (never
    differenced).
    """

    func: Callable

    @staticmethod
    def power(coef: float, exponent: float) -> "OdeRhs":
        """F = coef * f**exponent (f > 0)."""
        a, b = float(coef), float(exponent)
        return OdeRhs(lambda t, f, fp: a * f ** b)

    @staticmethod
    def radial_floor(q: float) -> "OdeRhs":
        """F = -f - q*(1 + f'^2)/f, the profile equation keeping the fiber
        Ricci term at its floor; q = n - 2 in n ambient dimensions."""
        qf = float(q)
        return OdeRhs(lambda t, f, fp: -f - qf * (1.0 + fp * fp) / f)

    @staticmethod
    def from_callable(func: Callable) -> "OdeRhs":
        """Wrap F(t, f, fp); must accept ndarray arguments elementwise."""
        return OdeRhs(func)

    def __call__(self, t, f, fp):
        return self.func(t, f, fp)


class DenseSolution(Record):
    """Accepted nodes plus a quintic-Hermite continuous extension."""

    rhs: OdeRhs
    ts: np.ndarray
    fs: np.ndarray
    fps: np.ndarray
    fpps: np.ndarray
    nfev: int

    def __post_init__(self):
        # (f, f', f'') of the last query (see ``eval``) and the per-segment
        # coefficients of the interpolant. Not fields: no argument sets them
        # and ``repr`` leaves them out
        object.__setattr__(self, "_memo", QueryMemo(1))
        object.__setattr__(self, "_table", kernels.hermite_table(
            self.ts, self.fs, self.fps, self.fpps))

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def eval(self, t):
        """(f, f', f'') at the points of the 1-d array t; f'' is recomputed
        from the right-hand side.

        A query whose shape and bits equal the previous query's returns
        read-only views of the stored result instead of interpolating again
        (see ``QueryMemo``): profiles sharing one solution (f and h of
        sha-yang) are evaluated on the same grid one after the other.
        """
        return self._memo(np.asarray(t, dtype=float), self._interpolate)

    def _interpolate(self, tq):
        f, fp = kernels.dense_eval(self.ts, self.fs, self.fps, self.fpps, tq,
                                   self._table)
        return f, fp, np.asarray(self.rhs(tq, f, fp), dtype=float)

    def defect(self) -> float:
        """Max mismatch |p''(t_mid) - F(t_mid, p, p')| of the interpolant at
        segment midpoints; an a-posteriori quality measure of the solution."""
        if len(self.ts) < 2:
            return 0.0
        tm = 0.5 * (self.ts[:-1] + self.ts[1:])
        args = (self.ts, self.fs, self.fps, self.fpps)
        f, fp = kernels.dense_eval(*args, tm, self._table)
        rhs_val = np.asarray(self.rhs(tm, f, fp), dtype=float)
        # curvature of the interpolant via a tight central difference of p'
        h = np.minimum(1e-6, 0.25 * np.diff(self.ts))
        _, fp_hi = kernels.dense_eval(*args, tm + h, self._table)
        _, fp_lo = kernels.dense_eval(*args, tm - h, self._table)
        curv = (fp_hi - fp_lo) / (2.0 * h)
        return float(np.max(np.abs(curv - rhs_val)))


def integrate_ivp(rhs: OdeRhs, t0: float, t1: float, f0: float, fp0: float,
                  tol: float, *, h_max: float = np.inf,
                  max_steps: int = 200_000) -> DenseSolution:
    """Adaptively integrate f'' = F from t0 to t1.

    Stopping early, when f drops below ``kernels.F_FLOOR`` (after having been
    above it) or |f'| exceeds ``kernels.FP_CAP``, raises
    ``DomainTruncationError`` with the time reached. Every accepted step
    is at most ``h_max`` long, so an interval longer than ``h_max *
    max_steps`` is rejected before stepping.
    """
    if not t1 > t0:
        raise InputError(f"need t1 > t0, got [{t0}, {t1}]")
    if not (tol > 0 and np.isfinite(tol)):
        raise InputError(f"tol must be positive and finite, got {tol}")
    if t1 - t0 > h_max * max_steps:
        raise InputError(f"[{t0}, {t1}] cannot be covered in {max_steps} "
                         f"steps of at most {h_max}")

    ts, fs, fps, fpps, status, nfev = kernels.rk45_callback(
        rhs.func, float(t0), float(t1), float(f0), float(fp0), float(tol),
        float(tol), float(h_max), int(max_steps))

    reached = float(ts[-1])
    if status == kernels.STATUS_MAX_STEPS:
        raise DomainTruncationError(
            f"step budget exhausted at t = {reached}", reached)
    if status == kernels.STATUS_TRUNCATED:
        raise DomainTruncationError(
            f"solution left its admissible region at t = {reached} "
            f"(requested endpoint {t1})", reached)
    return DenseSolution(rhs=rhs, ts=ts, fs=fs, fps=fps, fpps=fpps,
                         nfev=int(nfev))
