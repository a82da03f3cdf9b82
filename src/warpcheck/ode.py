"""Initial value problems f'' = F(t, f, f') with dense, derivative-consistent output."""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import kernels
from .errors import InputError
from .memo import QueryMemo
from .records import Record


class DenseSolution(Record):
    """Accepted nodes plus a quintic-Hermite continuous extension."""

    rhs: Callable  # F(t, f, f'), on floats and elementwise on ndarrays
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


def integrate_ivp(rhs: Callable, t0: float, t1: float, f0: float, fp0: float,
                  tol: float, *, h_max: float = np.inf) -> DenseSolution:
    """Adaptively integrate f'' = rhs(t, f, f') from t0 to t1.

    f0 must be at least ``kernels.F_FLOOR``. Stopping early, when f drops
    below that floor or |f'| exceeds ``kernels.FP_CAP``, raises
    an ``InputError`` that names the time reached. Every accepted step
    is at most ``h_max`` long, so an interval longer than ``h_max *
    kernels.MAX_STEPS`` is rejected before stepping, and so is one whose
    first step, min((t1 - t0)/100, h_max), lies below the least step at t0.
    """
    if not t1 > t0:
        raise InputError(f"need t1 > t0, got [{t0}, {t1}]")
    if not (tol > 0 and np.isfinite(tol)):
        raise InputError(f"tol must be positive and finite, got {tol}")
    if not f0 >= kernels.F_FLOOR:
        raise InputError(f"initial value {f0} lies below the positivity "
                         f"floor F_FLOOR = {kernels.F_FLOOR}")
    if t1 - t0 > h_max * kernels.MAX_STEPS:
        raise InputError(f"[{t0}, {t1}] cannot be covered in "
                         f"{kernels.MAX_STEPS} steps of at most {h_max}")
    h_first = min((float(t1) - float(t0)) / 100.0, h_max)
    h_least = kernels.MIN_STEP_REL * max(abs(float(t0)), 1.0)
    if h_first < h_least:
        raise InputError(f"the interval [{t0}, {t1}] is too short for the "
                         f"solver: its first step {h_first} lies below its "
                         f"least step {h_least}")

    ts, fs, fps, fpps, status, nfev = kernels.rk45_callback(
        rhs, float(t0), float(t1), float(f0), float(fp0), float(tol),
        float(h_max))

    reached = float(ts[-1])
    if status == kernels.STATUS_MAX_STEPS:
        raise InputError(f"step budget exhausted at t = {reached}")
    if status == kernels.STATUS_TRUNCATED:
        raise InputError(f"solution left its admissible region at t = "
                         f"{reached} (requested endpoint {t1})")
    return DenseSolution(rhs=rhs, ts=ts, fs=fs, fps=fps, fpps=fpps,
                         nfev=int(nfev))
