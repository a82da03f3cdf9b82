"""Hot numeric kernels: adaptive Runge-Kutta stepping and dense evaluation.

One Dormand-Prince 5(4) loop (``_rk45``) integrates f'' = F(t, f, f') for
any right-hand side, and one vectorized quintic-Hermite evaluator
(``dense_eval``) interpolates its nodes; both are plain NumPy/Python.

The evaluator reads each segment's coefficients from a table with one row
per segment (``hermite_table``), built once per solution, so a query point
gathers one row instead of rebuilding the quintic from 8 node values.
``segment_index`` locates query points among ascending nodes; a monotone
query longer than the node list, such as a block of a sweep grid, is
located by one search of the query for the nodes.
"""
from __future__ import annotations

import math

import numpy as np

# perfbench/run.py reports it among its machine facts; there is no compiled path
USING_NUMBA = False


# Dormand-Prince 5(4) coefficients.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

STATUS_OK = 0
STATUS_TRUNCATED = 1
STATUS_MAX_STEPS = 2

# escape guards: no step lands below F_FLOOR or with |f'| > FP_CAP
F_FLOOR = 1e-4
FP_CAP = 1e6

# accepted steps of one solve before it stops with STATUS_MAX_STEPS
MAX_STEPS = 200_000

# the least step at t is MIN_STEP_REL * max(|t|, 1); a solve whose step
# would have to be shorter stops with STATUS_TRUNCATED
MIN_STEP_REL = 1e-13

# node buffer entries (beyond the initial node) before the first doubling
_NODES_INITIAL = 1024


def _rk45(rhs, t0, t1, f0, fp0, tol, h_max):
    """Integrate (f, f')' = (f', rhs(t, f, f')) from t0 to t1 with an
    embedded 5(4) pair, at relative and absolute tolerance ``tol``.

    Returns (ts, fs, fps, fpps, status, nfev) with one row per accepted node.
    The node buffers start at ``_NODES_INITIAL + 1`` entries and double when
    full, so memory follows the steps taken, not ``MAX_STEPS``.
    No step lands below F_FLOOR, so f0 must not lie below it. An error
    norm too large for a float rejects the step like a non-finite one.
    """
    size = min(MAX_STEPS, _NODES_INITIAL) + 1
    ts, fs, fps, fpps = (np.empty(size) for _ in range(4))

    t, f, fp = t0, f0, fp0
    k1f = fp
    k1p = float(rhs(t, f, fp))
    nfev = 1
    n = 0
    ts[0], fs[0], fps[0], fpps[0] = t, f, fp, k1p

    status = STATUS_OK
    h = (t1 - t0) / 100.0
    if h > h_max:
        h = h_max

    while t < t1:
        if n >= MAX_STEPS:
            status = STATUS_MAX_STEPS
            break
        h_min = MIN_STEP_REL * max(abs(t), 1.0)
        if h < h_min:
            status = STATUS_TRUNCATED
            break
        last = h >= t1 - t
        h_try = t1 - t if last else h

        y2f = f + h_try * (_A21 * k1f)
        y2p = fp + h_try * (_A21 * k1p)
        k2f, k2p = y2p, float(rhs(t + _C2 * h_try, y2f, y2p))
        y3f = f + h_try * (_A31 * k1f + _A32 * k2f)
        y3p = fp + h_try * (_A31 * k1p + _A32 * k2p)
        k3f, k3p = y3p, float(rhs(t + _C3 * h_try, y3f, y3p))
        y4f = f + h_try * (_A41 * k1f + _A42 * k2f + _A43 * k3f)
        y4p = fp + h_try * (_A41 * k1p + _A42 * k2p + _A43 * k3p)
        k4f, k4p = y4p, float(rhs(t + _C4 * h_try, y4f, y4p))
        y5f = f + h_try * (_A51 * k1f + _A52 * k2f + _A53 * k3f + _A54 * k4f)
        y5p = fp + h_try * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p)
        k5f, k5p = y5p, float(rhs(t + _C5 * h_try, y5f, y5p))
        y6f = f + h_try * (_A61 * k1f + _A62 * k2f + _A63 * k3f + _A64 * k4f + _A65 * k5f)
        y6p = fp + h_try * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p)
        k6f, k6p = y6p, float(rhs(t + h_try, y6f, y6p))
        fn = f + h_try * (_B1 * k1f + _B3 * k3f + _B4 * k4f + _B5 * k5f + _B6 * k6f)
        fpn = fp + h_try * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
        tn = t1 if last else t + h_try
        k7f, k7p = fpn, float(rhs(tn, fn, fpn))
        nfev += 6

        ef = h_try * (_E1 * k1f + _E3 * k3f + _E4 * k4f + _E5 * k5f + _E6 * k6f + _E7 * k7f)
        ep = h_try * (_E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * k7p)
        sf = tol + tol * max(abs(f), abs(fn))
        sp = tol + tol * max(abs(fp), abs(fpn))
        try:
            err = math.sqrt(0.5 * ((ef / sf) ** 2 + (ep / sp) ** 2))
        except OverflowError:
            err = math.inf

        bad = not (math.isfinite(fn) and math.isfinite(fpn) and math.isfinite(err)
                   and math.isfinite(k7p))
        if bad:
            h = 0.2 * h_try
            continue
        if err > 1.0:
            h = h_try * max(0.1, 0.9 * err ** -0.2)
            continue
        # step is accurate; enforce the escape guards on the landing point
        if fn < F_FLOOR or abs(fpn) > FP_CAP:
            h = 0.5 * h_try
            continue

        t, f, fp = tn, fn, fpn
        k1f, k1p = k7f, k7p
        n += 1
        if n == ts.size:
            # n <= MAX_STEPS, so the last growth still has room for node n
            size = min(2 * ts.size, MAX_STEPS + 1)
            ts, fs, fps, fpps = (np.concatenate((a, np.empty(size - a.size)))
                                 for a in (ts, fs, fps, fpps))
        ts[n], fs[n], fps[n], fpps[n] = t, f, fp, k1p

        # err can be exactly 0 for polynomial solutions
        fac = 5.0 if err == 0.0 else 0.9 * err ** -0.2
        h = h_try * min(5.0, max(0.2, fac))
        if h > h_max:
            h = h_max

    # copies, so a solution does not keep the unused capacity alive
    return (ts[:n + 1].copy(), fs[:n + 1].copy(), fps[:n + 1].copy(),
            fpps[:n + 1].copy(), status, nfev)


# perfbench/tracer.py wraps both public names by name; ode calls only
# rk45_callback, so each solve is counted once
rk45_callback = rk45_coded = _rk45


def segment_index(nodes, tq):
    """The segment [nodes[k], nodes[k + 1]] of ascending ``nodes`` that
    holds each query point, clipped to the first and last segment: what
    ``np.clip(np.searchsorted(nodes, tq, side="right") - 1, 0,
    len(nodes) - 2)`` returns.

    A monotone 1-d tq with more points than nodes is located the other way
    round: one search of tq for the nodes, after which each segment number is
    repeated over the run of points that lie in it. A non-increasing tq (the
    collar's ``clip(1 - t, 0, 1)``) goes through its reversed view. Both
    forms decide by the same comparisons, so ties and signed zeros land in
    the same segment; a NaN makes tq non-monotone.
    """
    last = len(nodes) - 2
    if tq.ndim == 1 and tq.size > len(nodes):
        if (tq[:-1] <= tq[1:]).all():
            return _ascending_index(nodes, tq, last)
        if (tq[:-1] >= tq[1:]).all():
            return _ascending_index(nodes, tq[::-1], last)[::-1]
    return np.clip(np.searchsorted(nodes, tq, side="right") - 1, 0, last)


def _ascending_index(nodes, tq, last):
    # tq[j] lies at or past nodes[k] exactly when j >= starts[k], so the
    # points before starts[0] come before every node and those from
    # starts[k] to starts[k + 1] in segment k
    starts = np.searchsorted(tq, nodes, side="left")
    runs = np.diff(starts, prepend=0, append=tq.size)
    return np.repeat(np.clip(np.arange(-1, len(nodes)), 0, last), runs)


def hermite_table(ts, fs, fps, fpps):
    """One row per segment [ts[k], ts[k + 1]] of the quintic Hermite
    interpolant of (f, f', f'') at the nodes, the columns

        t0, h, f0, h f0', h^2 f0''/2, h^2 f0'', c3, c4, c5, 3 c3, 4 c4

    with t0 the left node and h the segment's length: every factor of the
    two Horner lines of ``dense_eval`` that depends on the segment alone.
    """
    t0 = ts[:-1]
    h = ts[1:] - t0
    fa, fb = fs[:-1], fs[1:]
    ma, mb = h * fps[:-1], h * fps[1:]
    aa, ab = h * h * fpps[:-1], h * h * fpps[1:]

    big_a = (fb - fa) - ma - 0.5 * aa
    big_b = (mb - ma) - aa
    big_c = ab - aa
    c3 = 10.0 * big_a - 4.0 * big_b + 0.5 * big_c
    c4 = -15.0 * big_a + 7.0 * big_b - big_c
    c5 = 6.0 * big_a - 3.0 * big_b + 0.5 * big_c
    return np.stack((t0, h, fa, ma, 0.5 * aa, aa, c3, c4, c5, 3.0 * c3,
                     4.0 * c4), axis=-1)


def dense_eval(ts, fs, fps, fpps, tq, table):
    """Quintic-Hermite dense output: (f, f') at query points, vectorized.

    Each segment interpolates (f, f', f'') at both nodes, so f is O(h^6)
    accurate and f' is O(h^5); f'' is *not* interpolated here, callers
    recompute it from the right-hand side. The polynomial is evaluated in
    difference (Horner) form: the leading node value enters only additively,
    so f' keeps full relative accuracy even when |f| is large.

    ``table`` is ``hermite_table`` of the nodes; each query point gathers
    its segment's row of it. ``np.take`` gathers the same rows as
    ``table[idx]`` in under half the time.
    """
    tq = np.asarray(tq, dtype=float)
    (t0, h, fa, ma, half_aa, aa, c3, c4, c5, c3x3, c4x4) = np.moveaxis(
        np.take(table, segment_index(ts, tq), axis=0), -1, 0)
    s = (tq - t0) / h

    f = fa + s * (ma + s * (half_aa + s * (c3 + s * (c4 + s * c5))))
    fp = (ma + s * (aa + s * (c3x3 + s * (c4x4 + s * 5.0 * c5)))) / h
    return f, fp
