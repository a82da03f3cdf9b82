"""Deterministic quadrature helpers.

Two tools: an adaptive Gauss-Kronrod integrator for one-off integrals, and a
fixed-panel cumulative integral for profiles defined as antiderivatives, where
``eval`` must be fast, vectorized, and reproducible.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InputError, WarpcheckError
from .kernels import segment_index
from .memo import QueryMemo

# 15-point Kronrod extension of 7-point Gauss, nodes on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights sit on every other Kronrod node.
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

# adaptive_quad's panel budget; CumulativeIntegral's fixed panels and its
# Gauss-Legendre nodes per panel
MAX_PANELS = 4096
CUMINT_PANELS = 256
CUMINT_ORDER = 24
# the Gauss-Legendre rule of that order on [-1, 1]: the repr of each value
# of numpy.polynomial.legendre.leggauss(24), whose import would cost every
# run. Read-only, as every CumulativeIntegral shares them
_CUMINT_X = np.array([
    -0.9951872199970213, -0.9747285559713095, -0.9382745520027328,
    -0.8864155270044011, -0.820001985973903, -0.7401241915785544,
    -0.6480936519369755, -0.5454214713888396, -0.4337935076260451,
    -0.3150426796961634, -0.1911188674736163, -0.06405689286260563,
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
    0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
])
_CUMINT_W = np.array([
    0.01234122979998869, 0.02853138862893356, 0.04427743881741941,
    0.05929858491543636, 0.07334648141108016, 0.0861901615319532,
    0.09761865210411393, 0.10744427011596556, 0.11550566805372552,
    0.1216704729278033, 0.12583745634682825, 0.12793819534675202,
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
    0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
])
_CUMINT_X.flags.writeable = _CUMINT_W.flags.writeable = False

# query points per block of CumulativeIntegral.__call__; a multiple of 4 (see
# row_blocks). A block's node matrix is 1024 x 24 doubles, 192 KB, so the
# integrand's passes over it stay in cache.
_QUERY_BLOCK = 1024
# points per block of grid_blocks; a multiple of 4 (see row_blocks). A
# block's temporaries (dense output, quadrature queries, component rows)
# peak at about 1.5 MB in a one-block sha-yang sweep whose memos miss
# (tracemalloc)
_GRID_BLOCK = 1 << 13
# distinct queries each CumulativeIntegral answers from memory: certify_collar
# cycles through exactly four (the point [1.0], the 9-point C2 stencil and
# the two 2048-point sweep grids), once per slope a closability search tries.
# Each slot holds a copy of a query and its result, 16 bytes per point, so
# four sweep blocks of 8192 points take 0.5 MB.
_MEMO_SLOTS = 4


def row_blocks(n: int, block: int) -> list[tuple[int, int]]:
    """(start, end) of each block of n rows, ``block`` a multiple of 4.

    The blocks give the same bits as one pass over all n rows where the only
    operation that is not elementwise is a ``(rows, k) @ w`` BLAS
    matrix-vector product, as in ``CumulativeIntegral.__call__``. That
    product takes rows four at a time and rounds the n mod 4 leftover rows
    its own way; a single row is rounded differently again. So every block
    but the last has ``block`` rows, and a last block shorter than 4 rows is
    merged into the one before it.
    """
    bounds = [(s, min(s + block, n)) for s in range(0, n, block)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < 4:
        bounds[-2:] = [(bounds[-2][0], n)]
    return bounds


def grid_blocks(lo: float, hi: float, n: int):
    """Yield ``np.linspace(lo, hi, n)[s:e]`` bit for bit for each (s, e) of
    ``row_blocks(n, _GRID_BLOCK)``, n >= 2, each block built without the
    other points: linspace's steps (float64 spacing, or its division-first
    branch when the spacing underflows to 0), then ``hi`` as the last point.

    A Ricci sweep or a CSV export walks its grid this way, so its memory
    does not grow with n, and a ``CumulativeIntegral`` queried block by
    block gives the bits of one query over the whole grid.
    """
    delta = np.subtract(hi, lo, dtype=float)
    step = delta / (n - 1)
    for s, e in row_blocks(n, _GRID_BLOCK):
        ts = np.arange(s, e, dtype=float)
        if step == 0:
            ts /= n - 1
            ts *= delta
        else:
            ts *= step
        ts += lo
        if e == n:
            ts[-1] = hi
        yield ts


def _gk15(fn, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(fn(mid + half * _XK), dtype=float)
    k = half * float(np.dot(_WK, vals))
    g = half * float(np.dot(_WG, vals[1::2]))
    return k, abs(k - g)


def adaptive_quad(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  rtol: float = 1e-9, atol: float = 1e-12) -> float:
    """Integrate ``fn`` over [a, b] with adaptive bisection.

    ``fn`` must accept an ndarray of abscissae. Panel order is fixed, so the
    result is reproducible bit-for-bit for a given integrand.
    """
    if b == a:
        return 0.0
    whole, _ = _gk15(fn, a, b)
    budget = max(atol, rtol * abs(whole))
    total = 0.0
    panels = 0
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        est, err = _gk15(fn, lo, hi)
        if err <= budget * (hi - lo) / (b - a) or panels >= MAX_PANELS:
            total += est
            panels += 1
        else:
            mid = 0.5 * (lo + hi)
            # push right first so the left half is processed next (left-to-right)
            stack.append((mid, hi))
            stack.append((lo, mid))
    if panels >= MAX_PANELS:
        raise WarpcheckError(
            f"adaptive quadrature did not converge on [{a}, {b}] "
            f"within {MAX_PANELS} panels")
    return total


class CumulativeIntegral:
    """Antiderivative F(t) = integral of ``fn`` from ``a`` to t on [a, b].

    Panel prefix sums are precomputed on a fixed grid; evaluation completes
    the partial panel with one Gauss-Legendre rule. Accurate to machine
    precision for smooth integrands and vectorized over query points, which
    are evaluated in the row blocks of ``row_blocks(n, _QUERY_BLOCK)``: the
    node matrix of one block stays in cache, and the result has the bits of
    one evaluation over all points.

    A query with the shape and bits of one of the last ``_MEMO_SLOTS``
    distinct queries returns a read-only view of the stored result (see
    ``QueryMemo``); a scalar query is keyed as a one-point array.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], a: float, b: float):
        if not b > a:
            raise InputError("cumulative integral needs b > a")
        self.fn = fn
        self.edges = np.linspace(a, b, CUMINT_PANELS + 1)
        x = self._x = _CUMINT_X
        w = self._w = _CUMINT_W
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        halfs = 0.5 * np.diff(self.edges)
        nodes = mids[:, None] + halfs[:, None] * x[None, :]
        vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        panel_ints = halfs * (vals @ w)
        self.prefix = np.concatenate([[0.0], np.cumsum(panel_ints)])
        self._memo = QueryMemo(_MEMO_SLOTS)

    def __call__(self, t):
        tq = np.asarray(t, dtype=float)
        (out,) = self._memo(np.atleast_1d(tq), self._integrate)
        return float(out[0]) if tq.ndim == 0 else out

    def _integrate(self, tq):
        idx = segment_index(self.edges, tq)
        lo = self.edges[idx]
        mid = 0.5 * (lo + tq)
        half = 0.5 * (tq - lo)
        sums = np.empty_like(half)
        k = len(self._x)
        for s, e in row_blocks(len(half), _QUERY_BLOCK):
            # each half repeated k times, then scaled by the rule and shifted
            # by mid in place: no broadcast into a new matrix, and the bits
            # of mid + half*x, since both operations commute
            nodes = np.repeat(half[s:e], k).reshape(-1, k)
            nodes *= self._x
            nodes += mid[s:e].reshape(-1, 1)
            vals = np.asarray(self.fn(nodes.ravel()), dtype=float)
            sums[s:e] = vals.reshape(*half[s:e].shape, k) @ self._w
        return (self.prefix[idx] + half * sums,)
