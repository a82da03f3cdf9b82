"""Deterministic quadrature helpers.

Two tools: an adaptive Gauss-Kronrod integrator for one-off integrals, and a
fixed-panel cumulative integral for profiles defined as antiderivatives, where
``eval`` must be fast, vectorized, and reproducible.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import WarpcheckError

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
    precision for smooth integrands and vectorized over query points.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], a: float, b: float):
        if not b > a:
            raise WarpcheckError("cumulative integral needs b > a")
        self.fn = fn
        self.edges = np.linspace(a, b, CUMINT_PANELS + 1)
        x, w = np.polynomial.legendre.leggauss(CUMINT_ORDER)
        self._x = x
        self._w = w
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        halfs = 0.5 * np.diff(self.edges)
        nodes = mids[:, None] + halfs[:, None] * x[None, :]
        vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        panel_ints = halfs * (vals @ w)
        self.prefix = np.concatenate([[0.0], np.cumsum(panel_ints)])

    def __call__(self, t):
        tq = np.asarray(t, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        idx = np.clip(np.searchsorted(self.edges, tq, side="right") - 1,
                      0, len(self.edges) - 2)
        lo = self.edges[idx]
        mid = 0.5 * (lo + tq)
        half = 0.5 * (tq - lo)
        nodes = mid[:, None] + half[:, None] * self._x[None, :]
        vals = np.asarray(self.fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        out = self.prefix[idx] + half * (vals @ self._w)
        return float(out[0]) if scalar else out
