"""Bit-exactness of the evaluation hot paths against their earlier forms.

The earlier implementations are kept here as oracles. Every array comparison
is on uint64 views, so -0.0 against 0.0 or a changed last bit fails; CSV
exports are compared by file bytes. The oracles silence all floating-point
errors, because the edge grids include inf and nan; the seed forms only
silenced underflow on the inputs they were given.
"""
import contextlib
import functools
import io
import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cone_profile
from warpcheck import (cli, constructions, curvature, floatrepr, kernels,
                       profiles, quadrature, report)
from warpcheck.constructions import (certify_collar, docking_ambient,
                                     gN_regions)
from warpcheck.curvature import (MultiWarpedMetric, _component_arrays,
                                 _ordered_sum, ricci_report)
from warpcheck.errors import InputError
from warpcheck.factors import abstract_factor, round_sphere_factor
from warpcheck.memo import QueryMemo
from warpcheck.ode import DenseSolution, integrate_ivp
from warpcheck.profiles import (_collar_step, _flat_decay, _flat_decay_value,
                                closed_form_profile, collar_profile,
                                k_profile, power_rhs, radial_floor_rhs,
                                sha_yang_profiles)
from warpcheck.quadrature import CumulativeIntegral, grid_blocks, row_blocks
from warpcheck.records import Record


# the unpatched evaluator, for oracle values while a test counts its calls
DENSE_EVAL = kernels.dense_eval


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


# --- oracles: the masked / sorting forms these hot paths replaced ----------

def sorted_sum(rows):
    if rows.shape[0] == 1:
        return rows[0].copy()
    ordered = np.sort(rows, axis=0)
    total = ordered[0].copy()
    for i in range(1, ordered.shape[0]):
        total += ordered[i]
    return total


def masked_phi(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    with np.errstate(all="ignore"):
        out[pos] = np.exp(1.0 - 1.0 / x[pos])
    return out


def masked_phi_prime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    with np.errstate(all="ignore"):
        out[pos] = np.exp(1.0 - 1.0 / x[pos]) / x[pos] ** 2
    return out


def one_shot_query(ci, t):
    """``CumulativeIntegral.__call__`` before row blocks: one node matrix
    for all query points."""
    tq = np.asarray(t, dtype=float)
    scalar = tq.ndim == 0
    tq = np.atleast_1d(tq)
    idx = np.clip(np.searchsorted(ci.edges, tq, side="right") - 1,
                  0, len(ci.edges) - 2)
    lo = ci.edges[idx]
    mid = 0.5 * (lo + tq)
    half = 0.5 * (tq - lo)
    nodes = mid[:, None] + half[:, None] * ci._x[None, :]
    vals = np.asarray(ci.fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    out = ci.prefix[idx] + half * (vals @ ci._w)
    return float(out[0]) if scalar else out


def masked_flat_decay(x):
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    wp = np.zeros_like(x)
    inside = x < 1.0
    xi = x[inside]
    with np.errstate(all="ignore"):
        wi = np.exp(-xi * xi / (1.0 - xi))
        w[inside] = wi
        wp[inside] = -wi * xi * (2.0 - xi) / (1.0 - xi) ** 2
    return w, wp


def per_point_dense_eval(ts, fs, fps, fpps, tq):
    """``kernels.dense_eval`` before the per-segment table: every query point
    gathers its segment's 8 node values and builds the quintic's
    coefficients again."""
    tq = np.asarray(tq, dtype=float)
    idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
    t0 = ts[idx]
    h = ts[idx + 1] - t0
    s = (tq - t0) / h

    fa, fb = fs[idx], fs[idx + 1]
    ma, mb = h * fps[idx], h * fps[idx + 1]
    aa, ab = h * h * fpps[idx], h * h * fpps[idx + 1]

    big_a = (fb - fa) - ma - 0.5 * aa
    big_b = (mb - ma) - aa
    big_c = ab - aa
    c3 = 10.0 * big_a - 4.0 * big_b + 0.5 * big_c
    c4 = -15.0 * big_a + 7.0 * big_b - big_c
    c5 = 6.0 * big_a - 3.0 * big_b + 0.5 * big_c

    f = fa + s * (ma + s * (0.5 * aa + s * (c3 + s * (c4 + s * c5))))
    fp = (ma + s * (aa + s * (3.0 * c3 + s * (4.0 * c4 + s * 5.0 * c5)))) / h
    return f, fp


def clipped_searchsorted(nodes, tq):
    """The segment lookup ``kernels.segment_index`` replaced."""
    return np.clip(np.searchsorted(nodes, tq, side="right") - 1, 0,
                   len(nodes) - 2)


# --- _ordered_sum ------------------------------------------------------------

SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
FLOATS = st.floats(allow_nan=False) | SPECIALS


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=40))
def test_two_row_sum_has_the_bits_of_sort_then_add(pairs):
    rows = np.array(pairs, dtype=float).T.copy()
    with np.errstate(all="ignore"):
        assert_same_bits(_ordered_sum(rows), sorted_sum(rows))
        assert_same_bits(_ordered_sum(rows[::-1]), sorted_sum(rows))


def test_two_row_sum_of_nan_payloads_stays_nan():
    # np.sort rewrites NaN payloads to the canonical quiet NaN, so only the
    # NaN-ness of such a sum is order-independent, not its payload bits
    payload = np.array([0x7FF8000000000123, 0xFFF8000000000000],
                       dtype=np.uint64).view(float)
    rows = np.array([[payload[0], 1.0, payload[1]],
                     [2.0, payload[0], payload[0]]])
    with np.errstate(all="ignore"):
        assert np.isnan(_ordered_sum(rows)).all()
        assert np.isnan(sorted_sum(rows)).all()


def test_three_or_more_rows_still_sum_in_ascending_order():
    rows = np.array([[1e16, -1e16, 1.0], [1.0, 1.0, 1e16], [-1e16, 1e16, -1e16]])
    for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        assert_same_bits(_ordered_sum(rows[perm]), sorted_sum(rows))


# --- mask-free quadrature integrands ------------------------------------------

EDGE_GRID = np.concatenate([
    np.array([-np.inf, -1e300, -2.0, -1.0, -1e-300, -5e-324, -0.0, 0.0,
              5e-324, 1e-300, 1e-3, 0.5, 1.0 - 2.0 ** -52, 1.0,
              1.0 + 2.0 ** -52, 2.0, 1e300, np.inf, np.nan]),
    np.linspace(-0.5, 1.5, 2001),
])


# the points of the edge grid inside the collar's domain [0, 2]
COLLAR_EDGE_GRID = EDGE_GRID[(EDGE_GRID >= 0.0) & (EDGE_GRID <= 2.0)]


def test_collar_step_matches_masked_form():
    assert_same_bits(_collar_step(EDGE_GRID), masked_phi(EDGE_GRID))
    assert_same_bits(_collar_step(0.25), masked_phi(np.float64(0.25)))


@pytest.mark.parametrize("c", [0.1, 0.3])
def test_collar_second_derivative_matches_masked_form(c):
    # f'' reuses the step of f': -c step(u)/u^2 for u = 1 - t > 0, else 0
    u = np.clip(1.0 - COLLAR_EDGE_GRID, 0.0, 1.0)
    fpp = collar_profile(c).eval(COLLAR_EDGE_GRID)[2]
    assert_same_bits(fpp, -c * masked_phi_prime(u))


def test_flat_decay_matches_masked_form():
    w_ref, wp_ref = masked_flat_decay(EDGE_GRID)
    w, wp = _flat_decay(EDGE_GRID)
    assert_same_bits(_flat_decay_value(EDGE_GRID), w_ref)
    assert_same_bits(_flat_decay_value(0.25),
                     masked_flat_decay(np.float64(0.25))[0])
    assert_same_bits(w, w_ref)
    assert_same_bits(wp, wp_ref)


def test_integrands_leave_their_input_unchanged():
    x = EDGE_GRID.copy()
    for fn in (_collar_step, _flat_decay_value, _flat_decay):
        fn(x)
        assert_same_bits(x, EDGE_GRID)


def test_integrands_raise_no_floating_point_warnings():
    with np.errstate(all="raise"):
        _collar_step(EDGE_GRID)
        _flat_decay(EDGE_GRID)


@pytest.mark.parametrize("eps_prime", [0.15, 0.2])
def test_k_profile_matches_masked_integrand(eps_prime):
    W = CumulativeIntegral(lambda x: masked_flat_decay(x)[0], 0.0, 1.0)
    t = np.linspace(0.0, eps_prime, 3001)
    x = t / eps_prime
    w, wp = masked_flat_decay(x)
    expect = (eps_prime * W(x), w, wp / eps_prime)
    for got, ref in zip(k_profile(eps_prime).raw_eval(t), expect):
        assert_same_bits(got, ref)


@pytest.mark.parametrize("c", [0.1, 0.3])
def test_collar_profile_matches_masked_integrand(c):
    big_phi = CumulativeIntegral(masked_phi, 0.0, 1.0)
    total = float(big_phi(1.0))
    t = np.linspace(0.0, 2.0, 3001)
    u = np.clip(1.0 - t, 0.0, 1.0)
    expect = (1.0 + c * t + c * (total - big_phi(u)),
              c * (1.0 + masked_phi(u)), -c * masked_phi_prime(u))
    for got, ref in zip(collar_profile(c).raw_eval(t), expect):
        assert_same_bits(got, ref)


# --- right-hand sides --------------------------------------------------------

def coded_rhs(code, p0, p1, p2, t, f, fp):
    """The former integer-coded right-hand side of the stepping loop; with
    ndarrays it is also the former vectorized dispatch of the right-hand
    side record, which used the same expressions."""
    if code == 1:
        return p0 * f ** p1
    return -f - p0 * (1.0 + fp * fp) / f


# the ids keep the numbering they had beside the removed linear form (code 0)
@pytest.mark.parametrize("rhs, code, params, t1", [
    (power_rhs(0.5, -2.0), 1, (0.5, -2.0), 50.0),
    (power_rhs(1.5, -4.0), 1, (1.5, -4.0), 20.0),
    (radial_floor_rhs(1.0), 2, (1.0,), 5.0),
    (radial_floor_rhs(3), 2, (3.0,), 2.0),
], ids=["rhs1-1-params1-50.0", "rhs2-1-params2-20.0", "rhs3-2-params3-5.0",
        "rhs4-2-params4-2.0"])
def test_rhs_closures_keep_the_bits_of_the_coded_forms(rhs, code, params, t1):
    # the radial-floor cases collapse before t1, where integrate_ivp refuses:
    # compare the stepping loop's partial solution for them
    p0, p1, p2 = (*params, 0.0, 0.0, 0.0)[:3]
    ts, fs, fps, fpps, status, nfev = kernels._rk45(
        functools.partial(coded_rhs, code, p0, p1, p2),
        0.0, t1, 1.0, 0.0, 1e-10, np.inf)
    try:
        sol = integrate_ivp(rhs, 0.0, t1, 1.0, 0.0, 1e-10)
        got_status = kernels.STATUS_OK
    except InputError as exc:
        # only a stop of the stepping loop has a partial solution to compare
        if not re.search("admissible region|step budget", str(exc)):
            raise
        got = kernels.rk45_callback(rhs, 0.0, t1, 1.0, 0.0, 1e-10, np.inf)
        got_status = got[4]
        sol = DenseSolution(rhs, *got[:4], got[5])
    for a, b in zip((sol.ts, sol.fs, sol.fps, sol.fpps), (ts, fs, fps, fpps)):
        assert_same_bits(a, b)
    assert (got_status, sol.nfev) == (status, nfev)
    tq = np.linspace(0.0, sol.t_end, 1001)
    f, fp, fpp = sol.eval(tq)
    assert_same_bits(fpp, coded_rhs(code, p0, p1, p2, tq, f, fp))


# --- DenseSolution.eval memo ----------------------------------------------------

@pytest.fixture
def solution():
    return integrate_ivp(power_rhs(0.5, -2.0), 0.0, 2.0, 1.0, 0.0, 1e-10)


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []

    def counted(ts, fs, fps, fpps, tq, table):
        calls.append(np.size(tq))
        return DENSE_EVAL(ts, fs, fps, fpps, tq, table)

    monkeypatch.setattr(kernels, "dense_eval", counted)
    return calls


def fresh(sol, tq):
    nodes = (sol.ts, sol.fs, sol.fps, sol.fpps)
    f, fp = DENSE_EVAL(*nodes, tq, kernels.hermite_table(*nodes))
    return f, fp, sol.rhs(tq, f, fp)


def test_repeated_query_reuses_one_interpolation(solution, kernel_calls):
    tq = np.linspace(0.0, 2.0, 513)
    first = solution.eval(tq)
    second = solution.eval(tq.copy())
    assert kernel_calls == [513]
    for a, b, ref in zip(first, second, fresh(solution, tq)):
        assert_same_bits(a, ref)
        assert_same_bits(b, ref)
        assert a is not b


def test_mutating_results_or_query_does_not_reach_the_memo(solution,
                                                           kernel_calls):
    tq = np.linspace(0.0, 2.0, 257)
    ref = fresh(solution, tq.copy())
    for _ in range(3):  # a miss, then two hits
        results = solution.eval(tq)
        for got, want in zip(results, ref):
            assert_same_bits(got, want)
            # a read-only view: neither a write nor a flag flip gets through
            with pytest.raises(ValueError):
                got[:] = 7.0
            with pytest.raises(ValueError):
                got.flags.writeable = True

    moved = tq[::-1].copy()
    tq[:] = moved  # the caller rewrites its query array in place
    for got, want in zip(solution.eval(tq), fresh(solution, moved)):
        assert_same_bits(got, want)
    assert len(kernel_calls) == 2


def test_signed_zero_queries_do_not_share_a_slot(solution, kernel_calls):
    solution.eval(np.array([0.0, 1.0]))
    solution.eval(np.array([-0.0, 1.0]))
    solution.eval(np.array([0.0, 1.0]))
    solution.eval(np.array([[0.0], [1.0]]))
    assert len(kernel_calls) == 4


def test_memo_is_not_part_of_identity(solution):
    before = repr(solution)
    solution.eval(np.linspace(0.0, 2.0, 9))
    assert repr(solution) == before
    assert "_last" not in before


# --- per-segment Hermite table and monotone segment lookup -------------------

def query_kinds(nodes, tq):
    """Named query arrays over ``nodes``: tq ascending, descending and as
    given, the nodes themselves (ascending, descending and each repeated),
    points before the first and after the last node, and one-point queries."""
    lo, hi = nodes[0], nodes[-1]
    span = hi - lo
    ordered = np.sort(tq)
    outside = np.array([lo - span, lo - 0.5 * span, hi + 0.5 * span,
                        hi + span])
    kinds = {
        "ascending": ordered,
        "descending": ordered[::-1],
        "unsorted": tq,
        "nodes": nodes,
        "nodes-descending": nodes[::-1],
        "nodes-repeated": np.repeat(nodes, 3),
        "with-nodes": np.sort(np.concatenate([tq, nodes])),
        "outside": np.sort(np.concatenate([tq, outside])),
        "outside-descending": np.sort(np.concatenate([tq, outside]))[::-1],
    }
    for name, t in (("first-node", lo), ("last-node", hi),
                    ("before", lo - span), ("after", hi + span),
                    ("inner", tq[0])):
        kinds["point-" + name] = np.array([t])
    return kinds


def assert_dense_eval_matches_per_point(ts, fs, fps, fpps, tq):
    table = kernels.hermite_table(ts, fs, fps, fpps)
    assert table.shape == (len(ts) - 1, 11)
    for t in query_kinds(ts, tq).values():
        ref = per_point_dense_eval(ts, fs, fps, fpps, t)
        for a, b in zip(DENSE_EVAL(ts, fs, fps, fpps, t, table), ref):
            assert_same_bits(a, b)


MODERATE = st.floats(-1e3, 1e3)


@st.composite
def node_sets(draw):
    """Strictly increasing nodes with moderate (f, f', f'') at each, and
    queries over and around them: more of them than nodes, so the monotone
    lookup is taken."""
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=24))
    ts = draw(st.floats(-100.0, 100.0)) + np.cumsum([0.0, *steps])
    n = len(ts)
    fs, fps, fpps = (np.array(draw(st.lists(MODERATE, min_size=n,
                                            max_size=n)))
                     for _ in range(3))
    lo, hi = ts[0], ts[-1]
    tq = draw(st.lists(st.floats(lo - 1.0, hi + 1.0), min_size=n + 1,
                       max_size=4 * n + 8))
    return ts, fs, fps, fpps, np.array(tq)


@settings(max_examples=200, deadline=None)
@given(node_sets())
def test_table_dense_eval_has_the_bits_of_the_per_point_form(case):
    ts, fs, fps, fpps, tq = case
    assert np.all(np.diff(ts) > 0.0)
    assert_dense_eval_matches_per_point(ts, fs, fps, fpps, tq)


def sha_yang_solution():
    # the IVP of sha_yang_profiles(3, 2, 50.0): alpha = 2
    return integrate_ivp(power_rhs(1.0, -3.0), 0.0, 50.0, 1.0, 0.0,
                         profiles.SOLVER_TOL / 8.0, h_max=0.25)


def radial_floor_solution():
    # collapses before t1, where integrate_ivp refuses: the stepping loop's
    # partial solution
    rhs = radial_floor_rhs(3)
    ts, fs, fps, fpps, status, nfev = kernels.rk45_callback(
        rhs, 0.0, 2.0, 1.0, 0.0, 1e-10, np.inf)
    assert status == kernels.STATUS_TRUNCATED
    return DenseSolution(rhs, ts, fs, fps, fpps, nfev)


@pytest.mark.parametrize("build", [sha_yang_solution, radial_floor_solution],
                         ids=["sha-yang", "radial-floor"])
def test_table_dense_eval_on_solution_nodes(build):
    sol = build()
    ts, fs, fps, fpps = sol.ts, sol.fs, sol.fps, sol.fpps
    assert_same_bits(sol._table, kernels.hermite_table(ts, fs, fps, fpps))
    tq = np.random.default_rng(len(ts)).uniform(ts[0], ts[-1], 5 * len(ts))
    assert_dense_eval_matches_per_point(ts, fs, fps, fpps, tq)
    # a sweep block and the solution's own evaluation
    grid = np.linspace(ts[0], ts[-1], B)
    ref = per_point_dense_eval(ts, fs, fps, fpps, grid)
    f, fp, _ = sol.eval(grid)
    assert_same_bits(f, ref[0])
    assert_same_bits(fp, ref[1])


def assert_segments_match(nodes, tq):
    got = kernels.segment_index(nodes, tq)
    ref = clipped_searchsorted(nodes, tq)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)


@settings(max_examples=200, deadline=None)
@given(node_sets())
def test_segment_index_matches_clipped_searchsorted(case):
    ts, _, _, _, tq = case
    for t in query_kinds(ts, tq).values():
        assert_segments_match(ts, t)


EDGES = np.linspace(0.0, 1.0, quadrature.CUMINT_PANELS + 1)


@pytest.mark.parametrize("name, tq", [
    ("ties", np.repeat(EDGES[::8], 20)),
    ("ties-descending", np.repeat(EDGES[::8], 20)[::-1]),
    ("signed-zeros", np.array([-0.0, 0.0] * 200 + [0.5] * 100)),
    ("signed-zeros-descending",
     np.array([0.5] * 100 + [0.0, -0.0] * 200)),
    ("all-negative-zero", np.full(300, -0.0)),
    ("collar-trailing-zeros",
     np.clip(1.0 - np.linspace(0.0, 2.0, 2048), 0.0, 1.0)),
    ("infinities", np.concatenate([[-np.inf], np.linspace(-1, 2, 400),
                                   [np.inf]])),
    ("nan", np.concatenate([np.linspace(0.0, 1.0, 400), [np.nan]])),
    ("no-longer-than-nodes", np.linspace(0.0, 1.0, EDGES.size)),
    ("shorter-than-nodes", np.linspace(1.0, 0.0, 100)),
    ("empty", np.array([])),
    ("column", np.linspace(0.0, 1.0, 600)[:, None]),
    ("scalar", np.float64(0.3)),
])
def test_segment_index_edge_queries(name, tq):
    assert_segments_match(EDGES, tq)
    # nodes with a zero that is -0.0
    assert_segments_match(np.concatenate([[-0.0], EDGES[1:]]), tq)


def test_collar_sweep_queries_take_the_reversed_lookup(monkeypatch):
    # the collar's u = clip(1 - t, 0, 1) is non-increasing: its integral
    # queries are located through the reversed view
    ascending = []
    lookup = kernels._ascending_index

    def counted(nodes, tq, last):
        ascending.append(tq.strides[0] < 0)
        return lookup(nodes, tq, last)

    monkeypatch.setattr(kernels, "_ascending_index", counted)
    big_phi = CumulativeIntegral(_collar_step, 0.0, 1.0)
    u = np.clip(1.0 - np.linspace(0.0, 2.0, 2048), 0.0, 1.0)
    assert_same_bits(big_phi(u), one_shot_query(big_phi, u))
    assert ascending == [True]


# --- WarpProfile.eval range handling ------------------------------------------

@pytest.mark.parametrize("domain", [(0.0, 2.0), (-2.0, 0.0), (0.25, 2.0)])
@pytest.mark.parametrize("t", [
    [-0.0], [0.0], [-0.0, 1.0, 0.0], [-2.0, -0.0], [-1.0 - 1e-10],
    [2.0 + 1e-10, 0.25], [0.25 - 1e-10], [0.5, 1.5], [-1.5, -0.5], []])
def test_eval_keeps_the_bits_of_clipping_every_query(domain, t):
    # points equal to an end (signed zeros included) or outside it within
    # the slack: eval clipped every query before it skipped the clip for
    # strictly inner ones, and clipping twice is clipping once
    t0, t1 = domain
    tq = np.array([x for x in t if t0 - 1e-9 <= x <= t1 + 1e-9])
    untagged = profiles.profile_from_callable(
        domain, lambda u: 3.0 + u, lambda u: 1.0 + 0.0 * u,
        lambda u: 0.0 * u)
    tag = profiles.ParityTag("odd", (1.0, 0.0))
    for p in (untagged, untagged.replace(parity={"left": tag}),
              untagged.replace(parity={"right": tag})):
        for got, ref in zip(p.eval(tq), p.eval(np.clip(tq, t0, t1))):
            assert_same_bits(got, ref)


# --- CumulativeIntegral memo -------------------------------------------------

@pytest.fixture
def counted_phi():
    """A fresh integral of the collar step and the point count of every
    query that reaches the integrand."""
    queries = []
    phi = CumulativeIntegral(_collar_step, 0.0, 1.0)
    integrate = phi._integrate

    def counted(tq):
        queries.append(tq.size)
        return integrate(tq)

    phi._integrate = counted
    return phi, queries


def test_repeated_integral_query_integrates_once(counted_phi):
    phi, queries = counted_phi
    t = query_points(2048)
    ref = one_shot_query(phi, t)
    first = phi(t)
    second = phi(t.copy())
    assert queries == [2048]
    assert_same_bits(first, ref)
    assert_same_bits(second, ref)
    assert first is not second


def test_mutating_integral_results_or_query_does_not_reach_the_memo(
        counted_phi):
    phi, queries = counted_phi
    t = query_points(257)
    ref = one_shot_query(phi, t.copy())
    for _ in range(3):  # a miss, then two hits
        out = phi(t)
        assert_same_bits(out, ref)
        with pytest.raises(ValueError):
            out[:] = 7.0

    moved = t[::-1].copy()
    t[:] = moved  # the caller rewrites its query array in place
    assert_same_bits(phi(t), one_shot_query(phi, moved))
    assert queries == [257, 257]


def test_integral_signed_zeros_and_shapes_do_not_share_a_slot(counted_phi):
    phi, queries = counted_phi
    phi(np.array([0.0, 0.5]))
    phi(np.array([-0.0, 0.5]))
    phi(np.array([0.0, 0.5]))
    column = phi(np.array([[0.0], [0.5]]))
    assert column.shape == (2, 1)
    assert queries == [2, 2, 2]


def test_integral_scalar_hit_returns_a_float(counted_phi):
    phi, queries = counted_phi
    first, second = phi(0.3), phi(0.3)
    assert type(first) is float and type(second) is float
    assert_same_bits(second, one_shot_query(phi, 0.3))
    # a scalar is keyed as the one-point array it is integrated as
    point = phi(np.array([0.3]))
    assert point.shape == (1,)
    assert_same_bits(point, np.array([first]))
    assert queries == [1]


def test_integral_cycle_of_five_queries_evicts_and_stays_exact(counted_phi):
    phi, queries = counted_phi
    cycle = [query_points(n, seed=n) for n in (1, 9, 64, 65, 2048)]
    refs = [one_shot_query(phi, t) for t in cycle]
    for _ in range(2):
        for t, ref in zip(cycle, refs):
            assert_same_bits(phi(t), ref)
    # four slots and a cycle of five: every query was the oldest when asked
    assert len(queries) == 10
    for t, ref in zip(cycle[:0:-1], refs[:0:-1]):  # the four it still holds
        assert_same_bits(phi(t), ref)
    assert len(queries) == 10
    # a hit makes its slot the newest: cycle[1], stored before the other
    # three, was asked last, so the next miss evicts cycle[4] instead
    assert_same_bits(phi(cycle[0]), refs[0])
    assert_same_bits(phi(cycle[1]), refs[1])
    assert len(queries) == 11


def test_closability_search_integrates_each_collar_query_once(monkeypatch,
                                                              counted_phi):
    # without the memo each slope the search tries integrates the same
    # collar grids again: 213 queries over 172,497 points
    phi, queries = counted_phi
    unit_integral = profiles._unit_integral
    monkeypatch.setattr(profiles, "_unit_integral", lambda fn: (
        phi if fn is _collar_step else unit_integral(fn)))
    slopes = []

    def counted_certify(kappa, c, n, **kwargs):
        slopes.append(c)
        return certify_collar(kappa, c, n, **kwargs)

    monkeypatch.setattr(constructions, "certify_collar", counted_certify)
    verdict = constructions.collar_closability(1.0, 0.6, 3)
    assert verdict.overall
    assert len(queries) <= 5 < len(slopes)
    # [1.0], the C2 stencil, the two sweep grids and the far point [0.0]
    assert sum(queries) <= 1 + 9 + 2 * 2048 + 1


# --- blocked Ricci sweep ----------------------------------------------------------

B = quadrature._GRID_BLOCK


# the edges of one and of two blocks, and of larger multiples
@pytest.mark.parametrize("n", sorted({
    1, 2, 3, 4, 5, *(k * B + d for k in (1, 2) for d in range(-1, 6)),
    3 * B + 1, 4 * B, 4 * B + 3, 6 * B + 1}))
def test_sweep_bounds_tile_the_grid_in_full_blocks(n):
    bounds = row_blocks(n, quadrature._GRID_BLOCK)
    assert B % 4 == 0
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(e == s for (_, e), (s, _) in zip(bounds, bounds[1:]))
    assert all(e - s == B for s, e in bounds[:-1])
    if len(bounds) > 1:
        assert all(e - s >= 4 for s, e in bounds)


def blocks_match_one_shot(m, ts):
    """Assert that the per-block component arrays of the sweep, joined, have
    the bits of one call over all of ts; return the one-shot arrays."""
    whole = _component_arrays(m, ts)
    blocks = [_component_arrays(m, ts[s:e])
              for s, e in row_blocks(len(ts), quadrature._GRID_BLOCK)]
    for i, ref in enumerate(whole):
        assert_same_bits(np.concatenate([b[i] for b in blocks], axis=-1), ref)
    return whole


@pytest.fixture(scope="module")
def sweep_metrics():
    """One metric per evaluation path the sweep meets."""
    f, h, _ = sha_yang_profiles(3, 2, 50.0)
    sha_yang = MultiWarpedMetric(
        (0.0, 50.0), ((round_sphere_factor(1, 1.0), h),
                      (abstract_factor("M", 3, (2.0, 2.0)), f)),
        collapse_left=0)
    gn = gN_regions(abstract_factor("Y", 2, (-1.0, -1.0)), 0.2, 3,
                    grid_size=16).artifacts["region_a"]
    collar = certify_collar(1.0, 0.3, 3, grid_size=16).artifacts["metric"]
    thm22 = MultiWarpedMetric(
        (0.0, math.pi),
        ((round_sphere_factor(2, 1.0),
          closed_form_profile("sine", (0.0, math.pi))),),
        collapse_left=0, collapse_right=0)
    return {
        "sha-yang": sha_yang,  # IVP, f and h through one memo
        "docking": docking_ambient(3, grid_size=16).artifacts["metric"],
        "gn": gn,  # k: quadrature through a BLAS product
        "collar": collar,
        "thm22": thm22,
    }


@pytest.mark.parametrize("g", [B - 1, B, B + 1, B + 2, B + 3, 2 * B - 1,
                               2 * B, 2 * B + 1, 2 * B + 2, 2 * B + 3,
                               4 * B + 1])
@pytest.mark.parametrize("name", ["sha-yang", "docking", "gn", "collar",
                                  "thm22"])
def test_blocked_sweep_matches_one_shot_arrays(sweep_metrics, name, g):
    m = sweep_metrics[name]
    whole = blocks_match_one_shot(m, np.linspace(*m.grid_bounds(), g))
    rep = ricci_report(m, g)
    assert_same_bits(np.array(rep.extrema),
                     np.array([(a.min(), a.max()) for a in whole]))
    assert_same_bits(rep.global_min, float(min(whole[0].min(),
                                               whole[1].min())))
    assert len(rep.grid) == g


@pytest.mark.parametrize("n", [20_001, 20_006])
@pytest.mark.parametrize("name", ["gn", "collar"])
def test_small_blocks_keep_the_bits_of_the_quadrature_product(
        sweep_metrics, monkeypatch, name, n):
    # k and collar antiderivatives go through one BLAS product per block;
    # thousands of 8-point blocks over random points expose a block boundary
    # that shifts the product's four-row grouping
    monkeypatch.setattr(quadrature, "_GRID_BLOCK", 8)
    m = sweep_metrics[name]
    assert len(row_blocks(n, quadrature._GRID_BLOCK)) == n // 8 + (n % 8 >= 4)
    blocks_match_one_shot(m, np.random.default_rng(n).uniform(
        *m.grid_bounds(), n))


def test_blocked_sweep_keeps_an_exact_negative_zero_minimum():
    cone = MultiWarpedMetric(
        (0.0, 5.0),
        ((round_sphere_factor(3, 1.0),
          cone_profile(5.0)),),
        collapse_left=0)
    rep = ricci_report(cone, 3 * B + 1)
    assert len(row_blocks(3 * B + 1, quadrature._GRID_BLOCK)) == 3
    assert_same_bits(rep.global_min, -0.0)
    assert rep.global_min >= 0.0


# --- in-place Ricci kernel --------------------------------------------------------

def expression_form_arrays(metric, ts):
    """The warped-product Ricci rows before the in-place kernel: fresh
    temporaries per expression."""
    nb = len(metric.blocks)
    nt = len(ts)
    f = np.empty((nb, nt))
    fp = np.empty((nb, nt))
    fpp = np.empty((nb, nt))
    dims = np.empty((nb, 1))
    rho_lo = np.empty((nb, 1))
    for i, (factor, profile) in enumerate(metric.blocks):
        f[i], fp[i], fpp[i] = profile.eval(ts)
        dims[i] = factor.dim
        rho_lo[i] = factor.ricci_lower

    phi = fp / f
    f2 = f ** 2
    dims_phi = dims * phi
    ric_tt = -sorted_sum(dims * fpp / f)
    s_cross = sorted_sum(dims_phi)

    base = -fpp / f - (dims - 1.0) * fp ** 2 / f2 \
        - phi * (s_cross[None, :] - dims_phi)
    lo = base + rho_lo / f2
    return ric_tt, lo


def assert_same_bits_or_nan(a, b):
    # operands swapped by commutation return the other NaN's sign and
    # payload when both are NaN, so a NaN matches any NaN
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    keep = ~np.isnan(b)
    assert_same_bits(a[keep], b[keep])


class FixedRows:
    """A profile stand-in that returns given rows of f, f', f''."""

    def __init__(self, rows):
        self.rows = rows

    def eval(self, ts, *, out=None):
        assert len(ts) == len(self.rows[0])
        if out is None:  # the expression-form oracle
            return self.rows
        for dst, src in zip(out, self.rows):
            np.copyto(dst, src)
        return out


class BlockRows(Record):
    """Only the ``blocks`` a Ricci kernel reads."""

    blocks: tuple


class FactorData(Record):
    """Only the factor data a Ricci kernel reads, unvalidated."""

    dim: int
    ricci_lower: float


ROW_VALUES = st.floats(width=64, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e160])
RICCI_LOWER = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3e-300, 1e300])


@settings(max_examples=200, deadline=None)
@given(nb=st.integers(1, 4), nt=st.sampled_from([1, 4, B - 1, B, B + 1]),
       seed=st.integers(0, 2 ** 32 - 1),
       specials=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                                   ROW_VALUES), max_size=12),
       lowers=st.lists(RICCI_LOWER, min_size=4, max_size=4),
       dims=st.lists(st.integers(1, 6), min_size=4, max_size=4))
def test_in_place_kernel_has_the_bits_of_the_expression_form(
        nb, nt, seed, specials, lowers, dims):
    rng = np.random.default_rng(seed)
    # warps of either sign and derivatives across many binades, with
    # hypothesis's values (signed zeros, subnormals, huge) at its positions
    rows = [rng.choice([-1.0, 1.0], (3, nt))
            * np.exp2(rng.uniform(-40, 40, (3, nt)))
            * rng.uniform(0.5, 1.0, (3, nt)) for _ in range(nb)]
    for k, (j, i, value) in enumerate(specials):
        rows[i % nb][j, k * 7919 % nt] = value
    metric = BlockRows(tuple(
        (FactorData(dims[i], lowers[i]), FixedRows(tuple(rows[i])))
        for i in range(nb)))
    given_rows = [r.copy() for r in rows]
    with np.errstate(all="ignore"):
        got = _component_arrays(metric, np.zeros(nt))
        want = expression_form_arrays(metric, np.zeros(nt))
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert_same_bits_or_nan(a, b)
    for r, before in zip(rows, given_rows):  # the profile's rows are read only
        assert_same_bits(r, before)


@pytest.mark.parametrize("g", [2, B - 1, B + 1, 2 * B + 3, 3 * B, 4 * B + 1])
@pytest.mark.parametrize("name", ["sha-yang", "docking", "gn", "collar",
                                  "thm22", "interval"])
def test_sweep_extrema_match_the_expression_form(sweep_metrics, name, g):
    if name == "interval":  # Ricci intervals that are not points
        m = sweep_metrics["thm22"]
        m = MultiWarpedMetric(m.interval, (
            (abstract_factor("X", 2, (0.0, -0.0)), m.blocks[0][1]),
            (abstract_factor("Y", 3, (-1.0, 2.0)),
             closed_form_profile("cosine", m.interval, amplitude=3.0,
                                 omega=0.4))),
            collapse_left=0, collapse_right=0)
    else:
        m = sweep_metrics[name]
    with np.errstate(all="ignore"):
        want = expression_form_arrays(m, np.linspace(*m.grid_bounds(), g))
    rep = ricci_report(m, g)
    assert_same_bits(np.array(rep.extrema),
                     np.array([(a.min(), a.max()) for a in want]))


# --- streamed sweep grid -------------------------------------------------------

def assert_blocks_are_linspace(lo, hi, n, block=B):
    """grid_blocks(lo, hi, n) at ``block`` yields the slices of linspace
    over the blocks of row_blocks, in order."""
    whole = np.linspace(lo, hi, n)
    with mock.patch.object(quadrature, "_GRID_BLOCK", block):
        got = list(grid_blocks(lo, hi, n))
    bounds = row_blocks(n, block)
    assert len(got) == len(bounds)
    for ts, (s, e) in zip(got, bounds):
        assert_same_bits(ts, whole[s:e])


def test_grid_blocks_are_linspace_for_random_bounds():
    rng = np.random.default_rng(19)
    for _ in range(300):
        scale = 10.0 ** rng.integers(-8, 9)
        lo, hi = np.sort(rng.uniform(-scale, scale, 2))
        n = int(rng.integers(2, 3 * B))
        block = int(4 * rng.integers(1, B // 4 + 1))
        assert_blocks_are_linspace(float(lo), float(hi), n, block)
        # numpy scalars and integer bounds, as linspace takes them
        assert_blocks_are_linspace(lo, hi, n, block)
    assert_blocks_are_linspace(0, 7, 10, 4)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def reference_grid_sizes():
    """Every sweep or CSV size a benchmark argv runs: its --grid, or the
    default of its subcommand."""
    sizes = set()
    for key in json.loads(REFERENCE.read_text())["argvs"]:
        given = re.findall(r"--grid (\d+)", key)
        name = key.split()[0]
        if given:
            sizes.add(int(given[0]))
        elif name in constructions.SCENARIOS:
            sizes.add(constructions.SCENARIOS[name].grid or cli.CSV_GRID)
        else:
            sizes.add(cli.CSV_GRID)
    return sorted(sizes)


@pytest.mark.parametrize("n", reference_grid_sizes())
def test_grid_blocks_are_linspace_at_every_reference_size(sweep_metrics, n):
    for m in sweep_metrics.values():
        assert_blocks_are_linspace(*m.grid_bounds(), n)


@pytest.mark.parametrize("lo, hi", [(1e-3, 50.0), (-1.0, 1.0), (0.0, 0.1),
                                    (1e300, 1.5e300), (2.0, -3.0)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, B, 2 * B, 2 * B + 3])
def test_grid_blocks_are_linspace_at_the_edges(lo, hi, n):
    # n = 2 is one block of both ends; at 2 B the last block is full and
    # ends exactly at n; at 2 B + 3 the three leftover points merge into it
    assert_blocks_are_linspace(lo, hi, n)


@pytest.mark.parametrize("lo, hi, n", [(0.0, 5e-324, 3), (0.0, 5e-324, B + 1),
                                       (1.0, 1.0, 7), (-5e-324, 5e-324, 5)])
def test_grid_blocks_follow_linspace_when_the_spacing_underflows(lo, hi, n):
    assert np.subtract(hi, lo) / (n - 1) == 0.0
    assert_blocks_are_linspace(lo, hi, n)
    assert_blocks_are_linspace(lo, hi, n, block=4)


def test_report_grid_is_rebuilt_and_read_only(sweep_metrics):
    m = sweep_metrics["docking"]
    rep = ricci_report(m, 37)
    assert rep.grid_size == 37 and rep.grid_bounds == m.grid_bounds()
    assert_same_bits(rep.grid, np.linspace(*m.grid_bounds(), 37))
    with pytest.raises(AttributeError):
        rep.grid = np.zeros(37)


@pytest.mark.parametrize("name", ["sha-yang", "gn", "docking", "thm22"])
def test_sweep_memory_does_not_grow_with_the_grid(sweep_metrics, name):
    # the grid is built block by block; the peak of a one-block sweep bounds
    # one block's working set, and 38 blocks more must stay inside it (a
    # whole grid of 40 blocks is 2.6 MB)
    m = sweep_metrics[name]

    def peak(blocks):
        ricci_report(m, blocks * B)  # fill the memos first
        tracemalloc.start()
        try:
            ricci_report(m, blocks * B)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    one_block = peak(1)
    assert peak(40) < peak(2) + one_block
    assert 8 * 40 * B > one_block


# the required flags of each subcommand that reads --grid
GRID_READERS = {"sha-yang": ["--n", "3", "--m", "2"],
                "neck": ["--nu", "0.1", "--n", "3", "--s", "0.5"],
                "closability": ["--n", "4"], "gn": ["--n", "3"],
                "docking": ["--n", "3"], "thm22": ["--n", "4"],
                "export": ["--profile", "k"]}


def test_every_grid_subcommand_is_listed():
    assert set(GRID_READERS) == {s.name for s in
                                 constructions.SCENARIOS.values()
                                 if "--grid" in s.common}


@pytest.mark.parametrize("name", sorted(GRID_READERS))
def test_grid_above_grid_max_is_rejected_at_parse_time(capsys, name):
    argv = [name, *GRID_READERS[name], "--grid"]
    assert cli._parse(argv + [str(constructions.GRID_MAX)])["grid"] \
        == constructions.GRID_MAX
    with pytest.raises(SystemExit) as exc:
        cli._parse(argv + [str(constructions.GRID_MAX + 1)])
    assert exc.value.code == 2
    (line,) = [x for x in capsys.readouterr().err.splitlines()
               if "error:" in x]
    assert "--grid" in line
    assert cli._parse(argv + ["2"])["grid"] == 2


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
@pytest.mark.parametrize("name", sorted(GRID_READERS))
def test_grid_below_two_is_rejected_at_parse_time(tmp_path, capsys, name,
                                                  grid):
    # before any work, naming the flag (not the library's grid_size), and
    # never replaced by a default
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([name, *GRID_READERS[name], "--grid", grid,
                  "--out", str(out)])
    assert exc.value.code == 2
    (line,) = [x for x in capsys.readouterr().err.splitlines()
               if "error:" in x]
    assert line.endswith(f"argument --grid: {grid!r} is not an int in "
                         "[2, 100000000]")
    assert not out.exists()


# --- RK node buffers -----------------------------------------------------------

def test_solution_nodes_hold_only_the_steps_taken():
    tracemalloc.start()
    try:
        sol = integrate_ivp(power_rhs(0.5, -2.0), 0.0, 50.0, 1.0, 0.0,
                            1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sol.ts) == 96
    for a in (sol.ts, sol.fs, sol.fps, sol.fpps):
        assert a.base is None or a.base.nbytes == 8 * len(sol.ts)
    assert peak < 1_000_000


def test_node_buffers_grow_past_their_first_size(monkeypatch):
    # f'' = 0 from f = 1, f' = 1: every step is h_max = 0.1 long, so 4000
    # steps cross the initial buffer size twice
    n0 = kernels._NODES_INITIAL
    def rhs(t, f, fp):  # f'' = 0
        return 0.0 * fp
    monkeypatch.setattr(kernels, "MAX_STEPS", 10 * n0)
    ts, fs, fps, fpps, status, _ = kernels._rk45(
        rhs, 0.0, 400.0, 1.0, 1.0, 1e-10, 0.1)
    assert status == kernels.STATUS_OK and len(ts) > 2 * n0 + 1
    assert np.all(np.diff(ts) > 0.0) and ts[-1] == 400.0
    np.testing.assert_allclose(fs, 1.0 + ts, rtol=1e-12)
    assert np.all(fps == 1.0) and np.all(fpps == 0.0)
    # a budget the loop exhausts fills the buffer to MAX_STEPS + 1 nodes
    monkeypatch.setattr(kernels, "MAX_STEPS", n0 + 5)
    ts, *_, status, _ = kernels._rk45(rhs, 0.0, 400.0, 1.0, 1.0, 1e-10, 0.1)
    assert status == kernels.STATUS_MAX_STEPS and len(ts) == n0 + 6


# --- neck family members --------------------------------------------------------

def test_neck_memory_does_not_grow_with_the_member_count():
    # each member keeps its Ricci minimum, not its report with the sweep
    # grid, which at this size is 800 KB
    def peak(count):
        s_values = np.linspace(0.5, 1.0, count)
        tracemalloc.start()
        try:
            constructions.neck_family_check(0.1, 3, s_values, 0.2,
                                            grid_size=100_000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    one, many = peak(1), peak(8)
    assert many < one + 64 * 1024


# --- thm22 family members -------------------------------------------------------

@pytest.mark.parametrize("argv, sweeps, volumes", [
    # one member sweep and the closability certificate's two collar sweeps
    (["--n", "5", "--members", "4"], 3, 1),
    (["--n", "5", "--members", "3", "--ric-deficit", "0.1"], 4, 2),
    (["--n", "4", "--members", "1", "--ric-deficit", "0.1"], 3, 1),
])
def test_thm22_measures_each_distinct_member_once(tmp_path, monkeypatch,
                                                  argv, sweeps, volumes):
    calls = {"ricci_report": 0, "volume": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(constructions, name),
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(constructions, name, counted)
    cli.main(["thm22", *argv, "--out", str(tmp_path)])
    assert calls == {"ricci_report": sweeps, "volume": volumes}

    count = int(argv[argv.index("--members") + 1])
    rep = json.loads((tmp_path / "thm22.json").read_text())
    names = [c["name"] for c in rep["checks"]]
    assert names == [f"member{i}_{check}" for i in range(count)
                     for check in ("volume_cap", "ricci_floor")] \
        + ["closable_member_certificate"]
    assert len(rep["config"]["volumes"]) == count


# --- CSV export ----------------------------------------------------------------

def row_by_row_csv(path, cols):
    """The writer before row blocks: one repr per value, one write per row."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,f,fp,fpp\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def sampled_csv(path, profile, grid_size):
    """``write_profile_csv`` before ``grid_blocks``: the whole grid sampled
    at once, then formatted and written 4096 rows at a time."""
    t = np.linspace(profile.t0, profile.t1, grid_size)
    cols = [t, *(np.asarray(c, dtype=float) for c in profile.eval(t))]
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,f,fp,fpp\n")
        for i in range(0, len(cols[0]), 4096):
            block = np.column_stack([c[i:i + 4096] for c in cols])
            fh.write(("%r,%r,%r,%r\n" * len(block))
                     % tuple(block.ravel().tolist()))


class FixedColumns:
    """A profile stand-in on [t0, t1] whose f, f' and f'' on the export's
    grid are given columns: each call of ``eval`` must be passed the next
    block of that grid, and gets those rows of the columns."""

    def __init__(self, t0, t1, cols):
        self.t0, self.t1, self.cols = t0, t1, cols
        self.grid = np.linspace(t0, t1, len(cols[0]))
        self.served = 0

    def eval(self, ts, *, out):
        s, e = self.served, self.served + len(ts)
        assert_same_bits(ts, self.grid[s:e])
        self.served = e
        for dst, c in zip(out, self.cols):
            np.copyto(dst, c[s:e])
        return out


def assert_csv_matches_row_by_row(directory, cols, domain=(-1.0, 3.0)):
    profile = FixedColumns(*domain, cols)
    new = report.write_profile_csv(directory / "blocked.csv", profile,
                                   len(cols[0]))
    assert profile.served == len(cols[0])
    row_by_row_csv(directory / "rows.csv", (profile.grid, *cols))
    assert new.read_bytes() == (directory / "rows.csv").read_bytes()


CSV_EDGE_VALUES = np.array([
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-5,
    9.999999999999999e-05, 1e16, 9999999999999998.0, -1e16, 0.1, 1.0 / 3.0,
    2.0 ** 53, 1.7976931348623157e308, 2.2250738585072014e-308])


@pytest.mark.parametrize("g", [2, B - 1, B, B + 1, 2 * B + 3])
def test_csv_blocks_keep_every_byte_of_the_row_writer(tmp_path, g):
    rng = np.random.default_rng(g)
    # edge values in every value column and at both ends of the file; random
    # bit patterns (nan payloads and subnormals included) elsewhere
    cols = []
    for j in range(3):
        col = rng.integers(0, 2 ** 64, g, dtype=np.uint64).view(float)
        edge = np.roll(CSV_EDGE_VALUES, j)
        k = min(g, edge.size)
        col[:k] = edge[:k]
        col[-k:] = edge[::-1][:k]
        cols.append(col)
    assert_csv_matches_row_by_row(tmp_path, cols)
    # a grid of signed zeros and subnormals, and one of huge values
    assert_csv_matches_row_by_row(tmp_path, cols, (-0.0, 5e-324 * g))
    assert_csv_matches_row_by_row(tmp_path, cols, (-1e308, 1.5e308 / 2))


def test_csv_columns_of_other_dtypes_are_written_as_floats(tmp_path):
    g = 37
    cols = [np.arange(g, dtype=np.int32),
            np.linspace(0, 1, g, dtype=np.float32), np.full(g, -0.0)]
    assert_csv_matches_row_by_row(tmp_path, cols)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(2, 40),
       block=st.sampled_from([4, 8, 12]),
       sub_block=st.sampled_from([3, 4, floatrepr.BLOCK_ROWS]),
       domain=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2,
                       unique=True).map(sorted))
def test_csv_property_any_float64_columns(tmp_path_factory, data, rows, block,
                                          sub_block, domain):
    # formatter sub-blocks of 3 or 4 rows end inside a grid block, and leave
    # one-row tails
    column = st.lists(st.floats(width=64) | SPECIALS, min_size=rows,
                      max_size=rows)
    cols = [np.array(data.draw(column), dtype=float) for _ in range(3)]
    directory = tmp_path_factory.mktemp("csv")
    with mock.patch.object(quadrature, "_GRID_BLOCK", block), \
            mock.patch.object(floatrepr, "BLOCK_ROWS", sub_block):
        assert_csv_matches_row_by_row(directory, cols, tuple(domain))


@pytest.fixture(scope="module")
def export_profiles():
    """Every profile ``export`` writes, at its default flags."""
    return {pid: build(*reads.values())
            for pid, (reads, build) in constructions.PROFILES.items()}


SMALL_B = 8


@pytest.mark.parametrize("n, block", [
    *((n, SMALL_B) for n in (2, 3, SMALL_B - 1, SMALL_B, SMALL_B + 1,
                             SMALL_B + 3, 2 * SMALL_B + 3, 3 * SMALL_B + 1)),
    (B + 1, B)])
@pytest.mark.parametrize("pid", list(constructions.PROFILES))
def test_streamed_export_has_the_bytes_of_the_sampled_form(
        tmp_path, monkeypatch, export_profiles, pid, n, block):
    # the quadrature profiles (k, collar) see query blocks of 8 points, and
    # at n = 3 B + 1 a last block of B + 1; a shifted row group of their
    # BLAS product is caught on random points by
    # test_small_blocks_keep_the_bits_of_the_quadrature_product
    monkeypatch.setattr(quadrature, "_GRID_BLOCK", block)
    profile = export_profiles[pid]
    streamed = report.write_profile_csv(tmp_path / "streamed.csv", profile, n)
    sampled_csv(tmp_path / "sampled.csv", profile, n)
    assert streamed.read_bytes() == (tmp_path / "sampled.csv").read_bytes()


@pytest.mark.parametrize("pid", ["neck", "sha-f", "k"])
def test_export_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch,
                                                   capsys, pid):
    # a closed form, an IVP and a quadrature profile, built, evaluated and
    # written by one export; small blocks keep tracemalloc fast. Sampling
    # the whole grid, the export peaked 0.6-1.0 MB higher at 64 blocks than
    # at 8; streamed, 0-10 KB (NumPy keeps about 100 bytes per block)
    monkeypatch.setattr(quadrature, "_GRID_BLOCK", 256)

    def peak(rows):
        argv = ["export", "--profile", pid, "--grid", str(rows),
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0  # fill the process-wide memos first
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    small, large = peak(8 * 256), peak(64 * 256)
    capsys.readouterr()
    assert large < small + 32 * 1024


# --- blocked CumulativeIntegral queries ---------------------------------------

QB = quadrature._QUERY_BLOCK
UNIT_INTEGRANDS = [_flat_decay_value, _collar_step]


def query_points(n, seed=0):
    """n random points of [0, 1] with 0.0, 1.0 and panel edges among them."""
    t = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    edges = np.linspace(0.0, 1.0, quadrature.CUMINT_PANELS + 1)
    k = min(n, 8)
    t[:k] = edges[np.linspace(0, len(edges) - 1, k).astype(int)]
    return t


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, QB - 1, QB, QB + 1, QB + 2,
                               QB + 3, QB + 4, QB + 5, 2 * QB + 3,
                               3 * QB + 1])
@pytest.mark.parametrize("fn", UNIT_INTEGRANDS)
def test_query_blocks_keep_the_bits_of_one_shot(fn, n):
    ci = profiles._unit_integral(fn)
    t = query_points(n, seed=n)
    assert_same_bits(ci(t), one_shot_query(ci, t))


@pytest.mark.parametrize("fn", UNIT_INTEGRANDS)
def test_query_on_panel_edges_and_scalars(fn):
    ci = profiles._unit_integral(fn)
    assert_same_bits(ci(ci.edges), one_shot_query(ci, ci.edges))
    assert_same_bits(ci(ci.edges[::-1]), one_shot_query(ci, ci.edges[::-1]))
    for t in (0.0, 1.0, float(ci.edges[17]), 0.3, 5e-324):
        got = ci(t)
        assert type(got) is float
        assert_same_bits(got, one_shot_query(ci, t))
    assert ci(np.array([])).shape == (0,)


@pytest.mark.parametrize("n", [20_001, 20_006])
@pytest.mark.parametrize("fn", UNIT_INTEGRANDS)
def test_small_query_blocks_keep_the_bits_of_one_shot(monkeypatch, fn, n):
    # thousands of 8-row blocks over random points expose a block boundary
    # that shifts the four-row grouping of the BLAS product
    monkeypatch.setattr(quadrature, "_QUERY_BLOCK", 8)
    ci = profiles._unit_integral(fn)
    assert len(row_blocks(n, quadrature._QUERY_BLOCK)) == n // 8 + (n % 8 >= 4)
    t = np.random.default_rng(n).uniform(0.0, 1.0, n)
    assert_same_bits(ci(t), one_shot_query(ci, t))


@pytest.mark.parametrize("fn", UNIT_INTEGRANDS)
def test_query_memory_is_far_below_one_node_matrix(fn):
    ci = profiles._unit_integral(fn)
    n = 200_000
    t = np.linspace(0.0, 1.0, n)
    tracemalloc.start()
    try:
        ci(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    node_matrix = 8 * n * quadrature.CUMINT_ORDER  # 38.4 MB
    assert peak < node_matrix / 2


def test_unit_integrals_are_built_once_per_integrand():
    profiles._unit_integral.cache_clear()
    for eps_prime in (0.1, 0.15, 0.2):
        k_profile(eps_prime)
    for c in (0.1, 0.2, 0.3):
        collar_profile(c)
    info = profiles._unit_integral.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


# --- WarpProfile.eval(out=...) and its skipped endpoint windows ---------------

def copying_eval(p, t):
    """``WarpProfile.eval`` before ``out=``: private copies of the raw triple,
    every tagged end's mask computed, the patches written into the copies."""
    tq = np.asarray(t, dtype=float)
    scalar = tq.ndim == 0
    tq = np.atleast_1d(tq)
    t0, t1 = p.domain
    tc = tq
    if tq.size and not (t0 < tq.min() and tq.max() < t1):
        tc = np.clip(tq, t0, t1)
    f, fp, fpp = (np.array(a, dtype=float, copy=True) for a in p.raw_eval(tc))
    for endpoint, tstar in (("left", t0), ("right", t1)):
        tag = p.parity.get(endpoint)
        if tag is None:
            continue
        if tag.kind == "odd":
            if endpoint == "left":
                mask = tc < tstar + profiles.EXCLUSION_WIDTH
            else:
                mask = tc > tstar - profiles.EXCLUSION_WIDTH
        else:
            mask = tc == tstar
        if not mask.any():
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


@functools.cache
def profile_families():
    """One profile of every family, with odd, even and untagged ends."""
    sha_f, sha_h, _ = sha_yang_profiles(3, 2, 5.0)
    return {
        "sine": closed_form_profile("sine", (0.0, math.pi)),
        "cosine": closed_form_profile("cosine", (0.0, math.pi / 2),
                                      amplitude=2.0),
        "neck": profiles.neck_profile(0.3, 0.5),
        "docking-r": profiles.docking_R_profile(),
        "k": k_profile(0.2),
        "collar": collar_profile(0.2),
        "sha-f": sha_f,
        "sha-h": sha_h,
        "closability": profiles.closability_ode_profile(4, 0.2),
        "negative-cone": profiles.profile_from_callable(
            (-1.0, 0.0), lambda t: -t, lambda t: -1.0 + 0.0 * t,
            lambda t: 0.0 * t,
            parity={"right": profiles.ParityTag("odd", (-1.0, 0.0))}),
    }


def eval_queries(p):
    """Named queries of p: inner blocks away from the ends and inside,
    across and at the edge of each odd window, the ends themselves, points
    clipped from within the slack, signed zeros and an empty query."""
    t0, t1 = p.domain
    w = profiles.EXCLUSION_WIDTH
    span = t1 - t0
    slack = 0.5e-9 * span
    left_edge, right_edge = t0 + w, t1 - w
    mid = np.linspace(t0 + 0.25 * span, t1 - 0.25 * span, 33)
    queries = {
        "inner": mid,
        "inside-left-window": np.linspace(t0 + 0.1 * w, t0 + 0.9 * w, 9),
        "inside-right-window": np.linspace(t1 - 0.9 * w, t1 - 0.1 * w, 9),
        "across-windows": np.linspace(t0 + 0.5 * w, t1 - 0.5 * w, 65),
        "from-left-edge": np.concatenate(([left_edge], mid)),
        "below-left-edge": np.concatenate(([np.nextafter(left_edge, t0)],
                                           mid)),
        "to-right-edge": np.concatenate((mid, [right_edge])),
        "above-right-edge": np.concatenate((mid, [np.nextafter(right_edge,
                                                               t1)])),
        "ends": np.array([t0, t1]),
        "left-end": np.array([t0]),
        "right-end": np.array([t1]),
        "with-ends": np.concatenate(([t0], mid, [t1])),
        "clipped": np.array([t0 - slack, t0 + 0.5 * w, t1 + slack]),
        "empty": np.array([]),
    }
    for end in (t0, t1):
        if end == 0.0:
            queries[f"signed-zeros-{end}"] = np.array([-0.0, 0.0, -0.0])
            queries[f"negative-zero-{end}"] = np.array([-0.0])
    return queries


@pytest.mark.parametrize("family", [
    "sine", "cosine", "neck", "docking-r", "k", "collar", "sha-f", "sha-h",
    "closability", "negative-cone"])
def test_eval_into_out_has_the_bits_of_the_copying_form(family):
    p = profile_families()[family]
    for name, tq in eval_queries(p).items():
        want = copying_eval(p, tq)
        buf = np.full((3, tq.size), 7.0)
        rows = tuple(buf)
        got_out = p.eval(tq, out=rows)
        assert all(a is b for a, b in zip(got_out, rows)), name
        for got in (p.eval(tq), got_out):
            assert len(got) == 3
            for a, b in zip(got, want):
                assert a.shape == tq.shape, name
                assert_same_bits(a, b)
    for t in (p.t0, p.t1, 0.5 * (p.t0 + p.t1)):
        got, want = p.eval(t), copying_eval(p, t)
        assert all(type(x) is float for x in got)
        assert_same_bits(np.array(got), np.array(want))


# --- dense output gathers with np.take ------------------------------------------

def fancy_dense_eval(ts, fs, fps, fpps, tq, table):
    """``kernels.dense_eval`` before ``np.take``: rows by fancy indexing."""
    tq = np.asarray(tq, dtype=float)
    (t0, h, fa, ma, half_aa, aa, c3, c4, c5, c3x3,
     c4x4) = np.moveaxis(table[kernels.segment_index(ts, tq)], -1, 0)
    s = (tq - t0) / h
    f = fa + s * (ma + s * (half_aa + s * (c3 + s * (c4 + s * c5))))
    fp = (ma + s * (aa + s * (c3x3 + s * (c4x4 + s * 5.0 * c5)))) / h
    return f, fp


@pytest.mark.parametrize("build", [sha_yang_solution, radial_floor_solution],
                         ids=["sha-yang", "radial-floor"])
def test_take_gathers_the_rows_of_fancy_indexing(build):
    sol = build()
    args = (sol.ts, sol.fs, sol.fps, sol.fpps)
    lo, hi = sol.ts[0], sol.ts[-1]
    queries = [np.array(0.5 * (lo + hi)), np.array(lo), np.array(hi),
               np.random.default_rng(3).uniform(lo, hi, 300),
               np.linspace(lo, hi, B), np.linspace(lo, hi, B)[::-1],
               np.array([lo - 1.0, hi + 1.0])]
    for tq in queries:
        want = fancy_dense_eval(*args, tq, sol._table)
        got = DENSE_EVAL(*args, tq, sol._table)
        for a, b in zip(got, want):
            assert np.shape(a) == tq.shape
            assert_same_bits(a, b)


# --- quadrature nodes built by contiguous loops -------------------------------

def broadcast_integrate(ci, tq):
    """``CumulativeIntegral._integrate`` before its contiguous node loops:
    each block's nodes broadcast from a (rows, 1) column into a new matrix."""
    idx = kernels.segment_index(ci.edges, tq)
    lo = ci.edges[idx]
    mid = 0.5 * (lo + tq)
    half = 0.5 * (tq - lo)
    sums = np.empty_like(half)
    for s, e in row_blocks(len(half), quadrature._QUERY_BLOCK):
        nodes = np.multiply(half[s:e, None], ci._x)
        nodes += mid[s:e, None]
        vals = np.asarray(ci.fn(nodes.ravel()), dtype=float)
        sums[s:e] = vals.reshape(nodes.shape) @ ci._w
    return (ci.prefix[idx] + half * sums,)


NODE_ROWS = [1, 3, 4, 5, 1023, 1024, 1025, 1027, 2051, 8192]


@pytest.mark.parametrize("block", [QB, 8])
@pytest.mark.parametrize("n", NODE_ROWS)
@pytest.mark.parametrize("fn", UNIT_INTEGRANDS)
def test_contiguous_nodes_have_the_bits_of_the_broadcast_form(
        monkeypatch, fn, n, block):
    monkeypatch.setattr(quadrature, "_QUERY_BLOCK", block)
    ci = profiles._unit_integral(fn)
    t = query_points(n, seed=n)
    for tq in (t, np.sort(t), np.sort(t)[::-1], t.reshape(-1, 1)):
        (got,), (want,) = ci._integrate(tq), broadcast_integrate(ci, tq)
        assert got.shape == tq.shape
        assert_same_bits(got, want)


# --- QueryMemo's cheap miss ---------------------------------------------------

@pytest.fixture
def counted_memo():
    calls = []

    def compute(tq):
        calls.append(tq.copy())
        return (tq * 2.0,)

    return QueryMemo(2), compute, calls


def test_memo_keys_alike_at_both_ends_but_not_inside_miss(counted_memo):
    memo, compute, calls = counted_memo
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, 2.0, np.nextafter(3.0, 4.0), 4.0])
    c = np.array([1.0, -0.0, 3.0, 4.0])
    d = np.array([1.0, 0.0, 3.0, 4.0])
    for q in (a, b, c, d):
        (got,) = memo(q, compute)
        assert_same_bits(got, q * 2.0)
    assert len(calls) == 4
    for q in (c, d):  # both still stored: hits
        assert_same_bits(memo(q.copy(), compute)[0], q * 2.0)
    assert len(calls) == 4


def test_memo_signed_zero_first_elements_do_not_share_a_slot(counted_memo):
    memo, compute, calls = counted_memo
    for q in ([0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0],
              [1.0, 0.0], [1.0, -0.0]):
        (got,) = memo(np.array(q), compute)
        assert_same_bits(got, np.array(q) * 2.0)
    assert [bits(c).tolist() for c in calls] == [
        bits(np.array(q)).tolist()
        for q in ([0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [1.0, -0.0])]


def test_memo_empty_scalar_and_2d_keys(counted_memo):
    memo, compute, calls = counted_memo
    empty = np.array([])
    assert memo(empty, compute)[0].shape == (0,)
    assert memo(empty.copy(), compute)[0].shape == (0,)
    assert len(calls) == 1
    assert memo(np.empty((0, 3)), compute)[0].shape == (0, 3)
    assert len(calls) == 2
    column, row = np.array([[0.5], [1.5]]), np.array([0.5, 1.5])
    assert memo(column, compute)[0].shape == (2, 1)
    assert memo(row, compute)[0].shape == (2,)
    assert memo(column.copy(), compute)[0].shape == (2, 1)
    assert len(calls) == 4
    grid = np.arange(6.0).reshape(2, 3)
    memo(grid, compute)
    changed = grid.copy()
    changed[1, 0] = -1.0  # neither the first nor the last element
    assert_same_bits(memo(changed, compute)[0], changed * 2.0)
    assert_same_bits(memo(grid.T, compute)[0], grid.T * 2.0)
    assert len(calls) == 7
    assert_same_bits(memo(np.array(0.25), compute)[0], np.array(0.5))
    assert_same_bits(memo(np.array(0.25), compute)[0], np.array(0.5))
    assert len(calls) == 8


def test_memo_0d_query_returns_read_only_0d_arrays():
    memo, calls = QueryMemo(1), []

    def sin_cos(th):  # NumPy scalars for a 0-d phase
        calls.append(th)
        return profiles._sin_cos(th)

    point = np.float64(0.25)
    for _ in range(2):  # a miss, then a hit
        sine, cosine = memo(point, sin_cos)
        assert sine.shape == cosine.shape == ()
        assert_same_bits(sine, np.sin(point))
        assert_same_bits(cosine, np.cos(point))
        with pytest.raises(ValueError):
            sine[()] = 7.0
    assert len(calls) == 1


# --- one sine and one cosine per phase ------------------------------------------

def sweep_trig_counts(monkeypatch, argv):
    """The Ricci sweep blocks of ``cli.main(argv)``, the blocks in which
    sin/cos was computed, its exit code, and its standard output and report
    bytes."""
    blocks, in_blocks = [], []
    kernel, sin_cos = curvature._component_arrays, profiles._sin_cos

    def counted_kernel(metric, ts, constants=None):
        blocks.append(len(ts))
        try:
            return kernel(metric, ts, constants)
        finally:
            blocks[-1] = -len(ts)  # the block is done

    def counted_sin_cos(th):
        if blocks and blocks[-1] > 0:
            in_blocks.append(len(blocks))
        return sin_cos(th)

    monkeypatch.setattr(curvature, "_component_arrays", counted_kernel)
    monkeypatch.setattr(profiles, "_sin_cos", counted_sin_cos)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = Path(f"{argv[0]}.json").read_bytes()
    return blocks, in_blocks, code, (out.getvalue(), report)


@pytest.mark.parametrize("argv, nblocks", [
    (["docking", "--n", "4", "--grid", "20000"], 3),
    (["neck", "--nu", "0.1", "--n", "3", "--s", "0.5", "--grid", "64"], 1),
])
def test_each_sweep_block_computes_one_sine_and_cosine(monkeypatch, tmp_path,
                                                       argv, nblocks):
    # docking's cos and sin warps share omega and so their phase: its second
    # block of each sweep block reuses the first's sine and cosine
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(profiles, "_TRIG_MEMO", QueryMemo(1))
    blocks, in_blocks, code, report = sweep_trig_counts(monkeypatch, argv)
    assert code == 0 and len(blocks) == nblocks
    assert in_blocks == list(range(1, nblocks + 1))
    # without the shared memo the report keeps every byte
    monkeypatch.setattr(profiles, "_TRIG_MEMO",
                        lambda th, compute: compute(th))
    blocks, in_blocks, code, unshared = sweep_trig_counts(monkeypatch, argv)
    assert code == 0 and unshared == report
    assert len(in_blocks) == (2 if argv[0] == "docking" else 1) * nblocks
