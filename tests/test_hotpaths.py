"""Bit-exactness of the evaluation hot paths against their earlier forms.

The earlier implementations are kept here as oracles. Every comparison is on
uint64 views, so -0.0 against 0.0 or a changed last bit fails. The oracles
silence all floating-point errors, because the edge grids include inf and
nan; the seed forms only silenced underflow on the inputs they were given.
"""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck import curvature, kernels
from warpcheck.constructions import (certify_collar, docking_ambient,
                                     gN_regions, round_boundary)
from warpcheck.curvature import (_SWEEP_BLOCK, MultiWarpedMetric,
                                 _component_arrays, _ordered_sum,
                                 _sweep_bounds, ricci_report)
from warpcheck.factors import abstract_factor, round_sphere_factor
from warpcheck.ode import OdeRhs, integrate_ivp
from warpcheck.profiles import (_collar_step, _collar_step_prime, _flat_decay,
                                _flat_decay_value, closed_form_profile,
                                collar_profile, k_profile, sha_yang_profiles)
from warpcheck.quadrature import CumulativeIntegral


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


def test_collar_step_matches_masked_form():
    assert_same_bits(_collar_step(EDGE_GRID), masked_phi(EDGE_GRID))
    assert_same_bits(_collar_step_prime(EDGE_GRID), masked_phi_prime(EDGE_GRID))
    assert_same_bits(_collar_step(0.25), masked_phi(np.float64(0.25)))


def test_flat_decay_matches_masked_form():
    w_ref, wp_ref = masked_flat_decay(EDGE_GRID)
    w, wp = _flat_decay(EDGE_GRID)
    assert_same_bits(_flat_decay_value(EDGE_GRID), w_ref)
    assert_same_bits(w, w_ref)
    assert_same_bits(wp, wp_ref)


def test_integrands_raise_no_floating_point_warnings():
    with np.errstate(all="raise"):
        _collar_step(EDGE_GRID)
        _collar_step_prime(EDGE_GRID)
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
    ndarrays it is also the former vectorized dispatch of ``OdeRhs``, which
    used the same expressions."""
    if code == 0:
        return p0 + p1 * f + p2 * fp
    if code == 1:
        return p0 * f ** p1
    return -f - p0 * (1.0 + fp * fp) / f


@pytest.mark.parametrize("rhs, code, params, t1", [
    (OdeRhs.linear(0.5, -1.0, 0.25), 0, (0.5, -1.0, 0.25), 3.0),
    (OdeRhs.power(0.5, -2.0), 1, (0.5, -2.0), 50.0),
    (OdeRhs.power(1.5, -4.0), 1, (1.5, -4.0), 20.0),
    (OdeRhs.radial_floor(1.0), 2, (1.0,), 5.0),
    (OdeRhs.radial_floor(3), 2, (3.0,), 2.0),
])
def test_rhs_closures_keep_the_bits_of_the_coded_forms(rhs, code, params, t1):
    sol = integrate_ivp(rhs, 0.0, t1, 1.0, 0.0, 1e-10, on_truncate="return")
    p0, p1, p2 = (*params, 0.0, 0.0, 0.0)[:3]
    ts, fs, fps, fpps, status, nfev = kernels._rk45(
        functools.partial(coded_rhs, code, p0, p1, p2),
        0.0, t1, 1.0, 0.0, 1e-10, 1e-10, np.inf, 200_000)
    for a, b in zip((sol.ts, sol.fs, sol.fps, sol.fpps), (ts, fs, fps, fpps)):
        assert_same_bits(a, b)
    assert (sol.status, sol.nfev) == (status, nfev)
    tq = np.linspace(0.0, sol.t_end, 1001)
    f, fp, fpp = sol.eval(tq)
    assert_same_bits(fpp, coded_rhs(code, p0, p1, p2, tq, f, fp))


# --- DenseSolution.eval memo ----------------------------------------------------

@pytest.fixture
def solution():
    return integrate_ivp(OdeRhs.power(0.5, -2.0), 0.0, 2.0, 1.0, 0.0, 1e-10)


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []

    def counted(ts, fs, fps, fpps, tq):
        calls.append(np.size(tq))
        return DENSE_EVAL(ts, fs, fps, fpps, tq)

    monkeypatch.setattr(kernels, "dense_eval", counted)
    return calls


def fresh(sol, tq):
    f, fp = DENSE_EVAL(sol.ts, sol.fs, sol.fps, sol.fpps, tq)
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
        f, fp, fpp = solution.eval(tq)
        for got, want in zip((f, fp, fpp), ref):
            assert_same_bits(got, want)
        f[:] = 7.0
        fp[:] = 7.0
        fpp[:] = 7.0

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
    assert "_last" not in solution.meta
    assert "_last" not in before


# --- blocked Ricci sweep ----------------------------------------------------------

B = _SWEEP_BLOCK


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, B - 1, B, B + 1, B + 2, B + 3,
                               B + 4, B + 5, 2 * B, 2 * B + 3, 3 * B + 1])
def test_sweep_bounds_tile_the_grid_in_full_blocks(n):
    bounds = _sweep_bounds(n)
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
              for s, e in _sweep_bounds(len(ts))]
    for i, ref in enumerate(whole):
        assert_same_bits(np.concatenate([b[i] for b in blocks], axis=-1), ref)
    return whole


@pytest.fixture(scope="module")
def sweep_metrics():
    """One metric per evaluation path the sweep meets."""
    f, h, _ = sha_yang_profiles(3, 2, 50.0, 1e-10)
    sha_yang = MultiWarpedMetric(
        (0.0, 50.0), ((round_sphere_factor(1, 1.0), h),
                      (abstract_factor("M", 3, (2.0, 2.0)), f)),
        collapse_left=0)
    gn = gN_regions(abstract_factor("Y", 2, (-1.0, -1.0)), 0.2, 3,
                    grid_size=16).artifacts["region_a"]
    collar = certify_collar(round_boundary(2, 1.0, 1.0), 0.3, 3,
                            grid_size=16).artifacts["metric"]
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


@pytest.mark.parametrize("g", [B - 1, B, B + 1, B + 2, B + 3, 2 * B + 1])
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
    monkeypatch.setattr(curvature, "_SWEEP_BLOCK", 8)
    m = sweep_metrics[name]
    assert len(_sweep_bounds(n)) == n // 8 + (n % 8 >= 4)
    blocks_match_one_shot(m, np.random.default_rng(n).uniform(
        *m.grid_bounds(), n))


def test_blocked_sweep_keeps_an_exact_negative_zero_minimum():
    cone = MultiWarpedMetric(
        (0.0, 5.0),
        ((round_sphere_factor(3, 1.0),
          closed_form_profile("linear", (0.0, 5.0), value=0.0, slope=1.0)),),
        collapse_left=0)
    rep = ricci_report(cone, 3 * B + 1, lam=0.0)
    assert len(_sweep_bounds(3 * B + 1)) == 3
    assert_same_bits(rep.global_min, -0.0)
    assert rep.verdict
