"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3's bound on the collapsing-sphere radius is split out and marked
as an expected failure for (n, m) = (2, 3): the exact solution has
|h(50) - 2/alpha| = (2/alpha)|f'(50) - 1| = 0.1210 there (verified against
closed-form quadrature of the first integral), so the stated 0.05 cannot be
met by any correct implementation; a companion test pins the measured value.
"""
import math
import time

import numpy as np
import pytest

from conftest import cone_profile, random_block_metrics
from warpcheck.constructions import (certified_core, certify_collar,
                                     collar_closability, docking_ambient,
                                     gN_regions, neck_family_check,
                                     round_boundary)
from warpcheck.curvature import (MultiWarpedMetric, boundary_data, glue_check,
                                 ricci_components, ricci_generic, ricci_report)
from warpcheck.factors import abstract_factor, round_sphere_factor
from warpcheck.profiles import (closability_ode_profile, closed_form_profile,
                                radial_floor_value, sha_yang_profiles)

PAIRS = [(2, 2), (2, 3), (3, 2), (4, 5)]


def report_line(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def sha_yang_metric(n, m, T=50.0, tol=1e-10):
    f, h, alpha = sha_yang_profiles(n, m, T, tol)
    M = abstract_factor("M", n, (float(n - 1), float(n - 1)))
    metric = MultiWarpedMetric((0.0, T), ((round_sphere_factor(m - 1, 1.0), h),
                                          (M, f)), collapse_left=0)
    return metric, f, h, alpha


@pytest.mark.parametrize("n,m", PAIRS)
def test_c1_nonnegative_ricci(n, m):
    start = time.perf_counter()
    metric, *_ = sha_yang_metric(n, m)
    rep = ricci_report(metric, 10_000)
    elapsed = time.perf_counter() - start
    ok = rep.global_min >= -1e-7 and elapsed < 5.0
    report_line(f"criterion-1 (n={n}, m={m})", ok,
                f"global_min={rep.global_min:.3e} on [1e-3, 50], {elapsed:.2f}s")
    assert rep.global_min >= -1e-7
    assert elapsed < 5.0


@pytest.mark.parametrize("n,m", PAIRS)
def test_c2_first_integral(n, m):
    f, _, alpha = sha_yang_profiles(n, m, 50.0, 1e-10)
    t = np.linspace(0.0, 50.0, 10_000)
    fv, fpv, _ = f.eval(t)
    residual = float(np.max(np.abs(fpv ** 2 - (1.0 - fv ** -alpha))))
    ok = residual <= 1e-8
    report_line(f"criterion-2 (n={n}, m={m})", ok, f"residual={residual:.3e}")
    assert residual <= 1e-8


@pytest.mark.parametrize("n,m", PAIRS)
def test_c3_radial_speed_and_window_decay(n, m):
    _, f, h, alpha = sha_yang_metric(n, m)
    dev_f = abs(f.eval(50.0)[1] - 1.0)
    w1, w2 = np.linspace(10.0, 20.0, 2048), np.linspace(20.0, 40.0, 2048)
    sup_f = [float(np.max(np.abs(f.eval(w)[1] - 1.0))) for w in (w1, w2)]
    sup_h = [float(np.max(np.abs(h.eval(w)[0] - 2.0 / alpha))) for w in (w1, w2)]
    ok = dev_f <= 0.05 and sup_f[1] < sup_f[0] and sup_h[1] < sup_h[0]
    report_line(f"criterion-3 speed/windows (n={n}, m={m})", ok,
                f"|f'(50)-1|={dev_f:.4f}, f-sups {sup_f[0]:.3e}->{sup_f[1]:.3e}, "
                f"h-sups {sup_h[0]:.3e}->{sup_h[1]:.3e}")
    assert dev_f <= 0.05
    assert sup_f[1] < sup_f[0]
    assert sup_h[1] < sup_h[0]


@pytest.mark.parametrize("n,m", PAIRS)
def test_c3_sphere_radius_limit(n, m):
    if (n, m) == (2, 3):
        pytest.xfail("exact value is 0.1210 > 0.05: (2/alpha)|f'(50)-1| with "
                     "alpha = 2/3, confirmed by closed-form quadrature of the "
                     "first integral; no correct implementation can pass")
    _, _, h, alpha = sha_yang_metric(n, m)
    dev_h = abs(h.eval(50.0)[0] - 2.0 / alpha)
    ok = dev_h <= 0.05
    report_line(f"criterion-3 radius limit (n={n}, m={m})", ok,
                f"|h(50)-2/alpha|={dev_h:.4f}")
    assert dev_h <= 0.05


def test_c3_sphere_radius_limit_defect_is_real():
    # guard on the xfail above: the deviation really is what the analysis says
    _, _, h, alpha = sha_yang_metric(2, 3)
    dev_h = abs(h.eval(50.0)[0] - 2.0 / alpha)
    report_line("criterion-3 radius limit (n=2, m=3)", dev_h <= 0.05,
                f"|h(50)-2/alpha|={dev_h:.4f}; bound exceeds the exact value")
    assert dev_h == pytest.approx(0.1210, abs=2e-3)


def test_c4_oracle_equivalence():
    start = time.perf_counter()
    metrics = random_block_metrics(100, seed=7)
    points = (0.55, 0.8, 1.0, 1.2, 1.45)

    def suite_gap(dt):
        worst = 0.0
        for metric in metrics:
            for t in points:
                a = ricci_components(metric, t)
                b = ricci_generic(metric, t, dt)
                worst = max(worst, abs(a.ric_tt - b.ric_tt))
                for (lo1, hi1), (lo2, hi2) in zip(a.blocks, b.blocks):
                    worst = max(worst, abs(lo1 - lo2), abs(hi1 - hi2))
        return worst

    gap_fine = suite_gap(1e-4)
    gap_coarse = suite_gap(2e-3)
    gap_half = suite_gap(1e-3)
    ratio = gap_coarse / gap_half
    elapsed = time.perf_counter() - start
    ok = gap_fine <= 1e-6 and ratio >= 3.5 and elapsed < 10.0
    report_line("criterion-4", ok,
                f"100 metrics: gap(1e-4)={gap_fine:.3e}, "
                f"order ratio {gap_coarse:.3e}/{gap_half:.3e}={ratio:.2f}, "
                f"{elapsed:.2f}s")
    assert gap_fine <= 1e-6
    assert ratio >= 3.5
    assert elapsed < 10.0


def test_c5_model_spaces():
    worst_sphere = 0.0
    for n in range(2, 7):
        metric = MultiWarpedMetric(
            (0.0, math.pi),
            ((round_sphere_factor(n - 1, 1.0),
              closed_form_profile("sine", (0.0, math.pi))),),
            collapse_left=0, collapse_right=0)
        rep = ricci_report(metric, 4000)
        dev = max(float(np.max(np.abs(np.array(e) - (n - 1))))
                  for e in rep.extrema)
        worst_sphere = max(worst_sphere, dev)

    flat = MultiWarpedMetric(
        (0.0, 5.0),
        ((round_sphere_factor(3, 1.0),
          cone_profile(5.0)),),
        collapse_left=0)
    rep = ricci_report(flat, 4000)
    worst_flat = max(float(np.max(np.abs(e))) for e in rep.extrema[:2])

    worst_dock = 0.0
    for n in (3, 4):
        v = docking_ambient(n)
        spread = next(c.value for c in v.checks
                      if c.name == "max_component_spread")
        worst_dock = max(worst_dock, spread)

    ok = worst_sphere <= 1e-9 and worst_flat <= 1e-12 and worst_dock <= 1e-9
    report_line("criterion-5", ok,
                f"sphere dev={worst_sphere:.3e}, flat dev={worst_flat:.3e}, "
                f"docking spread={worst_dock:.3e}")
    assert worst_sphere <= 1e-9
    assert worst_flat <= 1e-12
    assert worst_dock <= 1e-9


def test_c6_neck_family():
    nu, n = 0.1, 5
    s_values = [0.5, 0.25, 0.1, 0.01]
    core = certified_core(n, kappa=2 * nu)
    v = neck_family_check(nu, n, s_values, core)
    delta = v.config["delta"]
    outer = next(c.value for c in v.checks if c.name == "outer_kappa")
    inner = next(c.value for c in v.checks
                 if c.name == "inner_kappa_normalized")
    ok = v.overall and delta > 0 and outer <= 1e-10 and inner <= 1e-10
    report_line("criterion-6", ok,
                f"delta={delta:.4f}, outer kappa dev={outer:.2e}, "
                f"inner kappa dev={inner:.2e}")
    assert v.overall
    assert delta > 0
    assert outer <= 1e-10
    assert inner <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_c7_curvature_floor_identity(n):
    p = closability_ode_profile(n, 0.2, 1e-10)
    t = np.linspace(0.0, p.t1, 4096)
    dev = float(np.max(np.abs(radial_floor_value(p, n, t) - 1.0)))
    ok = dev <= 1e-6 and p.t1 == 0.2
    report_line(f"criterion-7 (n={n})", ok,
                f"max |value - 1| = {dev:.3e} on [0, {p.t1}]")
    assert p.t1 == 0.2
    assert dev <= 1e-6


def test_c8_doubled_region_strict_positivity():
    n = 5
    Y = abstract_factor("Y", n - 1, (float(-(n - 2)), float(-(n - 2))))
    v = gN_regions(Y, 0.2, n)
    gmin = next(c.value for c in v.checks if c.name == "regionA_ricci_min")
    circle = next(c for c in v.checks if c.name == "regionB_circle_direction")
    ok = v.overall and gmin > 0.0 and circle.value == 0.0
    report_line("criterion-8", ok,
                f"region A min={gmin:.3e} > 0, region B circle direction = "
                f"{circle.value} exactly")
    assert v.overall
    assert gmin > 0.0
    assert circle.value == 0.0


def test_c9_gluing():
    hemi = MultiWarpedMetric(
        (0.0, math.pi / 2),
        ((round_sphere_factor(3, 1.0),
          closed_form_profile("sine", (0.0, math.pi / 2))),),
        collapse_left=0)
    bd = boundary_data(hemi, "right")
    verdict = glue_check(bd, bd)
    hemi_ok = verdict.isometry_gap <= 1e-9 and verdict.ii_sum_min == 0.0

    core = round_boundary(3, 1.0, 1.0)
    closable = collar_closability(core, 0.3, 4)
    c_star = closable.config["c_star"]
    at10 = certify_collar(core, 10.0 * c_star, 4)
    ok = hemi_ok and closable.overall and c_star > 0 and not at10.overall
    report_line("criterion-9", ok,
                f"hemisphere ii-sum={verdict.ii_sum_min} exactly, "
                f"c*={c_star}, at 10c*: {len(at10.failed_checks())} checks fail")
    assert hemi_ok
    assert closable.overall and c_star > 0
    assert not at10.overall
    assert at10.failed_checks()


def test_c10_determinism_and_exit_codes(tmp_path):
    from warpcheck.cli import main

    argv = ["gn", "--n", "5", "--eps-prime", "0.2"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(argv + ["--out", str(d1)])
    rc2 = main(argv + ["--out", str(d2)])
    identical = (d1 / "gn.json").read_bytes() == (d2 / "gn.json").read_bytes()

    fail_dir = tmp_path / "f"
    rc_fail = main(argv + ["--out", str(fail_dir), "--require-min", "1.0"])
    report_written = (fail_dir / "gn.json").exists()

    err_dir = tmp_path / "e"
    rc_err = main(["gn", "--n", "2", "--out", str(err_dir)])
    nothing_written = not err_dir.exists() or not list(err_dir.iterdir())

    ok = (rc1 == rc2 == 0 and identical and rc_fail == 1 and report_written
          and rc_err == 2 and nothing_written)
    report_line("criterion-10", ok,
                f"byte-identical={identical}, exit codes: pass={rc1}, "
                f"fail={rc_fail} (report written={report_written}), "
                f"input-error={rc_err} (nothing written={nothing_written})")
    assert rc1 == 0 and rc2 == 0
    assert identical
    assert rc_fail == 1 and report_written
    assert rc_err == 2 and nothing_written
