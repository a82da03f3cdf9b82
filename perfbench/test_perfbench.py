"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q

They run the benchmark in short traced runs (about two minutes in all).
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# layer metrics that must be non-zero, on the workload that exercises them
NONZERO = {
    "cli-default": [
        "python.startup_s", "cli.import_s", "cli.main.self_s",
        "constructions.sha_yang_space.self_s",
        "constructions.neck_family_check.self_s",
        "constructions.collar_closability.self_s",
        "constructions.certify_collar.self_s",
        "constructions.gN_regions.self_s",
        "constructions.docking_ambient.self_s",
        "constructions.theorem22_hypotheses.self_s",
        "constructions.certify_collar.calls",
        "profiles.build.calls", "profiles.build.s",
        "profiles.eval.scalar_calls", "profiles.eval.scalar_s",
        "ode.integrate.calls", "ode.integrate.s", "ode.steps", "ode.nfev",
        "quadrature.cumint.builds", "quadrature.cumint.build_s",
        "quadrature.adaptive.calls", "quadrature.adaptive.integrand_points",
        "quadrature.adaptive.s",
        "curvature.volume.calls", "curvature.volume.s",
        "curvature.boundary.calls", "curvature.boundary.s",
        "report.json.bytes", "report.json.s",
    ],
    "cli-scaled": [
        *(f"profiles.eval.{fam}.{m}" for fam in ("closed_form", "ivp", "quadrature")
          for m in ("points", "s")),
        "ode.dense_eval.points", "ode.dense_eval.s",
        "kernels.dense_eval.calls", "kernels.dense_eval.points",
        "kernels.dense_eval.s", "kernels.dense_eval.bytes_computed",
        "kernels.rk45.s", "kernels.rk45.steps",
        "quadrature.cumint.query_points", "quadrature.cumint.integrand_points",
        "quadrature.cumint.query_s",
        "curvature.ricci_report.calls", "curvature.ricci_report.grid_points",
        "curvature.ricci_report.self_s",
    ],
    "export-csv": [
        *(f"profiles.eval.{fam}.{m}" for fam in ("closed_form", "ivp", "quadrature")
          for m in ("points", "s")),
        "quadrature.cumint.query_points", "quadrature.cumint.query_s",
        "report.csv.rows", "report.csv.bytes", "report.csv.s",
    ],
}


def bench(workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (bench(w, 1)[1], bench(w, 1)[1]) for w in NONZERO}


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_traced_runs_are_correct_and_complete(traced_twice, workload):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for result in traced_twice[workload]:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_layer_metrics_nonzero_where_exercised(traced_twice, workload):
    metrics = traced_twice[workload][0]["metrics"]
    zero = [n for n in NONZERO[workload] if not metrics[n]["value"] > 0]
    assert not zero


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = (r["metrics"] for r in traced_twice[workload])
    counts = [n for n, m in first.items() if m["unit"] != "s"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == \
        {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_layer_self_times_account_for_traced_pass(traced_twice, workload):
    # traced pass wall = layer self times + one interpreter start per child
    # + interpreter exits + what neither covers; that rest must stay within
    # the tracing overhead, or within a tenth of the pass where the overhead
    # is below the pass-to-pass noise of a short run
    m = {n: v["value"] for n, v in traced_twice[workload][0]["metrics"].items()}
    rest = abs(m["trace.unaccounted_s"])
    assert rest <= max(m["trace.overhead_s"], 0.1 * m["trace.pass_wall_s"])


def test_untraced_run_prints_every_end_to_end_metric():
    out, result = bench("cli-default", 0)
    assert out.returncode == 0 and result["correct"]
    # a short run still makes three passes over the nine operations
    assert result["attempted"] >= 27 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for printed in ("wall_s_p50 = ", "pass_wall_s = ", "cal_s = ",
                    "failure_ratio = 0 ratio"):
        assert printed in out.stdout
    assert re.search(r"^wall_s_p[6-9]\d = ", out.stdout, re.M)
    for spec in BENCHMARK["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_every_lookup_site_is_wrapped():
    code = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
import tracer
t = tracer.install()
import warpcheck.cli, warpcheck.constructions, warpcheck.curvature as curv
assert tracer.stale_bindings(t) == []
assert warpcheck.constructions.ricci_report is curv.ricci_report
curv.leftover = curv.ricci_report.__wrapped__
print(tracer.stale_bindings(t))
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['warpcheck.curvature.leftover']"


def test_refuses_to_run_without_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and "correct" not in out.stdout
