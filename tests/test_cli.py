import argparse
import errno
import gc
import json
import math
import re
import shlex
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from conftest import child_env

import warpcheck
from warpcheck import constructions as cons
from warpcheck import kernels
from warpcheck.cli import CSV_GRID, _build_parsers, _parse, main
from warpcheck.report import revalidate_report


def read_report(path):
    return json.loads(path.read_text())


def _exit(argv):
    """The exit code of ``main(argv)``: returned, or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _subparsers():
    """Each subcommand's parser, by name."""
    (subcommands,) = [a for a in _build_parsers()._actions
                      if a.dest == "scenario"]
    return subcommands.choices


class TestScenarioRuns:
    def test_sha_yang_passes_with_residual_field(self, tmp_path, capsys):
        rc = main(["sha-yang", "--n", "2", "--m", "3", "--T", "50",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = read_report(tmp_path / "sha-yang.json")
        names = [c["name"] for c in report["checks"]]
        assert "first_integral_residual" in names
        assert report["overall_pass"] is True
        out = capsys.readouterr().out
        assert "OVERALL PASS" in out

    def test_neck_reports_positive_delta(self, tmp_path):
        rc = main(["neck", "--nu", "0.1", "--n", "5", "--s", "0.5,0.25,0.1",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = read_report(tmp_path / "neck.json")
        assert float(report["config"]["delta"]) > 0.0

    def test_neck_builds_each_profile_once(self, tmp_path, monkeypatch):
        calls = []
        build = cons.neck_profile

        def counting(nu, s):
            calls.append(s)
            return build(nu, s)

        monkeypatch.setattr(cons, "neck_profile", counting)
        argv = ["neck", "--nu", "0.1", "--n", "5", "--s", "0.5,0.25,0.1",
                "--grid", "64"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert calls == [0.5, 0.25, 0.1]
        assert [p.name for p in tmp_path.iterdir()] == ["neck.json"]

    def test_neck_measures_each_distinct_s_once(self, tmp_path, monkeypatch):
        # a repeated s is one member, swept once and repeated in the
        # family; the run reports what the single s reports, bar the echo
        sweeps = []
        sweep = cons.ricci_report

        def counting(metric, grid_size):
            sweeps.append(metric.interval[0])
            return sweep(metric, grid_size)

        monkeypatch.setattr(cons, "ricci_report", counting)
        runs = {}
        for s in ("0.5,0.5,0.5", "0.5"):
            out = tmp_path / s
            sweeps.clear()
            assert main(["neck", "--nu", "0.1", "--n", "3", "--s", s,
                         "--grid", "64", "--out", str(out)]) == 0
            assert sweeps == [0.5]
            runs[s] = read_report(out / "neck.json")
        repeated, single = runs["0.5,0.5,0.5"], runs["0.5"]
        assert repeated["config"].pop("s_values") == ["0.5"] * 3
        single["config"].pop("s_values")
        assert repeated == single

    def test_closability_search_failure_names_what_it_tried(self, tmp_path,
                                                            capsys):
        # every slope below kappa/2 certifies, but the search stops at
        # c_max * 2^-60 = 3.9e-19, far above 5e-301: an input error (2)
        # that states the range tried and the checks its smallest slope fails
        out = tmp_path / "out"
        assert main(["closability", "--n", "3", "--kappa", "1e-300",
                     "--grid", "64", "--out", str(out)]) == 2
        smallest = 0.45 * 2.0 ** -60
        assert capsys.readouterr().err == (
            f"error: no collar slope c_max * 2^-k (k = 0..60) in "
            f"[{smallest!r}, 0.45] certifies; the smallest tried, "
            f"{smallest!r}, fails core_glue_ii_sum\n")
        assert not out.exists()

    def test_docking_round_spread_field(self, tmp_path):
        rc = main(["docking", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        report = read_report(tmp_path / "docking.json")
        spread = next(c for c in report["checks"]
                      if c["name"] == "max_component_spread")
        assert float(spread["value"]) <= 1e-9

    def test_closability_and_gn_and_thm22_and_glue(self, tmp_path):
        assert main(["closability", "--n", "4", "--c-max", "0.3",
                     "--out", str(tmp_path)]) == 0
        assert main(["gn", "--n", "5", "--eps-prime", "0.2",
                     "--out", str(tmp_path)]) == 0
        assert main(["thm22", "--n", "4", "--out", str(tmp_path)]) == 0
        assert main(["glue", "--example", "hemisphere", "--n", "4",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "closability.json").exists()
        assert (tmp_path / "gn.json").exists()
        assert (tmp_path / "thm22.json").exists()
        assert (tmp_path / "glue.json").exists()


# the message of each argv of test_flags_a_run_cannot_use_are_input_errors
# whose mode needs a flag it was not given
_MODE_ERRORS = {
    ("glue", "--dim", "2", "--r1", "1", "--k1", "1"):
        "error: glue without --example needs --r2, --k2\n",
    ("glue",): "error: glue without --example needs --dim, --r1, --k1, "
               "--r2, --k2\n",
}


# argvs that fail verification; closability and gn have none
_FAILING = [
    # radial_speed_limit reads 0.237 against 0.05 at T = 50
    ["sha-yang", "--n", "2", "--m", "8"],
    # nu > 1/sqrt(2): the family has no Ricci floor, so the floor reads -inf
    # and the spread inf
    ["neck", "--nu", "0.75", "--n", "3", "--s", "0.5,0.1"],
    ["thm22", "--n", "4", "--members", "2", "--ric-deficit", "0.1"],
    ["glue", "--dim", "2", "--r1", "1", "--k1", "1", "--r2", "5",
     "--k2", "-3"],
]


class TestExitCodeContract:
    @pytest.mark.parametrize("argv", [
        ["sha-yang", "--n", "2", "--m", "2", "--T", "20"],
        # the largest n of m = 2 whose window decay still resolves at T = 50
        ["sha-yang", "--n", "10", "--m", "2", "--grid", "200"],
        ["neck", "--nu", "0.1", "--n", "5", "--s", "0.5,0.1"],
        ["docking", "--n", "3"],
        ["closability", "--n", "4"],
        ["gn", "--n", "5"],
        ["thm22", "--n", "4"],
        ["glue", "--example", "hemisphere"],
        *_FAILING,
    ])
    def test_pass_fail_and_input_error_paths(self, tmp_path, argv):
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == (1 if argv in _FAILING else 0)
        # the report is written on pass and on verification failure alike
        report = read_report(tmp_path / f"{argv[0]}.json")
        assert report["overall_pass"] is (rc == 0)

    @pytest.mark.parametrize("argv", [
        ["glue", "--example", "hemisphere", "--n", "344"],
        ["closability", "--n", "345"],
        ["thm22", "--n", "345"],
    ])
    def test_sphere_volume_past_the_gamma_overflow_runs(self, tmp_path,
                                                        argv):
        # Gamma((d + 1)/2) overflows from d = 343 on, while vol(S^d) stays
        # a normal float up to d = 437 (each was exit 2, "overflows a float")
        assert main(argv + ["--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("T", ["-1", "0", "1e-9", "0.001", "50000.1"])
    def test_sha_yang_T_outside_its_domain_names_it(self, tmp_path, capsys,
                                                    T):
        # (0.001, 50000]: beyond the exclusion width at the cone point, and
        # within MAX_STEPS steps of the solver's largest step 0.25
        rc = _exit(["sha-yang", "--n", "2", "--m", "2", "--T", T,
                    "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument --T: {T!r} is not a float in (0.001, 50000]")
        assert list(tmp_path.iterdir()) == []

    def test_input_error_writes_nothing(self, tmp_path):
        rc = _exit(["sha-yang", "--n", "1", "--m", "2",
                    "--out", str(tmp_path)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sha-yang", "--n", "3", "--m", "2", "--T", "inf"],
        ["closability", "--n", "4", "--c-max", "inf"],
        ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,nan"],
    ])
    def test_non_finite_float_is_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "RuntimeWarning" not in err
        assert not any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # c^2 underflows to 0 (was a ZeroDivisionError traceback)
        ["neck", "--nu", "1e-300", "--n", "3", "--s", "0.5"],
        # c^2 overflows (was an OverflowError traceback)
        ["glue", "--dim", "2", "--r1", "1e300", "--k1", "1", "--r2", "1e300",
         "--k2", "1"],
        # budgets: rejected before any work
        ["thm22", "--n", "4", "--members", "100000000"],
        ["thm22", "--n", "4", "--members", "0"],
        # n - 3 - deficit over sin(EXCLUSION_WIDTH)^2 overflows: rejected
        # before any sweep (was exit 1, and exit 0 with OVERALL PASS, each
        # after two RuntimeWarnings)
        ["thm22", "--n", "4", "--ric-deficit=2e302"],
        ["thm22", "--n", "5", "--members", "3", "--ric-deficit=-1e308"],
        # vol(S^438) underflows past the least normal float (thm22 --n 400
        # was an OverflowError traceback, then a false overflow refusal)
        ["thm22", "--n", "439"],
        ["neck", "--nu", "0.1", "--n", "1000000", "--s", "0.5"],
        ["docking", "--n", "100000000"],
        # grids above GRID_MAX, rejected at parse time (was a MemoryError
        # traceback, then a MemoryError from the grid's allocation)
        ["sha-yang", "--n", "3", "--m", "2", "--grid", "1000000000000"],
        ["export", "--profile", "k", "--grid", "1000000000000"],
        # longer than MAX_STEPS steps of h_max (was a spent step budget)
        ["sha-yang", "--n", "3", "--m", "2", "--T", "1e7"],
        # no longer than the exclusion width at the cone point (was an
        # error about an internal grid outside the profile's domain, and
        # at 0.001 "interval shorter than its exclusion zones")
        ["sha-yang", "--n", "2", "--m", "2", "--T", "1e-9"],
        ["sha-yang", "--n", "2", "--m", "2", "--T", "0.001"],
        # 1/eps'^2 overflows (was an OverflowError traceback)
        ["export", "--profile", "k", "--eps-prime", "1e300"],
        # the core rescaled to the inner radius 1.4e-300 squares to 0 (was a
        # ZeroDivisionError traceback, then a false "collapsed slice")
        ["neck", "--nu", "1", "--n", "3", "--s", "1e-300"],
        # pi/(4 nu) overflows (was exit 0 with nan rows and RuntimeWarnings)
        ["export", "--profile", "neck", "--nu", "5e-324", "--s", "1"],
        # f' rounds to 1 on both decay windows (was exit 1: a decay of
        # -2.2e-14 at n = 20, of exactly 0 at n = 30 and 40)
        ["sha-yang", "--n", "20", "--m", "2", "--grid", "200"],
        ["sha-yang", "--n", "30", "--m", "2", "--grid", "200"],
        ["sha-yang", "--n", "40", "--m", "2", "--grid", "200"],
        # the decay predicted on the first window, 2.2e-11 down to 1.1e-16,
        # is within tol = 1e-10 (was exit 1, or exit 0 by the sign of
        # solver error)
        ["sha-yang", "--n", "11", "--m", "2", "--grid", "200"],
        ["sha-yang", "--n", "12", "--m", "2", "--grid", "200"],
        ["sha-yang", "--n", "15", "--m", "2", "--grid", "200"],
        ["sha-yang", "--n", "16", "--m", "2", "--grid", "200"],
        # amplitude * omega^3 of the neck's sine overflows (was an
        # OverflowError traceback)
        ["neck", "--nu", "1e103", "--n", "3", "--s", "1e-104"],
        ["export", "--profile", "neck", "--nu", "1e103", "--s", "1e-104"],
        # the collar's f' = 2c squares past the float range (was a
        # RuntimeWarning, then exit 2 after a 60-step halving search)
        ["closability", "--n", "3", "--c-max", "1e154"],
        # the glued principal curvatures k1 + k2 sum to inf (was exit 0,
        # OVERALL PASS)
        ["glue", "--dim", "2", "--r1", "1", "--k1", "1e308", "--r2", "1",
         "--k2", "1e308"],
    ])
    def test_out_of_range_input_is_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = main(argv + ["--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err
        assert not any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["thm22", "--n", "4", "--ric-deficit=2e302"],
        ["glue", "--dim", "2", "--r1", "1", "--k1", "1e308", "--r2", "1",
         "--k2", "1e308"],
        # twice the collar's f overflowed in its C2 check (was a
        # RuntimeWarning, then exit 2 as "not C2 at the transition")
        ["export", "--profile", "collar", "--c", "6.5e307"],
    ])
    def test_overflow_is_one_error_line_in_a_child(self, tmp_path, argv):
        # pytest's warning filter does not reach a child process, where a
        # RuntimeWarning would be printed to stderr beside the error
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "warpcheck", *argv, "--out", str(out)],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # boundary blocks scale only the Ricci interval they compare; each
        # was exit 2, since a scaled volume left the normal floats
        ["neck", "--nu", "0.1", "--n", "100", "--s", "0.01"],
        ["neck", "--nu", "0.1", "--n", "186", "--s", "0.5"],
        ["glue", "--dim", "3", "--r1", "1e-110", "--k1", "1", "--r2",
         "1e-110", "--k2", "1"],
        ["glue", "--dim", "16", "--r1", "1e-20", "--k1", "1", "--r2",
         "1e-20", "--k2", "1"],
        # nu s = 1e-13 is no zero of the sine: the inner radius is 1.4e-13
        # (was exit 2 on a "collapsed" slice, while --s 1.1e-12 ran)
        ["neck", "--nu", "0.1", "--n", "3", "--s", "1e-12"],
    ])
    def test_valid_input_once_refused_runs(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert read_report(tmp_path / f"{argv[0]}.json")["overall_pass"]

    def test_collar_slope_up_to_1e307_exports(self, tmp_path):
        assert main(["export", "--profile", "collar", "--c", "1e307",
                     "--grid", "5", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv", [
        # the radial warp of n = 3 collapses at t* = 0.74048 (export was
        # exit 0 with a CSV ending at 0.9 of that, t = 0.6664, and gn named
        # 0.6664 as the collapse)
        ["export", "--profile", "closability", "--n", "3",
         "--eps-prime", "0.7405"],
        ["gn", "--n", "3", "--eps-prime", "0.75"],
    ])
    def test_eps_prime_beyond_the_collapse_is_refused(self, tmp_path, argv):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "warpcheck", *argv, "--out", str(out)],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ")
        assert re.search(r"\bt = 0\.74048\d", line)
        assert not out.exists()

    def test_eps_prime_below_the_collapse_exports_to_it(self, tmp_path):
        assert main(["export", "--profile", "closability", "--n", "3",
                     "--eps-prime", "0.7404", "--out", str(tmp_path)]) == 0
        last = (tmp_path / "closability.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 0.7404

    @pytest.mark.parametrize("argv, span", [
        (["export", "--profile", "closability", "--n", "3",
          "--eps-prime", "1e-14"], "[0.0, 1e-14]"),
        (["export", "--profile", "sha-f", "--n", "3", "--m", "2",
          "--T", "1e-300"], "[0.0, 1e-300]"),
        (["export", "--profile", "sha-h", "--T", "1e-11"], "[0.0, 1e-11]"),
    ])
    def test_an_ivp_shorter_than_the_least_step_is_refused_as_such(
            self, tmp_path, capsys, monkeypatch, argv, span):
        # the first step, span/100, lies below the least step 1e-13 (was
        # "solution left its admissible region at t = 0.0", where f is 1);
        # admit refuses it by the flag the argv ends with, before any
        # profile is built
        given = " ".join(argv[-2:])

        def refuse(*args):
            raise AssertionError("the solver was called")
        monkeypatch.setattr(kernels, "rk45_callback", refuse)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {given}: the interval {span} is too "
                               "short for the solver")
        assert line.endswith("below its least step 1e-13")
        assert "admissible region" not in line
        assert not out.exists()

    def test_an_ivp_just_above_the_least_step_exports(self, tmp_path):
        assert main(["export", "--profile", "sha-f", "--n", "3", "--m", "2",
                     "--T", "1.1e-11", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, flag", [
        # one argv per class of refusal that named no flag of its argv; the
        # message each printed before is in the comment
        # "n must be an integer >= 2, got 1"
        (["sha-yang", "--n", "1", "--m", "2"], "--n"),
        # "m must be an integer >= 2, got 1"
        (["sha-yang", "--n", "3", "--m", "1"], "--m"),
        # "the volume of the unit 438-sphere underflows"
        (["sha-yang", "--n", "3", "--m", "439"], "--m"),
        (["docking", "--n", "1000000"], "--n"),
        (["closability", "--n", "439"], "--n"),
        (["thm22", "--n", "439"], "--n"),
        (["neck", "--nu", "0.1", "--n", "439", "--s", "0.5"], "--n"),
        (["glue", "--example", "hemisphere", "--n", "439"], "--n"),
        # "[0.0, 1e+300] cannot be covered in 200000 steps of at most 0.25"
        (["sha-yang", "--n", "3", "--m", "2", "--T", "1e300"], "--T"),
        (["export", "--profile", "sha-f", "--T", "1e300"], "--T"),
        # "T must be positive, got 0.0"
        (["export", "--profile", "sha-h", "--T", "0"], "--T"),
        # "n must be an integer >= 3, got 2" (n - 1 >= 2 in docking)
        (["neck", "--nu", "0.1", "--n", "2", "--s", "0.5"], "--n"),
        (["gn", "--n", "2"], "--n"),
        (["docking", "--n", "2"], "--n"),
        (["thm22", "--n", "2"], "--n"),
        (["export", "--profile", "closability", "--n", "2"], "--n"),
        (["export", "--profile", "sha-f", "--n", "1"], "--n"),
        (["export", "--profile", "sha-f", "--m", "1"], "--m"),
        # "nu must be positive, got 0.0"
        (["neck", "--nu", "0", "--n", "3", "--s", "0.5"], "--nu"),
        (["export", "--profile", "neck", "--nu", "0"], "--nu"),
        # "nu = 5e-324 is too small: pi/(4 nu) overflows"
        (["neck", "--nu", "5e-324", "--n", "3", "--s", "0.5"], "--nu"),
        # "nu = 1e+308 is too large: pi/(4 nu) rounds to 0"
        (["export", "--profile", "neck", "--nu", "1e308"], "--nu"),
        # "amplitude 1.4142135623730951 and omega 1e+300 are out of
        # floating-point range"
        (["neck", "--nu", "1e300", "--n", "3", "--s", "1e-301"], "--nu"),
        # "s must lie in (0, 0.39269908169872414), got 0.5"
        (["neck", "--nu", "2", "--n", "3", "--s", "0.5"], "--s"),
        (["export", "--profile", "neck", "--nu", "2", "--s", "0.5"], "--s"),
        # "the slice t = 5e-324 is collapsed: a warp vanishes there"
        (["neck", "--nu", "0.1", "--n", "3", "--s", "5e-324"], "--s"),
        (["neck", "--nu", "0.75", "--n", "3", "--s", "5e-324"], "--s"),
        # "c_max must be positive"
        (["closability", "--n", "3", "--c-max", "0"], "--c-max"),
        # "c = 1e+300 is out of floating-point range: ... whose square
        # overflows"
        (["closability", "--n", "3", "--c-max", "1e300"], "--c-max"),
        # "core boundary must be strictly convex (kappa > 0)"
        (["closability", "--n", "3", "--kappa", "0"], "--kappa"),
        # "eps_prime too small, need > 0.004"
        (["gn", "--n", "3", "--eps-prime", "0.004"], "--eps-prime"),
        # "eps must be positive", "eps_prime must be positive, got 0.0"
        (["export", "--profile", "closability", "--eps-prime", "0"],
         "--eps-prime"),
        (["export", "--profile", "k", "--eps-prime", "0"], "--eps-prime"),
        # "eps_prime 1e-200 is out of floating-point range: 1/eps_prime^2
        # over- or underflows"
        (["export", "--profile", "k", "--eps-prime", "1e-200"],
         "--eps-prime"),
        # "c must be positive, got 0.0"
        (["export", "--profile", "collar", "--c", "0"], "--c"),
        # "c = 1e+308 is out of floating-point range: ... whose double
        # overflows"
        (["export", "--profile", "collar", "--c", "1e308"], "--c"),
        # "volume 12.566370614359172 exceeds the Bishop-Gromov bound ..."
        (["thm22", "--n", "4", "--ric-deficit=-1"], "--ric-deficit"),
        # "dim must be a positive integer, got 0"
        (["glue", "--dim", "0", "--r1", "1", "--k1", "1", "--r2", "1",
          "--k2", "1"], "--dim"),
        # "radius must be positive and finite, got 0.0"
        (["glue", "--dim", "2", "--r1", "0", "--k1", "1", "--r2", "1",
          "--k2", "1"], "--r1"),
        # "glued block 0: the principal curvatures 1e+308 and 1e+308 have
        # no finite sum"
        (["glue", "--dim", "3", "--r1", "1", "--k1", "1e308", "--r2", "1",
          "--k2", "1e308"], "--k1"),
    ])
    def test_each_refusal_class_names_its_flag(self, tmp_path, capsys, argv,
                                               flag):
        out = tmp_path / "out"
        assert _exit(argv + ["--out", str(out)]) == 2
        line = next(x for x in capsys.readouterr().err.splitlines()
                    if "error:" in x)
        assert re.search(rf"(^|\s){re.escape(flag)}(\s|:|$)",
                         line.partition("error:")[2]), line
        assert not out.exists()

    def test_neck_refuses_every_member_before_sweeping_any(
            self, tmp_path, capsys, monkeypatch):
        # the collapsed slice s = 5e-324, where nu s rounds to 0, is
        # refused before s = 0.5 is swept
        sweeps = []
        sweep = cons.ricci_report

        def counting(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cons, "ricci_report", counting)
        assert main(["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,5e-324",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --s 5e-324 with --nu 0.1, whose glued core radius is ")
        assert sweeps == []
        assert not (tmp_path / "out").exists()

    def test_sha_yang_refuses_an_unresolved_decay_before_sweeping(
            self, tmp_path, capsys, monkeypatch):
        # the decay predicted on the first window, 2.2e-11, is within
        # tol = 1e-10; the refusal comes before the Ricci sweep
        sweeps = []
        sweep = cons.ricci_report

        def counting(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cons, "ricci_report", counting)
        assert main(["sha-yang", "--n", "11", "--m", "2",
                     "--out", str(tmp_path / "out")]) == 2
        assert "below the solver's resolution" in capsys.readouterr().err
        assert sweeps == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, flag", sorted(
        (name, flag) for name, p in _subparsers().items()
        for a in p._actions if getattr(a.type, "__name__", None) == "int"
        for flag in a.option_strings))
    def test_an_integer_past_float_range_is_an_input_error(
            self, tmp_path, capsys, monkeypatch, name, flag):
        # every integer flag, so a new one is covered without being listed
        # (--n 10**400 was an OverflowError traceback, exit 1, in thm22,
        # sha-yang and gn, and a refused "radius 1.0" in docking)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([name, flag, str(10 ** 400), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        (line,) = [x for x in err.splitlines() if "error:" in x]
        assert f"argument {flag}: '10000000000000000000...' is not a " \
               "finite int" in line and "[-inf, inf]" not in line
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["thm22", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["thm22", "--n", "4", "--members", "1.5"],
         "argument --members: invalid int value: '1.5'"),
        (["neck", "--nu", "x", "--n", "3", "--s", "0.5"],
         "argument --nu: invalid float value: 'x'"),
        (["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,x"],
         "argument --s: invalid float list value: '0.5,x'"),
    ])
    def test_malformed_number_is_named_as_malformed(self, tmp_path, capsys,
                                                    argv, message):
        # was "'abc' is not a finite int in [-inf, inf]"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        (line,) = [x for x in capsys.readouterr().err.splitlines()
                   if "error:" in x]
        assert line.endswith(message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, given, scale, interval", [
        (["neck", "--nu", "0.1", "--n", "3", "--s", "1e-300"],
         "--s 1e-300 with --nu 0.1, whose glued core radius is sqrt(2) "
         "sin(nu s)", repr(2 ** 0.5 * math.sin(0.1 * 1e-300)), "[1.0, 1.0]"),
        (["neck", "--nu", "1e-300", "--n", "3", "--s", "1"],
         "--s 1.0 with --nu 1e-300, whose glued core radius is sqrt(2) "
         "sin(nu s)", repr(2 ** 0.5 * math.sin(1e-300)), "[1.0, 1.0]"),
        (["glue", "--dim", "2", "--r1", "1e300", "--k1", "1", "--r2",
          "1e300", "--k2", "1"], "--r1 1e+300 with --dim 2", "1e+300",
         "[1.0, 1.0]"),
        (["glue", "--dim", "1", "--r1", "1", "--k1", "1", "--r2", "1e-200",
          "--k2", "1"], "--r2 1e-200 with --dim 1", "1e-200", "[0.0, 0.0]"),
    ])
    def test_radius_out_of_range_names_the_flags(self, tmp_path, capsys,
                                                 argv, given, scale,
                                                 interval):
        # each was "scale <c> is out of floating-point range", naming for
        # neck the core's rescaling, a number that no flag holds; the flags
        # that set it now lead the message, at parse time
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {given}: scale {scale} is out of floating-point range: "
            f"the scaled Ricci interval {interval}/c^2 is not finite\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["neck", "--nu", "1e308", "--n", "3", "--s", "0.5"],
        ["export", "--profile", "neck", "--nu", "1e308"],
    ])
    def test_neck_nu_past_its_ceiling_is_named(self, tmp_path, capsys,
                                               argv):
        # was "nu = 1e+308 is too large: pi/(4 nu) rounds to 0", naming no
        # flag; sqrt(2) nu^3 overflows long before pi/(4 nu) rounds to 0
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: --nu 1e+308: nu = 1e+308 is too large: sqrt(2) nu^3 "
            "overflows\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, domain", [
        (["thm22", "--n", "2"], "an int in [3, 438]"),
        (["thm22", "--n", "1"], "an int in [3, 438]"),
        (["glue", "--example", "hemisphere", "--n", "1"], "an int in [2, 438]"),
        (["closability", "--n", "1"], "an int in [2, 438]"),
        (["closability", "--n", "0"], "an int in [2, 438]"),
        (["gn", "--n", "1"], "an int >= 3"),
        (["gn", "--n", "0"], "an int >= 3"),
        (["sha-yang", "--m", "2", "--n", "0"], "an int >= 2"),
    ])
    def test_dimension_below_its_floor_names_n(self, tmp_path, capsys, argv,
                                               domain):
        # each was "dim must be a positive integer, got n - 1 (or n - 2)",
        # refused by the sphere factor it began to build; gn and sha-yang
        # said "dim must be >= 1, got n - 1 (or n)", from their Y or M; then
        # "n must be an integer >= 3, got 2", naming no flag
        assert _exit(argv + ["--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()[-1:]
        assert line.endswith(f"error: argument --n: {argv[-1]!r} is not "
                             f"{domain}")
        assert not (tmp_path / "out").exists()

    def test_more_s_values_than_members_max_exit_before_any_work(
            self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the neck family was built")

        monkeypatch.setattr(cons, "neck_family_check", no_work)
        s = ",".join(["0.5"] * (cons.MEMBERS_MAX + 1))
        with pytest.raises(SystemExit) as exc:
            main(["neck", "--nu", "0.1", "--n", "3", "--s", s,
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()
        s = ",".join(["0.5"] * cons.MEMBERS_MAX)
        assert len(_parse(["neck", "--nu", "0.1", "--n", "3",
                           "--s", s])["s"]) == cons.MEMBERS_MAX

    @pytest.mark.parametrize("s, position", [
        ("0.5,,0.25", "value 2 of 3"), ("0.5,", "value 2 of 2"),
        (",0.5", "value 1 of 2"), ("0.5, ,0.25", "value 2 of 3"),
        ("", "value 1 of 1")])
    def test_empty_s_entry_is_input_error(self, tmp_path, capsys, s,
                                          position):
        # an empty entry was dropped: "0.5,,0.25" ran and echoed two values
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["neck", "--nu", "0.1", "--n", "3", "--s", s,
                  "--out", str(out)])
        assert exc.value.code == 2
        (line,) = [x for x in capsys.readouterr().err.splitlines()
                   if "error:" in x]
        assert position in line and "is empty" in line
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # --example builds its own boundaries, so each explicit boundary flag
        # would be echoed in the report's config but never used
        ["glue", "--example", "hemisphere", "--n", "4", "--dim", "3"],
        ["glue", "--example", "hemisphere", "--r1", "7"],
        ["glue", "--example", "hemisphere", "--k1", "1"],
        ["glue", "--example", "hemisphere", "--r2", "1"],
        ["glue", "--example", "hemisphere", "--k2", "1"],
        ["glue", "--example", "hemisphere", "--dim", "2", "--r1", "1",
         "--k1", "1", "--r2", "1", "--k2", "1"],
        # the round check runs exactly when R is the default; there is no flag
        ["docking", "--n", "3", "--check-round"],
        # a shared flag the scenario does not read
        ["docking", "--n", "3", "--tol", "1e-5"],
        ["glue", "--example", "hemisphere", "--grid", "5"],
        ["thm22", "--n", "4", "--csv"],
        # docking's only profile is R = sin, which export --profile
        # docking-r writes
        ["docking", "--n", "3", "--csv"],
        # nor does neck: export --profile neck --nu nu --s s writes each
        # member
        ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5", "--csv"],
        # explicit boundaries do not read the example's --n
        ["glue", "--n", "7", "--dim", "2", "--r1", "1", "--k1", "1",
         "--r2", "1", "--k2", "1"],
        # explicit boundaries need all five flags
        ["glue", "--dim", "2", "--r1", "1", "--k1", "1"],
        ["glue"],
        # an export flag the profile does not read
        ["export", "--profile", "k", "--nu", "0.3"],
        ["export", "--profile", "docking-r", "--tol", "1e-8"],
        ["export", "--profile", "docking-r", "--json", "--csv",
         "--require-min", "99"],
        # no flag sets a threshold: each check's comes from its construction
        ["gn", "--n", "3", "--require-min", "0"],
        ["glue", "--example", "hemisphere", "--require-min", "0"],
        # the glue tolerance is GLUE_TOL; no flag loosens it
        ["glue", "--dim", "2", "--r1", "1", "--k1", "1", "--r2", "5",
         "--k2", "-3", "--glue-tol", "10"],
        # no abbreviations: --gr is not --grid
        ["docking", "--n", "3", "--gr", "64"],
        # flags come from argv alone: run.cfg, valid as a config file, is
        # never read
        ["docking", "--n", "3", "--config", "run.cfg"],
        ["export", "--profile", "k", "--config=run.cfg"],
        # the certificate goes to member 0; no flag moves it
        ["thm22", "--n", "4", "--members", "2", "--closable-index", "1"],
        # every IVP runs at the solver tolerance 1e-10, and the report goes
        # only to its file
        ["sha-yang", "--n", "3", "--m", "2", "--tol", "1e-8"],
        ["gn", "--n", "3", "--json"],
        ["export", "--profile", "sha-f", "--tol", "1e-8"],
        # M's Einstein constant, the core's curvature and Y's Ricci constant
        # sit at their floors; no flag raises them
        ["sha-yang", "--n", "3", "--m", "2", "--ric", "3"],
        ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5", "--core-kappa",
         "1"],
        ["gn", "--n", "3", "--y-ric", "0"],
    ])
    def test_flags_a_run_cannot_use_are_input_errors(self, tmp_path, capsys,
                                                     monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("grid = 64\n")
        out = tmp_path / "out"
        try:
            rc = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err
        assert _MODE_ERRORS.get(tuple(argv), "error:") in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_mismatched_glue_fails_verification(self, tmp_path):
        # a radius-1 boundary against a radius-5 one with II sum -2
        rc = main(["glue", "--dim", "2", "--r1", "1", "--k1", "1", "--r2", "5",
                   "--k2", "-3", "--out", str(tmp_path)])
        assert rc == 1
        report = read_report(tmp_path / "glue.json")
        assert report["config"]["glue_tol"] == repr(cons.GLUE_TOL)
        assert report["config"]["n"] is None
        assert not any(c["pass"] for c in report["checks"])

    def test_mode_defaults_apply_only_when_not_given(self):
        parser = _build_parsers()
        assert parser.parse_args(["glue"]).n is None
        assert _parse(["glue", "--example", "hemisphere"])["n"] == 4
        assert _parse(["glue", "--example", "hemisphere", "--n", "3"])["n"] == 3
        prm = _parse(["export", "--profile", "closability"])
        assert (prm["n"], prm["eps_prime"]) == (3, 0.2) and "tol" not in prm
        assert prm["nu"] is None and prm["m"] is None

    def test_negative_exponent_is_attached_with_equals(self, capsys):
        # the parser alone: thm22 admits no negative deficit this large
        parse = _build_parsers().parse_args
        attached = ["thm22", "--n", "4", "--ric-deficit=-5e-1"]
        assert parse(attached).ric_deficit == -0.5
        # argparse takes "-5e-1" for a flag unless its negative-number
        # pattern matches it, which on Python 3.11 it does not
        spaced = ["thm22", "--n", "4", "--ric-deficit", "-5e-1"]
        if argparse.ArgumentParser()._negative_number_matcher.match("-5e-1"):
            assert parse(spaced).ric_deficit == -0.5
        else:
            with pytest.raises(SystemExit) as exc:
                parse(spaced)
            assert exc.value.code == 2
            assert "expected one argument" in capsys.readouterr().err

    def test_bounds_are_inclusive(self):
        parser = _build_parsers()
        args = parser.parse_args(["thm22", "--n", "4", "--members", "1000"])
        assert args.members == 1000

    def test_thm22_forced_ricci_failure(self, tmp_path):
        rc = main(["thm22", "--n", "4", "--members", "2",
                   "--ric-deficit", "0.1", "--out", str(tmp_path)])
        assert rc == 1
        report = read_report(tmp_path / "thm22.json")
        failing = [c for c in report["checks"] if not c["pass"]]
        assert any("ricci_floor" in c["name"] for c in failing)

    @pytest.mark.parametrize("argv", [
        ["thm22", "--n", "4", "--members", "2", "--ric-deficit=-0.5"],
        ["thm22", "--n", "6", "--members", "3", "--ric-deficit=-1"],
    ])
    def test_thm22_refuses_a_factor_past_bishop_gromov(self, tmp_path,
                                                       capsys, argv):
        # the last member's factor has the unit sphere's volume and a Ricci
        # constant above the unit sphere's (was exit 0, OVERALL PASS)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert "Bishop-Gromov bound" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminismAndRoundTrip:
    def test_identical_configs_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        argv = ["neck", "--nu", "0.1", "--n", "5", "--s", "0.5,0.25"]
        assert main(argv + ["--out", str(d1)]) == 0
        assert main(argv + ["--out", str(d2)]) == 0
        assert (d1 / "neck.json").read_bytes() == (d2 / "neck.json").read_bytes()

    def test_report_revalidates_to_same_verdict(self, tmp_path):
        assert main(["docking", "--n", "4", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path / "docking.json")
        assert revalidate_report(report) == report["overall_pass"]

    def test_report_carries_config_and_version(self, tmp_path):
        assert main(["sha-yang", "--n", "2", "--m", "2", "--T", "20",
                     "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path / "sha-yang.json")
        assert report["tool_version"]
        assert report["config"]["tol"] == repr(1e-10)
        assert report["schema_version"] == "1"


class TestExport:
    def test_sha_f_row_count(self, tmp_path):
        rc = main(["export", "--profile", "sha-f", "--n", "2", "--m", "2",
                   "--T", "50", "--grid", "1001", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sha-f.csv").read_text().splitlines()
        assert lines[0] == "t,f,fp,fpp"
        assert len(lines) == 1002

    def test_neck_first_row_starts_at_s(self, tmp_path):
        rc = main(["export", "--profile", "neck", "--nu", "0.1", "--s", "0.5",
                   "--grid", "100", "--out", str(tmp_path)])
        assert rc == 0
        first = (tmp_path / "neck.csv").read_text().splitlines()[1]
        assert first.split(",")[0] == repr(0.5)

    def test_neck_near_zero_s_exports_the_sine_not_zero(self, tmp_path):
        # f(s) = sqrt(2) sin(1e-13) (was 0.0, from an odd expansion centred
        # on s)
        assert main(["export", "--profile", "neck", "--nu", "0.1", "--s",
                     "1e-12", "--grid", "3", "--out", str(tmp_path)]) == 0
        first = (tmp_path / "neck.csv").read_text().splitlines()[1]
        t, f, _, _ = map(float, first.split(","))
        assert t == 1e-12
        assert f == math.sqrt(2.0) * math.sin(0.1 * 1e-12)

    def test_k_profile_last_row_is_flat(self, tmp_path):
        rc = main(["export", "--profile", "k", "--eps-prime", "0.2",
                   "--grid", "200", "--out", str(tmp_path)])
        assert rc == 0
        last = (tmp_path / "k.csv").read_text().splitlines()[-1]
        t, f, fp, fpp = map(float, last.split(","))
        assert t == 0.2
        assert abs(fp) <= 1e-10

    def test_csv_flag_dumps_scenario_profiles(self, tmp_path):
        rc = main(["sha-yang", "--n", "2", "--m", "2", "--T", "20",
                   "--out", str(tmp_path), "--csv", "--grid", "501"])
        assert rc == 0
        f_csv = tmp_path / "sha-yang_sha-f.csv"
        assert f_csv.exists()
        assert len(f_csv.read_text().splitlines()) == 502

    def test_unwritable_path_is_input_error(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("occupied")
        rc = main(["export", "--profile", "docking-r",
                   "--out", str(target / "sub")])
        assert rc == 2

    @pytest.mark.parametrize("below, code", [
        ((), "[Errno 17] File exists"),
        (("a", "b"), "[Errno 20] Not a directory"),
    ])
    def test_out_under_a_file_is_refused_before_the_run(
            self, tmp_path, capsys, monkeypatch, below, code):
        # the nearest existing ancestor of --out is a file: refused with
        # mkdir's own error, before the scenario computes anything
        def run(prm, grid):
            raise AssertionError("the scenario ran")

        scenario = cons.SCENARIOS["sha-yang"]
        monkeypatch.setitem(cons.SCENARIOS, "sha-yang",
                            scenario.replace(run=run))
        target = tmp_path / "file"
        target.write_text("occupied")
        out = str(target.joinpath(*below))
        rc = main(["sha-yang", "--n", "3", "--m", "2", "--grid", "1000000",
                   "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write artifacts: {code}: {out!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert target.read_text() == "occupied"


class _FailingWrites:
    """A text file whose ``fail_at``-th write, counted over every file this
    fixture opens, stores half its text and raises ENOSPC."""

    def __init__(self, fh, counter, fail_at):
        self.fh, self.counter, self.fail_at = fh, counter, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.counter.append(len(text))
        if len(self.counter) == self.fail_at:
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)


@pytest.fixture
def csv_write_fails_at(monkeypatch):
    """Make the n-th CSV write of the run fail partway, in blocks of 16
    rows; returns the list of attempted write sizes."""
    monkeypatch.setattr("warpcheck.quadrature._GRID_BLOCK", 16)
    counter = []
    real_open = Path.open

    def install(fail_at):
        def open_(self, *args, **kwargs):
            fh = real_open(self, *args, **kwargs)
            if self.suffix != ".csv":
                return fh
            return _FailingWrites(fh, counter, fail_at)
        monkeypatch.setattr(Path, "open", open_)
        return counter
    return install


class TestFailedWriteLeavesNothing:
    def test_report_path_taken_by_a_directory(self, tmp_path, capsys):
        out = tmp_path / "O"
        (out / "gn.json").mkdir(parents=True)
        (out / "keep.txt").write_text("not ours")
        rc = main(["gn", "--n", "3", "--csv", "--grid", "2000",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert sorted(p.name for p in out.iterdir()) == ["gn.json",
                                                         "keep.txt"]
        assert (out / "gn.json").is_dir()
        assert (out / "keep.txt").read_text() == "not ours"

    def test_existing_file_is_not_overwritten(self, tmp_path, capsys):
        out = tmp_path / "O"
        (out / "gn.json").mkdir(parents=True)
        (out / "gn_k.csv").write_text("old\n")
        rc = main(["gn", "--n", "3", "--csv", "--grid", "2000",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert sorted(p.name for p in out.iterdir()) == ["gn.json",
                                                         "gn_k.csv"]
        assert (out / "gn_k.csv").read_text() == "old\n"

    def test_existing_file_survives_a_failed_write(self, tmp_path,
                                                   csv_write_fails_at):
        (tmp_path / "k.csv").write_text("old\n")
        csv_write_fails_at(4)
        rc = main(["export", "--profile", "k", "--grid", "100",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert [p.name for p in tmp_path.iterdir()] == ["k.csv"]
        # Path.open is still patched here
        with open(tmp_path / "k.csv") as fh:
            assert fh.read() == "old\n"

    def test_success_replaces_an_existing_file(self, tmp_path):
        (tmp_path / "k.csv").write_text("old\n")
        rc = main(["export", "--profile", "k", "--grid", "100",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["k.csv"]
        assert len((tmp_path / "k.csv").read_text().splitlines()) == 101

    def test_csv_write_fails_inside_a_block(self, tmp_path,
                                            csv_write_fails_at):
        # 100 rows in blocks of 16: a header write and 7 block writes per
        # file; the 11th write is the third of the second CSV
        sizes = csv_write_fails_at(11)
        out = tmp_path / "new" / "O"
        rc = main(["gn", "--n", "3", "--csv", "--grid", "100",
                   "--out", str(out)])
        assert rc == 2
        assert len(sizes) == 11 and sizes[-1] > 0
        # the directories this run made are gone too
        assert list(tmp_path.iterdir()) == []

    def test_export_write_fails_inside_a_block(self, tmp_path,
                                               csv_write_fails_at):
        sizes = csv_write_fails_at(4)
        (tmp_path / "keep.txt").write_text("not ours")
        rc = main(["export", "--profile", "k", "--grid", "100",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert len(sizes) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]


def _flags(text):
    return set(re.findall(r"`(--[\w-]+)", text))


# a flag in README's command-line tables: `--flag`, its domain in italics
# if it has one, and in the mode table its default in parentheses
_README_FLAG = r"`(--[\w-]+)`(?: \*([^*]+)\*)?(?: \((\S+)\))?"


def test_readme_command_line_tables_match_the_parsers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "--config" not in readme
    assert "--require-min" not in readme
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    every = _flags(re.search(r"Every\s+subcommand\s+takes(.*?)\.", section,
                             re.S)[1])
    listed, modes, domains = {}, {}, {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        words = cells[0].replace("`", "").split()
        found = re.findall(_README_FLAG, " ".join(cells[1:]))
        for flag, domain, _ in found:
            if domain:
                domains.setdefault((words[0], flag), set()).add(domain)
        if len(cells) == 3:  # subcommand | its own flags | shared flags
            listed.setdefault(words[0], set()).update(
                _flags(cells[1]), _flags(cells[2]), every)
        else:  # mode | flags it reads, each with its default if it has one
            value = words[2] if words[1].startswith("--") else None
            modes[words[0], value] = {
                flag[2:].replace("-", "_"): float(default) if default else None
                for flag, _, default in found}
    for (name, _), reads in modes.items():
        listed[name].update("--" + d.replace("_", "-") for d in reads)

    assert listed == {
        name: {flag for a in p._actions for flag in a.option_strings} - {
            "-h", "--help"}
        for name, p in _subparsers().items()}
    tables = {(s.name, value): reads for s in cons.SCENARIOS.values()
              if s.mode for value, reads in s.mode[1].items()}
    assert modes == tables
    # every numeric flag, in every row that lists it, with the domain its
    # type declares, so a changed bound cannot leave README behind
    assert domains == {
        (name, a.option_strings[0]): {a.type.domain}
        for name, p in _subparsers().items() for a in p._actions
        if hasattr(a.type, "domain")}


def _readme_examples():
    """The lines of README's Examples block, each as (its words, its
    comment)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"\nExamples:\n\n```sh\n(.*?)```", readme, re.S)[1]
    lines = [line.partition("#") for line in block.splitlines()]
    return [(shlex.split(cmd), comment) for cmd, _, comment in lines]


@pytest.mark.parametrize("words, comment", _readme_examples())
def test_readme_examples_exit_as_documented(tmp_path, words, comment):
    program, *argv = words
    assert program == "warpcheck"
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    else:
        argv += ["--out", str(tmp_path)]
    assert main(argv) == (1 if "forces a" in comment else 0)


def _option_help(parser, flag):
    """The help entry of ``flag`` in ``parser.format_help()``, whitespace
    collapsed: its first line and the continuation lines below it."""
    entry = None
    for line in parser.format_help().splitlines():
        if line.startswith("  -"):
            if entry is not None:
                break
            if line.split()[0] == flag:
                entry = [line]
        elif entry is not None:
            entry.append(line)
    assert entry is not None, flag
    return " ".join(" ".join(entry).split())


def test_help_gives_every_default_a_run_takes(monkeypatch):
    # wide enough that argparse wraps no help line: a profile such as
    # sha-f would otherwise break at its hyphen
    monkeypatch.setenv("COLUMNS", "1000")
    parsers = _subparsers()
    for s in cons.SCENARIOS.values():
        if "--grid" in s.common:
            # a scenario that sweeps says its grid; CSV rows wherever a run
            # writes CSVs, with --csv or as its whole output
            grid = _option_help(parsers[s.name], "--grid")
            assert (f"(default {s.grid})" in grid) == (s.grid is not None), \
                (s.name, grid)
            assert (f"CSV rows (default {CSV_GRID})" in grid) \
                == ("--csv" in s.common or s.grid is None), (s.name, grid)
    modes = [(s.name, s.mode) for s in cons.SCENARIOS.values() if s.mode]
    for name, (key, table) in modes:
        for dest in {d for reads in table.values() for d in reads}:
            text = _option_help(parsers[name], "--" + dest.replace("_", "-"))
            for value, reads in table.items():
                if dest not in reads:
                    continue
                mode = f"--{key} {value}" if value is not None \
                    else f"no --{key}"
                default = reads[dest]
                said = "(required)" if default is None \
                    else f"(default {default:g})"
                assert f"{mode} {said}" in text, (name, dest, text)


def _toy_scenarios():
    """Two scenarios the CLI has never seen: one with a check, a sweep grid
    and --csv, and one that returns no verdict, only a profile."""
    from warpcheck.profiles import closed_form_profile
    from warpcheck.report import ScenarioVerdict, check_ge

    def run_checked(prm, grid):
        check = check_ge("a_positive", "toy", prm["a"], 0.0, strict=True)
        return (ScenarioVerdict("toy-check", {"a": prm["a"], "grid": grid},
                                (check,)),
                {"sine": closed_form_profile("sine", (0.0, math.pi))})

    def run_dump(prm, grid):
        return None, {"toy-sine": closed_form_profile("sine", (0.0, prm["a"]))}

    return {"toy-check": cons.Scenario(
                "toy-check", "a toy with one check",
                ((("--a",), {"type": float, "required": True}),),
                ("--grid", "--csv"), 64, run_checked),
            "toy-dump": cons.Scenario(
                "toy-dump", "a toy profile",
                ((("--a",), {"type": float, "default": 1.0}),),
                ("--grid",), None, run_dump)}


def test_a_new_scenario_needs_no_change_to_the_cli(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(cons, "SCENARIOS",
                        {**cons.SCENARIOS, **_toy_scenarios()})
    out = tmp_path / "checked"
    assert main(["toy-check", "--a", "1", "--csv", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "toy-check.json", "toy-check_sine.csv"]
    report = read_report(out / "toy-check.json")
    assert report["config"]["grid"] == 64  # the scenario's default grid
    assert revalidate_report(report)
    assert len((out / "toy-check_sine.csv").read_text().splitlines()) \
        == 1 + CSV_GRID
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"[toy-check] report: {out / 'toy-check.json'}"
    assert main(["toy-check", "--a", "-1", "--grid", "9", "--out",
                 str(out)]) == 1
    assert read_report(out / "toy-check.json")["config"]["grid"] == 9
    capsys.readouterr()

    out = tmp_path / "dumped"
    assert main(["toy-dump", "--grid", "5", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["toy-sine.csv"]
    assert len((out / "toy-sine.csv").read_text().splitlines()) == 1 + 5
    assert capsys.readouterr().out == \
        f"[toy-dump] wrote {out / 'toy-sine.csv'} (5 rows)\n"
    with pytest.raises(SystemExit):  # it takes no --csv
        main(["toy-dump", "--csv", "--out", str(out)])


def test_version_is_the_pyproject_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert warpcheck.__version__ == project["version"]


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "warpcheck", "glue", "--example", "hemisphere",
         "--n", "3", "--out", str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "glue.json").exists()


def test_a_terminated_export_leaves_no_temporaries(tmp_path):
    # SIGTERM in the middle of a CSV write: exit 128 + 15, and the run
    # removes its temporary file and the directories it created
    out = tmp_path / "new" / "dir"
    child = subprocess.Popen(
        [sys.executable, "-m", "warpcheck", "export", "--profile", "k",
         "--eps-prime", "0.2", "--grid", "100000000", "--out", str(out)],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not (out.is_dir() and any(out.iterdir())):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert [p.name for p in out.iterdir()] == [".k-0.tmp.csv"]
        child.send_signal(signal.SIGTERM)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 128 + signal.SIGTERM, err
    assert not err
    assert list(tmp_path.iterdir()) == []


def test_only_the_entry_point_freezes_the_heap(tmp_path):
    # a process run through entrypoint freezes its import-time heap and
    # writes the report that in-process main writes; main freezes nothing
    argv = ["glue", "--example", "hemisphere", "--n", "3"]
    code = ("import atexit, gc; "
            "atexit.register(lambda: print('freeze_count', "
            "gc.get_freeze_count())); "
            "from warpcheck.cli import entrypoint; entrypoint()")
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "child")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    label, count = proc.stdout.splitlines()[-1].split()
    assert label == "freeze_count" and int(count) > 0

    frozen = gc.get_freeze_count()
    assert main([*argv, "--out", str(tmp_path / "main")]) == 0
    assert gc.get_freeze_count() == frozen
    assert (tmp_path / "child" / "glue.json").read_bytes() == \
        (tmp_path / "main" / "glue.json").read_bytes()
