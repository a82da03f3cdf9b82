import argparse
import errno
import gc
import json
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
from warpcheck.cli import CSV_GRID, _build_parsers, _parse, main
from warpcheck.report import revalidate_report


def read_report(path):
    return json.loads(path.read_text())


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
        # the CSV map reuses the profiles the family check built
        calls = []
        build = cons.neck_profile

        def counting(nu, s):
            calls.append(s)
            return build(nu, s)

        monkeypatch.setattr(cons, "neck_profile", counting)
        argv = ["neck", "--nu", "0.1", "--n", "5", "--s", "0.5,0.25,0.1",
                "--grid", "64"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert calls == [0.5, 0.25, 0.1]
        calls.clear()
        assert main(argv + ["--csv", "--out", str(tmp_path / "b")]) == 0
        assert calls == [0.5, 0.25, 0.1]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "neck.json", "neck_neck-s0.1.csv", "neck_neck-s0.25.csv",
            "neck_neck-s0.5.csv"]
        # the same bytes as an export of a profile built on its own
        assert main(["export", "--profile", "neck", "--nu", "0.1", "--s",
                     "0.25", "--grid", "64", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "b" / "neck_neck-s0.25.csv").read_bytes() == \
            (tmp_path / "neck.csv").read_bytes()

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
                         "--csv", "--grid", "64", "--out", str(out)]) == 0
            assert sweeps == [0.5]
            assert sorted(p.name for p in out.iterdir()) == [
                "neck.json", "neck_neck-s0.5.csv"]
            runs[s] = read_report(out / "neck.json")
        assert (tmp_path / "0.5,0.5,0.5" / "neck_neck-s0.5.csv").read_bytes() \
            == (tmp_path / "0.5" / "neck_neck-s0.5.csv").read_bytes()
        repeated, single = runs["0.5,0.5,0.5"], runs["0.5"]
        assert repeated["config"].pop("s_values") == ["0.5"] * 3
        single["config"].pop("s_values")
        for rep, s in ((repeated, "0.5,0.5,0.5"), (single, "0.5")):
            rep["artifacts"] = [str(Path(a).relative_to(tmp_path / s))
                                for a in rep["artifacts"]]
        assert repeated == single

    def test_neck_csv_names_keep_distinct_s_apart(self, tmp_path):
        # s values that print alike with "%g" name distinct files: each
        # holds its own member's profile and the report lists each one
        out = tmp_path / "run"
        assert main(["neck", "--nu", "0.1", "--n", "3", "--s",
                     "0.1,0.1000001,1", "--csv", "--grid", "16",
                     "--out", str(out)]) == 0
        names = ["neck_neck-s0.1.csv", "neck_neck-s0.1000001.csv",
                 "neck_neck-s1.0.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["neck.json", *names]
        assert read_report(out / "neck.json")["artifacts"] == [
            str(out / name) for name in names]
        for s, name in zip(("0.1", "0.1000001", "1"), names):
            export = tmp_path / f"export-{s}"
            assert main(["export", "--profile", "neck", "--nu", "0.1", "--s",
                         s, "--grid", "16", "--out", str(export)]) == 0
            assert (out / name).read_bytes() == \
                (export / "neck.csv").read_bytes()

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
    # nu > 1/sqrt(2): the s = 0.1 member's Ricci minimum is -10.0 (ROADMAP
    # item 11)
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

    @pytest.mark.parametrize("T", ["-1", "0", "1e-9", "0.001"])
    def test_sha_yang_T_within_the_exclusion_width_names_both(
            self, tmp_path, capsys, T):
        rc = main(["sha-yang", "--n", "2", "--m", "2", "--T", T,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: --T {float(T):g} must exceed the exclusion width 0.001")

    def test_input_error_writes_nothing(self, tmp_path):
        rc = main(["sha-yang", "--n", "1", "--m", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["docking", "--n", "3"],
        ["export", "--profile", "k"],
    ])
    def test_grid_zero_is_input_error_not_default(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--grid", "0", "--out", str(out)]) == 2
        assert not out.exists() or list(out.iterdir()) == []

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
        # the unit-sphere volume overflows (was an OverflowError traceback)
        ["thm22", "--n", "400"],
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
        # the inner slice has radius 0 (was a ZeroDivisionError traceback)
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
        # the glued principal curvatures sum to inf, k1 + k2 or the core's
        # kappa scaled by 1/(sqrt(2) sin(nu s)) (was exit 0, OVERALL PASS)
        ["glue", "--dim", "2", "--r1", "1", "--k1", "1e308", "--r2", "1",
         "--k2", "1e308"],
        ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5",
         "--core-kappa", "1e308"],
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

    def test_neck_refuses_every_member_before_sweeping_any(
            self, tmp_path, capsys, monkeypatch):
        # the collapsed slice s = 1e-300 is refused before s = 0.5 is swept
        sweeps = []
        sweep = cons.ricci_report

        def counting(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cons, "ricci_report", counting)
        assert main(["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,1e-300",
                     "--out", str(tmp_path / "out")]) == 2
        assert "t = 1e-300 is collapsed" in capsys.readouterr().err
        assert sweeps == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["neck", "--nu", "1e308", "--n", "3", "--s", "0.5"],
        ["export", "--profile", "neck", "--nu", "1e308"],
    ])
    def test_neck_nu_whose_end_rounds_to_zero_is_named(self, tmp_path,
                                                       capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: nu = 1e+308 is too large: pi/(4 nu) rounds to 0\n")
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
        attached = ["thm22", "--n", "4", "--ric-deficit=-5e-1"]
        assert _parse(attached)["ric_deficit"] == -0.5
        # argparse takes "-5e-1" for a flag unless its negative-number
        # pattern matches it, which on Python 3.11 it does not
        spaced = ["thm22", "--n", "4", "--ric-deficit", "-5e-1"]
        if argparse.ArgumentParser()._negative_number_matcher.match("-5e-1"):
            assert _parse(spaced)["ric_deficit"] == -0.5
        else:
            with pytest.raises(SystemExit) as exc:
                _parse(spaced)
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


def test_readme_command_line_tables_match_the_parsers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "--config" not in readme
    assert "--require-min" not in readme
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    every = _flags(re.search(r"Every\s+subcommand\s+takes(.*?)\.", section,
                             re.S)[1])
    listed, modes = {}, {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        words = cells[0].replace("`", "").split()
        if len(cells) == 3:  # subcommand | its own flags | shared flags
            listed.setdefault(words[0], set()).update(
                _flags(cells[1]), _flags(cells[2]), every)
        else:  # mode | flags it reads, each with its default if it has one
            value = words[2] if words[1].startswith("--") else None
            modes[words[0], value] = {
                flag[2:].replace("-", "_"): float(default) if default else None
                for flag, default in re.findall(r"`(--[\w-]+)`(?: \((\S+)\))?",
                                                cells[1])}
    for (name, _), reads in modes.items():
        listed[name].update("--" + d.replace("_", "-") for d in reads)

    (subcommands,) = [a for a in _build_parsers()._actions
                      if a.dest == "scenario"]
    assert listed == {
        name: {flag for a in p._actions for flag in a.option_strings} - {
            "-h", "--help"}
        for name, p in subcommands.choices.items()}
    tables = {("export", value): reads
              for value, reads in cons.EXPORT_MODE[1].items()}
    tables.update({(s.name, value): reads for s in cons.SCENARIOS.values()
                   if s.mode for value, reads in s.mode[1].items()})
    assert modes == tables


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
    (subcommands,) = [a for a in _build_parsers()._actions
                      if a.dest == "scenario"]
    parsers = subcommands.choices
    for s in cons.SCENARIOS.values():
        if "--grid" in s.common:
            grid = _option_help(parsers[s.name], "--grid")
            assert f"(default {s.grid})" in grid, (s.name, grid)
            assert (f"CSV rows (default {CSV_GRID})" in grid) \
                == ("--csv" in s.common), (s.name, grid)
    grid = _option_help(parsers["export"], "--grid")
    assert f"CSV rows (default {CSV_GRID})" in grid, grid
    modes = [(s.name, s.mode) for s in cons.SCENARIOS.values() if s.mode]
    for name, (key, table) in [*modes, ("export", cons.EXPORT_MODE)]:
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
