import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import warpcheck

from warpcheck.cli import _build_parsers, main
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

    def test_docking_round_spread_field(self, tmp_path):
        rc = main(["docking", "--n", "3", "--check-round", "--out", str(tmp_path)])
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


class TestExitCodeContract:
    @pytest.mark.parametrize("argv", [
        ["sha-yang", "--n", "2", "--m", "2", "--T", "20"],
        ["neck", "--nu", "0.1", "--n", "5", "--s", "0.5,0.1"],
        ["docking", "--n", "3"],
        ["closability", "--n", "4"],
        ["gn", "--n", "5"],
        ["thm22", "--n", "4"],
        ["glue", "--example", "hemisphere"],
    ])
    def test_pass_fail_and_input_error_paths(self, tmp_path, argv):
        ok_dir = tmp_path / "ok"
        assert main(argv + ["--out", str(ok_dir)]) == 0

        fail_dir = tmp_path / "fail"
        rc = main(argv + ["--out", str(fail_dir), "--require-min", "1e9"])
        assert rc == 1
        # the report is still written on verification failure
        report = read_report(fail_dir / f"{argv[0]}.json")
        assert report["overall_pass"] is False

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
        ["sha-yang", "--n", "3", "--m", "2", "--tol", "inf"],
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

    def test_error_norm_overflow_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sha-yang", "--n", "3", "--m", "2", "--tol", "1e-300",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solution left its admissible region")
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
        ["sha-yang", "--n", "3", "--m", "2", "--tol", "1e300"],
        ["sha-yang", "--n", "3", "--m", "2", "--tol", "0.002"],
        # the unit-sphere volume overflows (was an OverflowError traceback)
        ["thm22", "--n", "400"],
        ["neck", "--nu", "0.1", "--n", "1000000", "--s", "0.5"],
        ["docking", "--n", "100000000"],
        # arrays too large to allocate (was a MemoryError traceback)
        ["sha-yang", "--n", "3", "--m", "2", "--grid", "1000000000000"],
        ["export", "--profile", "k", "--grid", "1000000000000"],
        # longer than max_steps steps of h_max (was a spent step budget)
        ["sha-yang", "--n", "3", "--m", "2", "--T", "1e7"],
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

    def test_bounds_are_inclusive(self):
        parser, _ = _build_parsers()
        args = parser.parse_args(["thm22", "--n", "4", "--members", "1000",
                                  "--tol", "1e-3"])
        assert (args.members, args.tol) == (1000, 1e-3)

    def test_thm22_forced_ricci_failure(self, tmp_path):
        rc = main(["thm22", "--n", "4", "--members", "2",
                   "--ric-deficit", "0.1", "--out", str(tmp_path)])
        assert rc == 1
        report = read_report(tmp_path / "thm22.json")
        failing = [c for c in report["checks"] if not c["pass"]]
        assert any("ricci_floor" in c["name"] for c in failing)


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

    def test_json_flag_prints_report(self, tmp_path, capsys):
        assert main(["glue", "--example", "hemisphere",
                     "--out", str(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        assert '"overall_pass": true' in out


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 0.1\nn = 5\ns = 0.5,0.25\ngrid = 256\n")
        d1 = tmp_path / "o1"
        rc = main(["neck", "--config", str(cfg), "--out", str(d1)])
        assert rc == 0
        report = read_report(d1 / "neck.json")
        assert report["config"]["s_values"] == [repr(0.5), repr(0.25)]
        d2 = tmp_path / "o2"
        rc = main(["neck", "--config", str(cfg), "--s", "0.4",
                   "--out", str(d2)])
        assert rc == 0
        report = read_report(d2 / "neck.json")
        assert report["config"]["s_values"] == [repr(0.4)]

    def test_unknown_config_key_is_input_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 3\n")
        rc = main(["neck", "--config", str(cfg), "--nu", "0.1", "--n", "5",
                   "--s", "0.5", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_missing_config_file_is_input_error(self, tmp_path):
        rc = main(["neck", "--config", str(tmp_path / "nope.cfg"),
                   "--nu", "0.1", "--n", "5", "--s", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_config_equals_form_is_applied(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 0.1\nn = 5\ns = 0.5,0.25\ngrid = 256\n")
        rc = main(["neck", f"--config={cfg}", "--out", str(tmp_path / "o")])
        assert rc == 0
        report = read_report(tmp_path / "o" / "neck.json")
        assert report["config"]["s_values"] == [repr(0.5), repr(0.25)]
        assert report["config"]["grid_size"] == 256

    def test_trailing_config_without_value_is_input_error(self, tmp_path,
                                                          capsys):
        rc = main(["neck", "--nu", "0.1", "--n", "5", "--s", "0.5",
                   "--out", str(tmp_path / "x"), "--config"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_non_finite_config_value_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = inf\n")
        rc = main(["sha-yang", "--config", str(cfg), "--n", "3", "--m", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    def test_bad_config_value_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = many\n")
        rc = main(["neck", "--config", str(cfg), "--nu", "0.1", "--n", "5",
                   "--s", "0.5", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("argv, text", [
        # a value outside the flag's choices
        (["glue"], "example = bogus\ndim = 2\nr1 = 1\nk1 = 1\nr2 = 1\nk2 = 1\n"),
        (["export"], "profile = bogus\n"),
        # a store_true value that is not a boolean word
        (["docking"], "n = 3\ncheck_round = ture\n"),
    ], ids=["glue-choice", "export-choice", "docking-boolean"])
    def test_config_value_is_checked_like_its_flag(self, tmp_path, capsys,
                                                   argv, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "x"
        rc = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("word, flag", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_config_boolean_words(self, tmp_path, word, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 3\ncheck_round = {word}\n")
        assert main(["docking", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path / "docking.json")
        assert report["config"]["round_check"] is flag


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


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(warpcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "warpcheck", "glue", "--example", "hemisphere",
         "--n", "3", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "glue.json").exists()
