"""Byte-identity gate: CLI outputs against the benchmark's recorded digests.

``perfbench/reference.json`` holds the exit code and the sha256 of every
output file for each argv the benchmark can run. Every one of them is
replayed in-process here, so a refactor that changes a single report byte
fails tier-1. ``docking --n 6 --grid 1000000`` exits 1: its round-model
spread, 1.4e-9, exceeds the 1e-9 bound. The ``--csv`` argvs run from a
temporary working directory into the benchmark's relative output directory,
because their reports list the CSVs by that path.

The benchmark's tracer also wraps program functions by name; the last tests
check that every name it looks up still exists, that it runs a scenario and
an export end to end, and that every argv the benchmark's workloads can draw
passes the command line's flag check. Every flag the command line accepts is
set by some recorded argv, or listed with the reason it stays.
"""
import hashlib
import importlib.util
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env
import warpcheck
from warpcheck import cli
from warpcheck.constructions import PROFILES, SCENARIOS
from warpcheck.errors import WarpcheckError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference.json"

RECORDED = json.loads(REFERENCE.read_text())["argvs"]
ARGVS = sorted(key for key in RECORDED if "--csv" not in key.split())
CSV_ARGVS = sorted(key for key in RECORDED if "--csv" in key.split())
# perfbench/run.py writes every output here, relative to its working directory
BENCH_OUT = Path(".perfbench_work") / "out"


@pytest.mark.parametrize("key", ARGVS)
def test_outputs_match_reference(tmp_path, key):
    expected = RECORDED[key]
    rc = cli.main(key.split() + ["--out", str(tmp_path)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert rc == expected["exit"]
    assert digests == expected["digests"]


@pytest.mark.parametrize("key", CSV_ARGVS)
def test_csv_outputs_match_reference(tmp_path, monkeypatch, key):
    expected = RECORDED[key]
    monkeypatch.chdir(tmp_path)
    rc = cli.main(key.split() + ["--out", str(BENCH_OUT)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(BENCH_OUT.iterdir())}
    assert rc == expected["exit"]
    assert digests == expected["digests"]


def test_every_scenario_is_covered():
    assert {key.split()[0] for key in ARGVS} == set(SCENARIOS)


def test_every_export_profile_is_covered():
    assert {key.split()[2] for key in ARGVS
            if key.startswith("export ")} == set(PROFILES)


def test_subcommands_are_the_scenario_table():
    parser = cli._build_parsers()
    (subcommands,) = [a for a in parser._actions
                      if a.dest == "scenario"]
    assert list(subcommands.choices) == list(SCENARIOS)


_GLUE_EXPLICIT = ("explicit round boundaries, the glue mode the tests of "
                  "input errors and failed gluings drive")
# (subcommand, flag) pairs that no reference argv sets, each with why it
# stays
UNEXERCISED = {
    ("sha-yang", "--T"): "criterion 3's horizon",
    ("closability", "--kappa"): "the Ricci-binding regime of the search",
    ("closability", "--grid"): "the sweep grid every other scenario's "
                               "argvs exercise",
    ("gn", "--eps-prime"): "the only way to run gn --n >= 9",
    **{("glue", flag): _GLUE_EXPLICIT
       for flag in ("--dim", "--r1", "--k1", "--r2", "--k2")},
    ("closability", "--csv"): "the CSV dump that the other scenarios' "
                              "--csv argvs exercise",
    ("export", "--T"): "the horizon of sha-f and sha-h, as sha-yang --T",
}


def test_every_flag_is_exercised_or_listed():
    # a flag that no recorded argv sets must say why it stays, and a listed
    # one must still be accepted and still be unexercised
    (subcommands,) = [a for a in cli._build_parsers()._actions
                      if a.dest == "scenario"]
    accepted = {(name, flag) for name, p in subcommands.choices.items()
                for a in p._actions for flag in a.option_strings} - {
        (name, flag) for name in subcommands.choices
        for flag in ("-h", "--help", "--out")}
    exercised = {(key.split()[0], word.split("=")[0])
                 for key in RECORDED for word in key.split()
                 if word.startswith("--")}
    assert exercised <= accepted
    assert accepted - exercised == set(UNEXERCISED)


@pytest.fixture(scope="module")
def tracer():
    """perfbench/tracer.py, loaded without installing its import hook."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded read-only. Its dataclass needs the
    module in sys.modules while the class is built."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_argvs_pass_only_flags_their_runs_read(workloads):
    # the parse-and-flag-check step alone, no compute, on every argv the
    # benchmark can run: none passes a flag that its run does not read
    argvs = {argv for name in workloads.WORKLOADS
             for _, argv in workloads.all_argvs(name)}
    assert {" ".join(argv) for argv in argvs} == set(RECORDED)
    rejected = []
    for argv in sorted(argvs):
        try:
            cli._parse(list(argv))
        except (SystemExit, WarpcheckError) as exc:
            rejected.append((argv, exc))
    assert not rejected


def test_tracer_specs_resolve_to_callables(tracer):
    paths = [(modname, path) for modname, specs in tracer.SPECS.items()
             for path in specs]
    assert paths
    for modname, path in paths:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{path}"


# deleted functions whose names the tracer's SPECS still looks up, each
# bound to a stand-in that raises
STAND_INS = [
    ("warpcheck.profiles", "WarpProfile.sample"),
    ("warpcheck.profiles", "WarpProfile.restrict"),
    ("warpcheck.profiles", "splice_profiles"),
    ("warpcheck.profiles", "mollify_profile"),
    ("warpcheck.profiles", "scale_profile"),
    ("warpcheck.profiles", "finite_difference_residual"),
    ("warpcheck.curvature", "rescale_metric"),
    ("warpcheck.constructions", "cone_asymptotics"),
]


@pytest.mark.parametrize("modname, path", STAND_INS)
def test_stand_ins_raise_while_the_tracer_looks_them_up(tracer, modname,
                                                        path):
    # a stand-in lives only while SPECS names it: the change that drops a
    # name from SPECS deletes its stand-in and its entry here
    assert path in tracer.SPECS[modname]
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    with pytest.raises(WarpcheckError, match=re.escape(path)):
        owner()
    assert path not in vars(warpcheck)  # not re-exported


def test_every_stand_in_is_listed():
    found = []
    for info in pkgutil.iter_modules(warpcheck.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"warpcheck.{info.name}")
        for name, value in vars(module).items():
            members = [(name, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members += [(f"{name}.{attr}", v)
                            for attr, v in vars(value).items()]
            found += [(module.__name__, path) for path, v in members
                      if getattr(v, "__qualname__", "")
                      == "removed.<locals>.stand_in"]
    assert sorted(found) == sorted(STAND_INS)


@pytest.mark.parametrize("argv, counter, value", [
    (["neck", "--nu", "0.1", "--n", "3", "--s", "0.5", "--grid", "64"],
     "curvature.ricci_report.calls", 1),
    (["export", "--profile", "k", "--grid", "5"], "report.csv.rows", 5),
    # neck builds its core from kappa once; gn builds no boundary
    (["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,0.25", "--grid", "64"],
     "constructions.certified_core.calls", 1),
    (["gn", "--n", "3", "--grid", "64"],
     "constructions.round_boundary.calls", 0),
    # the collar takes its core's kappa: c_max = 0.45 certifies at once
    (["closability", "--n", "3", "--grid", "64"],
     "constructions.certified_core.calls", 1),
    # each member rescales the core once to glue against it
    (["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,0.25", "--grid", "64"],
     "constructions.CertifiedBlock.scaled.calls", 2),
    (["glue", "--example", "hemisphere", "--n", "4"], "curvature.glue.calls",
     1),
])
def test_tracer_runs_a_command_end_to_end(tmp_path, argv, counter, value):
    # a wrapper that breaks a call, or a binding the import hook misses
    # (the tracer then refuses to run), shows up only in a traced run
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(trace), *argv,
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(trace.read_text())["counts"]
    assert counts.get(counter, 0) == value


def test_names_the_benchmark_reads_exist(tmp_path):
    # the tracer's counters read these attributes of what the wrapped
    # functions take and return
    from warpcheck import kernels, ode, profiles, quadrature, report
    from warpcheck.curvature import MultiWarpedMetric, ricci_report
    from warpcheck.factors import round_sphere_factor
    assert callable(quadrature.adaptive_quad)
    assert callable(profiles.WarpProfile.eval)
    assert isinstance(kernels.USING_NUMBA, bool)
    cumint = quadrature.CumulativeIntegral(lambda x: x, 0.0, 1.0)
    assert cumint.edges.size - 1 == quadrature.CUMINT_PANELS
    assert cumint._x.size == cumint._w.size == quadrature.CUMINT_ORDER

    sol = ode.integrate_ivp(lambda t, f, fp: -f, 0.0, 1.0, 1.0, 0.0, 1e-8)
    assert len(sol.ts) >= 2 and sol.nfev > 0
    sine = profiles.closed_form_profile("sine", (0.0, 1.0))
    metric = MultiWarpedMetric((0.0, 1.0),
                               ((round_sphere_factor(2, 1.0), sine),),
                               collapse_left=0)
    assert len(ricci_report(metric, 37).grid) == 37
    json_path = report.write_report(tmp_path / "r.json", {"a": 1})
    csv_path = report.write_profile_csv(tmp_path / "p.csv", sine, 5)
    assert json_path.stat().st_size == len(report.report_bytes({"a": 1}))
    assert csv_path.read_text().count("\n") == 6  # header and 5 rows


def test_profile_families_are_recognised(tracer):
    # the tracer groups profile evaluations by the __qualname__ of the
    # function that built each raw evaluator
    from warpcheck import profiles
    f, h, _ = profiles.sha_yang_profiles(3, 2, 20.0)
    cases = (
        ("closed_form", profiles.closed_form_profile("cosine", (0.0, 1.0))),
        ("ivp", profiles.closability_ode_profile(3, 0.2)),
        ("ivp", f),
        ("ivp", h),
        ("quadrature", profiles.k_profile(0.2)),
        ("quadrature", profiles.collar_profile(0.1)),
    )
    for family, profile in cases:
        group = tracer._profile_group((profile, np.zeros(2)))
        assert group == f"profiles.eval.{family}", profile.solver_meta
