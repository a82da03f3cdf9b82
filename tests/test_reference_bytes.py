"""Byte-identity gate: CLI outputs against the benchmark's recorded digests.

``perfbench/reference.json`` holds the exit code and the sha256 of every
output file for each argv the benchmark can run. One argv per scenario of
``constructions.SCENARIOS`` (default sizes), two exports, and four scaled
argvs whose grids (2e5 to 1e6 points) span many blocks of the Ricci sweep
are replayed in-process here, so a refactor that changes a single report
byte fails tier-1. ``docking --n 6 --grid 1000000`` exits 1: its round-model
spread, 1.4e-9, exceeds the 1e-9 bound. ``--csv`` argvs are left out on
purpose: their reports embed the relative output path the benchmark used.

The benchmark's tracer also wraps program functions by name; the last tests
check that every name it looks up still exists.
"""
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from warpcheck import cli
from warpcheck.constructions import SCENARIOS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference.json"

ARGVS = (
    "sha-yang --n 3 --m 2",
    "neck --nu 0.1 --n 3 --s 0.5,0.25,0.1",
    "closability --n 3",
    "gn --n 3",
    "docking --n 3",
    "thm22 --n 4",
    "thm22 --n 4 --members 2 --ric-deficit 0.1",
    "glue --example hemisphere --n 3",
    "export --profile k --eps-prime 0.2 --grid 50000",
    "export --profile sha-f --n 3 --m 2 --grid 50000",
    # scaled grids: the Ricci sweep runs in many blocks
    "sha-yang --n 3 --m 2 --grid 1000000",
    "gn --n 3 --grid 200000",
    "thm22 --n 4 --members 4 --grid 250000",
    "docking --n 6 --grid 1000000",
)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["argvs"]


@pytest.mark.parametrize("key", ARGVS)
def test_outputs_match_reference(tmp_path, reference, key):
    expected = reference[key]
    rc = cli.main(key.split() + ["--out", str(tmp_path)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert rc == expected["exit"]
    assert digests == expected["digests"]


def test_every_scenario_is_covered():
    assert {key.split()[0] for key in ARGVS} == {*SCENARIOS, "export"}


def test_subcommands_are_the_scenario_table_plus_export():
    parser, _ = cli._build_parsers()
    (subcommands,) = [a for a in parser._actions
                      if a.dest == "scenario"]
    assert set(subcommands.choices) == {*SCENARIOS, "export"}


@pytest.fixture(scope="module")
def tracer():
    """perfbench/tracer.py, loaded without installing its import hook."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_specs_resolve_to_callables(tracer):
    paths = [(modname, path) for modname, specs in tracer.SPECS.items()
             for path in specs]
    assert paths
    for modname, path in paths:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{path}"


def test_names_the_benchmark_reads_exist():
    from warpcheck import kernels, profiles, quadrature
    assert callable(quadrature.adaptive_quad)
    assert callable(profiles.WarpProfile.eval)
    assert isinstance(kernels.USING_NUMBA, bool)
    cumint = quadrature.CumulativeIntegral(lambda x: x, 0.0, 1.0)
    assert cumint.edges.size - 1 == quadrature.CUMINT_PANELS
    assert cumint._x.size == cumint._w.size == quadrature.CUMINT_ORDER


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
