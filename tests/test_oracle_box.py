"""Verdicts against an independent oracle over a scenario's parameter box.

Each run goes through ``cli.main`` in process and its report is read back.
Each of its Ricci, volume and glue checks is compared with a decision made
here, from the metric's closed form at 40 digits (mpmath), against the
check's own threshold; a check whose verdict disagrees is a finding, kept in
``KNOWN`` until the change that fixes it removes it.

- docking's metric is the round unit S^{n+1} for every accepted n: Ric is n
  in every direction and the component spread is 0, so every check of
  every run must pass.
- thm22's members are dt^2 + sin^2(t) g on [0, pi]. With the round unit
  S^{n-2} as g the member is the round S^{n-1}: Ric is n - 2 and the volume
  vol(S^{n-1}). The deficit member's factor X has dimension d = n - 2, Ric
  rho = n - 3 - deficit and volume vol(S^{n-2}), so its volume is
  vol(S^{n-1}) too, and its block component 1 + (rho - (d - 1) cos^2 t)/
  sin^2 t is least on the sweep's grid at its first point t = w, the
  exclusion width. Its radial component is n - 2.
- glue's hemisphere example glues the round hemisphere to its mirror along
  the equator, which is isometric to itself and totally geodesic.
"""
import json

import pytest
from mpmath import mp, mpf

from warpcheck import cli
from warpcheck.profiles import EXCLUSION_WIDTH

DOCKING_N = range(3, 21)
DOCKING_GRIDS = (257, 2048, 65536)
THM22_N = range(4, 13)
THM22_MEMBERS = (1, 3)
THM22_DEFICITS = ("0", "0.1")
GLUE_N = range(3, 13)


def docking_argv(n, grid):
    return ["docking", "--n", str(n), "--grid", str(grid)]


# Known findings, by argv (ROADMAP item 12): next to the collapse at
# t = EXCLUSION_WIDTH, rho/f^2 and (d - 1) f'^2/f^2, each about n * 1e6,
# cancel, and their rounding makes docking's max_component_spread 1.40e-9
# to 3.73e-9 against its bound of 1e-9. The (n, grid) pairs that fail it:
KNOWN = {
    " ".join(docking_argv(n, grid)): {"max_component_spread"}
    for n, grids in (
        (7, (65536,)), (10, (65536,)), (11, (65536,)),
        (12, DOCKING_GRIDS), (13, DOCKING_GRIDS),
        (14, (65536,)), (15, (65536,)), (16, (65536,)),
        (17, DOCKING_GRIDS), (18, DOCKING_GRIDS),
        (19, (65536,)), (20, (65536,)))
    for grid in grids
}


def run(tmp_path, argv):
    """The report of ``argv``, which must exit 0 exactly when it passes."""
    rc = cli.main(argv + ["--out", str(tmp_path)])
    report = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert rc == (0 if report["overall_pass"] else 1)
    return report


def disagreements(report, exact):
    """The checks named in ``exact`` whose verdict differs from comparing
    the exact value with the check's threshold under the check's operator;
    every named check must be in the report."""
    decide = {"le": lambda a, b: a <= b, "lt": lambda a, b: a < b,
              "ge": lambda a, b: a >= b, "gt": lambda a, b: a > b}
    checks = {c["name"]: c for c in report["checks"]}
    assert set(exact) <= set(checks)
    return {name for name, value in exact.items()
            if checks[name]["pass"]
            != decide[checks[name]["op"]](value,
                                          mpf(checks[name]["threshold"]))}


def sphere_volume(d):
    """vol(S^d) at the working precision."""
    return 2 * mp.pi ** (mpf(d + 1) / 2) / mp.gamma(mpf(d + 1) / 2)


@pytest.mark.parametrize("grid", DOCKING_GRIDS)
@pytest.mark.parametrize("n", DOCKING_N)
def test_docking_matches_the_round_sphere(tmp_path, n, grid):
    argv = docking_argv(n, grid)
    failed = {c["name"] for c in run(tmp_path, argv)["checks"]
              if not c["pass"]}
    assert failed == KNOWN.get(" ".join(argv), set())


def thm22_argv(n, members, deficit):
    return ["thm22", "--n", str(n), "--members", str(members),
            "--ric-deficit", deficit, "--grid", "2048"]


@pytest.mark.parametrize("deficit", THM22_DEFICITS)
@pytest.mark.parametrize("members", THM22_MEMBERS)
@pytest.mark.parametrize("n", THM22_N)
def test_thm22_matches_its_closed_forms(tmp_path, n, members, deficit):
    argv = thm22_argv(n, members, deficit)
    report = run(tmp_path, argv)
    with mp.workdps(40):
        ricci = [mpf(n - 2)] * members
        if float(deficit):
            d, w = n - 2, mpf(EXCLUSION_WIDTH)
            rho = n - 3 - mpf(float(deficit))
            ricci[-1] = min(ricci[-1], 1 + (rho - (d - 1) * mp.cos(w) ** 2)
                            / mp.sin(w) ** 2)
        exact = {}
        for i, ric in enumerate(ricci):
            exact[f"member{i}_volume_cap"] = sphere_volume(n - 1)
            exact[f"member{i}_ricci_floor"] = ric
        assert disagreements(report, exact) == KNOWN.get(" ".join(argv),
                                                         set())


def glue_argv(n):
    return ["glue", "--example", "hemisphere", "--n", str(n)]


@pytest.mark.parametrize("n", GLUE_N)
def test_glue_hemisphere_matches_the_round_sphere(tmp_path, n):
    argv = glue_argv(n)
    report = run(tmp_path, argv)
    with mp.workdps(40):
        # the boundaries are one round S^(n-1), with isometry gap 0, and
        # the equator's principal curvature is f'/f = cot(pi/2) on each side
        gap_ok = 0 <= mpf(report["config"]["glue_tol"])
        kappa = mp.cos(mp.pi / 2) / mp.sin(mp.pi / 2)
        exact = {"isometry_ok": 1 if gap_ok else 0, "ii_sum_min": 2 * kappa}
        assert disagreements(report, exact) == KNOWN.get(" ".join(argv),
                                                         set())


def test_every_known_finding_is_in_the_box():
    box = [docking_argv(n, grid) for n in DOCKING_N for grid in DOCKING_GRIDS]
    box += [thm22_argv(n, members, deficit) for n in THM22_N
            for members in THM22_MEMBERS for deficit in THM22_DEFICITS]
    box += [glue_argv(n) for n in GLUE_N]
    assert len(KNOWN) == 20
    assert set(KNOWN) <= {" ".join(argv) for argv in box}
