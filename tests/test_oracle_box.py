"""Verdicts against an independent oracle over a scenario's parameter box.

docking's metric is the round unit S^{n+1} for every accepted n: Ric is n
in every direction and the component spread is 0, so every check of every
run must pass. Each run goes through ``cli.main`` in process and its report
is read back; a check whose verdict disagrees with that decision is a
finding, kept in ``KNOWN`` until the change that fixes it removes it.
"""
import json

import pytest

from warpcheck import cli

DOCKING_N = range(3, 21)
DOCKING_GRIDS = (257, 2048, 65536)

# Known findings (ROADMAP item 12): next to the collapse at
# t = EXCLUSION_WIDTH, rho/f^2 and (d - 1) f'^2/f^2, each about n * 1e6,
# cancel, and their rounding makes max_component_spread 1.40e-9 to 3.73e-9
# against its bound of 1e-9. The (n, grid) pairs that fail it:
KNOWN = {
    (n, grid): {"max_component_spread"}
    for n, grids in (
        (7, (65536,)), (10, (65536,)), (11, (65536,)),
        (12, DOCKING_GRIDS), (13, DOCKING_GRIDS),
        (14, (65536,)), (15, (65536,)), (16, (65536,)),
        (17, DOCKING_GRIDS), (18, DOCKING_GRIDS),
        (19, (65536,)), (20, (65536,)))
    for grid in grids
}


def failed_checks(tmp_path, argv):
    """The names of the checks that fail in the report of ``argv``, which
    must exit 0 exactly when none does."""
    rc = cli.main(argv + ["--out", str(tmp_path)])
    report = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert rc == (1 if failed else 0)
    return failed


@pytest.mark.parametrize("grid", DOCKING_GRIDS)
@pytest.mark.parametrize("n", DOCKING_N)
def test_docking_matches_the_round_sphere(tmp_path, n, grid):
    argv = ["docking", "--n", str(n), "--grid", str(grid)]
    assert failed_checks(tmp_path, argv) == KNOWN.get((n, grid), set())


def test_every_known_finding_is_in_the_box():
    assert len(KNOWN) == 20
    assert all(n in DOCKING_N and grid in DOCKING_GRIDS for n, grid in KNOWN)
