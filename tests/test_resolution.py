"""Resolution gate: a verdict must not depend on the sweep grid.

Every scenario argv of ``perfbench/reference.json`` (``export`` writes no
verdict and ``glue`` sweeps no grid) is replayed in process at a coarse and
a moderate ``--grid``, and must exit with the code recorded for it at its
own grid. The file is only read.
"""
import json
from pathlib import Path

import pytest

from warpcheck import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
RECORDED = json.loads(REFERENCE.read_text())["argvs"]
SCENARIO_ARGVS = sorted(key for key in RECORDED
                        if key.split()[0] not in ("export", "glue"))
GRIDS = (257, 4096)

# Known finding, exit code at both grids: the round S^7 of docking n = 6 is
# recorded failing max_component_spread (1.4e-9 against 1e-9) at --grid
# 1000000. Its worst point, t = 1.008e-3 just past the exclusion zone, is
# where rho/f^2 and (d-1) f'^2/f^2, each about 4e6, cancel; the spread is
# their rounding, which the grids replayed here do not meet.
GRID_DEPENDENT = {"docking --n 6 --grid 1000000": 0}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("key", SCENARIO_ARGVS)
def test_exit_code_does_not_depend_on_the_grid(tmp_path, key, grid):
    recorded = RECORDED[key]["exit"]
    rc = cli.main(key.split() + ["--grid", str(grid), "--out", str(tmp_path)])
    if key in GRID_DEPENDENT:
        assert recorded != GRID_DEPENDENT[key]
        assert rc == GRID_DEPENDENT[key]
    else:
        assert rc == recorded


def test_every_known_finding_is_a_replayed_argv():
    assert set(GRID_DEPENDENT) <= set(SCENARIO_ARGVS)
