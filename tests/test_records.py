"""The records the package hands out are immutable: assigning a field raises
instead of changing a value that a report or a cached evaluation relies on."""
import dataclasses
import math

import pytest

from warpcheck.curvature import MultiWarpedMetric, ricci_report
from warpcheck.factors import round_sphere_factor
from warpcheck.ode import OdeRhs, integrate_ivp
from warpcheck.profiles import ParityTag, closed_form_profile
from warpcheck.report import ScenarioVerdict, check_le


@pytest.fixture(scope="module")
def records():
    profile = closed_form_profile("sine", (0.0, math.pi))
    factor = round_sphere_factor(2, 1.0)
    metric = MultiWarpedMetric((0.0, math.pi), ((factor, profile),),
                               collapse_left=0, collapse_right=0)
    rhs = OdeRhs.from_callable(lambda t, f, fp: -f)
    check = check_le("c", "a", 0.0, 1.0)
    return {
        "WarpProfile": (profile, "domain", (0.0, 1.0)),
        "ParityTag": (ParityTag("odd", (1.0, -1.0)), "kind", "even"),
        "MultiWarpedMetric": (metric, "collapse_left", None),
        "RicciReport": (ricci_report(metric, 16), "global_min", 1.0),
        "CheckResult": (check, "passed", False),
        "ScenarioVerdict": (ScenarioVerdict("s", {}, (check,)), "checks", ()),
        "FactorManifold": (factor, "dim", 3),
        "OdeRhs": (rhs, "func", abs),
        "DenseSolution": (integrate_ivp(rhs, 0.0, 1.0, 1.0, 0.0, 1e-8),
                          "nfev", 0),
    }


@pytest.mark.parametrize("name", [
    "WarpProfile", "ParityTag", "MultiWarpedMetric", "RicciReport",
    "CheckResult", "ScenarioVerdict", "FactorManifold", "OdeRhs",
    "DenseSolution"])
def test_assigning_a_field_raises(records, name):
    record, field, value = records[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, value)
    assert getattr(record, field) == before
