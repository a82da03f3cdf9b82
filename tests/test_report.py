import itertools
import json
import math

import numpy as np
import pytest

from warpcheck.report import (ScenarioVerdict, check_bool, check_eq, check_ge,
                              check_le, jsonable, report_bytes,
                              revalidate_report)

# values whose comparisons differ from the finite case: nan fails every op,
# and -0.0 == 0.0
SPECIAL = [math.nan, -0.0, 0.0, 1.0, -math.inf, math.inf]

CONSTRUCTORS = {
    "le": lambda v, t: check_le("c", "a", v, t),
    "ge": lambda v, t: check_ge("c", "a", v, t),
    "gt": lambda v, t: check_ge("c", "a", v, t, strict=True),
    "eq": lambda v, t: check_eq("c", "a", v, t),
}
PLAIN = {
    "le": lambda v, t: v <= t,
    "ge": lambda v, t: v >= t,
    "gt": lambda v, t: v > t,
    "eq": lambda v, t: v == t,
}


def round_trip(checks):
    """The report of one verdict over ``checks``, as a reader parses it."""
    verdict = ScenarioVerdict("ops", {}, tuple(checks))
    return verdict, json.loads(report_bytes(verdict.to_report()))


@pytest.mark.parametrize("op", list(CONSTRUCTORS))
def test_constructors_and_revalidation_agree_on_special_values(op):
    for value, threshold in itertools.product(SPECIAL, repeat=2):
        c = CONSTRUCTORS[op](value, threshold)
        assert c.op == op
        assert c.passed is PLAIN[op](value, threshold), (value, threshold)
        verdict, report = round_trip([c])
        # raises if the serialized value, threshold and op imply another pass
        assert revalidate_report(report) is verdict.overall is c.passed


@pytest.mark.parametrize("ok", [True, False])
def test_check_bool_revalidates(ok):
    c = check_bool("c", "a", ok)
    assert (c.op, c.value, c.threshold, c.passed) == ("ge", float(ok), 1.0, ok)
    _, report = round_trip([c])
    assert revalidate_report(report) is ok


@pytest.mark.parametrize("value", [np.zeros(2), object(), {1, 2}, b"bytes",
                                   1j])
def test_jsonable_refuses_a_type_it_has_no_form_for(value):
    # a report holds numbers, strings, None, lists and dicts; anything else,
    # an array included, is a bug in its builder, not text to write
    with pytest.raises(TypeError):
        jsonable({"config": [value]})
