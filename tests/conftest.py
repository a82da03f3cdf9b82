import os
import re
from pathlib import Path

import numpy as np


def child_env():
    """The environment of a child interpreter that imports this checkout."""
    import warpcheck
    src = str(Path(warpcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def reached(err) -> float:
    """The last valid t that an IVP refusal names, exactly: the message
    carries it as ``repr``."""
    return float(re.search(r"at t = (\S+)", str(err.value)).group(1))


def cone_profile(t1: float, slope: float = 1.0):
    """f = slope * t on [0, t1], a cone point at t = 0 tagged odd: with slope
    1 and a unit-sphere factor, the flat cone."""
    from warpcheck.profiles import ParityTag, profile_from_callable
    return profile_from_callable(
        (0.0, t1), lambda t: slope * t, lambda t: slope + 0.0 * t,
        lambda t: 0.0 * t, parity={"left": ParityTag("odd", (slope, 0.0))})


def constant_profile(domain, value: float):
    """f = value on the domain, tagged even at both ends."""
    from warpcheck.profiles import ParityTag, profile_from_callable
    tag = ParityTag("even", (value, 0.0))
    return profile_from_callable(
        domain, lambda t: value + 0.0 * t, lambda t: 0.0 * t,
        lambda t: 0.0 * t, parity={"left": tag, "right": tag})


def random_block_metrics(count: int, seed: int = 7):
    """Deterministic random block-diagonal metrics on [0.5, 1.5] with positive
    cubic-polynomial warps; the shared generator for oracle-equivalence runs."""
    from warpcheck.curvature import MultiWarpedMetric
    from warpcheck.factors import abstract_factor
    from warpcheck.profiles import profile_from_callable

    rng = np.random.default_rng(seed)
    probe = np.linspace(0.45, 1.55, 301)
    metrics = []
    while len(metrics) < count:
        n_blocks = int(rng.integers(1, 4))
        blocks = []
        ok = True
        for b in range(n_blocks):
            # coefficient ranges keep a'''' /a of a = f^2 small enough that
            # the oracle's second differences stay within the agreement bound
            c = np.array([rng.uniform(0.7, 1.4), rng.uniform(-0.3, 0.3),
                          rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)])
            vals = c[0] + c[1] * probe + c[2] * probe ** 2 + c[3] * probe ** 3
            if vals.min() < 0.5:
                ok = False
                break
            dim = int(rng.integers(1, 5))
            if dim == 1:
                interval = (0.0, 0.0)
            else:
                pair = np.sort(rng.uniform(-2.0, 3.0, size=2))
                interval = (float(pair[0]), float(pair[1]))
            factor = abstract_factor(f"B{b}", dim, interval)
            c0, c1, c2, c3 = map(float, c)
            profile = profile_from_callable(
                (0.45, 1.55),
                lambda t, c0=c0, c1=c1, c2=c2, c3=c3:
                    c0 + c1 * t + c2 * t ** 2 + c3 * t ** 3,
                lambda t, c1=c1, c2=c2, c3=c3: c1 + 2 * c2 * t + 3 * c3 * t ** 2,
                lambda t, c2=c2, c3=c3: 2 * c2 + 6 * c3 * t)
            blocks.append((factor, profile))
        if ok:
            metrics.append(MultiWarpedMetric((0.5, 1.5), tuple(blocks)))
    return metrics
