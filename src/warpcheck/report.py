"""Verdicts, JSON reports, and CSV export.

Reports are the package's contract: given the same configuration they must be
byte-identical. Floats are therefore serialized as shortest round-trip
decimal strings (repr), keys are sorted, and no timestamps are embedded.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .quadrature import grid_blocks
from .records import Record

SCHEMA_VERSION = "1"
TOOL = "warpcheck"
TOOL_VERSION = "0.1.0"


class CheckResult(Record):
    """One named check: a measured value compared against a threshold.

    ``op`` is the direction that counts as success: "le" (value <= threshold),
    "ge", or "eq" (exact equality, for analytically exact claims). ``anchor``
    is a stable identifier of the claim being verified.
    """

    name: str
    anchor: str
    value: float
    threshold: float
    op: str
    passed: bool
    note: str = ""


# the comparison of each op; the check constructors and revalidate_report
# both decide a pass with it
_OPS = {
    "le": lambda v, t: v <= t,
    "ge": lambda v, t: v >= t,
    "gt": lambda v, t: v > t,
    "eq": lambda v, t: v == t,
}


def _check(name, anchor, value, threshold, op, note):
    value = float(value)
    threshold = float(threshold)
    return CheckResult(name, anchor, value, threshold, op,
                       bool(_OPS[op](value, threshold)), note)


def check_le(name, anchor, value, threshold, note=""):
    return _check(name, anchor, value, threshold, "le", note)


def check_ge(name, anchor, value, threshold, note="", *, strict=False):
    return _check(name, anchor, value, threshold, "gt" if strict else "ge",
                  note)


def check_eq(name, anchor, value, expected, note=""):
    return _check(name, anchor, value, expected, "eq", note)


def check_bool(name, anchor, ok, note=""):
    return _check(name, anchor, bool(ok), 1.0, "ge", note)


class ScenarioVerdict(Record):
    """Outcome of one named construction: its checks, the configuration that
    produced them, and in-memory artifacts (metrics, profiles, reports) by
    name."""

    scenario: str
    config: dict
    checks: tuple
    artifacts: dict = {}

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self):
        return tuple(c for c in self.checks if not c.passed)

    def summary_lines(self):
        lines = []
        for c in self.checks:
            lines.append(f"[{self.scenario}] {c.name}: value={c.value:.6g} "
                         f"{c.op} {c.threshold:.6g} -> "
                         f"{'PASS' if c.passed else 'FAIL'}")
        lines.append(f"[{self.scenario}] OVERALL "
                     f"{'PASS' if self.overall else 'FAIL'}")
        return lines

    def to_report(self, artifact_paths=()):
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": TOOL,
            "tool_version": TOOL_VERSION,
            "scenario": self.scenario,
            "config": jsonable(self.config),
            "checks": [
                {
                    "name": c.name,
                    "anchor": c.anchor,
                    "value": jsonable(c.value),
                    "threshold": jsonable(c.threshold),
                    "op": c.op,
                    "pass": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "overall_pass": self.overall,
            "artifacts": [str(p) for p in artifact_paths],
        }


def jsonable(x):
    """Convert to a JSON-stable value: floats become repr strings (shortest
    round-trip decimal), numpy scalars become native types. Any other type
    is a ``TypeError``."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if x is None or isinstance(x, str):
        return x
    raise TypeError(f"no JSON form for {type(x).__name__}")


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def write_report(path, report: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(report_bytes(report))
    return path


def revalidate_report(report: dict) -> bool:
    """Recompute every check verdict from its serialized value/threshold/op
    and return the implied overall verdict; used for round-trip validation."""
    overall = True
    for c in report["checks"]:
        v = float(c["value"])
        t = float(c["threshold"])
        ok = _OPS[c["op"]](v, t)
        if bool(ok) != bool(c["pass"]):
            raise InputError(f"check {c['name']!r} is inconsistent with its own data")
        overall = overall and ok
    if bool(overall) != bool(report["overall_pass"]):
        raise InputError("overall verdict is inconsistent with the checks")
    return bool(overall)


def write_profile_csv(path, profile, grid_size: int) -> Path:
    """Dump a profile to CSV: header t,f,fp,fpp then one full-precision row
    per point of ``np.linspace(profile.t0, profile.t1, grid_size)``.

    Each value is written as ``repr(float(v))``, the shortest round-trip
    decimal. ``floatrepr.csv_rows`` produces those bytes from Ryū's digits
    of whole arrays, and calls ``repr`` only for the values off Ryū's
    common path: subnormals, infinities, NaNs, |v| >= 2^54 and the values
    its trailing-zero test flags. The grid is evaluated in the blocks of
    ``grid_blocks``, each into one reused buffer, and formatted and written
    in sub-blocks of ``floatrepr.BLOCK_ROWS`` rows, so the memory an export
    needs does not grow with the grid.
    """
    # imported here: no verdict run without --csv loads or compiles it
    from . import floatrepr

    if grid_size < 2:
        raise InputError("grid_size must be at least 2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(b"t,f,fp,fpp\n")
        for rows in floatrepr.csv_rows(_grid_rows(profile, grid_size)):
            fh.write(rows)
    return path


def _grid_rows(profile, grid_size):
    """The rows (t, f, f', f'') of each block of ``grid_blocks``, evaluated
    into one buffer that every block reuses."""
    buffer = None
    for ts in grid_blocks(profile.t0, profile.t1, grid_size):
        # the last block of row_blocks may be up to 3 rows longer
        if buffer is None or len(buffer) < len(ts):
            buffer = np.empty((len(ts), 4))
        rows = buffer[:len(ts)]
        rows[:, 0] = ts
        profile.eval(ts, out=tuple(rows[:, 1:].T))
        yield rows
