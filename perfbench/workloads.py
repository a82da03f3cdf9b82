"""The benchmark's workloads: lists of `warpcheck` argv, drawn from a seed.

Each operation of a workload is a list of argv variants. A seed picks one
variant per operation, so the same seed always gives the same argv list, and
the union of all variants is finite: the reference file records the expected
exit code and output digests of every argv any seed can draw.

Variants differ only in parameters that leave the amount of work nearly
unchanged (dimensions, slopes, which s values), so the cost of a pass stays
put from seed to seed while the inputs still vary. Grid sizes are fixed per
workload. No argv uses `--parallel`, `--config` or `--grid 0`.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Operation:
    """One slot of a workload pass. ``expect_exit`` is the exit code the
    workload intends: 0 for a passing verdict or an export, 1 for the forced
    Ricci-floor failure. Runs compare against the exit code recorded in the
    reference; recording reports any argv whose exit differs from this."""

    label: str
    variants: tuple  # of argv tuples
    expect_exit: int = 0


def _op(label, template, expect_exit=0, **axes):
    """Variants of ``template`` (a format string) over the product of the
    value lists in ``axes``."""
    keys = sorted(axes)
    variants = tuple(
        tuple(template.format(**dict(zip(keys, values))).split())
        for values in itertools.product(*(axes[k] for k in keys)))
    return Operation(label, variants, expect_exit)


SHA_YANG_NM = ((2, 2), (3, 2), (4, 2), (3, 3), (4, 3))
NECK_S = ("0.5,0.25,0.1", "0.4,0.2,0.05", "0.6,0.3,0.15")


def _sha_yang(label, extra=""):
    return Operation(label, tuple(
        tuple(f"sha-yang --n {n} --m {m} {extra}".split())
        for n, m in SHA_YANG_NM))


CLI_DEFAULT = (
    _sha_yang("sha-yang"),
    _op("neck", "neck --nu {nu} --n {n} --s {s}",
        nu=("0.1", "0.2"), n=(3, 4, 5), s=NECK_S),
    _op("closability", "closability --n {n}", n=(3, 4, 5)),
    # c_max above kappa/2 = 0.5 fails at c_max, halves once, then bisects
    # 40 times: about 42 certify_collar calls
    _op("closability-search", "closability --n {n} --c-max {c}",
        n=(3, 4, 5), c=("0.6", "0.7", "0.8")),
    _op("gn", "gn --n {n}", n=(3, 4, 5)),
    _op("docking", "docking --n {n}", n=(3, 4, 5, 6)),
    _op("thm22", "thm22 --n {n}", n=(4, 5, 6)),
    _op("thm22-forced-failure",
        "thm22 --n {n} --members 2 --ric-deficit 0.1", expect_exit=1,
        n=(4, 5, 6)),
    _op("glue", "glue --example hemisphere --n {n}", n=(3, 4, 5, 6)),
)

CLI_SCALED = (
    _sha_yang("sha-yang", "--grid 1000000"),
    _op("gn", "gn --n {n} --grid 200000", n=(3, 4, 5)),
    _op("thm22", "thm22 --n {n} --members 4 --grid 250000", n=(4, 5, 6)),
    _op("docking", "docking --n {n} --grid 1000000", n=(3, 4, 5, 6)),
    _op("neck", "neck --nu {nu} --n {n} --s {s} --grid 500000",
        nu=("0.1", "0.2"), n=(3, 4, 5), s=NECK_S),
)

EXPORT_GRID = 50_000
EXPORT_CSV = (
    Operation("export-sha-f", tuple(
        tuple(f"export --profile sha-f --n {n} --m {m} --grid {EXPORT_GRID}".split())
        for n, m in SHA_YANG_NM)),
    Operation("export-sha-h", tuple(
        tuple(f"export --profile sha-h --n {n} --m {m} --grid {EXPORT_GRID}".split())
        for n, m in SHA_YANG_NM)),
    _op("export-neck", "export --profile neck --nu {nu} --s {s} --grid {g}",
        nu=("0.1", "0.2"), s=("0.25", "0.5", "1"), g=(EXPORT_GRID,)),
    _op("export-k", "export --profile k --eps-prime {e} --grid {g}",
        e=("0.15", "0.2", "0.25"), g=(EXPORT_GRID,)),
    _op("export-collar", "export --profile collar --c {c} --grid {g}",
        c=("0.1", "0.2", "0.3"), g=(EXPORT_GRID,)),
    _op("export-closability",
        "export --profile closability --n {n} --eps-prime {e} --grid {g}",
        n=(3, 4, 5), e=("0.15", "0.2"), g=(EXPORT_GRID,)),
    _op("export-docking-r", "export --profile docking-r --grid {g}",
        g=(EXPORT_GRID,)),
    _op("gn-csv", "gn --n {n} --csv --grid 20000", n=(3, 4, 5)),
    _sha_yang("sha-yang-csv", "--csv --grid 20000"),
)

WORKLOADS = {
    "cli-default": CLI_DEFAULT,
    "cli-scaled": CLI_SCALED,
    "export-csv": EXPORT_CSV,
}


def draw(workload: str, seed: int) -> list:
    """The (operation, argv) list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [(op, rng.choice(op.variants)) for op in WORKLOADS[workload]]


def all_argvs(workload: str) -> list:
    """Every (operation, argv) any seed can draw for ``workload``."""
    return [(op, argv) for op in WORKLOADS[workload] for argv in op.variants]
