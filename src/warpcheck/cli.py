"""Command-line front end.

Each subcommand runs one scenario of ``constructions.SCENARIOS``, writes a
JSON report (and CSV profile dumps on request) into the output directory,
prints one verdict line per check, and exits 0 on overall pass, 1 on
verification failure (report still written), or 2 on input errors
(nothing written). Flags come from argv alone.
"""
from __future__ import annotations

import argparse
import errno
import gc
import itertools
import os
import stat
import sys
from pathlib import Path

from . import constructions as cons
from .errors import WarpcheckError
from .report import (ScenarioVerdict, check_ge, write_profile_csv,
                     write_report)

EXIT_PASS = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2

# rows of a CSV dump when --grid is not given
CSV_GRID = 1001


# flags of several subcommands: --out (all), --require-min (every
# scenario), the rest where a declaration lists them
_SHARED = {
    "--grid": {"type": int},  # help: per subcommand, with its defaults
    "--out": {"type": Path, "default": Path("."),
              "help": "output directory for reports and CSVs"},
    "--csv": {"action": "store_true",
              "help": "dump the scenario's profiles as CSV"},
    "--require-min": {"type": cons._finite_float,
                      "help": "extra check: the scenario's headline minimum "
                              "must reach this value (forces a failure)"},
}


def _build_parsers(only=None):
    """The argument parser. If ``only`` names a subcommand, only its
    subparser is built, since a run parses no other."""
    parser = argparse.ArgumentParser(
        prog="warpcheck",
        description="verification runs for warped-product curvature claims")
    commands = [(s.name, s.help, s.args, (*s.common, "--require-min"),
                 s.mode, s.grid) for s in cons.SCENARIOS.values()]
    commands.append(("export", "CSV export of a named profile",
                     cons.EXPORT_ARGS, cons.EXPORT_COMMON, cons.EXPORT_MODE,
                     None))
    names = [c[0] for c in commands]
    sub = parser.add_subparsers(dest="scenario", required=True)
    if only in names:  # usage errors still list every subcommand
        sub.metavar = "{" + ",".join(names) + "}"
        commands = [c for c in commands if c[0] == only]
    for name, help_text, args, common, mode, grid in commands:
        # the README promises that any abbreviation of a flag is an input
        # error, so argparse must not expand one
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        shared = [((flag,), _SHARED[flag]) for flag in (*common, "--out")]
        for flags, kwargs in (*args, *shared):
            dest = flags[0][2:].replace("-", "_")
            if dest == "grid":  # the sweep grid, if any, and CSV rows
                uses = [f"sweep grid points (default {grid})"] if grid else []
                if grid is None or "--csv" in common:
                    uses.append(f"CSV rows (default {CSV_GRID})")
                kwargs = dict(kwargs, help="; ".join(uses))
            elif mode and any(dest in reads for reads in mode[1].values()):
                # presence decides, so a table flag parses to None
                uses = _mode_help(mode, dest)
                kwargs = dict(kwargs, default=None, help=(
                    f"{kwargs['help']}; {uses}" if "help" in kwargs else uses))
            p.add_argument(*flags, **kwargs)
    return parser


def _mode_help(mode, dest):
    """Which modes of a mode table read flag ``dest``, each with the flag's
    default there or "required"."""
    key, table = mode
    return "read with " + ", ".join(
        (f"--{key} {value}" if value is not None else f"no --{key}")
        + (" (required)" if reads[dest] is None
           else f" (default {reads[dest]:g})")
        for value, reads in table.items() if dest in reads)


def _grid(prm, default):
    """--grid if given, else ``default``; an explicit 0 is passed on, to be
    rejected by the sweep or the CSV writer, not replaced."""
    return default if prm.get("grid") is None else prm["grid"]


class _Artifacts:
    """The files one run writes under ``out``.

    Each file is written to a temporary sibling, and ``commit`` renames them
    all into place after the last write has succeeded. If the run raises
    before that, ``discard`` removes the temporaries and the directories the
    run created, so an exit 2 leaves ``out`` as it was: no file appears and
    none is overwritten.
    """

    def __init__(self, out: Path):
        self.out = out
        self.dirs = [d for d in (out, *out.parents) if not d.exists()]
        self.pending = []  # (temporary, final) pairs

    def reserve(self, names) -> list[Path]:
        """A new empty temporary file for each name, in order; raises before
        creating any if a target exists and is not a regular file."""
        finals = [self.out / name for name in names]
        for final in finals:
            if os.path.lexists(final) \
                    and not stat.S_ISREG(os.lstat(final).st_mode):
                raise FileExistsError(errno.EEXIST, "exists and is not a "
                                      "regular file", str(final))
        self.out.mkdir(parents=True, exist_ok=True)
        temps = []
        for final in finals:
            temps.append(_new_file_beside(final))
            self.pending.append((temps[-1], final))
        return temps

    def commit(self) -> list[Path]:
        """Rename every temporary into place; returns the final paths."""
        for temp, final in self.pending:
            os.replace(temp, final)
        finals = [final for _, final in self.pending]
        self.pending = []
        return finals

    def discard(self):
        for temp, _ in self.pending:
            temp.unlink(missing_ok=True)
        for d in self.dirs:  # deepest first
            try:
                d.rmdir()
            except OSError:
                break


def _new_file_beside(final: Path) -> Path:
    """Create a new empty hidden file in the directory of ``final`` and with
    its suffix, never opening one that exists; returns its path."""
    for i in itertools.count():
        temp = final.with_name(f".{final.stem}-{i}.tmp{final.suffix}")
        try:
            os.close(os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                             0o666))
        except FileExistsError:
            continue
        return temp


def _parse(argv) -> dict:
    """The flags of argv; a flag the run would not read is an input error
    here, before any work (``constructions.Scenario``)."""
    prm = vars(_build_parsers(argv[0] if argv else None).parse_args(argv))
    name = prm["scenario"]
    mode = cons.EXPORT_MODE if name == "export" else cons.SCENARIOS[name].mode
    if mode is not None:
        dest, table = mode
        reads = table[prm[dest]]
        unread = [d for d in prm if prm[d] is not None and d not in reads
                  and any(d in other for other in table.values())]
        prm.update({d: reads[d] for d in reads if prm[d] is None})
        missing = [d for d in reads if prm[d] is None]
        selected = (f"with --{dest} {prm[dest]}" if prm[dest] is not None
                    else f"without --{dest}")
        for verb, dests in (("does not read", unread), ("needs", missing)):
            if dests:
                raise WarpcheckError(
                    f"{name} {selected} {verb} "
                    + ", ".join("--" + d.replace("_", "-") for d in dests))
    return prm


def _run(prm) -> int:
    """Compute, write artifacts, and return 0 on pass or 1 on verification
    failure; input errors propagate to ``main``, after what was written so
    far is discarded."""
    artifacts = _Artifacts(prm["out"])
    try:
        return _compute_and_write(prm, artifacts)
    except BaseException:
        artifacts.discard()
        raise


def _compute_and_write(prm, artifacts: _Artifacts) -> int:
    if prm["scenario"] == "export":
        pid = prm["profile"]
        grid = _grid(prm, CSV_GRID)
        (temp,) = artifacts.reserve([f"{pid}.csv"])
        reads, build = cons.PROFILES[pid]
        write_profile_csv(temp, build(*(prm[d] for d in reads)), grid)
        (path,) = artifacts.commit()
        print(f"[export] wrote {path} ({grid} rows)")
        return EXIT_PASS

    scenario = cons.SCENARIOS[prm["scenario"]]
    verdict, (name, value), profiles = scenario.run(
        prm, _grid(prm, scenario.grid))
    minimum = prm["require_min"]
    if minimum is not None:
        verdict = ScenarioVerdict(
            verdict.scenario, dict(verdict.config, require_min=minimum),
            verdict.checks + (check_ge(f"required_minimum({name})",
                                       "cli-required-minimum", value, minimum),),
            verdict.artifacts)
    csvs = profiles if prm.get("csv") else {}
    names = [f"{verdict.scenario}_{name}.csv" for name in csvs]
    *csv_temps, report_temp = artifacts.reserve(
        [*names, f"{verdict.scenario}.json"])
    for temp, profile in zip(csv_temps, csvs.values()):
        write_profile_csv(temp, profile, _grid(prm, CSV_GRID))
    write_report(report_temp,
                 verdict.to_report([prm["out"] / name for name in names]))
    *_, path = artifacts.commit()

    for line in verdict.summary_lines():
        print(line)
    print(f"[{verdict.scenario}] report: {path}")
    return EXIT_PASS if verdict.overall else EXIT_VERIFICATION_FAILURE


def main(argv=None) -> int:
    """Run the CLI on argv; every input error maps to exit 2 here (argparse's
    own errors exit 2 through SystemExit)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _run(_parse(argv))
    except WarpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: the requested sizes do not fit in memory: {exc}",
              file=sys.stderr)
    return EXIT_INPUT_ERROR


def entrypoint():
    """The process entry point of the console script and ``python -m
    warpcheck``.

    The objects built at import (NumPy's and warpcheck's, about 22k) live
    until the process ends, so they are moved to the permanent generation
    first: neither the run's collections nor the interpreter's final ones
    traverse them. ``main`` does not freeze, because in-process callers own
    their heap.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
