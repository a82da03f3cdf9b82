"""Command-line front end.

Each subcommand runs one scenario of ``constructions.SCENARIOS``, writes a
JSON report (and CSV profile dumps on request) into the output directory,
prints one verdict line per check, and exits 0 on overall pass, 1 on
verification failure (report still written), or 2 on input/configuration
errors (nothing written).

A flat key=value config file can pre-set any flag of the chosen subcommand;
explicit flags override the file.
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
from .report import (ScenarioVerdict, check_ge, report_bytes,
                     write_profile_csv, write_report)

EXIT_PASS = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2

# rows of a CSV dump when --grid is not given
CSV_GRID = 1001

# the values a config file may give a store_true flag, case-insensitive; a
# false word means the flag is not given, as no command line can say more
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


# flags of several subcommands: --out and --config (all), --json and
# --require-min (every scenario), the rest where a declaration lists them
_SHARED = {
    "--grid": {"type": int, "help": "grid size for curvature sweeps"},
    "--tol": {"type": cons._tolerance, "default": 1e-10,
              "help": f"solver tolerance (at most {cons.TOL_MAX:g})"},
    "--out": {"type": Path, "default": Path("."),
              "help": "output directory for reports and CSVs"},
    "--json": {"action": "store_true",
               "help": "also print the JSON report to stdout"},
    "--csv": {"action": "store_true",
              "help": "dump the scenario's profiles as CSV"},
    "--config": {"type": Path,
                 "help": "flat key=value file with defaults; flags override"},
    "--require-min": {"type": cons._finite_float,
                      "help": "extra check: the scenario's headline minimum "
                              "must reach this value (forces a failure)"},
}


def _build_parsers():
    parser = argparse.ArgumentParser(
        prog="warpcheck",
        description="verification runs for warped-product curvature claims")
    sub = parser.add_subparsers(dest="scenario", required=True)
    commands = [(s.name, s.help, s.args, (*s.common, "--json", "--require-min"),
                 s.mode) for s in cons.SCENARIOS.values()]
    commands.append(("export", "CSV export of a named profile",
                     cons.EXPORT_ARGS, cons.EXPORT_COMMON, cons.EXPORT_MODE))
    parsers = {}
    for name, help_text, args, common, mode in commands:
        # no abbreviations: the config pre-scan would not see --conf
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flags, kwargs in args:
            p.add_argument(*flags, **kwargs)
        for flag in (*common, "--out", "--config"):
            p.add_argument(flag, **_SHARED[flag])
        if mode is not None:  # presence decides, so these parse to None
            p.set_defaults(**dict.fromkeys(itertools.chain(*mode[1].values())))
        parsers[name] = p
    return parser, parsers


def _apply_config_file(parsers, argv):
    """Pre-scan argv for --config and install the file's values as defaults
    on the chosen subcommand's parser; one file at most is read."""
    given = [i for i, a in enumerate(argv)
             if a == "--config" or a.startswith("--config=")]
    if not given:
        return
    if len(given) > 1:
        raise WarpcheckError("--config is given more than once")
    (i,) = given
    if argv[i] == "--config" and i + 1 == len(argv):
        raise WarpcheckError("--config needs a file path")
    path = Path(argv[i + 1] if argv[i] == "--config"
                else argv[i][len("--config="):])
    scenario = next((a for a in argv if not a.startswith("-")), None)
    if scenario not in parsers:
        return
    if not path.is_file():
        raise WarpcheckError(f"config file {path} does not exist or is "
                             "not a file")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise WarpcheckError(f"cannot read config file {path}: {exc}") from exc
    p = parsers[scenario]
    # a file names no further file and asks for no help
    known = {a.dest: a for a in p._actions if a.dest not in ("config", "help")}
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise WarpcheckError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        value = value.strip()
        if dest not in known:
            raise WarpcheckError(f"{path}:{lineno}: unknown key {key.strip()!r} "
                                 f"for scenario {scenario!r}")
        action = known[dest]
        try:
            if isinstance(action, argparse._StoreTrueAction):
                converted = _BOOL_WORDS[value.lower()]
            else:
                converted = (action.type or str)(value)
            if action.choices is not None and converted not in action.choices:
                raise ValueError(value)
        except (KeyError, ValueError, argparse.ArgumentTypeError) as exc:
            raise WarpcheckError(f"{path}:{lineno}: bad value {value!r} "
                                 f"for {key.strip()!r}") from exc
        if converted is False:
            overrides.pop(dest, None)
            continue
        overrides[dest] = converted
        # a value from the file satisfies a required flag
        action.required = False
    p.set_defaults(**overrides)


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
    """The flags of argv, config file included; a flag the run would not read
    is an input error here, before any work (``constructions.Scenario``)."""
    parser, parsers = _build_parsers()
    _apply_config_file(parsers, argv)
    prm = vars(parser.parse_args(argv))
    name = prm["scenario"]
    mode = cons.EXPORT_MODE if name == "export" else cons.SCENARIOS[name].mode
    if mode is not None:
        dest, table = mode
        reads = table[prm[dest]]
        unread = [d for d in prm if prm[d] is not None and d not in reads
                  and any(d in other for other in table.values())]
        prm.update({d: reads[d] for d in reads if prm[d] is None})
        missing = [d for d in reads if prm[d] is None]
        for verb, dests in (("does not read", unread), ("needs", missing)):
            if dests:
                raise WarpcheckError(
                    f"{name} with {dest} {prm[dest]!r} {verb} "
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
    report = verdict.to_report([prm["out"] / name for name in names])
    write_report(report_temp, report)
    *_, path = artifacts.commit()

    for line in verdict.summary_lines():
        print(line)
    print(f"[{verdict.scenario}] report: {path}")
    if prm["json"]:
        sys.stdout.write(report_bytes(report).decode())
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
