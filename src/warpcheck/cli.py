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

# the values a config file may give a store_true flag, case-insensitive
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _build_parsers():
    parser = argparse.ArgumentParser(
        prog="warpcheck",
        description="verification runs for warped-product curvature claims")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, default=None,
                        help="grid size for curvature sweeps")
    common.add_argument("--tol", type=cons._tolerance, default=1e-10,
                        help=f"solver tolerance (at most {cons.TOL_MAX:g})")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for reports and CSVs")
    common.add_argument("--json", action="store_true",
                        help="also print the JSON report to stdout")
    common.add_argument("--csv", action="store_true",
                        help="dump the scenario's profiles as CSV")
    common.add_argument("--config", type=Path, default=None,
                        help="flat key=value file with defaults; flags override")
    common.add_argument("--require-min", type=cons._finite_float, default=None,
                        help="extra check: the scenario's headline minimum "
                             "must reach this value (forces failures in "
                             "exit-code tests)")

    sub = parser.add_subparsers(dest="scenario", required=True)
    commands = [(s.name, s.help, s.args) for s in cons.SCENARIOS.values()]
    commands.append(("export", "CSV export of a named profile",
                     cons.EXPORT_ARGS))
    parsers = {}
    for name, help_text, args in commands:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flags, kwargs in args:
            p.add_argument(*flags, **kwargs)
        parsers[name] = p
    return parser, parsers


def _config_path(argv) -> Path | None:
    """The file named by ``--config FILE`` or ``--config=FILE`` in argv."""
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise WarpcheckError("--config needs a file path")
            return Path(argv[i + 1])
        if arg.startswith("--config="):
            return Path(arg[len("--config="):])
    return None


def _apply_config_file(parsers, argv):
    """Pre-scan argv for --config and install the file's values as defaults
    on the chosen subcommand's parser."""
    path = _config_path(argv)
    if path is None:
        return
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
    known = {a.dest: a for a in p._actions}
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
            elif action.type is not None:
                converted = action.type(value)
            else:
                converted = value
            if action.choices is not None and converted not in action.choices:
                raise ValueError(value)
        except (KeyError, ValueError, argparse.ArgumentTypeError) as exc:
            raise WarpcheckError(f"{path}:{lineno}: bad value {value!r} "
                                 f"for {key.strip()!r}") from exc
        overrides[dest] = converted
        # a value from the file satisfies a required flag
        action.required = False
    p.set_defaults(**overrides)


def _grid(prm, default):
    """--grid if given, else ``default``; an explicit 0 is passed on, to be
    rejected by the sweep or the CSV writer, not replaced."""
    return default if prm.get("grid") is None else prm["grid"]


def _run(args) -> int:
    """Compute, write artifacts, and return 0 on pass or 1 on verification
    failure; input errors propagate to ``main``."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("scenario", "out", "json", "csv", "config",
                           "require_min")}
    if args.scenario == "export":
        pid = params["profile"]
        grid = _grid(params, CSV_GRID)
        path = write_profile_csv(args.out / f"{pid}.csv",
                                 cons.PROFILES[pid](params), grid)
        print(f"[export] wrote {path} ({grid} rows)")
        return EXIT_PASS

    scenario = cons.SCENARIOS[args.scenario]
    verdict, (name, value), profiles = scenario.run(
        params, _grid(params, scenario.grid))
    if args.require_min is not None:
        verdict = ScenarioVerdict(
            verdict.scenario, dict(verdict.config, require_min=args.require_min),
            verdict.checks + (check_ge(f"required_minimum({name})",
                                       "cli-required-minimum", value,
                                       args.require_min),),
            verdict.artifacts)
    csv_paths = []
    if args.csv:
        for name, profile in profiles.items():
            csv_paths.append(write_profile_csv(
                args.out / f"{verdict.scenario}_{name}.csv", profile,
                _grid(params, CSV_GRID)))
    report = verdict.to_report(csv_paths)
    path = write_report(args.out / f"{verdict.scenario}.json", report)

    for line in verdict.summary_lines():
        print(line)
    print(f"[{verdict.scenario}] report: {path}")
    if args.json:
        sys.stdout.write(report_bytes(report).decode())
    return EXIT_PASS if verdict.overall else EXIT_VERIFICATION_FAILURE


def main(argv=None) -> int:
    """Run the CLI on argv; every input error maps to exit 2 here (argparse's
    own errors exit 2 through SystemExit)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = _build_parsers()
    try:
        _apply_config_file(parsers, argv)
        return _run(parser.parse_args(argv))
    except WarpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: the requested sizes do not fit in memory: {exc}",
              file=sys.stderr)
    return EXIT_INPUT_ERROR


def entrypoint():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
