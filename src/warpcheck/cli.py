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
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    """A validated scenario invocation: which scenario, its parameters, and
    where artifacts go."""

    scenario: str
    params: dict
    out_dir: Path
    write_csv: bool = False
    print_json: bool = False
    require_min: float | None = None


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
        if isinstance(action, (argparse._StoreTrueAction,)):
            overrides[dest] = value.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                overrides[dest] = action.type(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise WarpcheckError(f"{path}:{lineno}: bad value {value!r} "
                                     f"for {key.strip()!r}") from exc
        else:
            overrides[dest] = value
        # a value from the file satisfies a required flag
        action.required = False
    p.set_defaults(**overrides)


def _grid(prm, default):
    """--grid if given, else ``default``; an explicit 0 is passed on, to be
    rejected by the sweep or the CSV writer, not replaced."""
    return default if prm.get("grid") is None else prm["grid"]


def _scenario_verdict(config: RunConfig):
    """(verdict, {csv name: profile}) of the configured scenario, with the
    --require-min check appended when asked for."""
    scenario = cons.SCENARIOS.get(config.scenario)
    if scenario is None:
        raise WarpcheckError(f"unknown scenario {config.scenario!r}")
    v, (name, value), profiles = scenario.run(
        config.params, _grid(config.params, scenario.grid))
    if config.require_min is not None:
        v = ScenarioVerdict(
            v.scenario, dict(v.config, require_min=config.require_min),
            v.checks + (check_ge(f"required_minimum({name})", "cli-required-minimum",
                                 value, config.require_min),),
            v.artifacts)
    return v, profiles


def _export(config: RunConfig) -> int:
    prm = config.params
    pid = prm["profile"]
    build = cons.PROFILES.get(pid)
    if build is None:
        raise WarpcheckError(f"unknown profile {pid!r}")
    grid = _grid(prm, CSV_GRID)
    path = write_profile_csv(config.out_dir / f"{pid}.csv", build(prm), grid)
    print(f"[export] wrote {path} ({grid} rows)")
    return EXIT_PASS


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig: compute, write artifacts, and return
    the exit status (0 pass / 1 verification failure / 2 input error)."""
    try:
        if config.scenario == "export":
            return _export(config)
        verdict, profiles = _scenario_verdict(config)
    except WarpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    artifact_paths = []
    try:
        if config.write_csv:
            for name, profile in profiles.items():
                p = write_profile_csv(config.out_dir / f"{verdict.scenario}_{name}.csv",
                                      profile, _grid(config.params, CSV_GRID))
                artifact_paths.append(p)
        report = verdict.to_report(artifact_paths)
        path = write_report(config.out_dir / f"{verdict.scenario}.json", report)
        artifact_paths.append(path)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    for line in verdict.summary_lines():
        print(line)
    print(f"[{verdict.scenario}] report: {path}")
    if config.print_json:
        sys.stdout.write(report_bytes(report).decode())
    return EXIT_PASS if verdict.overall else EXIT_VERIFICATION_FAILURE


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = _build_parsers()
    try:
        _apply_config_file(parsers, argv)
    except WarpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    args = parser.parse_args(argv)
    params = {k: v for k, v in vars(args).items()
              if k not in ("scenario", "out", "json", "csv", "config",
                           "require_min")}
    config = RunConfig(scenario=args.scenario, params=params,
                       out_dir=args.out, write_csv=args.csv,
                       print_json=args.json, require_min=args.require_min)
    return run(config)


def entrypoint():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
