"""Command-line front end.

Each subcommand runs one scenario, writes a JSON report (and CSV profile
dumps on request) into the output directory, prints one verdict line per
check, and exits 0 on overall pass, 1 on verification failure (report still
written), or 2 on input/configuration errors (nothing written).

A flat key=value config file can pre-set any flag of the chosen subcommand;
explicit flags override the file.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import constructions as cons
from .curvature import MultiWarpedMetric, glue_check
from .errors import WarpcheckError
from .factors import abstract_factor, round_sphere_factor
from .profiles import (closability_ode_profile, closed_form_profile,
                       collar_profile, docking_R_profile, k_profile,
                       neck_profile, sha_yang_profiles)
from .report import (SCHEMA_VERSION, ScenarioVerdict, check_ge,
                     report_bytes, write_profile_csv, write_report)

EXIT_PASS = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2


@dataclass
class RunConfig:
    """A validated scenario invocation: which scenario, its parameters, and
    where artifacts go."""

    scenario: str
    params: dict
    out_dir: Path
    write_csv: bool = False
    print_json: bool = False
    parallel: bool = False
    require_min: float | None = None
    schema_version: str = SCHEMA_VERSION
    profiles_to_dump: dict = field(default_factory=dict)


def _csv_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _build_parsers():
    parser = argparse.ArgumentParser(
        prog="warpcheck",
        description="verification runs for warped-product curvature claims")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, default=None,
                        help="grid size for curvature sweeps")
    common.add_argument("--tol", type=float, default=1e-10,
                        help="solver tolerance")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for reports and CSVs")
    common.add_argument("--json", action="store_true",
                        help="also print the JSON report to stdout")
    common.add_argument("--csv", action="store_true",
                        help="dump the scenario's profiles as CSV")
    common.add_argument("--parallel", action="store_true",
                        help="evaluate independent family members in threads")
    common.add_argument("--config", type=Path, default=None,
                        help="flat key=value file with defaults; flags override")
    common.add_argument("--require-min", type=float, default=None,
                        help="extra check: the scenario's headline minimum "
                             "must reach this value (forces failures in "
                             "exit-code tests)")

    sub = parser.add_subparsers(dest="scenario", required=True)
    parsers = {}

    p = sub.add_parser("sha-yang", parents=[common],
                       help="complete metric collapsing to a cone over M")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--ric", type=float, default=None,
                   help="Einstein constant of M (default n-1)")
    parsers["sha-yang"] = p

    p = sub.add_parser("neck", parents=[common],
                       help="shrinking neck family against a certified core")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_csv_list, required=True,
                   help="comma-separated list of s values")
    p.add_argument("--core-kappa", type=float, default=None,
                   help="core boundary principal curvature (default 2 nu)")
    parsers["neck"] = p

    p = sub.add_parser("closability", parents=[common],
                       help="largest certified collar slope over a convex core")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c-max", type=float, default=0.45)
    p.add_argument("--kappa", type=float, default=1.0,
                   help="core boundary principal curvature")
    parsers["closability"] = p

    p = sub.add_parser("gn", parents=[common],
                       help="doubled-region metric over a hypersurface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-prime", type=float, default=0.2)
    p.add_argument("--y-ric", type=float, default=None,
                   help="Ricci constant of the hypersurface (default -(n-2))")
    parsers["gn"] = p

    p = sub.add_parser("docking", parents=[common],
                       help="ambient doubly warped sphere")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-round", action="store_true", default=None,
                   help="require the round-model reproduction check")
    parsers["docking"] = p

    p = sub.add_parser("thm22", parents=[common],
                       help="family hypotheses: volume cap, Ricci floor, "
                            "closable member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--members", type=int, default=1)
    p.add_argument("--ric-deficit", type=float, default=0.0,
                   help="subtract from the last member's factor curvature "
                        "(forces a Ricci-floor failure)")
    p.add_argument("--closable-index", type=int, default=0)
    parsers["thm22"] = p

    p = sub.add_parser("glue", parents=[common],
                       help="gluing hypotheses for a pair of boundaries")
    p.add_argument("--example", choices=["hemisphere"], default=None)
    p.add_argument("--n", type=int, default=4,
                   help="total dimension for --example")
    p.add_argument("--dim", type=int, default=None,
                   help="boundary factor dimension")
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--k1", type=float, default=None)
    p.add_argument("--r2", type=float, default=None)
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--glue-tol", type=float, default=1e-9)
    parsers["glue"] = p

    p = sub.add_parser("export", parents=[common],
                       help="CSV export of a named profile")
    p.add_argument("--profile", required=True,
                   choices=["sha-f", "sha-h", "neck", "k", "collar",
                            "closability", "docking-r"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--eps-prime", type=float, default=0.2)
    p.add_argument("--c", type=float, default=0.1)
    parsers["export"] = p

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


def _grid(prm, default: int) -> int:
    """--grid if given, else ``default``; an explicit 0 is passed on, to be
    rejected by the sweep or the CSV writer, not replaced."""
    return default if prm.get("grid") is None else prm["grid"]


def _scenario_verdict(config: RunConfig) -> ScenarioVerdict:
    s = config.scenario
    prm = config.params

    if s == "sha-yang":
        n = prm["n"]
        ric = prm["ric"] if prm.get("ric") is not None else float(n - 1)
        M = abstract_factor("M", n, (ric, ric))
        v = cons.sha_yang_space(n, prm["m"], M, prm["T"], tol=prm["tol"],
                                grid_size=_grid(prm, 10_000))
        config.profiles_to_dump = {"sha-f": v.artifacts["f"],
                                   "sha-h": v.artifacts["h"]}
        headline = ("ricci_global_min",
                    v.artifacts["ricci_report"].global_min)
    elif s == "neck":
        nu = prm["nu"]
        kappa = prm["core_kappa"] if prm.get("core_kappa") is not None else 2.0 * nu
        core = cons.certified_core(prm["n"], kappa=kappa)
        v = cons.neck_family_check(nu, prm["n"], prm["s"], core,
                                   grid_size=_grid(prm, 2048),
                                   parallel=config.parallel)
        config.profiles_to_dump = {
            f"neck-s{x:g}": neck_profile(nu, x) for x in prm["s"]}
        headline = ("delta", v.config["delta"])
    elif s == "closability":
        cb = cons.round_boundary(prm["n"] - 1, 1.0, prm["kappa"])
        v = cons.collar_closability(cb, prm["c_max"], prm["n"],
                                    grid_size=_grid(prm, 2048))
        config.profiles_to_dump = {"collar": v.artifacts["profile"]}
        headline = ("c_star", v.config["c_star"])
    elif s == "gn":
        n = prm["n"]
        y_ric = prm["y_ric"] if prm.get("y_ric") is not None else float(-(n - 2))
        Y = abstract_factor("Y", n - 1, (y_ric, y_ric))
        v = cons.gN_regions(Y, prm["eps_prime"], n, tol=prm["tol"],
                            grid_size=_grid(prm, 2048))
        config.profiles_to_dump = {"k": v.artifacts["k"],
                                   "closability-f": v.artifacts["f"]}
        headline = ("regionA_ricci_min",
                    v.artifacts["ricci_report"].global_min)
    elif s == "docking":
        v = cons.docking_ambient(prm["n"], grid_size=_grid(prm, 2048),
                                 include_round_check=prm.get("check_round"))
        config.profiles_to_dump = {"docking-r": v.artifacts["R"]}
        headline = ("ricci_min", v.artifacts["ricci_report"].global_min)
    elif s == "thm22":
        v = _thm22_verdict(prm, _grid(prm, 2048))
        rep_mins = [c.value for c in v.checks if c.name.endswith("ricci_floor")]
        headline = ("min_member_ricci", min(rep_mins))
    elif s == "glue":
        v = _glue_verdict(prm)
        headline = ("ii_sum_min",
                    next(c.value for c in v.checks if c.name == "ii_sum_min"))
    else:
        raise WarpcheckError(f"unknown scenario {s!r}")

    if config.require_min is not None:
        name, value = headline
        v = ScenarioVerdict(
            v.scenario, dict(v.config, require_min=config.require_min),
            v.checks + (check_ge(f"required_minimum({name})", "cli-required-minimum",
                                 value, config.require_min),),
            v.artifacts)
    return v


def _thm22_verdict(prm, grid):
    import math

    from .errors import InputError
    from .factors import unit_sphere_volume

    n = prm["n"]
    deficit = prm.get("ric_deficit", 0.0)
    if deficit and n < 4:
        raise InputError("--ric-deficit needs n >= 4 (a 1-dimensional "
                         "cross-section factor is necessarily Ricci-flat)")
    count = prm.get("members", 1)
    members = []
    for i in range(count):
        rho = float(n - 3)
        if i == count - 1:
            rho -= deficit
        if rho == n - 3:
            factor = round_sphere_factor(n - 2, 1.0)
        else:
            factor = abstract_factor("X", n - 2, (rho, rho),
                                     volume=unit_sphere_volume(n - 2))
        members.append(MultiWarpedMetric(
            (0.0, math.pi),
            ((factor, closed_form_profile("sine", (0.0, math.pi))),),
            collapse_left=0, collapse_right=0))
    cert_boundary = cons.round_boundary(n - 2, 1.0, 1.0)
    certificate = cons.collar_closability(cert_boundary, 0.45, n - 1,
                                          grid_size=grid)
    return cons.theorem22_hypotheses(members, n, prm.get("closable_index", 0),
                                     certificate, grid_size=grid)


def _glue_verdict(prm):
    import math

    from .curvature import boundary_data
    from .report import check_bool

    if prm.get("example") == "hemisphere":
        n = prm["n"]
        metric = MultiWarpedMetric(
            (0.0, math.pi / 2.0),
            ((round_sphere_factor(n - 1, 1.0),
              closed_form_profile("sine", (0.0, math.pi / 2.0))),),
            collapse_left=0)
        b1 = b2 = boundary_data(metric, "right")
        note = "hemisphere glued to its mirror along the equator"
    else:
        needed = ("dim", "r1", "k1", "r2", "k2")
        if any(prm.get(k) is None for k in needed):
            raise WarpcheckError(
                "glue needs --example hemisphere or all of --dim, --r1, "
                "--k1, --r2, --k2")
        b1 = cons.round_boundary(prm["dim"], prm["r1"], prm["k1"])
        b2 = cons.round_boundary(prm["dim"], prm["r2"], prm["k2"])
        note = "explicit round boundaries"
    verdict = glue_check(b1, b2, prm["glue_tol"])
    checks = (
        check_bool("isometry_ok", "glue-isometry", verdict.isometry_ok, note),
        check_ge("ii_sum_min", "glue-ii-sum", verdict.ii_sum_min,
                 -prm["glue_tol"]),
    )
    config = {k: prm.get(k) for k in
              ("example", "n", "dim", "r1", "k1", "r2", "k2", "glue_tol")}
    return ScenarioVerdict("glue", config, checks, artifacts={"glue": verdict})


def _export(config: RunConfig) -> int:
    prm = config.params
    pid = prm["profile"]
    grid = _grid(prm, 1001)
    if pid in ("sha-f", "sha-h"):
        f, h, _ = sha_yang_profiles(prm["n"], prm["m"], prm["T"], prm["tol"])
        profile = f if pid == "sha-f" else h
    elif pid == "neck":
        profile = neck_profile(prm["nu"], prm["s"])
    elif pid == "k":
        profile = k_profile(prm["eps_prime"])
    elif pid == "collar":
        profile = collar_profile(prm["c"])
    elif pid == "closability":
        profile = closability_ode_profile(prm["n"], prm["eps_prime"], prm["tol"])
    elif pid == "docking-r":
        profile = docking_R_profile()
    else:
        raise WarpcheckError(f"unknown profile {pid!r}")
    path = write_profile_csv(config.out_dir / f"{pid}.csv", profile, grid)
    print(f"[export] wrote {path} ({grid} rows)")
    return EXIT_PASS


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig: compute, write artifacts, and return
    the exit status (0 pass / 1 verification failure / 2 input error)."""
    try:
        if config.scenario == "export":
            return _export(config)
        verdict = _scenario_verdict(config)
    except WarpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    artifact_paths = []
    try:
        if config.write_csv:
            for name, profile in config.profiles_to_dump.items():
                p = write_profile_csv(config.out_dir / f"{verdict.scenario}_{name}.csv",
                                      profile, _grid(config.params, 1001))
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
              if k not in ("scenario", "out", "json", "csv", "parallel",
                           "config", "require_min")}
    config = RunConfig(scenario=args.scenario, params=params,
                       out_dir=args.out, write_csv=args.csv,
                       print_json=args.json, parallel=args.parallel,
                       require_min=args.require_min)
    return run(config)


def entrypoint():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
