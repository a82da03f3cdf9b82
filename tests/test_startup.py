"""The fixed start-up cost of a run: what importing the CLI and running one
scenario load, and the equivalence of what replaced the costlier forms
(generated dataclass methods, ``leggauss``, building every subparser)."""
import argparse
import importlib
import json
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env

import warpcheck
from warpcheck import cli, quadrature

# what `import warpcheck.cli` may add to the modules `import numpy` loaded
IMPORT_ALLOWLIST = {
    "__future__", "_json", "argparse", "copy", "dataclasses", "gc",
    "gettext", "json", "json.decoder", "json.encoder", "json.scanner",
}

# one small run of every scenario and of the quadrature and IVP exports
SMALL_RUNS = [
    ["sha-yang", "--n", "3", "--m", "2", "--grid", "200"],
    ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5", "--grid", "64"],
    ["closability", "--n", "3", "--grid", "64"],
    ["gn", "--n", "4", "--grid", "64"],
    ["docking", "--n", "3", "--grid", "64"],
    ["thm22", "--n", "4", "--grid", "64"],
    ["glue", "--example", "hemisphere", "--n", "3"],
    ["export", "--profile", "k", "--grid", "50"],
    ["export", "--profile", "sha-f", "--grid", "50"],
]


def _child(code, tmp_path):
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_only_allowlisted_modules(tmp_path):
    # numpy.polynomial among those left out: no module calls leggauss
    added = _child("import json, sys, numpy; before = set(sys.modules); "
                   "import warpcheck.cli; "
                   "print(json.dumps(sorted(set(sys.modules) - before)))",
                   tmp_path)
    assert {m for m in added if m.split(".")[0] != "warpcheck"} \
        <= IMPORT_ALLOWLIST


def test_runs_import_neither_numpy_ma_nor_numpy_polynomial(tmp_path):
    # both are lazy NumPy submodules: np.unique imported numpy.ma, and
    # leggauss numpy.polynomial, on every sha-yang and every k/collar run
    loaded = _child(
        "import contextlib, io, json, sys\n"
        "from warpcheck.cli import main\n"
        f"runs = {SMALL_RUNS!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m in\n"
        "    ('numpy.ma', 'numpy.polynomial'))]))\n", tmp_path)
    assert loaded == [[0] * len(SMALL_RUNS), []]


def test_module_level_arrays_stay_small(tmp_path):
    """The module-level ndarrays of every warpcheck module total at most
    4 KB once ``import warpcheck.cli`` has returned (680 bytes: the two
    quadrature rules).

    The benchmark's parent process imports the package, and a child's peak
    RSS starts from the parent's, so module data lifts every workload's
    ``peak_rss_mb`` floor: a table a run needs is built on first use or per
    call, not at import.
    """
    sizes = _child(
        "import json, sys, numpy as np\n"
        "import warpcheck.cli\n"
        "print(json.dumps({f'{name}.{attr}': value.nbytes\n"
        "    for name, module in list(sys.modules.items())\n"
        "    if name.split('.')[0] == 'warpcheck'\n"
        "    for attr, value in vars(module).items()\n"
        "    if isinstance(value, np.ndarray)}))\n", tmp_path)
    assert "warpcheck.quadrature._CUMINT_X" in sizes
    assert sum(sizes.values()) <= 4096, sizes


def test_no_record_class_is_a_dataclass():
    for info in pkgutil.iter_modules(warpcheck.__path__, "warpcheck."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, type):
                assert not hasattr(value, "__dataclass_fields__"), name


def test_cumint_rule_is_leggauss_24_and_read_only():
    x, w = np.polynomial.legendre.leggauss(quadrature.CUMINT_ORDER)
    assert quadrature._CUMINT_X.tobytes() == x.tobytes()
    assert quadrature._CUMINT_W.tobytes() == w.tobytes()
    for a in (quadrature._CUMINT_X, quadrature._CUMINT_W):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


NAMES = list(cli.cons.SCENARIOS)


@pytest.mark.parametrize("name", NAMES)
def test_a_lone_subparser_is_the_one_of_the_full_build(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    lone = _subparsers(cli._build_parsers(name))
    assert list(lone) == [name]
    assert lone[name].format_help() == \
        _subparsers(cli._build_parsers())[name].format_help()


def _outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["docking", "--n", "3", "--tol", "1e-8"],           # a flag it does not read
    ["docking", "--n"],                                  # a missing value
    ["docking", "--n", "3", "--gri", "64"],              # an abbreviation
    ["thm22", "--n", "4", "--csv"],
    ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5", "sha-yang"],
    ["glue", "--dim", "2"],                              # required flags missing
    ["export", "--profile", "k", "--nu", "0.3"],
    ["sha-yang", "-h"],
])
def test_bad_argvs_fail_alike_under_both_builds(argv, capsys, monkeypatch,
                                                tmp_path):
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.chdir(tmp_path)
    lone = _outcome(argv, capsys)
    build = cli._build_parsers
    monkeypatch.setattr(cli, "_build_parsers", lambda only=None: build())
    assert _outcome(argv, capsys) == lone
    assert lone[0] == (0 if argv[-1] == "-h" else 2)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus", "--n", "3"]])
def test_without_a_subcommand_every_one_is_listed(argv, capsys):
    with pytest.raises(SystemExit):
        cli.main(argv)
    out = capsys.readouterr()
    listed = "{" + ",".join(NAMES) + "}"
    assert listed in out.out + out.err


# argvs whose every admit condition is evaluated: each scenario and export
# profile, admitted or refused by its admit
ADMIT_ARGVS = [
    ["sha-yang", "--n", "3", "--m", "2"],
    ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,0.25"],
    ["neck", "--nu", "0.1", "--n", "3", "--s", "0.5,1e-300"],
    ["closability", "--n", "3", "--c-max", "0.7"],
    ["gn", "--n", "4"],
    ["docking", "--n", "3"],
    ["thm22", "--n", "4", "--members", "2", "--ric-deficit", "0.1"],
    ["thm22", "--n", "4", "--ric-deficit=-1"],
    ["glue", "--example", "hemisphere"],
    ["glue", "--dim", "2", "--r1", "1", "--k1", "1", "--r2", "5",
     "--k2", "-3"],
    *(["export", "--profile", pid] for pid in cli.cons.PROFILES),
]


def test_admitting_an_argv_loads_no_module(tmp_path):
    # a first parse loads what argparse's messages need (locale, through
    # gettext); what loads after it, admit loads
    added = _child(
        "import json, sys\n"
        "from warpcheck import cli, errors\n"
        "cli._build_parsers().parse_args(['docking', '--n', '3'])\n"
        "before = set(sys.modules)\n"
        f"for argv in {ADMIT_ARGVS!r}:\n"
        "    try:\n"
        "        cli._parse(argv)\n"
        "    except errors.InputError:\n"
        "        pass\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n", tmp_path)
    assert added == []


@pytest.mark.parametrize("argv", ADMIT_ARGVS)
def test_admitting_an_argv_builds_no_profile_factor_or_grid(argv,
                                                            monkeypatch):
    from warpcheck import curvature, errors, factors, ode, profiles

    def built(*args, **kwargs):
        raise AssertionError("work before the run")

    for owner, name in ((profiles.WarpProfile, "__post_init__"),
                        (factors.FactorManifold, "__post_init__"),
                        (curvature.MultiWarpedMetric, "__post_init__"),
                        (quadrature.CumulativeIntegral, "__init__"),
                        (ode, "integrate_ivp"), (profiles, "integrate_ivp"),
                        (np, "linspace")):
        monkeypatch.setattr(owner, name, built)
    try:
        cli._parse(argv)
    except errors.InputError:
        pass
