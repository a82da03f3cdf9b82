"""Property test of the command line's exit-code contract.

For any argv, ``cli.main`` exits 0 (pass), 1 (verification failure) or 2
(input error), prints no traceback, lets no ``RuntimeWarning`` escape,
writes and overwrites nothing when it exits 2, and on exit 0 or 1 leaves a
report that ``revalidate_report`` accepts. An exit 2 names a flag that the
argv gave (or, for a missing flag, the flag it needs), unless its message
is one of the ``KNOWN`` classes, each listed with the ROADMAP item that
removes it.

Argv is drawn from the flags the chosen subcommand declares in
``constructions`` and, for glue and export, the flags the chosen glue mode
or export profile reads. In one example in five, one flag that the
subcommand or its mode does not read is added as well, and the run must then
exit 2 with nothing written. Values come from every class: in range, at and
beyond a bound, signed zeros, subnormals, huge, non-finite in several
spellings, malformed and empty; and each numeric flag at lo - 1, lo, hi and
hi + 1 of the bounds its type declares (``_number``). Flags may repeat or
take the ``--flag=value`` form. A run may start with a stale file or a directory
where its report goes, and a write may fail with ENOSPC partway through.
Grids are drawn small or absurdly large, never in between, so that each run
is short.
"""
import contextlib
import errno
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from warpcheck import cli
from warpcheck.constructions import SCENARIOS, _csv_list
from warpcheck.report import revalidate_report

INTS = ("3", "4", "2", "5", "1", "0", "-1", "7", "1000000",
        "10000000000000000000000", str(10 ** 400), "x", "", "1.5")
FLOATS = ("0.1", "0.5", "1", "2", "1000", "0", "-0", "+0.0", "5e-324",
          "2.2250738585072014e-308", "1e-300", "1e300", "1e308", "-1",
          "-1e308", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "x", "")
GRIDS = ("2", "3", "17", "64", "1", "0", "-1", "1000000000000", "x")

# exit-2 messages that name no flag of their argv: (what the message
# contains, the ROADMAP item that removes the class, an argv that shows it)
KNOWN = [
    # item 8: first integrals replace the RK45 layer; its stops and its
    # resolution limits name the solver's t, not a flag
    ("solution left its admissible region", 8, ["gn", "--n", "9"]),
    ("solution left its admissible region", 8,
     ["gn", "--n", "3", "--eps-prime", "0.75"]),
    ("the window decay is below the solver's resolution", 8,
     ["sha-yang", "--n", "11", "--m", "2"]),
    ("first-integral residual", 8,
     ["sha-yang", "--n", "60", "--m", "3", "--T", "0.5"]),
    # item 9: closability in closed form; the search halves c to 0, or
    # stops at c_max * 2^-60 above kappa / 2
    ("c must be positive", 9,
     ["closability", "--n", "3", "--c-max", "5e-324", "--kappa", "5e-324"]),
    ("no collar slope c_max * 2^-k", 9,
     ["closability", "--n", "3", "--kappa", "1e-20"]),
]


def _declared(name):
    """The (flag, kwargs) pairs subcommand ``name`` declares, and its mode
    table (or None)."""
    s = SCENARIOS[name]
    shared = [((flag,), cli._SHARED[flag]) for flag in s.common]
    pairs = [(flags[0], kwargs) for flags, kwargs in (*s.args, *shared)]
    return pairs, s.mode


# every flag some subcommand declares, with the kwargs of its first
# declaration; --out, which all of them take, is left out
ALL_FLAGS = {}
for _name in SCENARIOS:
    for _flag, _kwargs in _declared(_name)[0]:
        ALL_FLAGS.setdefault(_flag, _kwargs)


def _dest(flag):
    return flag[2:].replace("-", "_")


def _edges(flag, kind):
    """lo - 1, lo, hi and hi + 1 of the bounds ``kind`` declares, as text;
    --grid's ceiling itself, a sweep of minutes, is left out."""
    lo, hi = getattr(kind, "lo", -math.inf), getattr(kind, "hi", math.inf)
    edges = [b for b in (lo - 1, lo) if math.isfinite(b)]
    edges += [b for b in (hi, hi + 1)
              if math.isfinite(b) and (flag != "--grid" or b != hi)]
    return [repr(b) for b in edges]


def _value(flag, kwargs, edges=True):
    """A strategy for the text of one flag's value: one in four is drawn
    from the classes above (none without ``edges``), the rest are typical
    for the flag (its default, where it has one)."""
    kind = kwargs.get("type")
    if "choices" in kwargs:
        typical, edge = st.sampled_from(kwargs["choices"]), st.sampled_from(
            ("bogus", ""))
    elif flag == "--grid":
        typical = st.sampled_from(("17", "64"))
        edge = st.sampled_from(GRIDS + tuple(_edges(flag, kind)))
    elif getattr(kind, "__name__", None) == "int":
        typical = st.sampled_from(("3", "4"))
        edge = st.sampled_from(INTS + tuple(_edges(flag, kind)))
    else:
        edge = st.one_of(st.sampled_from(FLOATS + tuple(_edges(flag, kind))),
                         st.floats().map(repr))
        typical = st.sampled_from(("0.1", "0.2", "0.5", "1"))
        if kind is _csv_list:
            typical = st.sampled_from(("0.5", "0.5,0.25"))
            edge = st.lists(edge, max_size=3).map(",".join)
    if kwargs.get("default") is not None:
        typical = st.just(str(kwargs["default"]))
    if not edges:
        return typical
    return st.integers(0, 3).flatmap(lambda i: typical if i else edge)


@st.composite
def invocations(draw):
    """(argv, whether a flag the run does not read was added) for one
    scenario or export. An argv that gets such a flag is otherwise
    drawn from typical values, with every required flag, so that the added
    flag is what makes it exit 2."""
    add_unread = draw(st.integers(0, 4)) == 0
    name = draw(st.sampled_from(list(SCENARIOS)))
    declared, mode = _declared(name)
    specs = declared
    if mode is not None:
        # draw the mode first, then only the table flags it reads, with
        # the defaults and required flags of its row
        dest, table = mode
        selected = draw(st.sampled_from(list(table)))
        reads, moded = table[selected], set().union(*table.values())
        specs = []
        for flag, kwargs in declared:
            if _dest(flag) == dest:
                if selected is not None:
                    specs.append((flag, {"choices": [selected],
                                         "required": True}))
            elif _dest(flag) not in moded:
                specs.append((flag, kwargs))
            elif _dest(flag) in reads:
                default = reads[_dest(flag)]
                specs.append((flag, dict(kwargs, default=default,
                                         required=default is None)))
    pairs = []
    for flag, kwargs in specs:
        # a required flag is left out now and then (never beside an unread
        # flag), others half the time
        required = kwargs.get("required")
        if not (required and add_unread) and not draw(
                st.integers(0, 9) if required else st.booleans()):
            continue
        for _ in range(draw(st.sampled_from((1, 1, 1, 2)))):
            if kwargs.get("action") == "store_true":
                pairs.append((flag, None))
            else:
                pairs.append((flag, draw(_value(flag, kwargs,
                                                edges=not add_unread))))
    if add_unread:
        # half of them a flag of the subcommand's own mode table, if any;
        # the flag that selects the mode is read in every mode
        unread = sorted(set(ALL_FLAGS) - {flag for flag, _ in specs}
                        - ({f"--{mode[0]}"} if mode else set()))
        moded = [f for f, _ in declared if mode and f in unread]
        flag = draw(st.sampled_from(moded if moded and draw(st.booleans())
                                    else unread))
        kwargs = dict(declared).get(flag, ALL_FLAGS[flag])
        pairs.append((flag, None if kwargs.get("action") == "store_true"
                      else draw(_value(flag, kwargs))))
    pairs = draw(st.permutations(pairs))
    argv = [name]
    for flag, value in pairs:
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv, add_unread


class _FailingWrite:
    """A file opened for writing whose write number ``fail_at``, counted
    over every such file of the run, stores half its data and raises
    ENOSPC."""

    def __init__(self, fh, writes, fail_at):
        self.fh, self.writes, self.fail_at = fh, writes, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes.append(len(data))
        if len(self.writes) == self.fail_at:
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


def _profile(argv):
    """The --profile an export run reads: the last on the command line."""
    given = [b if a == "--profile" else a.partition("=")[2]
             for a, b in zip(argv, [*argv[1:], None])
             if a == "--profile" or a.startswith("--profile=")]
    return given[-1] if given else None


def _names_a_flag(argv, err):
    """Whether the first error line of ``err`` names a flag that ``argv``
    gave, or names only flags that it lacks and needs; or is one of
    ``KNOWN``. A failed write is about --out."""
    line = next(x for x in err.splitlines() if "error:" in x)
    if "error: cannot write artifacts: " in line:
        return True
    given = {a.partition("=")[0] for a in argv if a.startswith("--")}
    named = set(re.findall(r"--[A-Za-z][\w-]*", line.partition("error:")[2]))
    needs = re.search(r"arguments are required: | needs --", line)
    return bool(named & given or (needs and named)
                or any(text in line for text, _, _ in KNOWN))


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _main(argv):
    """Exit code, stderr and the warnings of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's own errors
            rc = exc.code
    return rc, stderr.getvalue(), caught


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation=invocations(),
       out_exists=st.booleans(),
       occupant=st.sampled_from((None, None, "stale", "directory")),
       fail_at=st.sampled_from((None, None, None, 1, 2, 3, 5, 9)))
def test_any_argv_keeps_the_exit_code_contract(invocation, out_exists,
                                               occupant, fail_at):
    argv, unread = invocation
    name = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "O" if out_exists else root / "new" / "O"
        # the file the run writes last: the report, or export's CSV
        target = out / (f"{_profile(argv)}.csv" if name == "export"
                        else f"{name}.json")
        if occupant == "stale":
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("old\n")
        elif occupant == "directory":
            target.mkdir(parents=True)
        before = _snapshot(root)

        writes = []
        real_open = Path.open

        def open_(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return _FailingWrite(fh, writes, fail_at) if "w" in mode else fh

        with pytest.MonkeyPatch.context() as mp:
            if fail_at is not None:
                mp.setattr(Path, "open", open_)
            rc, err, caught = _main([*argv, "--out", str(out)])

        assert rc in (0, 1, 2), (argv, rc, err)
        assert "Traceback" not in err, (argv, err)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], (argv, caught)
        after = _snapshot(root)
        assert not [p for p in after if ".tmp." in p], (argv, after.keys())
        if fail_at is not None and len(writes) >= fail_at:
            assert rc == 2, (argv, rc)
        if unread:
            assert rc == 2, (argv, rc)
        if rc == 2:
            assert after == before, argv
            assert _names_a_flag([*argv, "--out"], err), (argv, err)
        elif name == "export":
            assert rc == 0 and target.is_file(), argv
        else:
            report = json.loads(target.read_text())
            assert revalidate_report(report) == (rc == 0), argv


@pytest.mark.parametrize("text, item, argv", KNOWN)
def test_each_known_refusal_still_occurs(tmp_path, text, item, argv):
    # a class that no longer occurs has been removed (by ROADMAP item
    # ``item``, or otherwise): drop it from KNOWN
    rc, err, _ = _main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    (line,) = [x for x in err.splitlines() if "error:" in x]
    assert text in line
    given = {a for a in argv if a.startswith("--")}
    assert not set(re.findall(r"--[A-Za-z][\w-]*", line)) & given, line
