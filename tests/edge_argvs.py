"""Exit codes and output digests of a fixed list of edge argvs.

A refusal change must keep every exit code and every written byte. This
script builds a fixed-seed list of argvs from the flag declarations of one
checkout and runs it, in process, against one or two checkouts:

    python tests/edge_argvs.py DECLARING_SRC RUN_SRC OUT.json
    python tests/edge_argvs.py --compare PARENT.json CHANGE.json

Each scenario, glue mode and export profile is run with each flag set in
turn to each of its edge values, the others typical: the bounds its type
declares (lo - 1, lo, hi, hi + 1 and their float neighbours; --grid's
ceiling, a sweep of minutes, is left out) and the value classes below; then
45 random combinations of those values per mode. ``--compare`` prints the
exit-code counts of both, every argv whose exit code or exit-0/1 digests
differ, and the classes of exit-2 messages that name no flag of their argv.
"""
import collections
import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path

INTS = ["3", "4", "2", "5", "1", "0", "-1", "7", "9", "10", "437", "438",
        "439", "1000000", str(10 ** 400), "x", "", "1.5"]
FLOATS = ["0.1", "0.5", "1", "2", "1000", "0", "-0", "+0.0", "5e-324",
          "2.2250738585072014e-308", "1e-300", "1e300", "1e308", "-1",
          "-1e308", "nan", "inf", "-inf", "x", "", "1e-14", "1e-154",
          "1e-200", "1e154", "1e103", "1e307", "6.5e307", "0.001", "0.004",
          "0.75", "0.7405", "50000", "50001", "1e-5", "1e-20"]
NECK_S = ["0.5,5e-324", "0.5,0.25", "1e-12", "7.85"]
TYPICAL = {"n": "3", "m": "2", "T": "50", "nu": "0.1", "s": "0.5",
           "c_max": "0.45", "kappa": "1", "eps_prime": "0.2", "members": "1",
           "ric_deficit": "0", "dim": "2", "r1": "1", "k1": "1", "r2": "1",
           "k2": "1", "c": "0.1", "grid": "17"}


def _dest(flag):
    return flag[2:].replace("-", "_")


def _edges(flag, kind):
    out = []
    for b in (getattr(kind, "lo", -math.inf), getattr(kind, "hi", math.inf)):
        if math.isinf(b):
            continue
        if isinstance(b, int):
            out += [str(b - 1), str(b), str(b + 1)]
        else:
            out += [repr(b - 1), repr(math.nextafter(b, -math.inf)), repr(b),
                    repr(math.nextafter(b, math.inf)), repr(b + 1)]
    if flag == "--grid":
        out = [v for v in out if not kind.hi - 1 <= int(v) <= kind.hi]
    return out


def argvs():
    """The fixed list, from the declarations of the imported warpcheck."""
    from warpcheck import cli
    from warpcheck.constructions import SCENARIOS
    rng = random.Random(20261021)
    out = []
    for name, s in SCENARIOS.items():
        flags = {f[0]: kw for f, kw in s.args}
        flags.update({f: cli._SHARED[f] for f in s.common if f != "--csv"})
        modes = [([name], flags)]
        if s.mode is not None:
            dest, table = s.mode
            moded = set().union(*table.values())
            modes = [([name] + ([f"--{dest}", value] if value else []),
                      {f: kw for f, kw in flags.items() if _dest(f) in reads
                       or _dest(f) not in moded and _dest(f) != dest})
                     for value, reads in table.items()]
        for head, own in modes:
            values = {f: list(dict.fromkeys(_edges(f, kw.get("type")) + (
                INTS if getattr(kw.get("type"), "__name__", "") == "int"
                else FLOATS + (NECK_S if head == ["neck"] and f == "--s"
                               else [])))) for f, kw in own.items()}
            base = {f: TYPICAL[_dest(f)] for f in own}
            if head == ["thm22"]:
                base["--n"] = "4"
            if head[1:] == ["--example", "hemisphere"]:
                base["--n"] = "4"
            runs = [dict(base, **{f: v}) for f in own for v in values[f]]
            runs += [{f: rng.choice(values[f]) if rng.random() < 0.6
                      else base[f] for f in base} for _ in range(45)]
            out += [head + [f"{f}={v}" for f, v in run.items()]
                    for run in runs]
    return [json.loads(a) for a in dict.fromkeys(map(json.dumps, out))]


def run(argv_list):
    from warpcheck import cli
    results = []
    for argv in argv_list:
        with tempfile.TemporaryDirectory() as tmp:
            out, err = Path(tmp) / "o", io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    rc = cli.main([*argv, "--out", str(out)])
                except SystemExit as exc:
                    rc = exc.code
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())} if out.is_dir() else {}
            lines = [x for x in err.getvalue().splitlines() if "error:" in x]
            results.append({"argv": argv, "rc": rc, "digests": digests,
                            "error": lines[0] if lines else None})
    return results


def unnamed(results):
    """Exit-2 message classes (numbers blanked) naming no flag of the argv."""
    classes = collections.Counter()
    for r in results:
        given = {a.partition("=")[0] for a in r["argv"] if a.startswith("--")}
        named = set(re.findall(r"--[A-Za-z][\w-]*", r["error"] or ""))
        if r["rc"] == 2 and not given & named:
            classes[r["argv"][0], re.sub(r"-?\d[\d.e+-]*|inf|nan", "#",
                                         r["error"] or "")] += 1
    return classes


def main(args):
    if args[0] == "--compare":
        parent, change = (json.loads(Path(p).read_text()) for p in args[1:])
        for results in (parent, change):
            print(collections.Counter(r["rc"] for r in results))
        differ = [(p["argv"], p["rc"], c["rc"]) for p, c in zip(parent, change)
                  if p["argv"] != c["argv"] or p["rc"] != c["rc"]
                  or p["rc"] in (0, 1) and p["digests"] != c["digests"]]
        print(len(parent), "argvs,", len(differ), "differ")
        for d in differ:
            print(*d)
        for (name, text), count in sorted(unnamed(change).items()):
            print(f"{count:4d} {name}: {text}")
        return 1 if differ else 0
    declaring, running, out = args
    sys.path.insert(0, declaring)
    argv_list = argvs()
    for name in [m for m in sys.modules if m.split(".")[0] == "warpcheck"]:
        del sys.modules[name]
    sys.path[0] = running
    Path(out).write_text(json.dumps(run(argv_list)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
