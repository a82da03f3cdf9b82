#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `warpcheck` command line.

Run from the root of a warpcheck checkout:

    python3 perfbench/run.py --workload cli-default --seed 0 --seconds 40 --trace 0

Each operation is one `warpcheck <scenario>` subprocess, run from a fresh
interpreter against the checkout's `src/`, one child at a time (a closed loop
with one client). A run repeats whole passes over the workload's argv list
for `--seconds` seconds and checks every operation's outputs.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
passes with passes whose children run under `perfbench/tracer.py` and prints
the per-layer metrics. `--workload all` runs every workload in both modes.
`--record-reference` runs every argv any seed can draw and rewrites
`perfbench/reference.json` with the expected exit codes and output digests.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; see `perfbench/README.md`.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.json"
# relative on purpose: reports embed the artifact paths, and the digests in
# the reference must not depend on where the checkout lives
WORK = Path(".perfbench_work")
OUT = WORK / "out"

CLI = "from warpcheck.cli import entrypoint; entrypoint()"
READY = "\nimport os\nos.write(1, b'r')\n"
# A fixed job that uses what warpcheck uses (a fresh interpreter, NumPy
# import, vector arithmetic, a sort, a Python loop) and none of its code.
# It runs right before every untraced operation, so that the two see the
# same phase of host load (see README, "Noise").
CALIBRATION = """
import numpy as np
x = np.linspace(0.0, 1.0, 200_000)
for _ in range(10):
    y = np.cumsum(np.sort(np.sin(x) * np.sqrt(x + 1.0)))
total = sum(i * i for i in range(100_000))
"""
# untraced passes per run at the least, so that a median has a middle
MIN_PASSES = 3
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60
# every child runs with one BLAS thread, the same on both sides of a
# comparison (CumulativeIntegral runs a matrix-vector product through BLAS)
BLAS_THREADS = 1

LAYERS = ("cli", "constructions", "profiles", "ode", "kernels", "quadrature",
          "curvature", "report")
BUILDERS = ("sha_yang_space", "neck_family_check", "collar_closability",
            "certify_collar", "gN_regions", "docking_ambient",
            "theorem22_hypotheses")

# per-layer metric -> (where it comes from in a pass's summed trace, unit)
LAYER_METRICS = {
    "cli.import_s": ("totals", "cli.import.s", "s"),
    "cli.main.self_s": ("self_s", "cli.main", "s"),
    **{f"constructions.{b}.self_s": ("self_s", f"constructions.{b}", "s")
       for b in BUILDERS},
    "constructions.certify_collar.calls":
        ("counts", "constructions.certify_collar.calls", "count"),
    "profiles.build.calls": ("counts", "profiles.build.calls", "count"),
    "profiles.build.s": ("totals", "profiles.build.s", "s"),
    **{f"profiles.eval.{fam}.{kind}": (src, f"profiles.eval.{fam}.{key}", unit)
       for fam in ("closed_form", "ivp", "quadrature")
       for kind, src, key, unit in (("points", "counts", "points", "count"),
                                    ("s", "totals", "s", "s"))},
    "profiles.eval.scalar_calls": ("counts", "profiles.eval.scalar.calls", "count"),
    "profiles.eval.scalar_s": ("totals", "profiles.eval.scalar.s", "s"),
    "ode.integrate.calls": ("counts", "ode.integrate.calls", "count"),
    "ode.integrate.s": ("totals", "ode.integrate.s", "s"),
    "ode.steps": ("counts", "ode.steps", "count"),
    "ode.nfev": ("counts", "ode.nfev", "count"),
    "ode.dense_eval.points": ("counts", "ode.dense_eval.points", "count"),
    "ode.dense_eval.s": ("totals", "ode.dense_eval.s", "s"),
    "kernels.dense_eval.calls": ("counts", "kernels.dense_eval.calls", "count"),
    "kernels.dense_eval.points": ("counts", "kernels.dense_eval.points", "count"),
    "kernels.dense_eval.s": ("totals", "kernels.dense_eval.s", "s"),
    "kernels.dense_eval.bytes_computed":
        ("counts", "kernels.dense_eval.bytes_computed", "bytes"),
    "kernels.rk45.s": ("totals", "kernels.rk45.s", "s"),
    "kernels.rk45.steps": ("counts", "kernels.rk45.steps", "count"),
    "quadrature.cumint.builds": ("counts", "quadrature.cumint.builds", "count"),
    "quadrature.cumint.build_s": ("totals", "quadrature.cumint.build.s", "s"),
    "quadrature.cumint.query_points":
        ("counts", "quadrature.cumint.query_points", "count"),
    "quadrature.cumint.integrand_points":
        ("counts", "quadrature.cumint.integrand_points", "count"),
    "quadrature.cumint.query_s": ("totals", "quadrature.cumint.query.s", "s"),
    "quadrature.adaptive.calls": ("counts", "quadrature.adaptive.calls", "count"),
    "quadrature.adaptive.integrand_points":
        ("counts", "quadrature.adaptive.integrand_points", "count"),
    "quadrature.adaptive.s": ("totals", "quadrature.adaptive.s", "s"),
    "curvature.ricci_report.calls":
        ("counts", "curvature.ricci_report.calls", "count"),
    "curvature.ricci_report.grid_points":
        ("counts", "curvature.ricci_report.grid_points", "count"),
    "curvature.ricci_report.self_s": ("self_s", "curvature.ricci_report", "s"),
    "curvature.volume.calls": ("counts", "curvature.volume.calls", "count"),
    "curvature.volume.s": ("totals", "curvature.volume.s", "s"),
    "curvature.boundary.calls": ("counts", "curvature.boundary.calls", "count"),
    "curvature.boundary.s": ("totals", "curvature.boundary.s", "s"),
    "report.json.bytes": ("counts", "report.json.bytes", "bytes"),
    "report.json.s": ("totals", "report.json.s", "s"),
    "report.csv.rows": ("counts", "report.csv.rows", "count"),
    "report.csv.bytes": ("counts", "report.csv.bytes", "bytes"),
    "report.csv.s": ("totals", "report.csv.s", "s"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, a broken interpreter)."""


@dataclass
class Child:
    """One finished subprocess: exit code, wall time from spawn to reaping,
    peak RSS, and the perf_counter instant it was reaped."""

    rc: int
    wall: float
    rss_mb: float
    t_reaped: float


class Spawner:
    """Starts one child at a time and reaps it with `os.wait4`; a watchdog
    alarm kills a child that outlives CHILD_TIMEOUT_S."""

    def __init__(self, env):
        self.env = env
        self.pid = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)

    def run(self, args, stdout, stderr) -> Child:
        """Run ``python3 args...`` with stdout and stderr sent to files."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        status, usage = self._reap(pid)
        t1 = time.perf_counter()
        return Child(os.waitstatus_to_exitcode(status), t1 - t0,
                     usage.ru_maxrss / 1024.0, t1)

    def calibrate(self, stdout, stderr) -> float:
        """Wall seconds of one run of the calibration job."""
        child = self.run(["-c", CALIBRATION], stdout, stderr)
        if child.rc != 0:
            raise BenchError(f"calibration job failed: "
                             f"{Path(stderr).read_text()[-500:]}")
        return child.wall

    def time_to_ready(self, code, stderr) -> float:
        """Seconds from spawning ``python3 -c code`` until the code has run
        (the child then signals on a pipe and exits)."""
        r, w = os.pipe()
        try:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, w, 1),
                       (os.POSIX_SPAWN_OPEN, 2, str(stderr),
                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable,
                                 [sys.executable, "-c", code + READY],
                                 self.env, file_actions=actions)
            os.close(w)
            w = None
            ready = os.read(r, 1)
            t1 = time.perf_counter()
            status, _ = self._reap(pid)
        finally:
            os.close(r)
            if w is not None:
                os.close(w)
        if ready != b"r" or status != 0:
            raise BenchError(f"interpreter did not start cleanly: "
                             f"{Path(stderr).read_text()[-500:]}")
        return t1 - t0

    def _reap(self, pid):
        self.pid = pid
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.pid = None
        return status, usage


@dataclass
class Checker:
    """Correctness of one operation's outputs against the reference and
    against its own earlier runs in this run."""

    reference: dict
    revalidate: object
    report_errors: tuple
    seen: dict = field(default_factory=dict)

    def outputs(self, argv, rc, stderr_text):
        """(reasons the operation failed, digests of its output files)."""
        reasons = []
        if "Traceback" in stderr_text:
            reasons.append("traceback on stderr")
        if argv[0] == "export":
            if rc != 0:
                reasons.append(f"export exited with {rc}")
        else:
            try:
                report = json.loads((OUT / f"{argv[0]}.json").read_bytes())
                overall = self.revalidate(report)
            except (OSError, *self.report_errors) as exc:
                reasons.append(f"report missing or rejected: {exc!r}")
            else:
                if rc != (0 if overall else 1):
                    reasons.append(f"exit code {rc} disagrees with "
                                   f"overall_pass={overall}")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(OUT.iterdir())}
        if not digests:
            reasons.append("no output files")
        return reasons, digests

    def check(self, argv, rc, stderr_text):
        reasons, digests = self.outputs(argv, rc, stderr_text)
        key = " ".join(argv)
        ref = self.reference.get(key)
        if ref is None:
            reasons.append("argv missing from the reference")
        elif "fails" in ref:
            reasons.append(f"fails at the reference too: {ref['fails']}")
        else:
            if ref["exit"] != rc:
                reasons.append(f"exit code {rc}, the reference has {ref['exit']}")
            if ref["digests"] != digests:
                reasons.append("output digests differ from the reference")
        if self.seen.setdefault(key, digests) != digests:
            reasons.append("output digests changed within the run")
        return reasons


@dataclass
class Pass:
    children: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    cal: list = field(default_factory=list)  # calibration wall times

    @property
    def wall(self):
        return sum(c.wall for c in self.children)

    @property
    def cost_cal(self):
        """The pass's wall time in units of its mean calibration job."""
        return self.wall * len(self.cal) / sum(self.cal)


def run_op(spawner, argv, trace_path=None):
    """Run one operation into an empty output directory, under the tracer
    when ``trace_path`` is given; returns the child and its stderr."""
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    full = [*argv, "--out", str(OUT)]
    if trace_path is None:
        args = ["-c", CLI, *full]
    else:
        trace_path.unlink(missing_ok=True)
        args = [str(TRACER), str(trace_path), *full]
    child = spawner.run(args, WORK / "stdout.txt", WORK / "stderr.txt")
    return child, (WORK / "stderr.txt").read_text(errors="replace")


def run_pass(spawner, checker, ops, traced, calibrate=False) -> Pass:
    """One pass over ``ops``; with ``calibrate``, a calibration job runs
    before each operation."""
    result = Pass()
    trace_path = WORK / "trace.json"
    for _, argv in ops:
        if calibrate:
            result.cal.append(spawner.calibrate(WORK / "stdout.txt",
                                                WORK / "stderr.txt"))
        child, stderr_text = run_op(spawner, argv, trace_path if traced else None)
        result.children.append(child)
        reasons = checker.check(argv, child.rc, stderr_text)
        if traced and not reasons:
            trace = json.loads(trace_path.read_text())
            trace["exit_s"] = child.t_reaped - trace["t_end"]
            result.traces.append(trace)
        if reasons:
            result.failures.append((" ".join(argv), reasons))
    return result


def sum_traces(traces) -> dict:
    """One pass's traces summed per source table and key."""
    out = {"self_s": {}, "totals": {}, "counts": {}, "exit_s": 0.0}
    for tr in traces:
        for table in ("self_s", "totals", "counts"):
            for key, value in tr[table].items():
                out[table][key] = out[table].get(key, 0) + value
        out["exit_s"] += tr["exit_s"]
    return out


def layer_values(summed) -> dict:
    values = {name: summed[src].get(key, 0)
              for name, (src, key, _) in LAYER_METRICS.items()}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            v for k, v in summed["self_s"].items() if k.split(".")[0] == layer)
    values["python.exit_s"] = summed["exit_s"]
    return values


def tail_percentile(n) -> int:
    """The highest whole percentile with at least ten of ``n`` samples
    beyond it, or 0 when there are fewer than twenty samples."""
    return 100 - -(-1000 // n) if n >= 20 else 0


def machine_facts() -> dict:
    import numpy
    from warpcheck import kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "dense_eval_path": ("numba loop" if kernels.USING_NUMBA
                            else "dense_eval_np"),
    }


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure(spawner, checker, workload, seed, seconds, traced):
    """Run passes of ``workload`` for ``seconds`` and return (metrics with
    units, attempted, failures, notes)."""
    ops = workloads.draw(workload, seed)
    err = WORK / "stderr.txt"
    deadline = time.perf_counter() + seconds
    plain, traced_passes, ready = [], [], []
    ready_code = "pass" if traced else "import warpcheck.cli"
    while True:
        t0 = time.perf_counter()
        ready.append(spawner.time_to_ready(ready_code, err))
        plain.append(run_pass(spawner, checker, ops, traced=False,
                              calibrate=not traced))
        if traced:
            traced_passes.append(run_pass(spawner, checker, ops, traced=True))
        round_s = time.perf_counter() - t0
        if (traced or len(plain) >= MIN_PASSES) and \
                time.perf_counter() + round_s > deadline:
            break
    while len(ready) < SETUP_SAMPLES:
        ready.append(spawner.time_to_ready(ready_code, err))

    passes = plain + traced_passes
    attempted = sum(len(p.children) for p in passes)
    failures = [f for p in passes for f in p.failures]
    notes = [f"workload {workload} seed {seed}: {len(ops)} operations per "
             f"pass, {len(plain)} untraced and {len(traced_passes)} traced "
             f"passes, {attempted} operations"]
    notes += [f"  op {op.label}: {' '.join(argv)}" for op, argv in ops]
    if not traced:
        walls = [c.wall for p in plain for c in p.children]
        cal = [c for p in plain for c in p.cal]
        metrics = {
            "setup_s": (statistics.median(ready), "s"),
            "pass_cost_cal": (statistics.median(p.cost_cal for p in plain),
                              "cal"),
            "peak_rss_mb": (statistics.median(
                max(c.rss_mb for c in p.children) for p in plain), "MB"),
            "success_ratio": (1.0 - len(failures) / attempted, "ratio"),
        }
        # printed, not JSON metrics: their run-to-run spread exceeds the
        # largest bound BENCHMARK.json allows (see README)
        tail = tail_percentile(len(walls))
        notes.append(f"wall_s_p50 = {statistics.median(walls):.6g} s "
                     f"(median of {len(walls)} wall samples)")
        if tail:
            notes.append(f"wall_s_p{tail} = "
                         f"{statistics.quantiles(walls, n=100)[tail - 1]:.6g} s "
                         f"(percentile {tail} of {len(walls)} wall samples)")
        notes.append(f"cal_s = {statistics.median(cal):.6g} s (median of "
                     f"{len(cal)} calibration jobs)")
        notes.append(f"pass_wall_s = "
                     f"{statistics.median(p.wall for p in plain):.6g} s "
                     f"(median over {len(plain)} passes)")
        notes.append(f"failure_ratio = {len(failures) / attempted:.6g} ratio "
                     f"({len(failures)} failed / {attempted} attempted)")
        return metrics, attempted, failures, notes

    clean = [p for p in traced_passes if len(p.traces) == len(ops)]
    if not clean:
        return {}, attempted, failures, notes
    per_pass = [layer_values(sum_traces(p.traces)) for p in clean]
    units = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
    metrics = {}
    for name in per_pass[0]:
        values = [v[name] for v in per_pass]
        unit = units.get(name, "s")
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                failures.append((workload, [f"count {name} differs between "
                                            f"traced passes: {values}"]))
            metrics[name] = (values[0], unit)
    startup = statistics.median(ready)
    traced_wall = statistics.median(p.wall for p in clean)
    plain_wall = statistics.median(p.wall for p in plain)
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    metrics["python.startup_s"] = (startup, "s")
    metrics["trace.pass_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.unaccounted_s"] = (
        traced_wall - self_sum - len(ops) * startup
        - metrics["python.exit_s"][0], "s")
    return metrics, attempted, failures, notes


def record_reference(spawner, checker):
    """Run every argv any seed can draw twice and record its exit code and
    output digests, or why it fails. An exit code other than the one the
    workload intends is recorded as it is and printed as a finding."""
    entries = {}
    for workload in workloads.WORKLOADS:
        for op, argv in workloads.all_argvs(workload):
            key = " ".join(argv)
            if key in entries:
                continue
            runs = []
            for _ in range(2):
                child, stderr_text = run_op(spawner, argv)
                runs.append((child.rc, *checker.outputs(argv, child.rc,
                                                        stderr_text)))
            (rc, reasons, digests), (rc_again, _, again) = runs
            if (rc, digests) != (rc_again, again):
                reasons.append("exit code or output digests differ between "
                               "two runs")
            entries[key] = ({"fails": "; ".join(reasons)} if reasons
                            else {"exit": rc, "digests": digests})
            status = "FAIL" if reasons else "ok"
            if not reasons and rc != op.expect_exit:
                status = f"finding: exit {rc}, intended {op.expect_exit}"
            print(f"{status}: {key}", flush=True)
    return entries


def run_one(spawner, checker, facts, workload, seed, seconds, trace):
    metrics, attempted, failures, notes = measure(
        spawner, checker, workload, seed, seconds, bool(trace))
    print("machine: " + json.dumps(facts, sort_keys=True))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for key, reasons in failures[:20]:
        print(f"FAILED {key}: {'; '.join(reasons)}")
    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "warpcheck" / "cli.py").is_file():
        print(f"error: no warpcheck checkout here ({src / 'warpcheck'} is "
              "missing); run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from warpcheck.errors import WarpcheckError
    from warpcheck.report import revalidate_report

    reference = ({} if args.record_reference
                 else json.loads(REFERENCE.read_text())["argvs"])
    checker = Checker(reference, revalidate_report,
                      (WarpcheckError, KeyError, TypeError, ValueError))
    WORK.mkdir(exist_ok=True)
    spawner = Spawner(child_env(src))
    try:
        # compiles bytecode and warms the file cache; not measured
        spawner.time_to_ready("import warpcheck.cli", WORK / "stderr.txt")
        facts = machine_facts()
        if args.record_reference:
            entries = record_reference(spawner, checker)
            REFERENCE.write_text(json.dumps(
                {"recorded_on": facts, "argvs": entries},
                indent=1, sort_keys=True) + "\n")
            return 0
        jobs = ([(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
                if args.workload == "all" else [(args.workload, args.trace)])
        ok = True
        for workload, trace in jobs:
            ok &= run_one(spawner, checker, facts, workload, args.seed,
                          args.seconds, trace)
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
