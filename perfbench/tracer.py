"""Run one `warpcheck` command with per-layer spans and counters.

Usage: python3 perfbench/tracer.py TRACE_JSON ARGV...

Behaves like `warpcheck ARGV...` (same outputs, same exit code) and writes the
spans' totals to TRACE_JSON. No file of the program changes: the tracer wraps
the public functions and methods of each warpcheck module from outside.

Wrappers are installed where the names are looked up, not only where they are
defined. `constructions`, `curvature`, `profiles` and `cli` bind names such as
`ricci_report` or `k_profile` with `from .x import y`, so a wrapper set on the
defining module after the package is imported would record nothing. An
import hook therefore wraps each module's functions right after the module
body has run and before any importer binds them; import-time work (the bump
normalisation quadrature in `profiles`) is recorded too. After the import, a
scan fails the run if any public binding still holds an unwrapped function.

Every span has a name, whose layer is the part before the first dot. A
layer's self time is the time spent in its spans minus the time of the spans
they caused; self times of all spans partition the time from the start of
the import to the return of `cli.main`. Per-group totals (`<group>.s`) count
only outermost spans of the group, so nested calls are not counted twice;
`<group>.calls` likewise counts calls from outside the group.
"""
from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import json
import os
import sys
import time
from collections import defaultdict

# 8-byte reads of the query point and of the 8 node values it gathers (t, f,
# f', f'' at both segment ends) plus the two 8-byte results, per point
DENSE_EVAL_BYTES_PER_POINT = 8 * (1 + 8 + 2)

# which family a profile's raw evaluator comes from, by the function that
# built it; spliced, mollified and scaled profiles count as "other"
PROFILE_FAMILY = {
    "closed_form_profile": "closed_form",
    "profile_from_callable": "closed_form",
    "_profile_from_solution": "ivp",
    "sha_yang_profiles": "ivp",
    "k_profile": "quadrature",
    "collar_profile": "quadrature",
}


class Tracer:
    """Nested spans with per-name self time, per-group totals and counters."""

    def __init__(self):
        self.stack = []  # one [child seconds] cell per open span
        self.depth = defaultdict(int)
        self.self_s = defaultdict(float)
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        self.originals = {}  # id -> function replaced by a wrapper

    def enter(self, group):
        self.stack.append([0.0])
        self.depth[group] += 1
        if self.depth[group] == 1:
            self.counts[group + ".calls"] += 1
        return time.perf_counter()

    def leave(self, name, group, t0):
        dt = time.perf_counter() - t0
        cell = self.stack.pop()
        self.self_s[name] += dt - cell[0]
        if self.stack:
            self.stack[-1][0] += dt
        self.depth[group] -= 1
        if self.depth[group] == 0:
            self.totals[group + ".s"] += dt

    def wrap(self, fn, name, count=None, group_of=None):
        """Wrap ``fn`` in a span named ``name``. ``group_of(args)`` picks the
        group per call (default: ``name``); ``count(args, kwargs, result,
        group)`` yields counter increments."""
        tracer = self

        def wrapper(*args, **kwargs):
            group = group_of(args) if group_of else name
            t0 = tracer.enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(name, group, t0)
            if count is not None:
                for key, inc in count(args, kwargs, result, group):
                    tracer.counts[key] += inc
            return result

        self.originals[id(fn)] = fn
        return functools.update_wrapper(wrapper, fn)

    @contextlib.contextmanager
    def span(self, name):
        """A span around code that is not a function call."""
        t0 = self.enter(name)
        try:
            yield
        finally:
            self.leave(name, name, t0)


def _size(x):
    return int(getattr(x, "size", 1))


def _profile_group(args):
    profile, t = args[0], args[1]
    if getattr(t, "ndim", 0) == 0 and not isinstance(t, (list, tuple)):
        return "profiles.eval.scalar"
    qual = getattr(profile.raw_eval, "__qualname__", "")
    family = PROFILE_FAMILY.get(qual.split(".<locals>")[0], "other")
    return f"profiles.eval.{family}"


def _profile_points(args, kwargs, result, group):
    if group == "profiles.eval.scalar":
        return ()
    return ((group + ".points", _size(args[1])),)


def _file_bytes(result):
    return os.path.getsize(result)


# module -> {attribute path: (span name, counter)}; a span name's layer
# is the part before its first dot. factors and errors do negligible work and
# are not wrapped: their time counts to the caller.
SPECS = {
    "warpcheck.kernels": {
        "dense_eval": ("kernels.dense_eval", lambda a, k, r, g: (
            ("kernels.dense_eval.points", _size(a[4])),
            ("kernels.dense_eval.bytes_computed",
             DENSE_EVAL_BYTES_PER_POINT * _size(a[4])))),
        "rk45_coded": ("kernels.rk45", lambda a, k, r, g: (
            ("kernels.rk45.steps", len(r[0]) - 1),)),
        "rk45_callback": ("kernels.rk45", lambda a, k, r, g: (
            ("kernels.rk45.steps", len(r[0]) - 1),)),
    },
    "warpcheck.quadrature": {
        "CumulativeIntegral.__init__": (
            "quadrature.cumint.build", lambda a, k, r, g: (
                ("quadrature.cumint.builds", 1),
                ("quadrature.cumint.integrand_points",
                 (a[0].edges.size - 1) * a[0]._x.size))),
        "CumulativeIntegral.__call__": (
            "quadrature.cumint.query", lambda a, k, r, g: (
                ("quadrature.cumint.query_points", _size(a[1])),
                ("quadrature.cumint.integrand_points",
                 _size(a[1]) * a[0]._x.size))),
    },
    "warpcheck.ode": {
        "integrate_ivp": ("ode.integrate", lambda a, k, r, g: (
            ("ode.steps", len(r.ts) - 1), ("ode.nfev", r.nfev))),
        "DenseSolution.eval": ("ode.dense_eval", lambda a, k, r, g: (
            ("ode.dense_eval.points", _size(a[1])),)),
        "DenseSolution.defect": ("ode.defect", None),
    },
    "warpcheck.profiles": {
        **{fn: ("profiles.build", None) for fn in (
            "closed_form_profile", "profile_from_callable",
            "solve_ivp_profile", "sha_yang_profiles",
            "closability_ode_profile", "neck_profile", "k_profile",
            "collar_profile", "docking_R_profile", "splice_profiles",
            "mollify_profile", "scale_profile")},
        **{fn: ("profiles.checks", None) for fn in (
            "parity_check", "radial_floor_value", "finite_difference_residual",
            "WarpProfile.sample", "WarpProfile.restrict")},
    },
    "warpcheck.curvature": {
        "ricci_report": ("curvature.ricci_report", lambda a, k, r, g: (
            ("curvature.ricci_report.grid_points", len(r.grid)),)),
        "volume": ("curvature.volume", None),
        "boundary_data": ("curvature.boundary", None),
        "second_fundamental_form": ("curvature.boundary", None),
        "glue_check": ("curvature.glue", None),
        "ricci_components": ("curvature.components", None),
        "ricci_generic": ("curvature.components", None),
        "rescale_metric": ("curvature.rescale", None),
        "MultiWarpedMetric.__post_init__": ("curvature.metric", None),
    },
    "warpcheck.constructions": {
        fn: (f"constructions.{fn}", None) for fn in (
            "round_boundary", "certified_core", "sha_yang_space",
            "cone_asymptotics", "neck_family_check", "certify_collar",
            "collar_closability", "gN_regions", "docking_ambient",
            "theorem22_hypotheses", "CertifiedBlock.scaled")
    },
    "warpcheck.report": {
        "ScenarioVerdict.to_report": ("report.json", None),
        "write_report": ("report.json", lambda a, k, r, g: (
            ("report.json.bytes", _file_bytes(r)),)),
        "report_bytes": ("report.json", None),
        "ScenarioVerdict.summary_lines": ("report.summary", None),
        "revalidate_report": ("report.revalidate", None),
        "write_profile_csv": ("report.csv", lambda a, k, r, g: (
            ("report.csv.rows", int(a[2] if len(a) > 2 else k["grid_size"])),
            ("report.csv.bytes", _file_bytes(r)))),
    },
    "warpcheck.cli": {
        "main": ("cli.main", None),
    },
}


def _patch_module(tracer, module):
    for path, (name, count) in SPECS.get(module.__name__, {}).items():
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(fn, name, count))
    if module.__name__ == "warpcheck.quadrature":
        _patch_adaptive(tracer, module)
    elif module.__name__ == "warpcheck.profiles":
        cls = module.WarpProfile
        cls.eval = tracer.wrap(cls.eval, "profiles.eval", count=_profile_points,
                               group_of=_profile_group)


def _patch_adaptive(tracer, module):
    """adaptive_quad, counting the points its integrand is evaluated at."""
    inner = tracer.wrap(module.adaptive_quad, "quadrature.adaptive")

    def adaptive_quad(fn, *args, **kwargs):
        def counted(x):
            tracer.counts["quadrature.adaptive.integrand_points"] += _size(x)
            return fn(x)

        return inner(counted, *args, **kwargs)

    module.adaptive_quad = functools.update_wrapper(adaptive_quad, inner)


class _PatchingFinder:
    """Meta-path finder that patches each warpcheck module right after its
    body has executed."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname.split(".")[0] != "warpcheck":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_patch(module):
            exec_module(module)
            _patch_module(tracer, module)

        spec.loader.exec_module = exec_and_patch
        return spec


def stale_bindings(tracer):
    """Public names in warpcheck modules that still hold a function the
    tracer replaced; each one would be a call the trace misses."""
    stale = []
    for modname, module in sorted(sys.modules.items()):
        if modname.split(".")[0] != "warpcheck":
            continue
        for attr, value in vars(module).items():
            if not attr.startswith("_") and id(value) in tracer.originals \
                    and tracer.originals[id(value)] is value:
                stale.append(f"{modname}.{attr}")
    return stale


def install() -> Tracer:
    """A tracer whose import hook wraps warpcheck modules as they load."""
    tracer = Tracer()
    sys.meta_path.insert(0, _PatchingFinder(tracer))
    return tracer


def main(trace_path, argv):
    tracer = install()
    with tracer.span("cli.import"):
        import warpcheck.cli
    stale = stale_bindings(tracer)
    if stale:
        raise RuntimeError(f"unwrapped bindings left: {stale}")
    rc = warpcheck.cli.main(argv)
    t_end = time.perf_counter()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"t_end": t_end, "self_s": tracer.self_s,
                   "totals": tracer.totals, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
