"""Span recording around the public functions of each ramseykit module.

The wrappers live here, in the benchmark, so the program itself stays
untouched.  A span is (name, start, end, parent, job): `parent` is the index
of the enclosing span or -1, `job` the id of the job that was running.
Spans stay in memory and are written out once, when the run ends.

The modules bind imported names at import time (`rado` holds its own
reference to `exactq.in_column_span`, `cst` to `deuber.generate_mpc`, and so
on), so installing a wrapper rebinds the name in every ramseykit module whose
namespace holds the original object, not only in the defining module.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, metric prefix).  Every entry yields `.calls` and
# `.self_s`; the extra counts are filled in by the hooks in `_COUNTS`.
FUNCTIONS = [
    ("exactq", "reduced_row_echelon", "exactq.reduced_row_echelon"),
    ("exactq", "in_column_span", "exactq.in_column_span"),
    ("rado", "columns_condition", "rado.columns_condition"),
    ("rado", "verify_certificate", "rado.verify_certificate"),
    ("rado", "enumerate_solutions", "rado.enumerate_solutions"),
    ("rado", "empirical_pr", "rado.empirical_pr"),
    ("rado", "forcing_number", "rado.forcing_number"),
    ("rado", "solve_in_cell", "rado.solve_in_cell"),
    ("windows", "SetWindow.__post_init__", "windows.SetWindow.construct"),
    ("windows", "SetWindow.from_expression", "windows.SetWindow.from_expression"),
    ("ipcore", "fs_enumerate", "ipcore.fs_enumerate"),
    ("ipcore", "ip_term", "ipcore.ip_term"),
    ("ipcore", "find_divisible_subsequence", "ipcore.find_divisible_subsequence"),
    ("ipcore", "IPSystemSpec.parse", "ipcore.IPSystemSpec.parse"),
    ("deuber", "generate_mpc", "deuber.generate_mpc"),
    ("deuber", "verify_mpc", "deuber.verify_mpc"),
    ("deuber", "contains_mpc", "deuber.contains_mpc"),
    ("cst", "cst_search", "cst.cst_search"),
    ("cst", "verify_cst_witness", "cst.verify_cst_witness"),
    ("cst", "mpc_from_cst", "cst.mpc_from_cst"),
    ("dynsets", "orbit_hits", "dynsets.orbit_hits"),
    ("dynsets", "banach_density_estimate", "dynsets.banach_density_estimate"),
    ("dynsets", "syndetic_gap", "dynsets.syndetic_gap"),
    ("dynsets", "piecewise_syndetic_window", "dynsets.piecewise_syndetic_window"),
    ("dynsets", "strauss_set", "dynsets.strauss_set"),
    ("dynsets", "parse_system", "dynsets.parse_system"),
    ("dynsets", "parse_point", "dynsets.parse_point"),
    ("dynsets", "parse_target", "dynsets.parse_target"),
]

MEMBER_SET = "windows.SetWindow.member_set"
CLI_RUN = "cli.run"


# A count hook gets (tracer, call args, result, index of the parent span).

def _count(key, size):
    def hook(tracer, args, result, parent):
        tracer.counts[key] += size(result)
    return hook


def _count_solutions(tracer, args, result, parent):
    tracer.counts["rado.enumerate_solutions.solutions"] += len(result)
    # the denominator of solve_in_cell.useful_ratio: solutions enumerated
    # on behalf of a solve_in_cell call
    if parent >= 0 and tracer.names[parent] == "rado.solve_in_cell":
        tracer.counts["rado.solve_in_cell.enumerated"] += len(result)


def _count_returned(tracer, args, result, parent):
    tracer.counts["rado.solve_in_cell.returned"] += result is not None


def _count_cst(tracer, args, result, parent):
    key = "witnesses" if result is not None else "refutations"
    tracer.counts["cst.cst_search." + key] += 1


def _count_members(tracer, args, result, parent):
    tracer.counts["windows.SetWindow.construct.members"] += len(args[0].members)


_COUNTS = {
    "rado.enumerate_solutions": _count_solutions,
    "rado.solve_in_cell": _count_returned,
    "windows.SetWindow.construct": _count_members,
    "ipcore.fs_enumerate": _count("ipcore.fs_enumerate.sums", len),
    "deuber.generate_mpc": _count("deuber.generate_mpc.values",
                                  lambda system: len(system.values)),
    "cst.cst_search": _count_cst,
    # one orbit step per time in [1..horizon]
    "dynsets.orbit_hits": _count("dynsets.orbit_hits.steps",
                                 lambda result: result.window.horizon),
}

# metric name -> unit, in report order: the per-layer metric list
LAYER_METRICS: dict[str, str] = {}
for _mod, _attr, _name in FUNCTIONS:
    LAYER_METRICS[_name + ".calls"] = "count"
    LAYER_METRICS[_name + ".self_s"] = "s"
    if _name == "windows.SetWindow.construct":
        LAYER_METRICS[_name + ".members"] = "count"
        LAYER_METRICS[MEMBER_SET + ".calls"] = "count"
        LAYER_METRICS[MEMBER_SET + ".self_s"] = "s"
        LAYER_METRICS[MEMBER_SET + ".builds"] = "count"
LAYER_METRICS.update({
    "rado.enumerate_solutions.solutions": "count",
    "rado.solve_in_cell.useful_ratio": "ratio",
    "ipcore.fs_enumerate.sums": "count",
    "deuber.generate_mpc.values": "count",
    "cst.cst_search.witnesses": "count",
    "cst.cst_search.refutations": "count",
    "dynsets.orbit_hits.steps": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
})


class Tracer:
    """In-memory span and counter store for one traced pass.

    `job` names the job running now; while it is None (the benchmark's own
    answer checks) the wrappers record nothing.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = "setup"
        # span files written by traced child processes (the cli workload)
        self.child_files: list = []

    def wrap(self, name, fn):
        hook = _COUNTS.get(name)

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            stack = self.stack
            idx = len(self.spans)
            self.names.append(name)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(self, args, result, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def member_set_descriptor(self, build):
        """A data descriptor standing in for the `member_set` cached
        property: it counts every access and records a span per build."""
        traced_build = self.wrap(MEMBER_SET, build)
        tracer = self

        class MemberSet:
            def __get__(self, obj, cls=None):
                if obj is None:
                    return self
                counting = tracer.job is not None
                if counting:
                    tracer.counts[MEMBER_SET + ".calls"] += 1
                cache = obj.__dict__
                try:
                    return cache["member_set"]
                except KeyError:
                    if counting:
                        tracer.counts[MEMBER_SET + ".builds"] += 1
                    value = cache["member_set"] = traced_build(obj)
                    return value

            def __set__(self, obj, value):
                raise AttributeError("member_set is read-only")

        return MemberSet()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def totals(self) -> dict[str, float]:
        """Layer totals over this process and its traced children."""
        out = layer_totals(self.spans, self.counts)
        for path in self.child_files:
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
            for key, value in layer_totals(child["spans"], child["counts"]).items():
                out[key] += value
        return out


def _rebind(original, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "ramseykit" and not mod_name.startswith("ramseykit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer, with_cli: bool = False) -> None:
    """Wrap every listed function of the freshly imported ramseykit."""
    for mod_name, path, name in FUNCTIONS:
        mod = sys.modules["ramseykit." + mod_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw))
        else:
            original = getattr(mod, attr)
            _rebind(original, tracer.wrap(name, original))
    window_cls = sys.modules["ramseykit.windows"].SetWindow
    window_cls.member_set = tracer.member_set_descriptor(
        window_cls.__dict__["member_set"].func)
    if with_cli:
        cli = sys.modules["ramseykit.cli"]
        cli.run = tracer.wrap(CLI_RUN, cli.run)


def layer_totals(spans, counts) -> dict[str, float]:
    """calls and self time per span name, plus the recorded counts.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent, _job) in enumerate(spans):
        if name != MEMBER_SET:  # its calls are accesses, counted apart
            out[name + ".calls"] += 1
        out[name + ".self_s"] += (end - start) - child_time[idx]
    for key, value in counts.items():
        out[key] += value
    return out


def finish_layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric by name (0 where the layer was not used)."""
    totals = dict(totals)
    enumerated = totals.pop("rado.solve_in_cell.enumerated", 0)
    returned = totals.pop("rado.solve_in_cell.returned", 0)
    totals["rado.solve_in_cell.useful_ratio"] = (
        returned / enumerated if enumerated else 0.0)
    return {name: float(totals.get(name, 0.0)) for name in LAYER_METRICS}
