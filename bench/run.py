"""ramseykit benchmark: one seeded, answer-checked workload per run.

    python3 bench/run.py --workload rado --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Each pass sets up afresh (imports the package, draws the inputs
from the seed, builds the input objects and files) and then runs the whole
batch, one job at a time, checking every answer.  Passes repeat until the
next one would overrun --seconds.  The jobs are deterministic and
CPU-bound, so contention from other work on the machine only ever adds
time: wall_s is the fastest pass and each job's latency its fastest
repetition, while setup_s is the median set-up.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics; with --trace 1 the run
alternates untraced and traced passes and reports the per-layer metrics.
The lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
MIN_SETUPS = 5

sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from common import Crash, combined_digest, digest, median, tail  # noqa: E402

WORKLOADS = ("rado", "cst", "returns", "cli")

END_TO_END = {
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import ramseykit from the checkout as if for the first time."""
    for name in [n for n in sys.modules
                 if n == "ramseykit" or n.startswith("ramseykit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("ramseykit")
    if Path(lib.__file__).resolve().parent != SRC / "ramseykit":
        raise RuntimeError(f"imported ramseykit from {lib.__file__}, not {SRC}")
    return lib


def setup(name, seed, tracer=None, tiny=False, corrupt=False):
    """(jobs, seconds): import, seeded input generation, construction."""
    gc.collect()
    start = perf_counter()
    lib = fresh_import()
    if tracer is not None:
        spans.install(tracer)
    module = importlib.import_module("wl_" + name)
    jobs = module.build(lib, random.Random(f"{name}:{seed}"),
                        tiny=tiny, corrupt=corrupt, tracer=tracer)
    return jobs, perf_counter() - start


def run_pass(jobs, tracer=None):
    """Run the batch once.  Returns (wall seconds, records) with one record
    (latency s, digest, failure or None) per job id.

    A full garbage collection precedes each job, outside its latency, so
    that the garbage one job leaves is not charged to the next.
    """
    records = {}
    start = perf_counter()
    for job in jobs:
        gc.collect()
        if tracer is not None:
            tracer.job = job.id
        t0 = perf_counter()
        try:
            result = job.call()
            failure = None
        except Exception as exc:  # any exception is the job's failure
            result = None
            failure = Crash(f"raised {type(exc).__name__}: {exc}")
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.job = None  # the checks are not the program's work
        if failure is None:
            try:
                failure = job.check(result)
            except Exception as exc:
                failure = f"check raised {type(exc).__name__}: {exc}"
            answer = job.answer(result)
        else:
            answer = {"raised": failure}
        records[job.id] = (latency, digest(answer), failure)
    return perf_counter() - start, records


def _recorded_digests(name):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]["jobs"]


class Run:
    """Bookkeeping for every pass of one run."""

    def __init__(self, name, seed, tiny):
        self.name = name
        self.compare = None
        if seed == DEFAULT_SEED and not tiny:
            self.compare = _recorded_digests(name)
        self.attempted = 0
        self.failures = {}  # job id -> (failure, wrong answer?)
        self.first_digests = None

    def account(self, records, reference=None):
        """Count a pass; `reference` holds digests the pass must repeat."""
        for job_id, (_lat, dig, failure) in records.items():
            self.attempted += 1
            if failure is None and self.compare is not None \
                    and self.compare.get(job_id) != dig:
                failure = "digest differs from the recorded default-seed digest"
            if failure is None and reference is not None \
                    and reference.get(job_id) != dig:
                failure = "traced digest differs from the untraced digest"
            if failure is not None:
                key = (job_id, len(self.failures))
                self.failures[key] = (failure, not isinstance(failure, Crash))
        if self.first_digests is None:
            self.first_digests = {k: r[1] for k, r in records.items()}

    @property
    def failed(self):
        return len(self.failures)

    @property
    def correct(self):
        return not any(wrong for _f, wrong in self.failures.values())

    def failed_jobs(self):
        """{job id: first failure}"""
        out = {}
        for (job_id, _n), (failure, _wrong) in self.failures.items():
            out.setdefault(job_id, failure)
        return out


def _peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _per_job_latency_ms(passes):
    """Each job's latency in ms: its fastest over the passes.  The jobs are
    deterministic and CPU-bound, so contention from other work on the
    machine can only add time; the fastest repetition is the least
    disturbed one."""
    by_job = {}
    for records in passes:
        for job_id, (latency, _d, _f) in records.items():
            by_job.setdefault(job_id, []).append(latency * 1000.0)
    return [min(v) for v in by_job.values()]


def _fresh_process_s(code, repeats=5):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(perf_counter() - t0)
    return median(times)


def run_workload(name, seed, seconds, trace, tiny=False, corrupt=False):
    """One benchmark run.  Returns the result object printed last and the
    failed jobs, {job id: first failure}."""
    started = perf_counter()
    OUT.mkdir(exist_ok=True)
    run = Run(name, seed, tiny)
    setups, walls, passes = [], [], []
    traced_walls, layer_runs, tracers = [], [], []

    def budget_left(next_cost):
        return perf_counter() - started + next_cost <= seconds

    while True:
        jobs, setup_s = setup(name, seed, tiny=tiny, corrupt=corrupt)
        setups.append(setup_s)
        wall, records = run_pass(jobs)
        walls.append(wall)
        passes.append(records)
        run.account(records)
        cost = setup_s + wall
        if trace:
            tracer = spans.Tracer()
            tracers.append(tracer)
            jobs, _ = setup(name, seed, tracer=tracer, tiny=tiny, corrupt=corrupt)
            t_wall, t_records = run_pass(jobs, tracer)
            traced_walls.append(t_wall)
            run.account(t_records, reference=run.first_digests)
            layer_runs.append(spans.finish_layer_metrics(tracer.totals()))
            cost += t_wall + setup_s
        del jobs  # free this pass's inputs and results before the next setup
        if not budget_left(cost):
            break
    while len(setups) < MIN_SETUPS:
        setups.append(setup(name, seed, tiny=tiny, corrupt=corrupt)[1])

    failed_jobs = run.failed_jobs()
    for job_id, failure in failed_jobs.items():
        print(f"FAILED {name}/{job_id}: {failure}")
    per_job = _per_job_latency_ms(passes)
    tail_ms, tail_pct = tail(per_job)
    print(f"workload {name}  seed {seed}  passes {len(walls)}  "
          f"jobs {len(per_job)}  setups {len(setups)}")
    print("pass walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    print(f"workload digest {combined_digest(run.first_digests)}")
    print(f"job_ms.tail is the p{tail_pct:.1f} latency of {len(per_job)} jobs "
          f"(10 jobs beyond it; each job's fastest of {len(walls)} passes)")
    print(f"failed_ratio {run.failed / run.attempted:.6f} ratio "
          f"({run.failed} of {run.attempted} jobs)")

    if trace:
        # counts repeat exactly from pass to pass; times take the fastest
        metrics = {k: min(r[k] for r in layer_runs) for k in layer_runs[0]}
        metrics["cli.interpreter_s"] = _fresh_process_s("pass")
        metrics["cli.import_s"] = (_fresh_process_s("import ramseykit.cli")
                                   - metrics["cli.interpreter_s"])
        metrics["trace.overhead_s"] = min(traced_walls) - min(walls)
        units = spans.LAYER_METRICS
        path = OUT / f"trace-{name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"spans": t.spans, "counts": dict(t.counts)}
                       for t in tracers], fh)
    else:
        metrics = {
            "wall_s": min(walls),
            "job_ms.p50": median(per_job),
            "job_ms.tail": tail_ms,
            "setup_s": median(setups),
            "peak_rss_mb": _peak_rss_mb(name),
        }
        units = END_TO_END
    for key, unit in units.items():
        print(f"{key} {metrics[key]:.6g} {unit}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }, failed_jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramseykit" / "__init__.py").is_file():
        print(f"error: no ramseykit sources under {SRC}", file=sys.stderr)
        return 2
    result, _failed = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
