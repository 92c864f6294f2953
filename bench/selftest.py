"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload (also `returns`, which BENCHMARK.json leaves out) once
untraced and once traced on tiny inputs, checks
that each metric named in BENCHMARK.json is reported with its unit, and then
corrupts one expected answer (the known value W(2;3) = 9) to check that the
benchmark counts that job as failed and the run as incorrect.  Exits 0 when
all of this holds.
"""

import importlib
import json
import sys

import run
import spans


def _metric_problems(label, got, expected):
    problems = []
    for key, unit in expected.items():
        if key not in got:
            problems.append(f"{label}: metric {key} missing")
        elif got[key]["unit"] != unit:
            problems.append(f"{label}: {key} in {got[key]['unit']}, not {unit}")
    problems += [f"{label}: unexpected metric {k}" for k in got if k not in expected]
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != spans.LAYER_METRICS:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.py lacks")

    for name in run.WORKLOADS:
        known = importlib.import_module("wl_" + name).KNOWN_DEFECTS
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{name} trace={trace}"
            result, failed = run.run_workload(name, 1, 0, trace, tiny=True)
            problems += _metric_problems(label, result["metrics"], expected)
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: wrong answers at the tiny size")
            problems += [f"{label}: {job} failed: {why}"
                         for job, why in failed.items() if not job.startswith(known)]

    result, failed = run.run_workload("rado", 1, 0, 0, tiny=True, corrupt=True)
    if list(failed) != ["forcing-W(2;3)-0"] or result["correct"]:
        problems.append("a corrupted expected answer was not counted as failed")

    for problem in problems:
        print("SELFTEST PROBLEM:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
