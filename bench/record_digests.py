"""Record the default seed's answer digests into bench/digests.json.

    python3 bench/record_digests.py

Runs one untraced pass of every workload on the default seed.  Later runs
on that seed count a job whose digest differs as failed, so rerun this only
when a change to the outputs is intended, and say so in the change.
"""

import json
import sys

import run
from common import combined_digest


def main() -> int:
    recorded = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name in run.WORKLOADS:
        jobs, _ = run.setup(name, run.DEFAULT_SEED)
        _wall, records = run.run_pass(jobs)
        digests = {job_id: rec[1] for job_id, rec in sorted(records.items())}
        recorded["workloads"][name] = {"digest": combined_digest(digests),
                                       "jobs": digests}
        failed = sorted(k for k, rec in records.items() if rec[2] is not None)
        print(f"{name}: {len(digests)} jobs, digest "
              f"{recorded['workloads'][name]['digest']}, failing now: {failed}")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
