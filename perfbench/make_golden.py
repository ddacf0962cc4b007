"""Regenerate perfbench/golden.json: digests of every job's exact output.

    python3 perfbench/make_golden.py

Builds each workload, full-size and tiny, with every input that any seed
can draw (``workloads.build(..., every=True)``), runs one untraced pass and
records, per job key, the digest of its output.  It refuses to write if any
check fails or if one key yields two digests.  Only regenerate after a
change that is meant to alter an exact output, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    run.configure_environment()
    import workloads

    golden = {}
    for name in run.WORKLOADS:
        table = golden.setdefault(name, {})
        for tiny in (False, True):
            jobs = workloads.build(name, run.DEFAULT_SEED, tiny=tiny, every=True)
            digests, problems = run.judge(jobs, run.run_pass(jobs)[1], None)
            for job, d, found in zip(jobs, digests, problems):
                if found:
                    sys.exit("%s %s: %s" % (name, job.key, found))
                if table.setdefault(job.key, d) != d:
                    sys.exit("%s %s: two digests" % (name, job.key))
            print("%s tiny=%s: %d jobs" % (name, tiny, len(jobs)), flush=True)
    with open(run.HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
