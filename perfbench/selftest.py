"""Fast self-test of the benchmark on tiny versions of its four workloads.

    python3 perfbench/selftest.py

Runs each tiny job untraced and twice traced, and checks that every run
passes the result checker, that tracing leaves stdout byte-identical, and
that the two traced runs count exactly the same calls.  Runs the Promislow
right-invariance job at radius 2 once, which checks its captured first
counterexample.  Then checks that the checker flags a wrong expectation, a
missing field and a wrong exit code, but not a field the program adds.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import sys
import time

from run import WORK, Runner
from jobs import check_output, tiny_workloads, validate_promislow


def call_counts(trace: dict) -> dict:
    return {
        "boundaries": [[name, parent, calls, hits]
                       for name, parent, calls, _, _, hits in trace["boundaries"]],
        "counts": trace["counts"],
    }


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    raise SystemExit(1)


def main() -> int:
    work = WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, time.perf_counter() + 600)
        sample = None
        index = 0
        for workload, jobs in tiny_workloads(random.Random(0)).items():
            for job in jobs:
                for name, text in job.files.items():
                    (work / name).write_text(text)
                runs = [runner.run(index, job)]
                counts = []
                for _ in range(2):
                    trace_out = work / "trace.json"
                    runs.append(runner.run(index, job, trace_out))
                    counts.append(call_counts(json.loads(trace_out.read_text())))
                for run in runs:
                    if run.problems:
                        fail(f"{workload}: {job.label}: {run.problems}")
                if counts[0] != counts[1]:
                    fail(f"{workload}: {job.label}: traced call counts differ between runs")
                print(f"ok {workload}: {job.label} "
                      f"({runs[0].outcome.wall_s:.2f} s, traced stdout identical, "
                      f"counts repeat)")
                if job.subcommand == "enumerate":
                    sample = (job, runs[0].outcome)
                index += 1
        # the Promislow lex ordering first shows its right-invariance
        # counterexample at radius 2, a job too long for the timed workloads
        job = validate_promislow(2, True, 6.0)
        run = runner.run(index, job)
        if run.problems:
            fail(f"counterexample: {job.label}: {run.problems}")
        print(f"ok counterexample: {job.label} ({run.outcome.wall_s:.2f} s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    job, outcome = sample
    wrong = dataclasses.replace(job, expect={**job.expect, "count": job.expect["count"] + 1})
    if not check_output(wrong, outcome.returncode, outcome.stdout):
        fail("a wrong expected count went unnoticed")
    missing = dataclasses.replace(job, expect={**job.expect, "report.status": "pass"})
    if not any("missing" in p for p in check_output(missing, outcome.returncode, outcome.stdout)):
        fail("a missing field went unnoticed")
    if not check_output(dataclasses.replace(job, exit_code=1), outcome.returncode, outcome.stdout):
        fail("a wrong exit code went unnoticed")
    added = json.dumps({**json.loads(outcome.stdout), "added_later": 1}).encode()
    if check_output(job, outcome.returncode, added):
        fail("a field added to the report was counted as a failure")
    print("ok checker: flags a wrong value, a missing field and a wrong exit code; "
          "ignores an added field")
    return 0


if __name__ == "__main__":
    sys.exit(main())
