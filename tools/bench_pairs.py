"""Paired benchmark runs of two checkouts, gathered into a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_7.json \\
        --job secret:0:10 --job secret:57:5 --job lift:0:5

Each ``--job WORKLOAD:SEED:PAIRS`` runs the command of BENCHMARK.json with
``--workload WORKLOAD --seed SEED --seconds S --trace 0`` (S is the
benchmark's ``run_seconds``) PAIRS times in each checkout, one pair at a
time, the parent first in even pairs and the change first in odd ones.  Each
run uses the benchmark files of its own checkout, and the output records the
argv that was run.  After every pair the output file is rewritten with, per
job and per end-to-end metric of BENCHMARK.json, both sides' median,
quartiles (inclusive method) and run values, and the number of pairs the
change won; ties count for neither side.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
METHOD = ("parent and change run alternately, one pair at a time, each from "
          "its own checkout; times are seconds at the benchmark's reference speed")


def bench_argv(bench: dict, workload: str, seed: str) -> list[str]:
    """The benchmark's command for one untraced run of a workload."""
    return [*bench["command"], "--workload", workload, "--seed", seed,
            "--seconds", f"{bench['run_seconds']:g}", "--trace", "0"]


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One perfbench run: its environment record and its result line."""
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    env = next(json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("# environment "))
    return {"environment": env, "result": json.loads(lines[-1])}


def commit_label(checkout: Path, head: str) -> str:
    """HEAD, or a note that the sources differ from it."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                          cwd=checkout, capture_output=True, text=True)
    return f"uncommitted changes on {head}" if proc.stdout.strip() else head


def summary(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def job_entry(runs: dict, metrics: list[dict]) -> dict:
    """Per-metric summaries of the paired runs of one job."""
    entry = {
        "pairs": len(runs["change"]),
        "failed_jobs": {side: sum(r["result"]["failed"] for r in runs[side])
                        for side in SIDES},
    }
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if (c < p if lower else c > p))
        entry[name] = {**{side: summary(values[side]) for side in SIDES},
                       "change_wins": wins}
    return entry


def parse_job(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--job", type=parse_job, action="append", required=True,
                        help="WORKLOAD:SEED:PAIRS, repeatable")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    doc: dict = {"command": shlex.join(bench_argv(bench, "W", "S")), "method": METHOD}
    workloads: dict = {}
    for workload, seed, pairs in args.job:
        runs: dict = {side: [] for side in SIDES}
        argv = bench_argv(bench, workload, str(seed))
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(checkouts[side], argv))
            if "host" not in doc:
                env = runs["change"][0]["environment"]
                doc["host"] = (f"{env['cpu_model']}, {env['nproc']} vCPU, "
                               f"Python {env['python']}")
                for side in SIDES:
                    side_env = runs[side][0]["environment"]
                    doc[side] = {
                        "commit": commit_label(checkouts[side], side_env["commit"]),
                        "src_sha256": side_env["src_sha256"],
                    }
            workloads[f"{workload} seed {seed}"] = job_entry(runs, bench["end_to_end"])
            doc["workloads"] = workloads
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
            wall = workloads[f"{workload} seed {seed}"]["wall_s"]
            print(f"{workload} seed {seed} pair {i + 1}/{pairs}: wall_s "
                  f"{wall['parent']['runs'][-1]} -> {wall['change']['runs'][-1]}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
