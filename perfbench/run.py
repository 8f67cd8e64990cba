"""ordkit's benchmark: real CLI jobs in a closed loop, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the jobs import ``ordkit`` from
``src/``.  One client runs one ``python -m ordkit <argv>`` process at a time
and starts the next only after the previous one has exited, so every job
pays interpreter start, import, its computation and rendering, as a user's
call does.  The seed chooses the job parameters and order (see jobs.py).

Untraced (``--trace 0``): after the set-up, whole passes over the job list
repeat until the next pass would end after ``--seconds``.  On a shared
host the CPU speed can swing by half within seconds as neighbours load it,
so every timed process (each job, and a fresh ``python -c "import
ordkit.cli"`` once per pass) is bracketed by runs of reference.py, a fixed
pure-Python program, and its times are divided by the mean reference time
around it and multiplied by REFERENCE_S: seconds at a fixed reference
speed.  Reported, for one pass of the job list: ``wall_s`` and ``cpu_s``,
the sums over jobs of each job's median scaled wall and user+sys CPU time;
``setup_s``, the median scaled import time; ``peak_rss_mb``, the largest
``ru_maxrss`` of any job.  Each job's median raw wall and sample count, and
the reference's median wall, are printed on the lines before the result.

Traced (``--trace 1``): one untraced pass, then one pass through
trace_job.py, which wraps each layer's public callables from outside the
package.  Reported: the per-layer counts and times of the traced pass, the
untraced median job wall per subcommand, and the tracing overhead.

Every job's exit code and report fields are checked against jobs.py, its
stderr for a traceback, its time against a timeout scaled from its time at
the benchmark's parent commit; repeated runs of a job, and its traced run,
must print the same stdout bytes.  Any of these counts as a failed job
without stopping the run.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines and
``perfbench/.work/results.jsonl`` record the environment and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS, Job, check_output, make_jobs  # noqa: E402
from trace_job import GROUP_FAMILIES  # noqa: E402

SETUP_SAMPLES_MIN = 9
# reference.py's wall time on an uncontended 2-vCPU Xeon, Python 3.11; timed
# results are reported in seconds at this reference speed
REFERENCE_S = 0.25
REFERENCE_OUTPUT = b"17 4913\n"
TIMEOUT_FLOOR_S = 10.0
TIMEOUT_FACTOR = 5.0
TRACE_TIMEOUT_FACTOR = 3.0
# no job starts after this many seconds, so a run of hanging jobs still ends
# well inside the three minutes a run may take
HARD_LIMIT_S = 150.0
SUBCOMMANDS = ("validate", "lift-check", "detect-secret", "spectrum",
               "enumerate", "promislow", "witness")


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    """One finished (or killed) process."""

    returncode: int | None  # None when the timeout killed it
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


@dataclass
class JobRun:
    index: int
    job: Job
    outcome: Outcome | None  # None when the job was not started
    problems: list[str] = field(default_factory=list)
    # mean wall and CPU time of the reference runs just before and just after
    # the job; None when the job was not bracketed by them
    reference: tuple[float, float] | None = None


def run_process(argv: list[str], env: dict, cwd: Path, timeout: float) -> Outcome:
    """Spawn, wait for exit and reap, timing spawn to exit and reading rusage.

    The child is waited for without being reaped first, so that the timeout
    can kill it with no risk of signalling a recycled pid.
    """
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.daemon = True
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        None if state["killed"] else proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def job_env(traced: bool) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "ORDKIT"))}
    env["PYTHONPATH"] = str(SRC)
    if traced:
        # a fixed hash seed makes dict and set collisions, hence the traced
        # call counts, repeat exactly; untraced jobs keep the random default
        env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs jobs of one workload in a private work directory."""

    def __init__(self, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        self.first_stdout: dict[int, bytes] = {}
        self.runs: list[JobRun] = []
        # (wall time, bracketing reference wall time) of each import sample
        self.setup_samples: list[tuple[float, float]] = []
        self.reference_walls: list[float] = []
        self.last_reference: Outcome | None = None  # set by the first timed pass

    def import_cli(self) -> Outcome:
        """A fresh interpreter importing the CLI, which every job pays first."""
        outcome = run_process([sys.executable, "-c", "import ordkit.cli"],
                              job_env(False), self.work, 30.0)
        if outcome.returncode != 0:
            raise SetupError("importing ordkit.cli failed: "
                             + outcome.stderr.decode(errors="replace")[-2000:])
        return outcome

    def sample_setup(self) -> None:
        wall = self.import_cli().wall_s
        self.setup_samples.append((wall, self.bracket()[0]))

    def reference(self) -> Outcome:
        outcome = run_process([sys.executable, str(BENCH / "reference.py")],
                              job_env(False), self.work, 30.0)
        if outcome.returncode != 0 or outcome.stdout != REFERENCE_OUTPUT:
            raise SetupError("the reference program failed: "
                             + outcome.stderr.decode(errors="replace")[-2000:])
        self.reference_walls.append(outcome.wall_s)
        return outcome

    def bracket(self) -> tuple[float, float]:
        """Run the reference program after a timed process; returns the mean
        wall and CPU time of the reference runs just before and after it."""
        before = self.last_reference
        after = self.last_reference = self.reference()
        return (before.wall_s + after.wall_s) / 2, (before.cpu_s + after.cpu_s) / 2

    def run(self, index: int, job: Job, trace_out: Path | None = None) -> JobRun:
        traced = trace_out is not None
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * job.seed_s)
        if traced:
            timeout *= TRACE_TIMEOUT_FACTOR
        remaining = self.hard_deadline - time.perf_counter()
        if remaining <= 0:
            run = JobRun(index, job, None, [f"not started: the run's {HARD_LIMIT_S:.0f} s are spent"])
            self.runs.append(run)
            return run
        if traced:
            argv = [sys.executable, str(BENCH / "trace_job.py"), str(trace_out),
                    str(index), "--", *job.argv]
        else:
            argv = [sys.executable, "-m", "ordkit", *job.argv]
        outcome = run_process(argv, job_env(traced), self.work, min(timeout, remaining))
        run = JobRun(index, job, outcome, self.problems(index, job, outcome))
        self.runs.append(run)
        return run

    def problems(self, index: int, job: Job, outcome: Outcome) -> list[str]:
        if outcome.returncode is None:
            return [f"timed out after {outcome.wall_s:.1f} s"]
        problems = []
        if b"Traceback (most recent call last)" in outcome.stderr:
            problems.append("traceback on stderr: "
                            + outcome.stderr.decode(errors="replace").strip().splitlines()[-1])
        problems += check_output(job, outcome.returncode, outcome.stdout)
        first = self.first_stdout.setdefault(index, outcome.stdout)
        if outcome.stdout != first:
            problems.append("stdout bytes differ from the job's first run")
        return problems


# -- environment record ----------------------------------------------------------


def read_text(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def environment() -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    models = [line.split(":", 1)[1].strip()
              for line in read_text("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_model": models[0] if models else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg() -> str:
    return " ".join(read_text("/proc/loadavg").split()[:3])


# -- metrics ---------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[JobRun], setup_samples: list[tuple[float, float]]) -> dict:
    """Timed metrics in seconds at the reference speed: each sample is divided
    by the reference time around it and multiplied by REFERENCE_S."""
    walls, cpus = defaultdict(list), defaultdict(list)
    for run in runs:
        if run.outcome is not None and run.reference is not None:
            ref_wall, ref_cpu = run.reference
            walls[run.index].append(run.outcome.wall_s / ref_wall)
            cpus[run.index].append(run.outcome.cpu_s / ref_cpu)
    return {
        "wall_s": metric(REFERENCE_S * sum(statistics.median(ws) for ws in walls.values()), "s"),
        "cpu_s": metric(REFERENCE_S * sum(statistics.median(cs) for cs in cpus.values()), "s"),
        "setup_s": metric(REFERENCE_S * statistics.median(
            wall / ref for wall, ref in setup_samples), "s"),
        "peak_rss_mb": metric(
            max(r.outcome.maxrss_kb for r in runs if r.outcome) / 1024, "MB"),
    }


def per_layer(untraced: list[JobRun], traced: list[JobRun], traces: list[dict],
              fail_ratio: float) -> dict:
    calls, self_s, total_s, flagged = (defaultdict(int), defaultdict(float),
                                       defaultdict(float), defaultdict(int))
    counts: dict[str, int] = defaultdict(int)
    applicable = drawn = 0
    reports = {run.index: run for run in traced}
    for trace in traces:
        under_validate = 0
        for name, parent, n, total, own, hits in trace["boundaries"]:
            calls[name] += n
            self_s[name] += own
            flagged[name] += hits
            if parent != name:
                total_s[name] += total
            if parent == "orders.validate" and name.startswith("groups.op."):
                under_validate += n
        for key, n in trace["counts"].items():
            counts[key] += n
        # invariance tuples drawn (three translates each) against applicable
        # ones, from the report's counts of an exhaustive validation
        run = reports.get(int(trace["job"]))
        if run and run.job.subcommand == "validate" and under_validate and not run.problems:
            report = json.loads(run.outcome.stdout)
            size = report["carrier_size"]
            if report["report"]["mode"] == "exhaustive":
                applicable += report["report"]["checked_tuples"] - size**3 - size**4
                drawn += under_validate // 3

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, dict] = {}
    for family in GROUP_FAMILIES.values():
        name = f"groups.op.{family}"
        m[f"{name}.calls"] = metric(calls[name], "count")
        m[f"{name}.self_s"] = metric(self_s[name], "s")
        m[f"{name}.us"] = metric(ratio(self_s[name], calls[name]) * 1e6, "us")
    for name, kinds in (
        ("groups.inv", "calls self_s"),
        ("groups.ball", "calls s"),
        ("groups.hom", "calls self_s"),
        ("orders.oracle", "calls self_s"),
        ("orders.cone", "calls self_s"),
        ("orders.validate", "self_s"),
        ("orders.validate_left", "self_s"),
        ("lift.cocycle", "calls self_s"),
        ("lift.check_cocycle", "s"),
        ("lift.check_report", "self_s"),
        ("lift.iso_check", "s"),
        ("secret.detect", "calls s self_s"),
        ("snf.smith", "calls s"),
        ("snf.abelianization", "s"),
        ("obstruction.worked_example", "self_s"),
        ("obstruction.spectrum", "self_s"),
        ("obstruction.verify_unobstructed", "calls s"),
        ("obstruction.enumerate", "s"),
        ("witness.verify", "self_s"),
        ("witness.membership", "calls self_s"),
        ("cli.resolve", "s"),
        ("cli.emit", "s"),
    ):
        for kind in kinds.split():
            if kind == "calls":
                m[f"{name}.calls"] = metric(calls[name], "count")
            elif kind == "s":
                m[f"{name}.s"] = metric(total_s[name], "s")
            else:
                m[f"{name}.self_s"] = metric(self_s[name], "s")
    m["groups.eq.calls"] = metric(counts["groups.eq"], "count")
    m["orders.oracle.distinct_ratio"] = metric(
        ratio(counts["orders.oracle.distinct"], counts["orders.oracle.outer"]), "ratio")
    m["orders.invariance_applicable_ratio"] = metric(ratio(applicable, drawn), "ratio")
    m["lift.cocycle.miss_ratio"] = metric(
        ratio(flagged["lift.cocycle"], calls["lift.cocycle"]), "ratio")
    m["secret.constraints"] = metric(sum(
        json.loads(run.outcome.stdout)["verdict"]["checked_constraints"]
        for run in traced if run.job.subcommand == "detect-secret" and not run.problems
    ), "count")
    for sub in SUBCOMMANDS:
        walls = [r.outcome.wall_s for r in untraced
                 if r.job.subcommand == sub and r.outcome is not None]
        m[f"cli.{sub.replace('-', '_')}_s"] = metric(
            statistics.median(walls) if walls else 0.0, "s")
    m["cli.output_bytes"] = metric(
        sum(len(r.outcome.stdout) for r in untraced if r.outcome), "bytes")
    traced_wall = sum(r.outcome.wall_s for r in traced if r.outcome)
    m["trace.overhead_ratio"] = metric(ratio(
        traced_wall, sum(r.outcome.wall_s for r in untraced if r.outcome)), "ratio")
    m["trace.self_coverage"] = metric(ratio(sum(self_s.values()), traced_wall), "ratio")
    m["fail_ratio"] = metric(fail_ratio, "ratio")
    return m


# -- one run ---------------------------------------------------------------------


def timed_passes(runner: Runner, jobs: list[Job], seconds: float) -> int:
    """Whole passes over the job list until the next would end after `seconds`;
    returns the number of passes."""
    start = time.perf_counter()
    durations = []
    runner.last_reference = runner.reference()
    while True:
        pass_start = time.perf_counter()
        runner.sample_setup()
        for index, job in enumerate(jobs):
            run = runner.run(index, job)
            if run.outcome is not None:
                run.reference = runner.bracket()
        now = time.perf_counter()
        durations.append(now - pass_start)
        if now + statistics.median(durations) > start + seconds:
            return len(durations)


def rerun_one(runner: Runner, jobs: list[Job], rng: random.Random) -> None:
    """Run a seed-chosen job again unless the passes already repeated it."""
    if len(runner.runs) <= len(jobs):
        index = rng.randrange(len(jobs))
        runner.run(index, jobs[index])


def traced_pass(runner: Runner, jobs: list[Job]) -> tuple[list[JobRun], list[dict]]:
    traced, traces = [], []
    for index, job in enumerate(jobs):
        trace_out = runner.work / f"trace-{index}.json"
        run = runner.run(index, job, trace_out)
        traced.append(run)
        if run.outcome is not None and trace_out.exists():
            traces.append(json.loads(trace_out.read_text()))
        elif not run.problems:
            run.problems.append("the tracer wrote no trace")
    return traced, traces


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    if not (SRC / "ordkit" / "cli.py").is_file():
        sys.stderr.write(f"error: no ordkit sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    env_record = environment()
    jobs = make_jobs(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for job in jobs:
            for name, text in job.files.items():
                (work / name).write_text(text)
        load_start = loadavg()
        runner = Runner(work, hard_deadline)
        rng = random.Random(f"{args.workload}:{args.seed}:rerun")
        try:
            # compiles the bytecode cache, as an installed package has it
            runner.import_cli()
            if args.trace:
                for index, job in enumerate(jobs):
                    runner.run(index, job)
                untraced = list(runner.runs)
                passes = 1
                rerun_one(runner, jobs, rng)
                traced, traces = traced_pass(runner, jobs)
            else:
                passes = timed_passes(runner, jobs, args.seconds)
                while len(runner.setup_samples) < SETUP_SAMPLES_MIN:
                    runner.sample_setup()
                rerun_one(runner, jobs, rng)
        except SetupError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        load_end = loadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = runner.runs
    failed = sum(1 for run in runs if run.problems)
    fail_ratio = failed / len(runs)
    if args.trace:
        metrics = per_layer(untraced, traced, traces, fail_ratio)
    else:
        untraced = runs
        metrics = end_to_end(runs, runner.setup_samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record,
        "loadavg_start": load_start, "loadavg_end": load_end,
        "jobs": [job.label for job in jobs], "passes": passes,
        "attempted": len(runs), "failed": failed, "fail_ratio": fail_ratio,
        "failures": [f"{run.job.label}: {p}" for run in runs for p in run.problems],
        "reference_walls": runner.reference_walls,
        "setup_walls": [wall for wall, _ in runner.setup_samples],
        "walls": [[run.job.label, run.outcome.wall_s] for run in untraced if run.outcome],
        "metrics": metrics,
    }
    with open(WORK / "results.jsonl", "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")

    print("# environment " + json.dumps(env_record, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs, {len(runs)} runs, passes {passes}, "
          f"fail_ratio {fail_ratio:g}, loadavg {load_start} -> {load_end}")
    for failure in record["failures"]:
        print(f"# FAIL {failure}")
    for index, job in enumerate(jobs):
        walls = [r.outcome.wall_s for r in untraced if r.index == index and r.outcome]
        if walls:
            print(f"# job median raw wall {statistics.median(walls):.4f} s over "
                  f"{len(walls)} runs: {job.label}")
    if runner.setup_samples:
        print(f"# raw import median wall "
              f"{statistics.median(w for w, _ in runner.setup_samples):.4f} s over "
              f"{len(runner.setup_samples)} runs; reference median wall "
              f"{statistics.median(runner.reference_walls):.4f} s over "
              f"{len(runner.reference_walls)} runs")
    for name, value in metrics.items():
        print(f"# {name} = {value['value']:.6g} {value['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
