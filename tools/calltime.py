"""Where the time of one `python -m ordkit` call goes, phase by phase.

    python3 tools/calltime.py [--runs 25] [--root DIR] -- ARGV...

Runs the package entry of DIR/src (DIR defaults to this checkout) RUNS
times on ARGV, each time in a fresh interpreter whose driver imports
``ordkit.cli`` and then runs the package as ``__main__``, as ``python -m
ordkit ARGV`` does.  It prints, in microseconds, the minimum over the runs
of each phase:

- spawn: from just before the process is started to the driver's first
  timestamp (interpreter start, ``site``, and the driver importing ``os``,
  ``runpy`` and ``time``);
- import: ``import ordkit.cli``;
- run: the entry, from the package's ``__main__`` to its return or to its
  ``os._exit`` call, which the driver wraps to take its last timestamp first;
- exit: from there to the parent seeing the process exit (interpreter
  shutdown, or after ``os._exit`` only the kernel's process exit; an
  in-process tracer sees neither);
- total: from spawn to exit, minimised on its own.

Phases are read from ``time.monotonic_ns``, one clock for the parent and
the child on Linux.  The child's output goes to /dev/null and its exit code
is printed; every run must exit with the same code.  The child's
environment follows perfbench's rule: every ``PYTHON*`` and ``ORDKIT*``
variable is dropped and ``PYTHONPATH`` is DIR/src.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

from importtime import child_env

PHASES = ("spawn", "import", "run", "exit", "total")

# the child reports its three timestamps on the pipe whose descriptor is {fd},
# once: when the entry returns or raises, or just before it calls os._exit
DRIVER = """\
import os, runpy, time
t0 = time.monotonic_ns()
import ordkit.cli
t1 = time.monotonic_ns()
def stamp():
    os.write({fd}, b"%d %d %d" % (t0, t1, time.monotonic_ns()))
def stamped_exit(code, exit_now=os._exit):
    stamp()
    exit_now(code)
os._exit = stamped_exit
try:
    runpy.run_module("ordkit", run_name="__main__", alter_sys=True)
finally:
    stamp()
"""


def one_run(src: Path, argv: list[str]) -> tuple[dict[str, int], int]:
    """Each phase's length in nanoseconds, and the exit code, of one call."""
    read_fd, write_fd = os.pipe()
    start = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, "-c", DRIVER.format(fd=write_fd), *argv],
        env=child_env(src), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, pass_fds=(write_fd,),
    )
    os.close(write_fd)
    code = proc.wait()
    end = time.monotonic_ns()
    with os.fdopen(read_fd, "rb") as stamps:
        report = stamps.read().split()
    if len(report) != 3:
        raise RuntimeError(f"the driver under {src} reported no timestamps "
                           f"(exit code {code})")
    t0, t1, t2 = map(int, report)
    return {"spawn": t0 - start, "import": t1 - t0, "run": t2 - t1,
            "exit": end - t2, "total": end - start}, code


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=25)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("argv", nargs="+", help="the ordkit arguments, after --")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    src = args.root.resolve() / "src"
    best = dict.fromkeys(PHASES, float("inf"))
    codes = set()
    for _ in range(args.runs):
        phases, code = one_run(src, args.argv)
        codes.add(code)
        best = {name: min(best[name], phases[name]) for name in PHASES}
    if len(codes) != 1:
        raise RuntimeError(f"exit codes differ between runs: {sorted(codes)}")
    print(f"# python -m ordkit {' '.join(args.argv)}; PYTHONPATH={src}; "
          f"exit code {codes.pop()}; minimum of {args.runs} runs")
    for name in PHASES:
        print(f"{name:>6} {best[name] // 1000:>8} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
