"""Layer-by-layer start-up cost of the CLI: what `import ordkit.cli` loads.

    python3 tools/importtime.py [--runs 20] [--root DIR]

Runs ``python -X importtime -c "import ordkit.cli"`` RUNS times with
``PYTHONPATH=DIR/src`` (DIR defaults to this checkout) and prints, for each
module that import loads, its minimum self and cumulative time over the
runs in microseconds.  Rows keep the interpreter's order, children before
their parent, indented by depth; modules the interpreter loaded before the
import (``site`` and what it pulls in) are left out.  The runs may write
bytecode caches, so that from the second run on they time an installed
package's start rather than compiling.  The minimum is the least disturbed
run, so two checkouts compare with it run after run.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

TARGET = "ordkit.cli"


def one_run(src: Path) -> list[tuple[str, int, int]]:
    """(indented module name, self us, cumulative us) of the target's tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time cached bytecode, not compiling
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {TARGET}"],
        env=env, capture_output=True, text=True, check=True,
    )
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name[1:].rstrip()
        if name[0] != " " and name != TARGET:
            rows = []  # a top-level import that closes some other tree
            continue
        rows.append((name, int(self_us), int(cumulative_us)))
        if name == TARGET:
            return rows
    raise RuntimeError(f"no import of {TARGET} under {src}: {proc.stderr[-300:]}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    src = args.root.resolve() / "src"
    best: dict[str, list[int]] = {}
    order: list[str] = []
    for _ in range(args.runs):
        for name, self_us, cumulative_us in one_run(src):
            if name not in best:
                best[name] = [self_us, cumulative_us]
                order.append(name)
            else:
                best[name] = [min(best[name][0], self_us),
                              min(best[name][1], cumulative_us)]
    print(f"# {sys.executable} -X importtime -c 'import {TARGET}', "
          f"PYTHONPATH={src}; minimum of {args.runs} runs")
    print(f"{'self us':>8} {'cumul us':>9}  module")
    for name in order:
        self_us, cumulative_us = best[name]
        print(f"{self_us:>8} {cumulative_us:>9}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
