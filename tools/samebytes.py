"""Whether two ordkit source trees give byte-identical CLI output.

    python3 tools/samebytes.py PARENT_SRC CHANGE_SRC ARGV_FILE

Each line of ARGV_FILE is one ordkit argv, split as a shell would; blank
lines and lines starting with ``#`` are skipped.  For each argv the script
runs ``python -m ordkit ARGV`` once against each tree, in the current
directory, with perfbench's job environment (every ``PYTHON*`` and
``ORDKIT*`` variable dropped, ``PYTHONPATH`` the tree's sources) plus
``PYTHONHASHSEED=0``, and compares stdout, stderr and the exit code.  Both
trees are checkout roots, run from their ``src``.  It prints one line per
argv that differs, with the first differing line of each stream, then a
summary, and exits 1 if any argv differs.  An argv that writes a file
(``--output``) writes it twice, to the same path; only the streams are
compared.  Standard library only.
"""

from __future__ import annotations

import shlex
import subprocess
import sys
from pathlib import Path

from importtime import child_env


def call(src: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = {**child_env(src), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "ordkit", *argv], env=env, capture_output=True
    )
    return proc.stdout, proc.stderr, proc.returncode


def first_difference(a: bytes, b: bytes) -> str:
    left, right = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(left, right), 1):
        if x != y:
            return f"line {number}: {x[:60]!r} != {y[:60]!r}"
    return f"{len(left)} lines != {len(right)} lines"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    parent, change = (Path(tree).resolve() / "src" for tree in argv[:2])
    lines = Path(argv[2]).read_text().splitlines()
    runs = [shlex.split(line) for line in lines if line.strip()[:1] not in ("", "#")]
    differing = 0
    for job in runs:
        old, new = call(parent, job), call(change, job)
        if old == new:
            continue
        differing += 1
        notes = [
            f"{name} {first_difference(x, y)}"
            for name, x, y in zip(("stdout", "stderr"), old, new)
            if x != y
        ]
        if old[2] != new[2]:
            notes.append(f"exit {old[2]} != {new[2]}")
        print(f"DIFF {shlex.join(job)}: {'; '.join(notes)}")
    print(f"{differing} of {len(runs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
