"""Whether two ordkit source trees give byte-identical CLI output.

    python3 tools/samebytes.py PARENT_SRC CHANGE_SRC ARGV_FILE

Each line of ARGV_FILE is one ordkit argv, split as a shell would; blank
lines and lines starting with ``#`` are skipped.  For each argv the script
runs ``python -m ordkit ARGV`` once against each tree, each run in a fresh
temporary work directory, with perfbench's job environment (every
``PYTHON*`` and ``ORDKIT*`` variable dropped, ``PYTHONPATH`` the tree's
sources) plus ``PYTHONHASHSEED=0``, and compares stdout, stderr and the
exit code.  Every file of ``tools/argv/files/`` (the ordering tables and
presentations that ``table:`` and ``presentation:`` argv name) is written
into each work directory first.  An argv
that is a job of perfbench's workloads for seeds 0-11 with input files
(``perfbench/jobs.py``, ``Job.files``) is run once per distinct file set,
each written there too.  Both trees
are checkout roots, run from their ``src``.  It prints one line per run
that differs, with the first differing line of each stream, then a
summary, and exits 1 if any argv differs.  Files an argv writes
(``--output``) land in the discarded work directory unless their path is
absolute; only the streams are compared.  Standard library only.
"""

from __future__ import annotations

import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from importtime import child_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ARGV_FILES = Path(__file__).resolve().parent / "argv" / "files"


def argv_files() -> dict[str, str]:
    """The files of tools/argv/files/ by name, written beside every argv."""
    return {path.name: path.read_text() for path in sorted(ARGV_FILES.glob("*"))}


def job_files() -> dict[tuple[str, ...], list[dict[str, str]]]:
    """The distinct input file sets of perfbench's jobs of seeds 0-11, by argv."""
    sys.path.insert(0, str(PERFBENCH))
    from jobs import WORKLOADS, make_jobs

    sets: dict[tuple[str, ...], list[dict[str, str]]] = {}
    for workload in WORKLOADS:
        for seed in range(12):
            for job in make_jobs(workload, seed):
                if job.files:
                    found = sets.setdefault(tuple(job.argv), [])
                    if job.files not in found:
                        found.append(job.files)
    return sets


def call(src: Path, argv: list[str], files: dict[str, str]) -> tuple[bytes, bytes, int]:
    env = {**child_env(src), "PYTHONHASHSEED": "0"}
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            path = Path(work, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "ordkit", *argv], env=env, capture_output=True,
            cwd=work,
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
    file_sets, shared = job_files(), argv_files()
    differing = 0
    for job in runs:
        differs = False
        for number, files in enumerate(file_sets.get(tuple(job), [{}]), 1):
            old, new = (call(tree, job, {**shared, **files}) for tree in (parent, change))
            if old == new:
                continue
            differs = True
            notes = [
                f"{name} {first_difference(x, y)}"
                for name, x, y in zip(("stdout", "stderr"), old, new)
                if x != y
            ]
            if old[2] != new[2]:
                notes.append(f"exit {old[2]} != {new[2]}")
            where = f" (file set {number})" if files else ""
            print(f"DIFF {shlex.join(job)}{where}: {'; '.join(notes)}")
        differing += differs
    print(f"{differing} of {len(runs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
