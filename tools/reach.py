"""Which functions of ``src/ordkit`` no CLI command enters.

    python3 tools/reach.py [--root DIR]

Runs ``ordkit.cli.main`` in this process under one ``cProfile.Profile``,
once for each distinct argv of ``tools/argv/*.txt`` and of perfbench's jobs
of seeds 0-11 that read files, each in a fresh temporary work directory
with the files of ``tools/argv/files/`` and the job's files written first
(an argv with several file sets runs once per set, as ``tools/samebytes.py``
does).  stdout and stderr are
discarded.  ``ordkit.cli`` is imported under the profile, so module and
class bodies count as entered.  It then compiles every ``DIR/src/ordkit``
module and walks its code objects through ``co_consts``, nested functions
included, and prints each one that the profile never entered as
``file:line qualname (lines)``, in source order, then a count.  DIR
defaults to this checkout; the argv lists and perfbench are always this
checkout's.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import os
import pstats
import shlex
import sys
import tempfile
import types
from pathlib import Path

from samebytes import argv_files, job_files

TOOLS = Path(__file__).resolve().parent


def argv_runs() -> list[tuple[list[str], dict[str, str]]]:
    """Each distinct (argv, file set) to run, argv files first."""
    lines = [
        line
        for path in sorted((TOOLS / "argv").glob("*.txt"))
        for line in path.read_text().splitlines()
        if line.strip()[:1] not in ("", "#")
    ]
    file_sets, shared = job_files(), argv_files()
    argvs = dict.fromkeys([tuple(shlex.split(line)) for line in lines] + list(file_sets))
    return [
        (list(argv), {**shared, **files})
        for argv in argvs
        for files in file_sets.get(argv, [{}])
    ]


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=TOOLS.parent)
    src = parser.parse_args(argv).root.resolve() / "src"
    sys.path.insert(0, str(src))
    runs = argv_runs()

    profile = cProfile.Profile()
    home = os.getcwd()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        profile.enable()
        from ordkit.cli import main as ordkit_main

        for args, files in runs:
            with tempfile.TemporaryDirectory() as work:
                for name, text in files.items():
                    path = Path(work, name)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
                os.chdir(work)
                try:
                    ordkit_main(args)
                finally:
                    os.chdir(home)
        profile.disable()
    entered = set(pstats.Stats(profile).stats)  # (filename, first line, name)

    missed = total = 0
    for path in sorted((src / "ordkit").glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in code_objects(module):
            total += 1
            if (code.co_filename, code.co_firstlineno, code.co_name) in entered:
                continue
            missed += 1
            lines = [line for _, _, line in code.co_lines() if line is not None]
            span = max(lines, default=code.co_firstlineno) - code.co_firstlineno + 1
            print(f"{path.name}:{code.co_firstlineno} {code.co_qualname} ({span})")
    print(f"{missed} of {total} code objects never entered over {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
