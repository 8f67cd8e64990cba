"""The CLI's table parser against the argparse parser it replaced.

`reference_parser` is the argparse parser `ordkit.cli` had before its
subcommand table, kept here as the reference.  For every argv of
tools/argv/cli.txt (perfbench's jobs, the README commands, option forms,
usage errors and the grid of test_cli_fuzz.py), both parsers must give the
same subcommand and option values, both must print help, or both must
reject the argv with the same ``error:`` line.
"""

import argparse
import contextlib
import io
import shlex
from pathlib import Path

import pytest

from ordkit.cli import ArgvExit, parse_args

ARGV_FILE = Path(__file__).resolve().parents[1] / "tools" / "argv" / "cli.txt"


def at_least(low, what):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    return integer


spectrum_cap = at_least(2, "cap")
radius_arg = at_least(0, "radius")


def reference_parser():
    parser = argparse.ArgumentParser(
        prog="ordkit",
        description="computing with left orderings and circular orderings",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, ordering=True):
        p.add_argument("--group", required=True, help="group descriptor")
        if ordering:
            p.add_argument(
                "--ordering", required=True, help="ordering descriptor"
            )
        p.add_argument("--radius", type=radius_arg, default=3,
                       help="ball radius for infinite groups (default 3)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", help="write the report to this path")

    p = sub.add_parser("validate", help="run the circular-ordering validators")
    common(p)
    p.add_argument("--bi", action="store_true",
                   help="also require right-invariance")

    p = sub.add_parser("lift-check",
                       help="cocycle, group-law and cone checks for the lift")
    common(p)
    p.add_argument("--degree-bound", type=at_least(0, "degree bound"), default=3,
                   help="window bound on the central coordinate (default 3)")

    p = sub.add_parser("detect-secret",
                       help="decide secretness of an ordering on a carrier")
    common(p)

    p = sub.add_parser("spectrum", help="obstruction spectrum up to a cap")
    p.add_argument("--group", required=True)
    p.add_argument("--cap", type=spectrum_cap, required=True)
    p.add_argument("--radius", type=radius_arg, default=3)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")

    p = sub.add_parser("enumerate",
                       help="brute-force circular orderings of a finite group")
    p.add_argument("--group", required=True)
    p.add_argument("--cap", type=at_least(1, "cap"), default=8,
                   help="largest group order to enumerate (default 8)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")

    p = sub.add_parser("promislow",
                       help="reproduce the Promislow computation")
    p.add_argument("--cap", type=spectrum_cap, required=True)
    p.add_argument("--radius", type=at_least(1, "radius"), default=4)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")

    p = sub.add_parser("witness",
                       help="verify the witness-group construction claims")
    p.add_argument("--p", type=int, required=True, choices=(2, 3, 5),
                   help="the prime parameter")
    p.add_argument("--budget", type=at_least(1, "budget"), default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")

    return parser


def reference(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = reference_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:
                return ("help",)
            return ("error", exc.code, err.getvalue().splitlines()[-1])
    values = vars(namespace)
    return ("values", values.pop("subcommand"), values)


def table(argv):
    try:
        command, args = parse_args(argv)
    except ArgvExit as exc:
        code, text = exc.args
        if code == 0:
            return ("help",)
        lines = text.splitlines()
        assert len([line for line in lines if "error:" in line]) == 1
        return ("error", code, lines[-1])
    return ("values", command, vars(args))


# help is worded from the table, so its argv stay out of tools/argv/cli.txt,
# whose argv print the same bytes before and after the table
HELP_ARGV = ["-h", "--help", "--he", "-hh", "-x -h validate", "validate -h",
             "witness --help", "lift-check --he", "spectrum --group cyclic:4 -h",
             "validate -h --radius x"]


def _grid():
    lines = ARGV_FILE.read_text().splitlines() + HELP_ARGV
    return [[]] + [shlex.split(line) for line in lines
                   if line.strip()[:1] not in ("", "#")]


@pytest.mark.parametrize("argv", _grid(), ids=shlex.join)
def test_table_parser_matches_argparse(argv):
    assert table(argv) == reference(argv)


def test_grid_covers_every_outcome():
    outcomes = [reference(argv) for argv in _grid()]
    assert {outcome[0] for outcome in outcomes} == {"values", "help", "error"}
    errors = {outcome[2].split(": error: ", 1)[1].split(":")[0] for outcome in outcomes
              if outcome[0] == "error"}
    assert {"ambiguous option", "unrecognized arguments", "argument --p",
            "argument --bi", "argument --group", "argument subcommand",
            "the following arguments are required", "argument --radius",
            "argument -h/--help"} <= errors
