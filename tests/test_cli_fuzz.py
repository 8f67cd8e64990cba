"""Grid fuzz of the CLI contract, run in-process through `ordkit.cli.main`.

Every subcommand meets every builtin group descriptor (plus broken ones),
every ordering descriptor kind (plus broken ones) and the edge values of
its integer options.  The contract: the exit code is 0, 1 or 2; exit 2
prints nothing on stdout and exactly one ``error:`` line on stderr; exit 1
comes with a report that carries a failure; and a second run gives the
same bytes.  An exception escaping `main` fails the test.
"""

import contextlib
import io
import json

import pytest

from ordkit.cli import main

GROUPS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:6",
    "trivial",
    "integers",
    "free-abelian:0",
    "free-abelian:2",
    "klein4",
    "product:integers,cyclic:3",
    "product:cyclic:2,integers",
    "product:integers,cyclic:1",
    "promislow",
    "witness:2",
    "bogus",
    "cyclic:0",
    "product:cyclic:2",
]
ORDERINGS = [
    "natural",
    "natural:5",
    "natural:0",
    "secret",
    "lex",
    "table:no-such-table.json",
    "weird",
]


def _grid() -> list[list[str]]:
    grid = []
    for group in GROUPS:
        for ordering in ORDERINGS:
            common = ["--group", group, "--ordering", ordering, "--radius", "1"]
            grid.append(["validate", *common])
            grid.append(["lift-check", *common, "--degree-bound", "0"])
            grid.append(["detect-secret", *common])
        for cap in ("1", "2"):
            grid.append(["spectrum", "--group", group, "--cap", cap, "--radius", "1"])
        for cap in ("0", "6"):
            grid.append(["enumerate", "--group", group, "--cap", cap])
    grid.append(["promislow", "--cap", "1"])
    grid.append(["promislow", "--cap", "2", "--radius", "1"])
    for p in ("2", "3", "4"):
        for budget in ("0", "1"):
            grid.append(["witness", "--p", p, "--budget", budget, "--seed", "0"])
    return grid


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _carries_failure(node) -> bool:
    if isinstance(node, list):
        return any(_carries_failure(item) for item in node)
    if not isinstance(node, dict):
        return False
    if node.get("status") == "fail" or node.get("undetermined"):
        return True
    if isinstance(node.get("verdict"), str) and node["verdict"] != "SecretWitness":
        return True
    return any(_carries_failure(value) for value in node.values())


@pytest.fixture(scope="module", autouse=True)
def _empty_cwd(tmp_path_factory):
    # run where the grid's table file surely does not exist
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("cli-fuzz"))
        yield


@pytest.mark.parametrize("argv", _grid(), ids=" ".join)
def test_cli_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
    elif code == 1:
        assert _carries_failure(json.loads(out))
    else:
        assert '"status": "fail"' not in out
    assert _run(argv) == (code, out, err)
