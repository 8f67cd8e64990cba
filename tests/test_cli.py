import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ordkit import lift as lift_module
from ordkit.cli import main, resolve_group, resolve_ordering
from ordkit.groups import CyclicGroup, GroupMismatchError, klein_four_group
from ordkit.orders import OrderingTable, as_carrier, natural_circular_cyclic


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestEnumerate:
    def test_cyclic_5_count(self, capsys):
        code, out = run(capsys, "enumerate", "--group", "cyclic:5")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4
        assert payload["orderings"][0] == [0, 1, 2, 3, 4]

    def test_klein4_count_zero(self, capsys):
        code, out = run(capsys, "enumerate", "--group", "klein4")
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_byte_determinism(self, capsys):
        _, first = run(capsys, "enumerate", "--group", "cyclic:6")
        _, second = run(capsys, "enumerate", "--group", "cyclic:6")
        assert first == second

    def test_golden_bytes(self, capsys):
        _, out = run(capsys, "enumerate", "--group", "cyclic:3")
        assert out == (
            '{\n'
            '  "command": "enumerate",\n'
            '  "count": 2,\n'
            '  "group": "cyclic:3",\n'
            '  "order": 3,\n'
            '  "orderings": [\n'
            '    [\n      0,\n      1,\n      2\n    ],\n'
            '    [\n      0,\n      2,\n      1\n    ]\n'
            '  ],\n'
            '  "schema": 1\n'
            '}\n'
        )

    def test_infinite_group_rejected(self, capsys):
        code, _ = run(capsys, "enumerate", "--group", "integers")
        assert code == 2

    def test_order_cap(self, capsys):
        code, _ = run(capsys, "enumerate", "--group", "cyclic:9")
        assert code == 2


class TestValidate:
    def test_natural_passes(self, capsys):
        code, out = run(
            capsys, "validate", "--group", "cyclic:6", "--ordering", "natural:1"
        )
        assert code == 0
        assert json.loads(out)["report"]["status"] == "pass"

    def test_secret_on_integers(self, capsys):
        code, _ = run(
            capsys, "validate", "--group", "integers", "--ordering", "secret",
            "--radius", "5",
        )
        assert code == 0

    def test_promislow_lex_passes_plain_fails_bi(self, capsys):
        code, _ = run(
            capsys, "validate", "--group", "promislow", "--ordering", "lex",
            "--radius", "2",
        )
        assert code == 0
        code, out = run(
            capsys, "validate", "--group", "promislow", "--ordering", "lex",
            "--radius", "2", "--bi",
        )
        assert code == 1
        assert json.loads(out)["report"]["counterexample"]["kind"] == (
            "right-invariance"
        )

    @pytest.mark.parametrize("bi, checked", [((), 37**3 + 2 * 37**4),
                                             (("--bi",), 37**3 + 3 * 37**4)])
    def test_cyclic_37_exhaustive_counts(self, capsys, bi, checked):
        # 37^4 is under the 2M cap: the triples, every quadruple and every
        # translate on each side are counted, though the slices decide them
        code, out = run(
            capsys, "validate", "--group", "cyclic:37", "--ordering", "natural:1", *bi
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert (report["status"], report["mode"]) == ("pass", "exhaustive")
        assert report["checked_tuples"] == checked
        assert checked in (3_798_975, 5_673_136)

    def test_klein4_table_always_fails(self, capsys, tmp_path):
        # no valid table exists for a non-cyclic group; submit an arbitrary
        # arrangement table and watch an axiom break
        group = klein_four_group()
        table = OrderingTable.from_arrangement(group, as_carrier(group))
        path = tmp_path / "klein.json"
        path.write_text(json.dumps(table.to_json_dict()))
        code, out = run(
            capsys, "validate", "--group", "klein4", "--ordering", f"table:{path}"
        )
        assert code == 1
        assert json.loads(out)["report"]["status"] == "fail"

    def test_flipped_table_fails(self, capsys, tmp_path):
        group = CyclicGroup(5)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(5, 1), as_carrier(group)
        )
        flipped = table.flipped(sorted(table.entries)[0])
        path = tmp_path / "flipped.json"
        path.write_text(json.dumps(flipped.to_json_dict()))
        code, _ = run(
            capsys, "validate", "--group", "cyclic:5", "--ordering", f"table:{path}"
        )
        assert code == 1

    def test_bad_ordering_descriptor(self, capsys):
        code, _ = run(
            capsys, "validate", "--group", "cyclic:5", "--ordering", "wat"
        )
        assert code == 2

    def test_natural_on_noncyclic_rejected(self, capsys):
        code, _ = run(
            capsys, "validate", "--group", "klein4", "--ordering", "natural:1"
        )
        assert code == 2


class TestDetectSecret:
    def test_natural_not_secret(self, capsys):
        code, out = run(
            capsys, "detect-secret", "--group", "cyclic:5", "--ordering",
            "natural:1",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"]["verdict"] == "NotSecretOnCarrier"
        assert payload["verdict"]["contradiction_trace"]

    def test_integer_secret_witness(self, capsys):
        code, out = run(
            capsys, "detect-secret", "--group", "integers", "--ordering",
            "secret", "--radius", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["verdict"] == "SecretWitness"
        assert payload["verdict"]["cone"] == list(range(1, 9))

    def test_product_lex_not_secret(self, capsys):
        code, out = run(
            capsys, "detect-secret", "--group", "product:integers,cyclic:2",
            "--ordering", "lex", "--radius", "4",
        )
        assert code == 1
        assert json.loads(out)["verdict"]["verdict"] == "NotSecretOnCarrier"


class TestSpectrum:
    def test_finite(self, capsys):
        code, out = run(capsys, "spectrum", "--group", "cyclic:6", "--cap", "12")
        assert code == 0
        payload = json.loads(out)["report"]
        assert [e["n"] for e in payload["obstructed"]] == [2, 3, 4, 6, 8, 9, 10, 12]

    def test_promislow(self, capsys):
        code, out = run(capsys, "spectrum", "--group", "promislow", "--cap", "12")
        assert code == 0
        payload = json.loads(out)["report"]
        assert [e["n"] for e in payload["obstructed"]] == [4, 8, 12]
        assert payload["undetermined"] == []

    def test_integers(self, capsys):
        code, out = run(capsys, "spectrum", "--group", "integers", "--cap", "10")
        assert code == 0
        payload = json.loads(out)["report"]
        assert payload["obstructed"] == []

    def test_witness_recorded(self, capsys):
        code, out = run(capsys, "spectrum", "--group", "witness:3", "--cap", "10")
        assert code == 0
        payload = json.loads(out)["report"]
        assert [e["n"] for e in payload["obstructed"]] == [3, 6, 9]
        assert "recorded" in payload["notes"][0]

    def test_presentation_file(self, capsys, tmp_path):
        path = tmp_path / "pres.txt"
        path.write_text("gens: a b\nrel: a b b A b b\nrel: b a a B a a\n")
        code, out = run(
            capsys, "spectrum", "--group", f"presentation:{path}", "--cap", "10"
        )
        assert code == 0
        payload = json.loads(out)["report"]
        assert [e["n"] for e in payload["obstructed"]] == [4, 8]
        assert payload["undetermined"] == [2, 3, 5, 6, 7, 9, 10]

    def test_exponent_one_closes_over_every_n(self, capsys, tmp_path):
        # a trivial abelianization has exponent 1, which divides every n >= 2
        path = tmp_path / "trivial.txt"
        path.write_text("gens: a\nrel: a\n")
        code, out = run(
            capsys, "spectrum", "--group", f"presentation:{path}", "--cap", "4"
        )
        closure = {
            "base_certificate": "abelianization-exponent",
            "divisor": 1,
            "kind": "divisibility-closure",
        }
        report = {
            "cap": 4,
            "group": "presentation(a)",
            "notes": [
                "bracketing only: no unobstructed certificates are derivable "
                "from a bare presentation",
                "obstructed entries hold under recorded hypotheses (finitely "
                "generated, amenable, circularly-orderable)",
            ],
            "obstructed": [{"certificate": closure, "n": n} for n in (2, 3, 4)],
            "schema": 1,
            "undetermined": [],
            "unobstructed": [],
        }
        expected = {"command": "spectrum", "report": report, "schema": 1}
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_nested_product(self, capsys):
        code, out = run(
            capsys, "spectrum", "--group",
            "product:product:cyclic:2,cyclic:2,cyclic:3", "--cap", "6",
        )
        assert code == 0
        payload = json.loads(out)["report"]
        assert payload["group"] == "product:product:cyclic:2,cyclic:2,cyclic:3"
        # (Z/2)^2 x Z/3 is not cyclic, so every n is obstructed
        assert [e["n"] for e in payload["obstructed"]] == [2, 3, 4, 5, 6]

    def test_missing_presentation_file(self, capsys, tmp_path):
        code, _ = run(
            capsys, "spectrum", "--group",
            f"presentation:{tmp_path}/nope.txt", "--cap", "10",
        )
        assert code == 2


class TestCorruptedTables:
    """An invalid table stops detect-secret at the first cocycle pair where no
    case of the ladder fires, in the canonical pair order."""

    @pytest.mark.parametrize("entry", ["flip", 0, 5])
    def test_detect_secret_error(self, capsys, tmp_path, entry):
        group = CyclicGroup(5)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(5, 1), group.elements()
        )
        entries = dict(table.entries)
        entries[(0, 1, 2)] = -entries[(0, 1, 2)] if entry == "flip" else entry
        path = tmp_path / "table.json"
        path.write_text(
            json.dumps(OrderingTable(group, table.carrier, entries).to_json_dict())
        )
        argv = ["detect-secret", "--group", "cyclic:5", "--ordering", f"table:{path}"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: no cocycle case fires at (<cyclic:5: 1>, <cyclic:5: 1>); "
            "the underlying circular ordering is invalid\n"
        )


class TestBadCap:
    def test_spectrum_promislow_cap_1(self, capsys):
        assert main(["spectrum", "--group", "promislow", "--cap", "1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_promislow_cap_1(self, capsys):
        assert main(["promislow", "--cap", "1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_promislow_radius_0(self, capsys):
        # a one-element ball shows one coset of ker(phi), so no witness of a
        # mathematical failure: a usage error, like --cap 1
        assert main(["promislow", "--cap", "8", "--radius", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --radius: radius must be >= 1, got 0" in err
        assert "Traceback" not in err

    def test_spectrum_promislow_radius_0(self, capsys):
        code, out = run(capsys, "spectrum", "--group", "promislow", "--cap", "8",
                        "--radius", "0")
        assert code == 0
        assert json.loads(out)["report"]["undetermined"] == [2, 3, 5, 6, 7]


class TestBadArguments:
    """Bad input exits 2 with one error line and no traceback."""

    def assert_usage_error(self, capsys, *argv):
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("command", ["lift-check", "detect-secret"])
    def test_invalid_ordering_table(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"schema":1,"group":"cyclic:3","carrier":[0,1,2],"entries":[]}'
        )
        self.assert_usage_error(
            capsys, command, "--group", "cyclic:3", "--ordering", f"table:{path}"
        )

    @pytest.mark.parametrize(
        "group, document",
        [
            ("cyclic:3", '{"group":"cyclic:3","carrier":[0,1,2],"entries":5}'),
            ("cyclic:3", "[0, 1, 2]"),
            ("cyclic:3", '{"group":"cyclic:3","carrier":5,"entries":[]}'),
            ("cyclic:3",
             '{"group":"cyclic:3","carrier":[0,1,2],"entries":[[0,1,2,null]]}'),
            ("cyclic:3",
             '{"group":"cyclic:3","carrier":[0,1,2],"entries":[[0,1,2,1.7]]}'),
            ("cyclic:3",
             '{"group":"cyclic:3","carrier":[0,1,2],"entries":[[0,1,2,"1"]]}'),
            ("free-abelian:2", '{"group":5,"carrier":[],"entries":[]}'),
            ("free-abelian:2",
             '{"group":"free-abelian:2","carrier":[3],"entries":[]}'),
            ("free-abelian:2",
             '{"group":"free-abelian:2","carrier":[[0,0]],"entries":[7]}'),
            ("promislow",
             '{"group":"promislow","carrier":[{"t":[0,0,0]}],"entries":[]}'),
            ("cyclic:3", '{"carrier":[0,1,2],"entries":[]}'),
            ("cyclic:3", '{"group":"cyclic:3","entries":[]}'),
            ("cyclic:3", '{"group":"cyclic:3","carrier":[0,1,2]}'),
        ],
        ids=[
            "entries-5", "array", "carrier-5", "null", "float", "string",
            "group-not-a-string", "carrier-item-not-a-vector", "entry-not-a-list",
            "carrier-item-missing-a-key", "no-group", "no-carrier", "no-entries",
        ],
    )
    def test_malformed_ordering_table(self, capsys, tmp_path, group, document):
        path = tmp_path / "bad.json"
        path.write_text(document)
        argv = ["validate", "--group", group, "--ordering", f"table:{path}"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("key", ["group", "carrier", "entries"])
    def test_table_missing_a_top_level_key_is_named(self, capsys, tmp_path, key):
        document = {"group": "cyclic:3", "carrier": [0, 1, 2], "entries": []}
        del document[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        argv = ["validate", "--group", "cyclic:3", "--ordering", f"table:{path}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: cannot load ordering table {path}: "
            f"the ordering table is missing the {key!r} key\n"
        )

    def test_table_item_missing_a_key_is_named(self, capsys, tmp_path):
        # a decode that misses a key names the item and the group, not the key
        path = tmp_path / "bad.json"
        path.write_text('{"group":"promislow","carrier":[{"t":[0,0,0]}],"entries":[]}')
        argv = ["validate", "--group", "promislow", "--ordering", f"table:{path}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: cannot load ordering table {path}: "
            "{'t': [0, 0, 0]} is not in promislow\n"
        )

    def test_natural_unit_not_an_integer(self, capsys):
        self.assert_usage_error(
            capsys, "validate", "--group", "cyclic:5", "--ordering", "natural:x"
        )

    def test_negative_radius(self, capsys):
        self.assert_usage_error(
            capsys, "validate", "--group", "integers", "--ordering", "secret",
            "--radius", "-1",
        )

    def test_sabotaged_witness_spectrum(self, capsys):
        # the recorded spectrum is a conclusion about the standard action only
        argv = ["spectrum", "--group", "witness:3:up2:down4", "--cap", "10"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and "standard construction" in err

    def test_negative_budget(self, capsys):
        self.assert_usage_error(capsys, "witness", "--p", "3", "--budget", "-5")

    def test_negative_degree_bound(self, capsys):
        self.assert_usage_error(
            capsys, "lift-check", "--group", "cyclic:3", "--ordering", "natural:1",
            "--degree-bound", "-1",
        )

    def test_negative_enumerate_cap(self, capsys):
        assert main(["enumerate", "--group", "cyclic:9", "--cap", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error: argument --cap: cap must be >= 1, got -1" in err


class TestPromislowCommand:
    def test_cap_12(self, capsys):
        code, out = run(capsys, "promislow", "--cap", "12", "--radius", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["worked_example"]["status"] == "pass"
        assert [e["n"] for e in payload["spectrum"]["obstructed"]] == [4, 8, 12]


class TestWitnessCommand:
    def test_p2(self, capsys):
        code, out = run(capsys, "witness", "--p", "2", "--budget", "60")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["status"] == "pass"

    def test_rejects_non_prime(self, capsys):
        assert main(["witness", "--p", "4"]) == 2


class TestLiftCheckCommand:
    def test_cyclic(self, capsys):
        code, out = run(
            capsys, "lift-check", "--group", "cyclic:4", "--ordering",
            "natural:1", "--degree-bound", "2",
        )
        assert code == 0
        assert json.loads(out)["report"]["status"] == "pass"

    def test_window_over_the_tuple_cap_exits_2_at_once(self, capsys, monkeypatch):
        # (8001 * 12)^2 window pairs: refused before the window is built
        def unreachable(*args):
            raise AssertionError("the window was built")

        monkeypatch.setattr(lift_module, "lift_window", unreachable)
        argv = ["lift-check", "--group", "cyclic:12", "--ordering", "natural:1",
                "--degree-bound", "4000"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: lift-check window of 96012 elements (degree bound 4000, 12 "
            "base elements) has 9218304144 pairs, over the cap of 2000000\n"
        )

    def test_window_under_the_tuple_cap_runs(self, capsys):
        # (81 * 12)^2 = 944,784 window pairs
        code, out = run(
            capsys, "lift-check", "--group", "cyclic:12", "--ordering",
            "natural:1", "--degree-bound", "40",
        )
        assert code == 0
        assert json.loads(out)["report"]["status"] == "pass"


class TestSharedGroupHandle:
    """Orderings resolved by the CLI live on its own group handle, so the
    membership checks of the oracle and the cocycle take their `is` path."""

    def test_natural(self):
        group = resolve_group("cyclic:10")
        assert resolve_ordering(group, "natural:3").group is group

    def test_product_lex(self):
        group = resolve_group("product:integers,cyclic:4")
        assert resolve_ordering(group, "lex").group is group

    def test_on_rejects_another_group(self):
        with pytest.raises(GroupMismatchError):
            natural_circular_cyclic(5).on(CyclicGroup(6))


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(
            capsys, "enumerate", "--group", "cyclic:3", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["count"] == 2

    def test_table_format(self, capsys):
        code, out = run(
            capsys, "enumerate", "--group", "cyclic:3", "--format", "table"
        )
        assert code == 0
        assert "count = 2" in out

    def test_unknown_group(self, capsys):
        code, _ = run(capsys, "spectrum", "--group", "mystery", "--cap", "5")
        assert code == 2

    def test_resource_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDKIT_MAX_BALL", "4")
        code, _ = run(
            capsys, "validate", "--group", "integers", "--ordering", "secret",
            "--radius", "9",
        )
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["enumerate"]) == 2


class TestColdStart:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def test_import_leaves_out_dataclasses(self):
        # every CLI call pays this import: `dataclasses` with its decorator
        # once made up most of it, and `fractions` (with `decimal` and
        # `numbers`) serves only the witness and Promislow decoders
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(self.SRC)
        code = (
            "import json, sys; before = set(sys.modules); import ordkit.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert not loaded & {"fractions", "decimal", "numbers", "dataclasses"}
        # perfbench/trace_job.py finds every layer in sys.modules after
        # this one import, so no layer may load lazily
        layers = ("groups", "orders", "lift", "secret", "snf", "obstruction",
                  "witness", "cli")
        assert {f"ordkit.{name}" for name in layers} <= loaded

    def test_records_are_not_named_tuples(self):
        # building a typing.NamedTuple class costs about ten times a
        # groups.Record subclass at import
        for path in sorted((self.SRC / "ordkit").glob("*.py")):
            names = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None)
                for node in ast.walk(ast.parse(path.read_text()))
            }
            assert "NamedTuple" not in names, path.name
