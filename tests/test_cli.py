import ast
import gc
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orders_reference import flip_entry, ordering_table

from ordkit import lift as lift_module
from ordkit.cli import main, render_json, resolve_group, resolve_ordering
from ordkit.groups import CyclicGroup, get_group
from ordkit.orders import (
    OrderingTable,
    arrangement_circular,
    as_carrier,
    natural_circular_cyclic,
)


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
        group = get_group("klein4")
        carrier = as_carrier(group)
        c = arrangement_circular(group, carrier)
        table = ordering_table(c, carrier)
        path = tmp_path / "klein.json"
        path.write_text(json.dumps(table.to_json_dict()))
        code, out = run(
            capsys, "validate", "--group", "klein4", "--ordering", f"table:{path}"
        )
        assert code == 1
        assert json.loads(out)["report"]["status"] == "fail"

    def test_flipped_table_fails(self, capsys, tmp_path):
        group = CyclicGroup(5)
        table = ordering_table(natural_circular_cyclic(5, 1), as_carrier(group))
        flipped = flip_entry(table, sorted(table.entries)[0])
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

    def test_exponent_one_obstructs_nothing(self, capsys, tmp_path):
        # a trivial abelianization has exponent 1, which is in no spectrum, so
        # closure from it obstructs no n: every n is undetermined, which cannot
        # contradict `spectrum --group trivial` (every n unobstructed)
        path = tmp_path / "trivial.txt"
        path.write_text("gens: a\nrel: a\n")
        code, out = run(
            capsys, "spectrum", "--group", f"presentation:{path}", "--cap", "4"
        )
        report = {
            "cap": 4,
            "group": "presentation(a)",
            "notes": [
                "bracketing only: no unobstructed certificates are derivable "
                "from a bare presentation",
                "abelianization is trivial (exponent 1); the exponent argument "
                "obstructs no n > 1",
            ],
            "obstructed": [],
            "schema": 1,
            "undetermined": [2, 3, 4],
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

    def test_over_budget_finite_group_exits_at_once(self):
        # |G| * ceil(log2 |G|) group operations over the tuple cap: refused
        # before any element is built, so a 20-digit order fails at start-up
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ordkit", "spectrum", "--group",
             "cyclic:99999999999999999999", "--cap", "3"],
            env=child_env(), capture_output=True, text=True, timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: spectrum of cyclic:99999999999999999999 needs about "
            "6699999999999999999933 group operations (|G| log2 |G|), over the "
            "cap of 2000000\n"
        )
        assert elapsed < 1.0


class TestCorruptedTables:
    """An invalid table stops detect-secret at the first cocycle pair where no
    case of the ladder fires, in the canonical pair order."""

    @pytest.mark.parametrize("entry", ["flip", 0, 5])
    def test_detect_secret_error(self, capsys, tmp_path, entry):
        group = CyclicGroup(5)
        table = ordering_table(natural_circular_cyclic(5, 1), group.elements())
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

    @pytest.mark.parametrize(
        "descriptor", ["natural:x", "naturalX", "natural:", "natural:1:2"]
    )
    def test_malformed_natural_descriptor(self, capsys, descriptor):
        # only natural and natural:<k> name the natural orderings
        self.assert_usage_error(
            capsys, "validate", "--group", "cyclic:5", "--ordering", descriptor
        )

    @pytest.mark.parametrize(
        "argv",
        [
            *(["validate", "--group", "cyclic:5", "--ordering", f"natural:{k}"]
              for k in ["+2", "1_2", " 2", "٢"]),
            *(["validate", "--group", group, "--ordering", "natural"]
              for group in ["cyclic:+6", "cyclic:٦", "cyclic: 6", "cyclic:1_2"]),
            ["detect-secret", "--group", "free-abelian:+2", "--ordering", "secret",
             "--radius", "1"],
            ["spectrum", "--group", "witness:٣", "--cap", "10"],
        ],
        ids=lambda argv: f"{argv[2]}/{argv[4]}",
    )
    def test_descriptor_integer_not_in_ascii_digits(self, capsys, argv):
        # int() reads these too, so one group or ordering had several names
        self.assert_usage_error(capsys, *argv)

    @pytest.mark.parametrize(
        "group, ordering",
        [("cyclic:5", "natural:-1"), ("cyclic:05", "natural:02")],
    )
    def test_descriptor_integer_in_ascii_digits(self, capsys, group, ordering):
        assert main(["validate", "--group", group, "--ordering", ordering]) == 0
        assert capsys.readouterr().err == ""

    def test_negative_radius(self, capsys):
        self.assert_usage_error(
            capsys, "validate", "--group", "integers", "--ordering", "secret",
            "--radius", "-1",
        )

    def test_sabotaged_witness_spectrum(self, capsys):
        # only the standard construction has a descriptor; its sabotaged
        # bases live in the tests' Fraction model
        argv = ["spectrum", "--group", "witness:3:up2:down4", "--cap", "10"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and "bad witness descriptor" in err

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
        # 1000^3 cocycle triples: refused before the pass, whatever the
        # degree bound
        def unreachable(*args):
            raise AssertionError("the cocycle pass ran")

        monkeypatch.setattr(lift_module, "check_inhomogeneous_cocycle", unreachable)
        argv = ["lift-check", "--group", "cyclic:1000", "--ordering", "natural:1",
                "--degree-bound", "0"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: lift-check cocycle pass over 1000 base elements has "
            "1000000000 triples, over the cap of 2000000\n"
        )

    def test_window_pair_cap_boundary(self, capsys, monkeypatch):
        # the cap bounds the N^3 cocycle triples: 126^3 = 2,000,376 are
        # refused at the real cap, and at a cap of 12^3 = 1,728 cyclic:12
        # runs and cyclic:13 (2,197) is refused
        def argv(n):
            return ["lift-check", "--group", f"cyclic:{n}", "--ordering",
                    "natural:1", "--degree-bound", "0"]

        assert main(argv(126)) == 2
        assert capsys.readouterr() == ("", (
            "error: lift-check cocycle pass over 126 base elements has 2000376 "
            "triples, over the cap of 2000000\n"
        ))
        monkeypatch.setattr(lift_module, "_DEFAULT_TUPLE_CAP", 1728)
        code, out = run(capsys, *argv(12))
        assert code == 0
        assert json.loads(out)["report"]["status"] == "pass"
        assert main(argv(13)) == 2
        assert capsys.readouterr() == ("", (
            "error: lift-check cocycle pass over 13 base elements has 2197 "
            "triples, over the cap of 1728\n"
        ))

    def test_window_under_the_tuple_cap_runs(self, capsys):
        # 12^3 = 1,728 triples, whatever the degree bound: the window only
        # scales the counts the report states
        code, out = run(
            capsys, "lift-check", "--group", "cyclic:12", "--ordering",
            "natural:1", "--degree-bound", "4000",
        )
        assert code == 0
        assert json.loads(out)["report"]["status"] == "pass"


class TestSharedGroupHandle:
    """Orderings resolved by the CLI live on a group equal to the CLI's, with
    its descriptor; for lex on a product, the builder's product of the left
    factor and cyclic:n is the CLI group itself."""

    @pytest.mark.parametrize("group_desc, ordering", [
        ("cyclic:10", "natural:3"),
        *((f"product:{left},cyclic:4", "lex") for left in (
            "integers", "free-abelian:2", "free-abelian:0", "trivial", "cyclic:1",
        )),
    ])
    def test_ordering_group_equals_cli_group(self, group_desc, ordering):
        group = resolve_group(group_desc)
        resolved = resolve_ordering(group, ordering).group
        assert resolved == group
        assert resolved.descriptor == group.descriptor


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

    @pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        # a missing directory (FileNotFoundError) or a directory as the
        # target (IsADirectoryError) is a resource error, not a traceback
        path = tmp_path / target
        code = main(["validate", "--group", "cyclic:5", "--ordering", "natural:1",
                     "--output", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write report to {path}: [Errno ")


# quotes, backslashes, control characters, non-ASCII, astral and lone
# surrogates, among any other code point
json_text = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
    st.characters(exclude_categories=()),
))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64)) | json_text,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(json_text, inner),
    max_leaves=40,
)


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class TestRenderJson:
    """render_json writes the bytes of json.dumps(indent=2, sort_keys=True)
    without the json package."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_same_bytes_as_json_dumps(self, value):
        assert render_json(value) == dumps(value)

    def test_golden_records(self):
        records = 0
        for path in sorted((Path(__file__).parent / "data").glob("*.json")):
            for record in json.loads(path.read_text()).values():
                assert render_json(record) == dumps(record), path.name
                records += 1
        assert records > 100

    @pytest.mark.parametrize("value", [
        1.5, {1, 2}, CyclicGroup(3).element(1), {1: "a"}, {"a": [0.0]},
    ])
    def test_non_json_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            render_json(value)


ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class TestColdStart:
    SRC = ROOT / "src"

    def test_import_leaves_out_dataclasses(self):
        # every CLI call pays this import: `dataclasses` with its decorator
        # once made up most of it, and `fractions` (with `decimal` and
        # `numbers`) serves only the witness and Promislow decoders
        code = (
            "import json, sys; before = set(sys.modules); import ordkit.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert not loaded & {"fractions", "decimal", "numbers", "dataclasses"}
        # the command line is read from the subcommand table: argparse, with
        # the gettext and locale of its messages, is not loaded
        assert not loaded & {"argparse", "gettext", "locale"}
        # perfbench/trace_job.py finds every layer in sys.modules after
        # this one import, so no layer may load lazily
        layers = ("groups", "orders", "lift", "secret", "snf", "obstruction",
                  "witness", "cli")
        assert {f"ordkit.{name}" for name in layers} <= loaded

    def test_import_leaves_out_json(self):
        # reports render through cli.render_json; the json package loads
        # only to read a table: ordering file
        code = (
            "import sys, ordkit.cli; "
            "print(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'json')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stdout) == []

    def test_bare_package_loads_no_layer(self):
        # each name has one import path, its module: the package itself
        # re-exports nothing, so importing it loads no layer
        code = (
            "import json, sys, ordkit; print(json.dumps(["
            "sorted(m for m in sys.modules if m.startswith('ordkit.')), "
            "sorted(n for n in vars(ordkit) if not n.startswith('__'))]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], []]

    def test_tracer_finds_every_boundary(self):
        # perfbench/trace_job.py wraps each traced boundary by its name and
        # lists the names it cannot find; install() patches ordkit for the
        # whole process, so it runs in a child
        code = (
            "import json, trace_job; tracer = trace_job.Tracer('x'); "
            "tracer.install(); print(json.dumps(tracer.missing))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True, cwd=ROOT / "perfbench",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_witness_run_leaves_out_fractions(self):
        # the standard witness group computes on int pairs, so a witness
        # run loads `fractions` no more than the import does
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "ordkit", "witness",
             "--p", "3", "--budget", "20"],
            env=child_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["report"]["status"] == "pass"
        loaded = {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "ordkit.witness" in loaded
        assert not loaded & {"fractions", "decimal", "numbers"}

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


class TestProcessEntry:
    """`python -m ordkit` and the `ordkit` script share one entry, which
    freezes the start-up heap, runs main, flushes the report and leaves by
    os._exit; a report that cannot be written exits 2."""

    def test_module_entry_freezes_before_main(self):
        code = (
            "import gc, runpy, ordkit.cli\n"
            "ordkit.cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
            "runpy.run_module('ordkit', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    def test_script_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        module, _, name = pyproject["project"]["scripts"]["ordkit"].partition(":")
        entry = getattr(importlib.import_module(module), name)
        assert entry is importlib.import_module("ordkit.__main__").run

    def test_cli_module_is_not_an_entry(self):
        # run as a module, cli.py must not exit 0 without running anything
        argv = ["validate", "--group", "klein4", "--ordering", "natural:1"]
        proc = subprocess.run(
            [sys.executable, "-m", "ordkit.cli", *argv], env=child_env(),
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: run python -m ordkit, not python -m ordkit.cli\n"

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--group", "cyclic:3"],
        ["spectrum", "--group", "cyclic:30", "--cap", "400"],
    ], ids=["small", "large"])
    def test_closed_pipe_exits_2(self, argv):
        # a report written to a pipe whose reader is gone: one error line
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ordkit", *argv], env=child_env(),
                stdout=write, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            2, "error: cannot write report to stdout: [Errno 32] Broken pipe\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_2(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ordkit", "enumerate", "--group", "cyclic:3"],
                env=child_env(), stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert (proc.returncode, proc.stderr) == (
            2, "error: cannot write report to stdout: [Errno 28] No space left on "
            "device\n"
        )

    @pytest.mark.parametrize("argv, size", [
        (["enumerate", "--group", "cyclic:3"], 100),
        (["spectrum", "--group", "cyclic:30", "--cap", "400"], 70_000),
    ], ids=["small", "large"])
    def test_whole_report_survives_the_fast_exit(self, capsys, tmp_path, argv, size):
        # the entry leaves through os._exit: a report must still arrive whole,
        # through a pipe and through --output, whether it stays in the stdout
        # buffer until the flush (small) or is written past it (about 78 KB)
        assert main(argv) == 0
        report = capsys.readouterr().out.encode()
        assert len(report) > size
        command = [sys.executable, "-m", "ordkit", *argv]
        proc = subprocess.run(command, env=child_env(), capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, report, b"")
        path = tmp_path / "report.json"
        proc = subprocess.run([*command, "--output", str(path)], env=child_env(),
                              capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert path.read_bytes() == report

    def test_main_has_no_process_wide_effect(self, capsys):
        # pytest and perfbench/trace_job.py run main() in-process
        frozen = gc.get_freeze_count()
        assert main(["lift-check", "--group", "cyclic:4", "--ordering",
                     "natural:1"]) == 0
        assert gc.get_freeze_count() == frozen


# runs argv under a 1 GB address-space limit and prints its exit code and the
# peak RSS in KB of its process tree, from the RUSAGE_CHILDREN of a fresh parent
_PEAK_RSS = """
import resource, subprocess, sys
limit = 1 << 30
set_limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
proc = subprocess.run(sys.argv[1:], capture_output=True, text=True, preexec_fn=set_limit)
sys.stderr.write(proc.stderr)
print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB")
class TestBallMemory:
    """A ball stores a parent and a letter per element, not a word, so its
    memory is linear in its size on groups of linear growth too."""

    @pytest.mark.parametrize("radius,code,peak_mb", [
        (16000, 0, 100),
        # 1,000,001 elements: one over the ball cap
        (500000, 2, 200),
    ])
    def test_secret_integers_peak(self, radius, code, peak_mb):
        argv = ["validate", "--group", "integers", "--ordering", "secret",
                "--radius", str(radius)]
        env = child_env()
        env.pop("ORDKIT_MAX_BALL", None)
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "ordkit", *argv],
            env=env, capture_output=True, text=True,
        )
        got_code, peak_kb = map(int, proc.stdout.split())
        assert got_code == code, proc.stderr
        if code == 2:
            assert proc.stderr == (
                f"error: ball of radius {radius} exceeds cap 1000000 elements\n"
            )
        assert peak_kb <= peak_mb * 1024
