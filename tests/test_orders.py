import itertools
import json
from fractions import Fraction

import pytest

from ordkit.groups import (
    CyclicGroup,
    DirectProductGroup,
    FreeAbelianGroup,
    GroupMismatchError,
    IntegerGroup,
    PromislowGroup,
    ball,
)
from ordkit.obstruction import (
    promislow_circular,
    promislow_kernel_order,
    promislow_phi,
)
from ordkit.orders import (
    LeftOrdering,
    OrderingTable,
    as_carrier,
    restricted_cone,
    sweep,
    convexity_check,
    lex_circular,
    lex_free_abelian_order,
    natural_circular_cyclic,
    natural_units,
    product_circular,
    product_ses,
    secret_from_left,
    trivial_order,
    usual_integer_order,
    validate_bi_invariance,
    validate_circular,
    validate_left_ordering,
)


def circle_orientation(n, k, a, b, c):
    """Independent oracle: orientation of k*a/n, k*b/n, k*c/n on the circle."""
    pts = [Fraction(k * x % n, n) for x in (a, b, c)]
    if len(set(pts)) < 3:
        return 0
    u = (pts[1] - pts[0]) % 1
    v = (pts[2] - pts[0]) % 1
    return 1 if u < v else -1


class TestNaturalCyclic:
    @pytest.mark.parametrize(
        "n,k,triple,expected",
        [
            (5, 1, (0, 1, 3), 1),
            (5, 1, (1, 0, 3), -1),
            (3, 2, (0, 1, 2), -1),
        ],
    )
    def test_examples(self, n, k, triple, expected):
        c = natural_circular_cyclic(n, k)
        group = CyclicGroup(n)
        assert c(*(group.element(x) for x in triple)) == expected

    def test_matches_circle_oracle(self):
        for n in range(2, 9):
            for k in natural_units(n):
                c = natural_circular_cyclic(n, k)
                group = CyclicGroup(n)
                for triple in itertools.product(range(n), repeat=3):
                    got = c(*(group.element(x) for x in triple))
                    assert got == circle_orientation(n, k, *triple)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            natural_circular_cyclic(6, 2)

    def test_units_give_distinct_orderings(self):
        for n in range(3, 13):
            group = CyclicGroup(n)
            orderings = [natural_circular_cyclic(n, k) for k in natural_units(n)]
            signatures = []
            for c in orderings:
                signatures.append(
                    tuple(
                        c(group.element(0), group.element(1), group.element(m))
                        for m in range(2, n)
                    )
                )
            assert len(set(signatures)) == len(orderings)


class TestSecretFromLeft:
    def test_integer_examples(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        e = z.element
        assert c(e(-1), e(0), e(5)) == 1
        assert c(e(0), e(5), e(-1)) == 1
        assert c(e(5), e(0), e(-1)) == -1
        assert c(e(3), e(3), e(5)) == 0

    def test_cyclic_and_antisymmetric(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        vals = [-3, -1, 0, 2, 4]
        for x, y, w in itertools.permutations(vals, 3):
            t = tuple(z.element(v) for v in (x, y, w))
            assert c(*t) == c(t[1], t[2], t[0]) == c(t[2], t[0], t[1])
            assert c(*t) == -c(t[1], t[0], t[2])


class TestValidators:
    def test_natural_passes(self):
        report = validate_circular(natural_circular_cyclic(5, 1), CyclicGroup(5))
        assert report.passed
        assert report.mode == "exhaustive"

    def test_secret_on_ball_passes(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        report = validate_circular(c, ball([z.element(1)], 10))
        assert report.passed

    def test_flipped_entry_fails_with_counterexample(self):
        group = CyclicGroup(4)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(4, 1), as_carrier(group)
        )
        key = sorted(table.entries)[0]
        report = validate_circular(table.flipped(key).ordering(), group)
        assert not report.passed
        assert report.counterexample["kind"] in ("cocycle", "left-invariance")

    def test_zero_on_distinct_fails(self):
        group = CyclicGroup(4)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(4, 1), as_carrier(group)
        )
        entries = dict(table.entries)
        key = sorted(entries)[0]
        entries[key] = 0
        bad = OrderingTable(group, table.carrier, entries).ordering()
        report = validate_circular(bad, group)
        assert not report.passed
        assert report.counterexample["kind"] == "zero-on-distinct"

    def test_determinism_of_counterexample(self):
        group = CyclicGroup(4)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(4, 1), as_carrier(group)
        )
        key = sorted(table.entries)[5]
        bad = table.flipped(key).ordering()
        r1 = validate_circular(bad, group)
        r2 = validate_circular(bad, group)
        assert r1.to_dict() == r2.to_dict()

    def test_foreign_element_rejected_before_any_counterexample(self):
        # the table is built on the whole carrier, so a stranger is reported
        # even where the sweep would fail on an earlier triple
        group = CyclicGroup(5)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(5, 1), as_carrier(group)
        )
        bad = OrderingTable(group, table.carrier, {**table.entries, (0, 0, 1): 1})
        carrier = [*group.elements(), CyclicGroup(7).element(6)]
        with pytest.raises(GroupMismatchError, match="element of cyclic:7"):
            validate_circular(bad.ordering(), carrier)

    def test_sampled_mode_on_large_carrier(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        report = validate_circular(
            c, ball([z.element(1)], 30), tuple_cap=10_000, sample_size=500
        )
        assert report.passed
        assert report.mode == "sampled"
        assert report.notes


class TestLexCircular:
    @pytest.fixture
    def ses(self):
        return product_ses(usual_integer_order(IntegerGroup()), 3)

    def test_case2_shared_leading_image(self, ses):
        c = lex_circular(ses)
        e = ses.group.element
        assert c(e((0, 0)), e((5, 0)), e((0, 1))) == 1

    def test_case1_distinct_images(self, ses):
        c = lex_circular(ses)
        e = ses.group.element
        assert c(e((0, 0)), e((0, 1)), e((0, 2))) == 1

    def test_case3_all_equal_images(self, ses):
        c = lex_circular(ses)
        e = ses.group.element
        assert c(e((0, 0)), e((1, 0)), e((2, 0))) == 1

    def test_rotation_dispatch_consistency(self, ses):
        # triples hitting case 2 only after a cyclic rotation must agree
        # with cyclic invariance of the directly evaluable arrangement
        c = lex_circular(ses)
        e = ses.group.element
        g1, g2, g3 = e((0, 0)), e((0, 1)), e((1, 0))
        assert c(g1, g2, g3) == c(g3, g1, g2) == c(g2, g3, g1)
        assert c(g1, g3, g2) == -c(g1, g2, g3)

    def test_validates_on_carrier(self, ses):
        c = lex_circular(ses)
        carrier = [ses.group.element((i, j)) for i in range(-2, 3) for j in range(3)]
        report = validate_circular(c, carrier, tuple_cap=60_000)
        assert report.passed


class TestProductCircular:
    def test_formula_values(self):
        c = product_circular(usual_integer_order(IntegerGroup()), 2)
        e = c.group.element
        # the displayed three-case formula gives -1 here (and +1 after
        # swapping the last two arguments)
        assert c(e((0, 0)), e((1, 0)), e((0, 1))) == 1
        assert c(e((0, 0)), e((0, 1)), e((1, 0))) == -1

    def test_trivial_base_reduces_to_natural(self):
        triv = CyclicGroup(1)
        c = product_circular(trivial_order(triv), 5)
        natural = natural_circular_cyclic(5, 1)
        group = c.group
        cyclic = CyclicGroup(5)
        for t in itertools.product(range(5), repeat=3):
            got = c(*(group.element((0, x)) for x in t))
            want = natural(*(cyclic.element(x) for x in t))
            assert got == want

    def test_validates_on_ball(self):
        c = product_circular(usual_integer_order(IntegerGroup()), 2)
        group = c.group
        carrier = ball([group.element((1, 0)), group.element((0, 1))], 3)
        assert validate_circular(c, carrier, tuple_cap=300_000).passed


class TestBiInvariance:
    def test_abelian_passes(self):
        report = validate_bi_invariance(natural_circular_cyclic(6, 1), CyclicGroup(6))
        assert report.passed

    def test_free_abelian_secret_passes(self):
        z2 = FreeAbelianGroup(2)
        c = secret_from_left(lex_free_abelian_order(z2))
        report = validate_bi_invariance(
            c, ball(z2.basis(), 2), tuple_cap=100_000
        )
        assert report.passed

    def test_promislow_lex_fails_with_witness(self):
        c = promislow_circular()
        group = PromislowGroup()
        carrier = ball(group.generators(), 2)
        plain = validate_circular(c, carrier, tuple_cap=100_000)
        assert plain.passed
        report = validate_bi_invariance(c, carrier, tuple_cap=100_000)
        assert not report.passed
        assert report.counterexample["kind"] == "right-invariance"
        assert len(report.counterexample["tuple"]) == 4


class TestLeftOrderingValidator:
    def test_usual_integer_order(self):
        z = IntegerGroup()
        report = validate_left_ordering(usual_integer_order(z), ball([z.element(1)], 10))
        assert report.passed

    def test_lex_order(self):
        z2 = FreeAbelianGroup(2)
        report = validate_left_ordering(lex_free_abelian_order(z2), ball(z2.basis(), 3))
        assert report.passed

    def test_broken_cone_fails(self):
        from ordkit.orders import LeftOrdering

        z = IntegerGroup()
        bad = LeftOrdering(z, "broken", lambda v: v % 2 == 1, "odd cone")
        report = validate_left_ordering(bad, ball([z.element(1)], 5))
        assert not report.passed

    def test_cone_runs_once_per_value(self):
        kernel, phi = promislow_kernel_order(), promislow_phi()
        calls = []

        def cone(v):
            calls.append(v)
            return kernel.cone(v)

        carrier = [
            g for g in ball(PromislowGroup().generators(), 3)
            if phi.kernel_contains(g)
        ]
        counted = kernel._replace(cone=cone)
        assert validate_left_ordering(counted, carrier) == validate_left_ordering(
            kernel, carrier
        )
        assert len(calls) == len(set(calls))

    def test_foreign_element_rejected_before_any_probe(self):
        # the trichotomy failure at -5 comes first in carrier order, but the
        # stranger is named before the cone runs
        z = IntegerGroup()
        calls = []
        odd = LeftOrdering(z, "odd", lambda v: calls.append(v) or v % 2 == 1, "odd")
        carrier = [*ball([z.element(1)], 5), CyclicGroup(7).element(6)]
        with pytest.raises(GroupMismatchError, match="element of cyclic:7"):
            validate_left_ordering(odd, carrier)
        assert calls == []


class TestConvexity:
    def test_dominant_factor_convex(self):
        z2 = FreeAbelianGroup(2)
        lo = lex_free_abelian_order(z2)
        report = convexity_check(lo, [z2.element((1, 0))], ball(z2.basis(), 3))
        assert report.passed

    def test_recessive_factor_not_convex(self):
        z2 = FreeAbelianGroup(2)
        lo = lex_free_abelian_order(z2)
        report = convexity_check(lo, [z2.element((0, 1))], ball(z2.basis(), 3))
        assert not report.passed
        assert report.counterexample["kind"] == "coset-order-ill-defined"

    def test_index_two_sublattice_not_convex(self):
        z = IntegerGroup()
        lo = usual_integer_order(z)
        report = convexity_check(lo, [z.element(2)], ball([z.element(1)], 3))
        assert not report.passed


class TestOrderingTable:
    def test_json_roundtrip(self):
        group = CyclicGroup(4)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(4, 1), as_carrier(group)
        )
        obj = json.loads(json.dumps(table.to_json_dict()))
        back = OrderingTable.from_json_dict(obj)
        assert back.entries == table.entries
        assert back.group == group

    def test_given_group_needs_no_group_key(self):
        group = CyclicGroup(3)
        obj = OrderingTable.from_arrangement(group, as_carrier(group)).to_json_dict()
        del obj["group"]
        assert OrderingTable.from_json_dict(obj, group).group == group
        with pytest.raises(ValueError, match="missing the 'group' key"):
            OrderingTable.from_json_dict(obj)

    def test_json_roundtrip_nested_product(self):
        inner = DirectProductGroup(CyclicGroup(2), CyclicGroup(3))
        group = DirectProductGroup(inner, CyclicGroup(1))
        carrier = as_carrier(group)
        table = OrderingTable.from_arrangement(group, carrier)
        obj = json.loads(json.dumps(table.to_json_dict()))
        assert obj["group"] == "product:product:cyclic:2,cyclic:3,cyclic:1"
        back = OrderingTable.from_json_dict(obj)
        assert back.group == group
        assert back.carrier == table.carrier
        assert back.entries == table.entries

    def test_from_arrangement_matches_natural(self):
        group = CyclicGroup(5)
        arrangement = [group.element(k) for k in range(5)]
        table = OrderingTable.from_arrangement(group, arrangement)
        natural = natural_circular_cyclic(5, 1)
        for t in itertools.permutations(group.elements(), 3):
            assert table.ordering()(*t) == natural(*t)


class TestSweepCounts:
    """The count rule every check report shares, pinned on concrete runs."""

    def test_protocol(self):
        notes = []

        def body():
            yield None
            yield None
            notes.append("reached the end")
            return {"kind": "uncounted"}

        report = sweep("demo", body(), notes=notes)
        assert (report.status, report.checked_tuples) == ("fail", 2)
        assert report.counterexample == {"kind": "uncounted"}
        assert report.notes == ("reached the end",)
        stopped = sweep("demo", iter([None, {"kind": "x"}, None]), mode="sampled")
        assert (stopped.checked_tuples, stopped.mode) == (2, "sampled")

    def test_failing_case_is_counted(self):
        group = CyclicGroup(4)
        table = OrderingTable.from_ordering(
            natural_circular_cyclic(4, 1), as_carrier(group)
        ).flipped((0, 1, 2))
        report = validate_circular(table.ordering(), group)
        # all 4^3 triples pass, then the 19th quadruple breaks the cocycle
        assert report.checked_tuples == 64 + 19
        assert report.counterexample == {
            "kind": "cocycle", "tuple": [0, 1, 0, 2], "defect": -2
        }

    def test_invariance_counts_only_translates_inside_the_carrier(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        report = validate_circular(c, ball([z.element(1)], 2))
        # h + g stays in [-2, 2] for 5 - |h| of the g, so each h contributes
        # (5 - |h|)^3 left-invariance tuples
        applicable = sum((5 - abs(h)) ** 3 for h in range(-2, 3))
        assert report.passed
        assert report.checked_tuples == 5**3 + 5**4 + applicable == 1057

    def test_invariance_failure_count(self):
        group = CyclicGroup(5)
        arrangement = [group.element(v) for v in (0, 2, 1, 3, 4)]
        table = OrderingTable.from_arrangement(group, arrangement)
        report = validate_circular(table.ordering(), group)
        assert report.checked_tuples == 884
        assert report.counterexample == {
            "kind": "left-invariance",
            "tuple": [1, 0, 1, 3],
            "base": 1,
            "translated": -1,
        }

    def test_left_ordering_identity_positive_checks_nothing(self):
        z = IntegerGroup()
        lo = LeftOrdering(z, "nonneg", lambda v: v >= 0, "x >= 0")
        report = validate_left_ordering(lo, ball([z.element(1)], 5))
        assert report.checked_tuples == 0
        assert report.counterexample == {"kind": "identity-positive", "tuple": [0]}

    def test_left_ordering_counts_skipped_trichotomy_probes(self):
        z = IntegerGroup()
        inner = [z.element(v) for v in range(-3, 4)]
        lo = restricted_cone(z, [z.element(v) for v in (1, 2, 3)], inner)
        report = validate_left_ordering(lo, ball([z.element(1)], 5))
        # trichotomy counts all 10 non-identity elements, +-4 and +-5 whose
        # probes are skipped included; closure counts the 3 x 3 pairs of
        # positives only
        assert report.passed
        assert report.checked_tuples == 10 + 9
        assert report.notes == ("skipped 102 probes outside the carrier",)

    def test_left_ordering_trichotomy_failure_count(self):
        z = IntegerGroup()
        lo = LeftOrdering(z, "odd", lambda v: v % 2 == 1, "odd")
        report = validate_left_ordering(lo, ball([z.element(1)], 5))
        assert report.checked_tuples == 1
        assert report.counterexample == {
            "kind": "trichotomy",
            "tuple": [-5],
            "positive": True,
            "inverse_positive": True,
        }

    def test_convexity_counts_whole_rows(self):
        z = IntegerGroup()
        lo = usual_integer_order(z)
        report = convexity_check(lo, [z.element(2)], ball([z.element(1)], 3))
        # cosets {-3,-1,1,3} and {-2,0,2}: the first row (-3 against the
        # even coset) is consistent, the second (-1) is not
        assert report.checked_tuples == 6
        assert report.counterexample["tuple"] == [-3, -1, -2, -2]
