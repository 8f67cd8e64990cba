import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordkit import lift as lift_module
from ordkit.groups import (
    CyclicGroup,
    Group,
    GroupMismatchError,
    IntegerGroup,
    ball,
    get_group,
)
from ordkit.lift import (
    Cocycle,
    InvalidOrderingError,
    LiftGroup,
    check_inhomogeneous_cocycle,
    check_lift_associativity,
    cyclic_enumeration,
    cyclic_lift_iso_check,
    lift_check_report,
    lift_is_positive,
    lift_window,
    recover_c,
)
from ordkit.orders import (
    CircularOrdering,
    natural_circular_cyclic,
    natural_units,
    secret_from_left,
    usual_integer_order,
)


@pytest.fixture
def c3():
    return natural_circular_cyclic(3, 1)


@pytest.fixture
def lift3(c3):
    return LiftGroup(Cocycle(c3))


class TestCocycleValues:
    def test_case_ladder_examples(self, c3):
        f = Cocycle(c3)
        e = CyclicGroup(3).element
        assert f(e(1), e(1)) == 0  # orientation case
        assert f(e(2), e(2)) == 1  # reversed orientation
        assert f(e(2), e(1)) == 1  # ab = id
        assert f(e(0), e(2)) == 0 and f(e(2), e(0)) == 0  # identity cases

    def test_values_in_range(self, c3):
        f = Cocycle(c3)
        group = CyclicGroup(3)
        for a, b in itertools.product(group.elements(), repeat=2):
            assert f(a, b) in (0, 1)

    def test_secret_integer_order(self):
        z = IntegerGroup()
        f = Cocycle(secret_from_left(usual_integer_order(z)))
        assert f(z.element(1), z.element(1)) == 0
        assert f(z.element(-1), z.element(-1)) == 1

    def test_override_injection(self, c3):
        f = Cocycle(c3, overrides={(1, 1): 1})
        e = CyclicGroup(3).element
        assert f(e(1), e(1)) == 1
        assert f.of_values(1, 1) == 1

    def test_value_lookup_matches_call(self, c3):
        f = Cocycle(c3)
        for a, b in itertools.product(CyclicGroup(3).elements(), repeat=2):
            assert f.of_values(a.value, b.value) == f(a, b)

    def test_invalid_ordering_names_pair(self):
        group = CyclicGroup(3)
        zero = CircularOrdering(group, "explicit-table", lambda *args: 0, "zero")
        pair = r"\(<cyclic:3: 1>, <cyclic:3: 1>\)"
        with pytest.raises(InvalidOrderingError, match=pair):
            Cocycle(zero)(group.element(1), group.element(1))


class TestLiftGroupLaw:
    def test_op_examples(self, lift3):
        e = CyclicGroup(3).element
        x = lift3.element_from(0, e(1))
        assert (x * x).value == (0, 2)
        y = lift3.element_from(0, e(2))
        assert (y * x).value == (1, 0)

    def test_identity_degrees_add(self, lift3):
        e = CyclicGroup(3).element
        assert (
            lift3.element_from(5, e(0)) * lift3.element_from(-3, e(0))
        ).value == (2, 0)

    def test_inverse_example(self, lift3):
        e = CyclicGroup(3).element
        assert (~lift3.element_from(0, e(1))).value == (-1, 2)
        assert (~lift3.element_from(5, e(0))).value == (-5, 0)
        assert ~lift3.identity() == lift3.identity()

    def test_cube_of_generator_hits_degree_one(self, lift3):
        e = CyclicGroup(3).element
        x = lift3.element_from(0, e(1))
        assert (x**3).value == (1, 0)

    def test_associativity_window(self, lift3):
        window = lift_window(lift3, 2, CyclicGroup(3))
        for x, y, z in itertools.islice(
            itertools.product(window, repeat=3), 0, None, 11
        ):
            assert (x * y) * z == x * (y * z)

    def test_central_generator(self, lift3):
        central = lift3.central_generator()
        for x in lift_window(lift3, 2, CyclicGroup(3)):
            assert central * x == x * central


class TestCone:
    def test_examples(self, lift3):
        e = CyclicGroup(3).element
        assert not lift_is_positive(lift3.identity())
        assert lift_is_positive(lift3.element_from(0, e(1)))
        assert not lift_is_positive(lift3.element_from(-1, e(1)))

    def test_cone_axioms_on_window(self, lift3):
        window = lift_window(lift3, 5, CyclicGroup(3))
        ident = lift3.identity()
        positives = [x for x in window if lift_is_positive(x)]
        for x in window:
            if x != ident:
                assert lift_is_positive(x) != lift_is_positive(~x)
        for x, y in itertools.product(positives, repeat=2):
            assert lift_is_positive(x * y)


class TestCocycleIdentity:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_natural_orderings_pass(self, n):
        for k in natural_units(n):
            f = Cocycle(natural_circular_cyclic(n, k))
            report = check_inhomogeneous_cocycle(f, CyclicGroup(n))
            assert report.passed

    def test_corrupted_value_fails(self, c3):
        f = Cocycle(c3, overrides={(1, 1): 1})
        report = check_inhomogeneous_cocycle(f, CyclicGroup(3))
        assert not report.passed
        assert report.counterexample["kind"] == "cocycle-identity"

    def test_trivial_group_vacuous(self):
        triv = CyclicGroup(1)
        from ordkit.orders import CircularOrdering

        c = CircularOrdering(triv, "explicit-table", lambda *args: 0, "zero")
        report = check_inhomogeneous_cocycle(Cocycle(c), triv)
        assert report.passed

    def test_elements_of_another_group_rejected(self):
        # f_c of Z/5 must not re-tag elements of Z/7 as its own
        z7 = CyclicGroup(7)
        with pytest.raises(GroupMismatchError):
            Cocycle(natural_circular_cyclic(5, 1))(z7.element(1), z7.element(5))

    def test_carrier_of_another_group_rejected(self):
        f = Cocycle(natural_circular_cyclic(5, 1))
        with pytest.raises(GroupMismatchError):
            check_inhomogeneous_cocycle(f, CyclicGroup(7))


class TestRecover:
    @pytest.mark.parametrize("n", (3, 5, 7))
    def test_roundtrip_exhaustive(self, n):
        c = natural_circular_cyclic(n, 1)
        f = Cocycle(c)
        group = CyclicGroup(n)
        for t in itertools.product(group.elements(), repeat=3):
            assert recover_c(f, *t) == c(*t)

    def test_degenerate_zero(self, c3):
        f = Cocycle(c3)
        e = CyclicGroup(3).element
        assert recover_c(f, e(1), e(1), e(2)) == 0

    def test_secret_integer(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        f = Cocycle(c)
        assert recover_c(f, z.element(0), z.element(1), z.element(2)) == 1
        for t in itertools.product([-2, -1, 0, 1, 2], repeat=3):
            elems = tuple(z.element(v) for v in t)
            assert recover_c(f, *elems) == c(*elems)


class TestCyclicLiftIso:
    def test_enumeration_follows_unit(self):
        # unit 2 places residue a at circle position 2a/5, so walking the
        # circle from 0 visits 3 (pos 1/5), 1 (2/5), 4 (3/5), 2 (4/5)
        enum = cyclic_enumeration(natural_circular_cyclic(5, 2))
        assert [g.value for g in enum] == [0, 3, 1, 4, 2]

    def test_n3_example(self, c3, lift3):
        enum = cyclic_enumeration(c3)
        index = {g.value: i for i, g in enumerate(enum)}
        e = CyclicGroup(3).element
        x = lift3.element_from(0, e(1))
        assert index[e(1).value] == 1
        assert (x**3).value == (1, 0)
        report = cyclic_lift_iso_check(3, c3)
        assert report.passed

    def test_n2_unique_ordering(self):
        c2 = natural_circular_cyclic(2, 1)
        lift2 = LiftGroup(Cocycle(c2))
        e = CyclicGroup(2).element
        assert (lift2.element_from(0, e(1)) ** 2).value == (1, 0)
        assert cyclic_lift_iso_check(2, c2).passed

    def test_all_units_of_12(self):
        for k in natural_units(12):
            report = cyclic_lift_iso_check(12, natural_circular_cyclic(12, k), window=2)
            assert report.passed

    def test_group_mismatch_rejected(self, c3):
        with pytest.raises(ValueError):
            cyclic_lift_iso_check(4, c3)

    def test_counts_and_note_on_pass(self):
        report = cyclic_lift_iso_check(4, natural_circular_cyclic(4, 1), window=2)
        # 20 window elements: 20^2 homomorphism pairs, then 20 powers
        assert report.checked_tuples == 20**2 + 20
        assert report.notes == (
            "window |m| <= 2; image is the contiguous range [-8, 11]; "
            "torsion-free on window",
        )

    def test_not_bijective_adds_no_count_and_no_note(self, monkeypatch):
        # a window listing (0, 0) twice: every pair still obeys the
        # homomorphism law, but the image repeats 0
        def doubled(lift, degree_bound, carrier):
            identity = lift_window(lift, 0, carrier)[:1]
            return lift_window(lift, degree_bound, carrier) + identity

        monkeypatch.setattr(lift_module, "lift_window", doubled)
        report = cyclic_lift_iso_check(4, natural_circular_cyclic(4, 1), window=1)
        assert report.checked_tuples == 13**2
        assert report.counterexample == {
            "kind": "not-bijective-on-window",
            "images": [-4, -3, -2, -1, 0, 0, 1, 2, 3, 4],
        }
        assert report.notes == ()


class TestLiftCheckReport:
    def test_natural_passes(self, c3):
        report = lift_check_report(c3, CyclicGroup(3), degree_bound=2)
        assert report["status"] == "pass"
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "inhomogeneous-cocycle",
            "lift-associativity",
            "lift-cone-axioms",
            "lift-central-generator",
        ]

    def test_secret_integer_ball(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        report = lift_check_report(c, ball([z.element(1)], 4), degree_bound=2)
        assert report["status"] == "pass"

    def test_associativity_exhaustive_on_slice(self):
        report = lift_check_report(natural_circular_cyclic(12, 1), CyclicGroup(12))
        entry = report["checks"][1]
        assert entry["name"] == "lift-associativity"
        assert entry["mode"] == "exhaustive"
        assert entry["checked_tuples"] == 12**3

    def test_slice_decided_by_one_value_pass(self, monkeypatch):
        # both slice entries come from one pass over canonical values: no
        # Element products, and at most four f lookups per triple besides
        # the one each lift op of the window sweeps makes
        calls = {"op": 0, "f": 0, "lift": 0}

        def counted(key, method):
            def wrapper(*args):
                calls[key] += 1
                return method(*args)

            return wrapper

        monkeypatch.setattr(Group, "op", counted("op", Group.op))
        monkeypatch.setattr(Cocycle, "of_values", counted("f", Cocycle.of_values))
        for name in ("_op_values", "_inv_value"):
            method = getattr(LiftGroup, name)
            monkeypatch.setattr(LiftGroup, name, counted("lift", method))
        report = lift_check_report(natural_circular_cyclic(12, 1), CyclicGroup(12), 0)
        assert report["status"] == "pass"
        assert calls["op"] < 12**3
        assert calls["f"] <= 4 * 12**3 + calls["lift"]

    def test_negative_degree_bound_rejected(self, c3):
        with pytest.raises(ValueError):
            lift_check_report(c3, CyclicGroup(3), degree_bound=-1)

    def test_cone_identity_positive_adds_no_count(self, monkeypatch):
        monkeypatch.setattr(
            lift_module,
            "lift_is_positive",
            lambda x: lift_is_positive(x) or x.value == (0, 0),
        )
        report = lift_check_report(
            natural_circular_cyclic(4, 1), CyclicGroup(4), degree_bound=1
        )
        cone = report["checks"][2]
        assert cone["name"] == "lift-cone-axioms"
        # the 12 window elements pass identity, inverse and trichotomy; the
        # positive identity then fails the cone without a further count
        assert cone["checked_tuples"] == 12
        assert cone["counterexample"] == {
            "kind": "identity-positive", "tuple": [[0, 0]]
        }


class TestLiftAssociativity:
    def test_corrupted_cocycle_fails_on_slice(self, c3):
        lift = LiftGroup(Cocycle(c3, overrides={(1, 1): 1}))
        report = check_lift_associativity(lift, CyclicGroup(3))
        assert not report.passed
        assert report.counterexample["kind"] == "associativity"
        assert all(x[0] == 0 for x in report.counterexample["tuple"])

    @given(
        n=st.integers(2, 6),
        overrides=st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.integers(-1, 2),
            max_size=4,
        ),
        triple=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        degrees=st.tuples(
            st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)
        ),
    )
    def test_defect_independent_of_degrees(self, n, overrides, triple, degrees):
        # the equivalence behind the slice check, for valid and corrupted f
        overrides = {(a % n, b % n): v for (a, b), v in overrides.items()}
        lift = LiftGroup(Cocycle(natural_circular_cyclic(n, 1), overrides))
        base = [CyclicGroup(n).element(v % n) for v in triple]
        x, y, z = (lift.element_from(d, a) for d, a in zip(degrees, base))
        x0, y0, z0 = (lift.element_from(0, a) for a in base)
        shift = sum(degrees)
        pairs = (((x * y) * z, (x0 * y0) * z0), (x * (y * z), x0 * (y0 * z0)))
        for window, slice0 in pairs:
            assert window.value == (slice0.value[0] + shift, slice0.value[1])


class TestLiftCodec:
    """Lift elements survive encode -> JSON -> decode, and a lift rebuilt
    from the base descriptor its own descriptor names equals the original."""

    @pytest.mark.parametrize(
        "group_desc,ordering_desc",
        [
            ("cyclic:5", "natural:2"),
            ("cyclic:12", "natural:5"),
            ("integers", "secret"),
            ("product:integers,cyclic:3", "lex"),
        ],
    )
    def test_roundtrip(self, group_desc, ordering_desc):
        from ordkit.cli import builtin_generators, resolve_ordering

        base = get_group(group_desc)
        lift = LiftGroup(Cocycle(resolve_ordering(base, ordering_desc)))
        assert lift.descriptor.startswith(f"lift:{base.descriptor}:")
        rebuilt = LiftGroup(
            Cocycle(resolve_ordering(get_group(base.descriptor), ordering_desc))
        )
        assert rebuilt == lift and rebuilt.descriptor == lift.descriptor
        carrier = (
            base.elements() if base.is_finite else ball(builtin_generators(base), 2)
        )
        sample = [lift.element_from(n, a) for n in (-2, 0, 3) for a in carrier]
        sample += [g * h for g, h in zip(sample, reversed(sample))]
        for g in sample:
            wire = json.loads(json.dumps(g.encode()))
            assert lift.decode(wire) == g.value
            assert rebuilt.decode(wire) == g.value
