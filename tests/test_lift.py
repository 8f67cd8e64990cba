import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lift_reference import (
    ForcedCocycle,
    check_lift_associativity,
    lift_window,
    recover_c,
    window_iso_check,
)
from orders_reference import flip_entry, natural_units, ordering_table
from ordkit import lift as lift_module
from ordkit.groups import (
    CyclicGroup,
    Element,
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
    cyclic_enumeration,
    cyclic_lift_iso_check,
    lift_check_report,
)
from ordkit.obstruction import brute_force_circular_orders
from ordkit.orders import (
    CircularOrdering,
    arrangement_circular,
    as_carrier,
    counterexample,
    natural_circular_cyclic,
    secret_from_left,
    sweep,
    usual_integer_order,
)


def _positive(x):
    """Cone membership in the lift: n >= 0, excluding the identity (0, e)."""
    n, a = x.value
    return n > 0 or (n == 0 and a != x.group.base._identity_value())


def _window_entries(c, carrier, d):
    """The cone and central-generator entries of `lift_check_report` as the
    window sweep decided them: after the cocycle pass over the same f, the
    cone multiplies every pair of positives of {(n, a) : |n| <= d}."""
    f = Cocycle(c)
    check_inhomogeneous_cocycle(f, carrier)
    lift = LiftGroup(f)
    window = lift_window(lift, d, as_carrier(carrier))
    ident, central = lift.identity(), Element(lift, (1, lift.base._identity_value()))

    def cone_cases():
        for x in window:
            if x * ident != x or ident * x != x or x * ~x != ident or ~x * x != ident:
                yield counterexample("identity-or-inverse", (x,))
                continue
            if x.value != ident.value:
                pos, neg = _positive(x), _positive(~x)
                if pos == neg:
                    yield counterexample(
                        "cone-trichotomy", (x,), positive=pos, inverse_positive=neg
                    )
                    continue
            yield None
        if _positive(ident):
            return counterexample("identity-positive", (ident,))
        positives = [x for x in window if _positive(x)]
        for x, y in itertools.product(positives, repeat=2):
            yield None if _positive(x * y) else counterexample("cone-not-closed", (x, y))

    central_cases = (
        None if central * x == x * central else counterexample("central-generator", (x,))
        for x in window
    )
    return [
        sweep("lift-cone-axioms", cone_cases()).to_dict(),
        sweep("lift-central-generator", central_cases).to_dict(),
    ]


def _table_runs(n, d):
    # every brute-forced table of Z/n and each of its single-entry flips
    group = CyclicGroup(n)
    for a in brute_force_circular_orders(group):
        table = ordering_table(arrangement_circular(group, a), a)
        for t in [table, *(flip_entry(table, key) for key in sorted(table.entries))]:
            yield t.ordering(), group, d


def _ball_runs(group_desc, ordering_desc, radius, d):
    from ordkit.cli import resolve_carrier, resolve_ordering

    group = get_group(group_desc)
    yield resolve_ordering(group, ordering_desc), resolve_carrier(group, radius), d


def _blind_z5_runs():
    # c(0,2,1) flipped and c(x,1,3) = 0: the cocycle pass fails at (2,2,2)
    # before it reads f(3,3), which the window sweep's products then raise on
    group, natural = CyclicGroup(5), natural_circular_cyclic(5, 1)

    def fn(x, y, z):
        if (y, z) == (1, 3):
            return 0
        return -natural.fn(x, y, z) if (x, y, z) == (0, 2, 1) else natural.fn(x, y, z)

    c = CircularOrdering(group, "explicit", fn)
    yield c, [group.element(2), group.element(3)], 0


_WINDOW_RUNS = {
    **{
        f"cyclic:{n}/d{d}": (_table_runs, n, d)
        for n in range(3, 7)
        for d in (0, 1, 3)
    },
    **{
        f"{g}/{o}/r{r}/d{d}": (_ball_runs, g, o, r, d)
        for g, o, r in [
            ("integers", "secret", 20),
            ("free-abelian:2", "secret", 3),
            ("product:integers,cyclic:3", "lex", 2),
            ("promislow", "lex", 2),
        ]
        for d in (0, 2)
    },
    "cyclic:5/blind": (_blind_z5_runs,),
}


def _natural_iso_runs(n):
    for k in natural_units(n):
        yield n, natural_circular_cyclic(n, k), None


def _arrangement_iso_runs(n, seeds):
    # arrangements of Z/n in random order: mostly not left-invariant
    group = CyclicGroup(n)
    for seed in range(seeds):
        arrangement = group.elements()
        random.Random(seed).shuffle(arrangement)
        yield n, arrangement_circular(group, arrangement), None


def _forced_iso_runs(n):
    # natural:1 and natural:-1 with one cocycle value forced to -1, 0, 1 or 2
    for k in {1, n - 1}:
        c = natural_circular_cyclic(n, k)
        for a, b in itertools.product(range(n), repeat=2):
            for v in (-1, 0, 1, 2):
                yield n, c, {(a, b): v}


def _error_iso_runs():
    # an ordering of another group, and one on which no cocycle case fires
    yield 4, natural_circular_cyclic(3, 1), None
    yield 3, CircularOrdering(CyclicGroup(3), "explicit", lambda *args: 0, "zero"), None


_ISO_RUNS = {
    **{f"cyclic:{n}/natural": (_natural_iso_runs, n) for n in range(2, 13)},
    **{f"cyclic:{n}/arrangements": (_arrangement_iso_runs, n, 12) for n in range(1, 8)},
    **{f"cyclic:{n}/forced": (_forced_iso_runs, n) for n in range(2, 6)},
    "errors": (_error_iso_runs,),
}


def _iso_outcome(run):
    """Status, failing base pair and lhs - rhs of an iso check, or the error;
    a counterexample of any other shape is returned whole."""
    try:
        report = run()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    found = report.counterexample
    if found is None or found["kind"] != "not-a-homomorphism":
        return report.status, found
    (_, a), (_, b) = found["tuple"]
    return report.status, (a, b), found["lhs"] - found["rhs"]


def _outcome(run):
    try:
        return run()
    except InvalidOrderingError as exc:
        return f"InvalidOrderingError: {exc}"


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
        x = Element(lift3, (0, 1))
        assert (x * x).value == (0, 2)
        y = Element(lift3, (0, 2))
        assert (y * x).value == (1, 0)

    def test_identity_degrees_add(self, lift3):
        assert (Element(lift3, (5, 0)) * Element(lift3, (-3, 0))).value == (2, 0)

    def test_inverse_example(self, lift3):
        assert (~Element(lift3, (0, 1))).value == (-1, 2)
        assert (~Element(lift3, (5, 0))).value == (-5, 0)
        assert ~lift3.identity() == lift3.identity()

    def test_cube_of_generator_hits_degree_one(self, lift3):
        x = Element(lift3, (0, 1))
        assert (x**3).value == (1, 0)

    def test_associativity_window(self, lift3):
        window = lift_window(lift3, 2, CyclicGroup(3))
        for x, y, z in itertools.islice(
            itertools.product(window, repeat=3), 0, None, 11
        ):
            assert (x * y) * z == x * (y * z)

    def test_central_generator(self, lift3):
        central = Element(lift3, (1, 0))
        for x in lift_window(lift3, 2, CyclicGroup(3)):
            assert central * x == x * central


class TestCone:
    def test_examples(self, lift3):
        assert not _positive(lift3.identity())
        assert _positive(Element(lift3, (0, 1)))
        assert not _positive(Element(lift3, (-1, 1)))

    def test_cone_axioms_on_window(self, lift3):
        window = lift_window(lift3, 5, CyclicGroup(3))
        ident = lift3.identity()
        positives = [x for x in window if _positive(x)]
        for x in window:
            if x != ident:
                assert _positive(x) != _positive(~x)
        for x, y in itertools.product(positives, repeat=2):
            assert _positive(x * y)


class TestCocycleIdentity:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_natural_orderings_pass(self, n):
        for k in natural_units(n):
            f = Cocycle(natural_circular_cyclic(n, k))
            report = check_inhomogeneous_cocycle(f, CyclicGroup(n))
            assert report.passed

    def test_corrupted_value_fails(self, c3):
        f = ForcedCocycle(c3, {(1, 1): 1})
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
        x = Element(lift3, (0, 1))
        assert index[1] == 1
        assert (x**3).value == (1, 0)
        report = cyclic_lift_iso_check(3, c3)
        assert report.passed

    def test_n2_unique_ordering(self):
        c2 = natural_circular_cyclic(2, 1)
        lift2 = LiftGroup(Cocycle(c2))
        assert (Element(lift2, (0, 1)) ** 2).value == (1, 0)
        assert cyclic_lift_iso_check(2, c2).passed

    def test_all_units_of_12(self):
        for k in natural_units(12):
            report = cyclic_lift_iso_check(12, natural_circular_cyclic(12, k))
            assert report.passed

    def test_group_mismatch_rejected(self, c3):
        with pytest.raises(ValueError):
            cyclic_lift_iso_check(4, c3)

    def test_counts_and_note_on_pass(self):
        report = cyclic_lift_iso_check(4, natural_circular_cyclic(4, 1))
        # one carry identity per base pair
        assert report.checked_tuples == 4**2
        assert report.notes == (
            "exhaustive over the base pairs; the carry identity f(a,b)*n + idx(ab) = "
            "idx(a) + idx(b) makes (m, a) -> m*n + idx(a) an isomorphism onto Z",
        )

    def test_failure_names_the_first_base_pair(self, monkeypatch):
        # natural:1 has idx(a) = a; f(1,2) forced to 1 lifts (0,1)(0,2) to
        # (1,3), so phi gives 1*4 + 3 = 7 against 1 + 2 = 3
        forced = {(1, 2): 1}
        monkeypatch.setattr(lift_module, "Cocycle", lambda c: ForcedCocycle(c, forced))
        report = cyclic_lift_iso_check(4, natural_circular_cyclic(4, 1))
        assert report.counterexample == {
            "kind": "not-a-homomorphism", "tuple": [[0, 1], [0, 2]], "lhs": 7, "rhs": 3,
        }
        assert report.checked_tuples == 4 + 3
        assert report.notes == ()

    @pytest.mark.parametrize("case", sorted(_ISO_RUNS))
    def test_matches_the_window_walk(self, case, monkeypatch):
        make, *args = _ISO_RUNS[case]
        for n, c, forced in make(*args):
            if forced is not None:
                monkeypatch.setattr(
                    lift_module, "Cocycle", lambda c, f=forced: ForcedCocycle(c, f)
                )
            closed = _iso_outcome(lambda: cyclic_lift_iso_check(n, c))
            for window in range(3):
                assert closed == _iso_outcome(lambda: window_iso_check(n, c, window))


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
        # Element products, at most four f lookups per triple plus one per
        # ordered pair of non-identity carrier values, no lift op, and the
        # same counts whatever the degree bound
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
        counts = []
        for d in (0, 40):
            calls.update(op=0, f=0, lift=0)
            report = lift_check_report(
                natural_circular_cyclic(12, 1), CyclicGroup(12), d
            )
            assert report["status"] == "pass"
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["op"] < 12**3
        assert counts[0]["f"] <= 4 * 12**3 + 11**2
        assert counts[0]["lift"] == 0

    def test_negative_degree_bound_rejected(self, c3):
        with pytest.raises(ValueError):
            lift_check_report(c3, CyclicGroup(3), degree_bound=-1)

    @pytest.mark.parametrize("case", sorted(_WINDOW_RUNS))
    def test_cone_and_central_entries_match_the_window_sweep(self, case):
        make, *args = _WINDOW_RUNS[case]
        for c, carrier, d in make(*args):
            report = _outcome(lambda: lift_check_report(c, carrier, d)["checks"][2:])
            assert report == _outcome(lambda: _window_entries(c, carrier, d))


class TestLiftAssociativity:
    def test_corrupted_cocycle_fails_on_slice(self, c3):
        lift = LiftGroup(ForcedCocycle(c3, {(1, 1): 1}))
        report = check_lift_associativity(lift, CyclicGroup(3))
        assert not report.passed
        assert report.counterexample["kind"] == "associativity"
        assert all(x[0] == 0 for x in report.counterexample["tuple"])

    @given(
        n=st.integers(2, 6),
        forced=st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.integers(-1, 2),
            max_size=4,
        ),
        triple=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        degrees=st.tuples(
            st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)
        ),
    )
    def test_defect_independent_of_degrees(self, n, forced, triple, degrees):
        # the equivalence behind the slice check, for valid and corrupted f
        forced = {(a % n, b % n): v for (a, b), v in forced.items()}
        lift = LiftGroup(ForcedCocycle(natural_circular_cyclic(n, 1), forced))
        base = [CyclicGroup(n).element(v % n) for v in triple]
        x, y, z = (Element(lift, (d, a.value)) for d, a in zip(degrees, base))
        x0, y0, z0 = (Element(lift, (0, a.value)) for a in base)
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
        sample = [Element(lift, (n, a.value)) for n in (-2, 0, 3) for a in carrier]
        sample += [g * h for g, h in zip(sample, reversed(sample))]
        for g in sample:
            wire = json.loads(json.dumps(g.encode()))
            assert lift.decode(wire) == g.value
            assert rebuilt.decode(wire) == g.value
