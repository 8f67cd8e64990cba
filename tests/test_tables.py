"""Carrier-indexed tables of circular orderings and of their cocycles.

`CircularOrdering.table` must give the ordering's value on every index
triple: it is compared with the oracle `fn` and with reference models of
the per-triple oracles, which call the cone on group elements for every
comparison.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orders_reference import flip_entry, natural_units, ordering_table

from ordkit.groups import (
    CyclicGroup,
    FreeAbelianGroup,
    GroupMismatchError,
    IntegerGroup,
    PROMISLOW,
    ball,
)
from ordkit.cli import resolve_carrier
from ordkit.lift import Cocycle, InvalidOrderingError
from ordkit.obstruction import (
    brute_force_circular_orders,
    promislow_circular,
    promislow_product_c2_circular,
    promislow_ses,
)
from ordkit.orders import (
    CircularOrdering,
    LeftOrdering,
    OutsideCarrierError,
    arrangement_circular,
    as_carrier,
    lex_circular,
    lex_free_abelian_order,
    natural_circular_cyclic,
    product_circular,
    product_ses,
    restricted_cone,
    secret_from_left,
    usual_integer_order,
)
from ordkit.secret import SecretWitness, detect_secret


def circle_orientation(n, k, a, b, c):
    """Orientation of the angles k*a/n, k*b/n, k*c/n on the circle."""
    pts = [Fraction(k * x % n, n) for x in (a, b, c)]
    if len(set(pts)) < 3:
        return 0
    return 1 if (pts[1] - pts[0]) % 1 < (pts[2] - pts[0]) % 1 else -1


def reference_secret(lo):
    """The secret ordering by three comparisons g < h, g^-1 h positive, per
    triple."""

    def c(g1, g2, g3):
        if g1.value == g2.value or g2.value == g3.value or g1.value == g3.value:
            return 0
        items = (g1, g2, g3)
        inversions = sum(
            1
            for i, j in ((0, 1), (0, 2), (1, 2))
            if lo.positive(~items[j] * items[i])
        )
        return 1 if inversions % 2 == 0 else -1

    return c


def reference_lex(ses):
    """The lexicographic ordering by rotation to the matching pair."""
    kernel_secret = reference_secret(ses.kernel_order)
    ident = ses.group.identity()

    def c(g1, g2, g3):
        if g1.value == g2.value or g2.value == g3.value or g1.value == g3.value:
            return 0
        triple = (g1, g2, g3)
        images = tuple(ses.projection(g) for g in triple)
        distinct = len({im.value for im in images})
        if distinct == 3:
            return ses.quotient_ordering(*images)
        if distinct == 1:
            return kernel_secret(~g1 * g3, ident, ~g1 * g2)
        for r in range(3):
            h1, h2, _ = triple[r:] + triple[:r]
            i1, i2, i3 = images[r:] + images[:r]
            if i1.value == i2.value and i1.value != i3.value:
                return kernel_secret(~h2 * h1, ident, ~h1 * h2)
        raise AssertionError("no rotation matches")

    return c


def assert_table_matches(c, elems, reference):
    table = c.table(elems)
    for i, j, k in itertools.product(range(len(elems)), repeat=3):
        triple = (elems[i], elems[j], elems[k])
        want = reference(*triple)
        assert c(*triple) == want, triple
        assert table(i, j, k) == want, triple


def subsets(elems, max_size=9):
    """Nonempty subsets of elems in any order."""
    return st.lists(st.sampled_from(elems), min_size=1, max_size=max_size, unique=True)


Z = IntegerGroup()
Z2 = FreeAbelianGroup(2)


def _natural_case(data):
    n = data.draw(st.integers(2, 12))
    k = data.draw(st.sampled_from(natural_units(n)))
    return natural_circular_cyclic(n, k), CyclicGroup(n).elements()


def _secret_case(lo, pool):
    return lambda data: (secret_from_left(lo), pool)


def _corrupted_secret_case(group, pool):
    def case(data):
        positive = data.draw(st.sets(st.sampled_from([g.value for g in pool])))
        lo = LeftOrdering(group, "corrupt", positive.__contains__)
        return secret_from_left(lo), pool

    return case


def _restricted_secret_case(group, pool):
    # the cone answers only on an inner set, and may be corrupted there
    def case(data):
        inner = data.draw(subsets(pool, len(pool)))
        positives = data.draw(st.sets(st.sampled_from(inner)))
        return secret_from_left(restricted_cone(group, positives, inner)), pool

    return case


def _lex_product_case(data):
    c = product_circular(usual_integer_order(Z), data.draw(st.integers(2, 6)))
    return c, as_carrier(resolve_carrier(c.group, 2))


def _table_case(data):
    # a table: ordering has no row formula, so its rows run the case ladder;
    # one flipped entry may leave a pair undecided
    group = CyclicGroup(data.draw(st.integers(3, 6)))
    k = data.draw(st.sampled_from(natural_units(group.n)))
    table = ordering_table(natural_circular_cyclic(group.n, k), group.elements())
    if data.draw(st.booleans()):
        table = flip_entry(table, data.draw(st.sampled_from(sorted(table.entries))))
    return table.ordering(), group.elements()


Z_POOL = as_carrier(ball([Z.element(1)], 6))
Z2_POOL = as_carrier(ball(Z2.basis(), 2))
ROW_CASES = [
    _natural_case,
    _secret_case(usual_integer_order(Z), Z_POOL),
    _secret_case(lex_free_abelian_order(Z2), Z2_POOL),
    _corrupted_secret_case(Z, Z_POOL),
    _corrupted_secret_case(Z2, Z2_POOL),
    _restricted_secret_case(Z, Z_POOL),
    _restricted_secret_case(Z2, Z2_POOL),
    _lex_product_case,
    lambda data: (promislow_circular(), as_carrier(resolve_carrier(PROMISLOW, 2))),
    _table_case,
]


def arrangement_cases():
    """natural:k on Z/n for n <= 12, every unit k, and each arrangement that
    `enumerate` finds on Z/n for n <= 8, each on its whole group."""
    cases = [
        (natural_circular_cyclic(n, k), CyclicGroup(n).elements())
        for n in range(2, 13)
        for k in natural_units(n)
    ]
    for n in range(2, 9):
        group = CyclicGroup(n)
        cases += [
            (arrangement_circular(group, arrangement), group.elements())
            for arrangement in brute_force_circular_orders(group)
        ]
    return cases


def lex_cases():
    """Lexicographic orderings on the CLI's balls: Z x Z/n for n <= 6,
    Z^2 x Z/3 and the Promislow group."""
    cases = [
        (c, resolve_carrier(c.group, 3))
        for c in [product_circular(usual_integer_order(Z), n) for n in range(2, 7)]
    ]
    c = product_circular(lex_free_abelian_order(Z2), 3)
    return cases + [
        (c, resolve_carrier(c.group, 2)),
        (promislow_circular(), resolve_carrier(PROMISLOW, 2)),
    ]


class TestTableMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_natural(self, n, data):
        k = data.draw(st.sampled_from(natural_units(n)))
        elems = data.draw(subsets(CyclicGroup(n).elements(), 12))
        assert_table_matches(
            natural_circular_cyclic(n, k),
            elems,
            lambda a, b, c: circle_orientation(n, k, a.value, b.value, c.value),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=10, unique=True))
    def test_secret_integers(self, points):
        lo = usual_integer_order(Z)
        assert_table_matches(
            secret_from_left(lo), [Z.element(p) for p in points], reference_secret(lo)
        )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_secret_free_abelian(self, data):
        lo = lex_free_abelian_order(Z2)
        elems = data.draw(subsets(list(ball(Z2.basis(), 3))))
        assert_table_matches(secret_from_left(lo), elems, reference_secret(lo))

    @pytest.mark.parametrize(
        "c,carrier",
        [
            (secret_from_left(usual_integer_order(Z)), ball([Z.element(1)], 6)),
            (secret_from_left(lex_free_abelian_order(Z2)), ball(Z2.basis(), 2)),
        ],
    )
    def test_secret_on_whole_balls(self, c, carrier):
        lo = usual_integer_order(Z) if c.group == Z else lex_free_abelian_order(Z2)
        assert_table_matches(c, as_carrier(carrier), reference_secret(lo))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_lex_product(self, n, data):
        ses = product_ses(usual_integer_order(Z), n)
        pool = [ses.group.element((a, b)) for a in range(-4, 5) for b in range(n)]
        elems = data.draw(subsets(pool, 10))
        assert_table_matches(lex_circular(ses), elems, reference_lex(ses))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 2), st.data())
    def test_lex_promislow(self, radius, data):
        pool = as_carrier(ball([PROMISLOW.gen_a(), PROMISLOW.gen_b()], radius))
        elems = data.draw(subsets(pool, 8))
        assert_table_matches(promislow_circular(), elems, reference_lex(promislow_ses()))

    def test_lex_promislow_product_ball(self):
        c = promislow_product_c2_circular()
        t = c.group.element((PROMISLOW._identity_value(), 1))
        a = c.group.element((PROMISLOW.gen_a().value, 0))
        elems = as_carrier(ball([t, a], 2))
        table = c.table(elems)
        for i, j, k in itertools.product(range(len(elems)), repeat=3):
            assert table(i, j, k) == c(elems[i], elems[j], elems[k])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 7), st.data())
    def test_flipped_table(self, n, data):
        group = CyclicGroup(n)
        table = ordering_table(natural_circular_cyclic(n, 1), group.elements())
        flipped = flip_entry(table, data.draw(st.sampled_from(sorted(table.entries))))
        elems = data.draw(subsets(group.elements(), n))
        entries = flipped.entries
        assert_table_matches(
            flipped.ordering(),
            elems,
            lambda a, b, c: entries.get((a.value, b.value, c.value), 0),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([IntegerGroup(), CyclicGroup(2), CyclicGroup(4)]),
        st.integers(2, 5),
        st.data(),
    )
    def test_lex_with_corrupted_kernel_cone(self, base, n, data):
        # an arbitrary positive set: it may hold both g and g^-1, a square,
        # the identity, or (in a torsion kernel) elements with a^2 = e
        span = range(-4, 5) if base == Z else range(base.order)
        positive = data.draw(st.sets(st.sampled_from(list(span))))
        lo = LeftOrdering(base, "corrupt", lambda v: v in positive)
        ses = product_ses(lo, n)
        pool = [ses.group.element((a, b)) for a in span for b in range(n)]
        elems = data.draw(subsets(pool, 10))
        assert_table_matches(lex_circular(ses), elems, reference_lex(ses))

    @pytest.mark.parametrize(
        "base,positive,n",
        [
            (IntegerGroup(), {1}, 2),
            (IntegerGroup(), {-1, 1}, 3),
            (IntegerGroup(), {0, 2, -3}, 2),
            (CyclicGroup(2), {1}, 3),
            (CyclicGroup(4), {0, 2}, 2),
        ],
    )
    def test_lex_with_fixed_corrupted_kernel_cone(self, base, positive, n):
        span = range(-3, 4) if base == Z else range(base.order)
        ses = product_ses(LeftOrdering(base, "corrupt", lambda v: v in positive), n)
        elems = [ses.group.element((a, b)) for a in span for b in range(n)]
        assert_table_matches(lex_circular(ses), elems, reference_lex(ses))


class TestTableContract:
    def test_fallback_calls_fn(self):
        group = CyclicGroup(4)
        c = CircularOrdering(group, "sum", lambda a, b, d: (a + b + d) % 3)
        elems = group.elements()
        table = c.table(elems)
        for i, j, k in itertools.product(range(4), repeat=3):
            assert table(i, j, k) == c(elems[i], elems[j], elems[k])

    def test_foreign_element_rejected(self):
        c = natural_circular_cyclic(5, 1)
        with pytest.raises(
            GroupMismatchError, match="^ordering on cyclic:5 applied to element of cyclic:7$"
        ):
            c.table(CyclicGroup(7).elements())

    def test_repeated_element_rejected(self):
        group = CyclicGroup(5)
        with pytest.raises(ValueError, match="distinct"):
            natural_circular_cyclic(5, 1).table([group.element(1), group.element(1)])


class TestCocycleOnCarrier:
    @pytest.mark.parametrize(
        "c,carrier",
        [
            (natural_circular_cyclic(7, 3), CyclicGroup(7).elements()),
            (secret_from_left(usual_integer_order(Z)), ball([Z.element(1)], 5)),
            (promislow_circular(), ball([PROMISLOW.gen_a(), PROMISLOW.gen_b()], 2)),
            *arrangement_cases(),
            *lex_cases(),
        ],
    )
    def test_matches_pair_cocycle(self, c, carrier):
        elems = as_carrier(carrier)
        index = {g.value: i for i, g in enumerate(elems)}
        f = Cocycle(c)
        row = Cocycle(c).on_carrier(elems)
        for i, g in enumerate(elems):
            ks = [index.get((g * h).value) for h in elems]
            for h, k, value in zip(elems, ks, row(i, ks)):
                assert value == (None if k is None else f(g, h))

    def test_identity_required(self):
        elems = [Z.element(1), Z.element(2)]
        with pytest.raises(ValueError, match="identity"):
            Cocycle(secret_from_left(usual_integer_order(Z))).on_carrier(elems)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_match_of_values(self, data):
        # every row entry is the pair cocycle where the product is in the
        # carrier and None where it is not, and 0 at an identity argument,
        # which detect_secret relies on to leave identity pairs unsearched;
        # a row that raises does so where the pair cocycle first raises
        c, pool = data.draw(st.sampled_from(ROW_CASES))(data)
        elems = as_carrier({c.group.identity(), *data.draw(subsets(pool, 12))})
        row, f = Cocycle(c).on_carrier(elems), Cocycle(c)
        index = {g.value: i for i, g in enumerate(elems)}
        for i, g in enumerate(elems):
            ks = [index.get((g * h).value) for h in elems]
            want, failure = [], None
            for h, k in zip(elems, ks):
                try:
                    want.append(None if k is None else f.of_values(g.value, h.value))
                except (InvalidOrderingError, OutsideCarrierError) as exc:
                    failure = (type(exc), str(exc))
                    break
            try:
                got = row(i, ks)
            except (InvalidOrderingError, OutsideCarrierError) as exc:
                assert (type(exc), str(exc)) == failure
                return
            assert failure is None and got == want
            assert all(
                value == 0
                for h, value in zip(elems, got)
                if g.is_identity or h.is_identity
            )


def test_detect_secret_cone_calls_bounded_by_pairs():
    # the cone is probed at most twice per carrier element, for cone(v) and
    # cone(v^-1), not once per ordered pair or per cocycle comparison
    calls = []

    def cone(v: int) -> bool:
        calls.append(v)
        return v > 0

    carrier = ball([Z.element(1)], 20)
    verdict = detect_secret(secret_from_left(LeftOrdering(Z, "usual", cone)), carrier)
    assert isinstance(verdict, SecretWitness)
    assert 0 < len(calls) <= 2 * len(carrier)

    # a lexicographic ordering of Z x Z/5 reads its kernel cone at most four
    # times per element: at v, v^-1 and the squares of both
    c = product_circular(LeftOrdering(Z, "usual", cone), 5)
    for radius in (5, 10, 20):
        calls.clear()
        carrier = resolve_carrier(c.group, radius)
        detect_secret(c, carrier)
        assert 0 < len(calls) <= 4 * len(carrier)


def test_detect_secret_evaluates_the_cocycle_by_rows(monkeypatch):
    # one row call per carrier element, not one call per constraint
    rows, cones = [], []
    on_carrier = Cocycle.on_carrier

    def counted(self, points):
        row = on_carrier(self, points)
        return lambda i, ks: rows.append(i) or row(i, ks)

    monkeypatch.setattr(Cocycle, "on_carrier", counted)
    usual = LeftOrdering(Z, "usual", lambda v: cones.append(v) or v > 0)
    verdict = detect_secret(secret_from_left(usual), ball([Z.element(1)], 20))
    assert isinstance(verdict, SecretWitness)
    assert sorted(rows) == list(range(41))
    assert len(cones) <= 82


def without_rows(c):
    """c without its builder's rows, so that its cocycle reads c's table."""
    return CircularOrdering(c.group, c.provenance, c.fn, c.description)


def cocycle_run(c, elems):
    """f_c on every carrier pair whose product is in the carrier, by rows in
    the order `detect_secret` builds its constraints; an InvalidOrderingError,
    or an OutsideCarrierError of a cone restricted to a carrier, ends the
    run and is returned with the row it was raised at (its text names the
    pair, or the cone's argument)."""
    row = Cocycle(c).on_carrier(elems)
    index = {g.value: i for i, g in enumerate(elems)}
    values = []
    for i, g in enumerate(elems):
        ks = [index.get((g * h).value) for h in elems]
        try:
            values += [f for f in row(i, ks) if f is not None]
        except (InvalidOrderingError, OutsideCarrierError) as exc:
            return values, (g.value, type(exc).__name__, str(exc))
    return values, None


class TestConeBits:
    """Arrangement, secret and lexicographic orderings give their cocycle's
    rows from per-element ingredients, a secret ordering two cone bits per
    carrier element; each must agree with the cocycle read from the
    ordering's table, first error included."""

    @pytest.mark.parametrize(
        "lo,carrier",
        [
            (usual_integer_order(Z), ball([Z.element(1)], 12)),
            (lex_free_abelian_order(Z2), ball(Z2.basis(), 4)),
        ],
    )
    def test_valid_cones_agree(self, lo, carrier):
        calls = []
        cone = LeftOrdering(lo.group, "counted", lambda v: calls.append(v) or lo.cone(v))
        c, elems = secret_from_left(cone), as_carrier(carrier)
        run = cocycle_run(c, elems)
        assert run[1] is None
        assert len(calls) <= 2 * len(elems)
        assert run == cocycle_run(without_rows(c), elems)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sets(st.integers(-6, 6)),
        st.lists(st.integers(-6, 6), max_size=8, unique=True),
    )
    def test_corrupted_integer_cones(self, positives, points):
        # a cone from any set need not satisfy trichotomy or closure; then
        # both cocycles must fail at the same first pair
        c = secret_from_left(LeftOrdering(Z, "corrupted", positives.__contains__))
        elems = as_carrier([Z.element(v) for v in {0, *points}])
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_corrupted_free_abelian_cones(self, data):
        ball_values = [g.value for g in ball(Z2.basis(), 2)]
        positives = data.draw(st.sets(st.sampled_from(ball_values)))
        elems = as_carrier(
            [Z2.identity(), *data.draw(subsets(ball(Z2.basis(), 2).elements))]
        )
        elems = list(dict.fromkeys(elems))
        c = secret_from_left(LeftOrdering(Z2, "corrupted", positives.__contains__))
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.sets(st.integers(-6, 6), max_size=3))
    def test_nearly_usual_cones_on_balls(self, radius, flipped):
        # the usual cone with a few members flipped, on a whole ball: every
        # bit cone(v^-1) is read early, and the rows must still find that
        # trichotomy fails before they stop reading the cone
        positives = {v for v in range(-6, 7) if v > 0} ^ flipped
        c = secret_from_left(LeftOrdering(Z, "nearly", positives.__contains__))
        elems = as_carrier(ball([Z.element(1)], radius))
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    def test_corrupted_cone_fails_at_the_first_pair(self):
        # both 1 and -1 positive: f(1, 1) cannot decide, as c(e, 1, 2) and
        # c(e, 2, 1) are both -1
        c = secret_from_left(LeftOrdering(Z, "both", lambda v: v != 0))
        elems = as_carrier(ball([Z.element(1)], 2))
        values, failure = cocycle_run(c, elems)
        assert failure is not None
        assert (values, failure) == cocycle_run(without_rows(c), elems)

    def test_restricted_integer_cone(self):
        # the cone answers only on [-2, 2]: both cocycles stop at the same
        # cone argument
        inner = as_carrier(ball([Z.element(1)], 2))
        lo = restricted_cone(Z, [g for g in inner if g.value > 0], inner)
        elems = as_carrier(ball([Z.element(1)], 4))
        run = cocycle_run(secret_from_left(lo), elems)
        assert run[1][1] == "OutsideCarrierError"
        assert run == cocycle_run(without_rows(secret_from_left(lo)), elems)

    @pytest.mark.parametrize("c,carrier", arrangement_cases() + lex_cases())
    def test_builder_rows_agree(self, c, carrier):
        elems = as_carrier(carrier)
        run = cocycle_run(c, elems)
        assert run[1] is None
        assert run == cocycle_run(without_rows(c), elems)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_arrangements_on_subsets(self, n, data):
        group = CyclicGroup(n)
        c = natural_circular_cyclic(n, data.draw(st.sampled_from(natural_units(n))))
        elems = as_carrier({group.identity(), *data.draw(subsets(group.elements(), n))})
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([IntegerGroup(), CyclicGroup(2), CyclicGroup(4)]),
        st.integers(2, 6),
        st.data(),
    )
    def test_corrupted_lex_kernel_cones(self, base, n, data):
        # an arbitrary positive set, as in the table tests above
        span = range(-3, 4) if base == Z else range(base.order)
        positive = data.draw(st.sets(st.sampled_from(list(span))))
        c = product_circular(LeftOrdering(base, "corrupt", positive.__contains__), n)
        pool = [c.group.element((a, b)) for a in span for b in range(n)]
        elems = as_carrier({c.group.identity(), *data.draw(subsets(pool, 12))})
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_corrupted_lex_free_abelian(self, data):
        values = [g.value for g in ball(Z2.basis(), 2)]
        positive = data.draw(st.sets(st.sampled_from(values)))
        c = product_circular(LeftOrdering(Z2, "corrupt", positive.__contains__), 3)
        pool = as_carrier(resolve_carrier(c.group, 2))
        elems = as_carrier({c.group.identity(), *data.draw(subsets(pool, 14))})
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_corrupted_promislow_kernel_cones(self, data):
        pool = as_carrier(resolve_carrier(PROMISLOW, 2))
        positive = data.draw(st.sets(st.sampled_from([g.value for g in pool])))
        kernel_order = LeftOrdering(PROMISLOW, "corrupt", positive.__contains__)
        c = lex_circular(promislow_ses()._replace(kernel_order=kernel_order))
        elems = as_carrier({PROMISLOW.identity(), *data.draw(subsets(pool, 14))})
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 5), st.data())
    def test_corrupted_lex_quotient(self, n, data):
        # a quotient ordering with one entry flipped need not decide the
        # pairs whose images are distinct
        table = ordering_table(natural_circular_cyclic(n, 1), CyclicGroup(n).elements())
        flipped = flip_entry(table, data.draw(st.sampled_from(sorted(table.entries))))
        ses = product_ses(usual_integer_order(Z), n)
        c = lex_circular(ses._replace(quotient_ordering=flipped.ordering()))
        elems = as_carrier(resolve_carrier(c.group, 2))
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(-4, 4)), st.integers(2, 5), st.data())
    def test_restricted_lex_kernel_cones(self, inner, n, data):
        # the kernel cone answers only on the inner set and raises
        # OutsideCarrierError beyond; its positive set may be corrupted
        inner = [Z.element(v) for v in inner]
        positives = data.draw(st.sets(st.sampled_from(inner))) if inner else ()
        c = product_circular(restricted_cone(Z, positives, inner), n)
        elems = as_carrier(resolve_carrier(c.group, data.draw(st.integers(1, 4))))
        assert cocycle_run(c, elems) == cocycle_run(without_rows(c), elems)
