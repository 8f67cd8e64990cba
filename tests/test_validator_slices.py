"""The slice-decided validators against the N^4 sweep they replace.

`validate_circular` and `validate_bi_invariance` decide an exhaustive
carrier's cocycle axiom on the x0-slice and each invariance side on key
classes, replaying the side's sweep when a class splits.  `reference`
below is the sweep itself: every triple, every quadruple and every
translate of every quadruple, in canonical order, one case at a time.  The
two must give equal reports, counterexample and count included.
"""

import functools
import itertools

import pytest

from orders_reference import flip_entry, ordering_table

from ordkit.groups import (
    CyclicGroup,
    FreeAbelianGroup,
    IntegerGroup,
    PromislowGroup,
    ball,
)
from ordkit.obstruction import brute_force_circular_orders, promislow_circular
from ordkit.orders import (
    OrderingTable,
    arrangement_circular,
    as_carrier,
    counterexample,
    intern_carrier,
    lex_free_abelian_order,
    natural_circular_cyclic,
    secret_from_left,
    sweep,
    usual_integer_order,
    validate_bi_invariance,
    validate_circular,
)

VALIDATORS = {
    "validate-circular": (validate_circular, ("left",)),
    "validate-bi-invariance": (validate_bi_invariance, ("left", "right")),
}


def reference(c, carrier, sides, name):
    """The exhaustive N^4 sweep of the circular-ordering axioms."""
    points, vals, index, ids = intern_carrier(as_carrier(carrier))
    cval = functools.cache(c.table(points))
    op = c.group._op_values

    def record(kind, t, **detail):
        return counterexample(kind, [points[i] for i in t], **detail)

    def cases():
        for t in itertools.product(ids, repeat=3):
            i, j, k = t
            v = cval(i, j, k)
            degenerate = i == j or j == k or i == k
            if v not in (-1, 0, 1):
                yield record("value-range", t, value=v)
            elif degenerate and v != 0:
                yield record("nonzero-on-degenerate", t, value=v)
            elif not degenerate and v == 0:
                yield record("zero-on-distinct", t, value=v)
            else:
                yield None
        for t in itertools.product(ids, repeat=4):
            i, j, k, m = t
            total = cval(j, k, m) - cval(i, k, m) + cval(i, j, m) - cval(i, j, k)
            yield record("cocycle", t, defect=total) if total else None
        for side in sides:
            for t in itertools.product(ids, repeat=4):
                h, *g = t
                x = vals[h]
                moved = [
                    index.get(op(x, vals[i]) if side == "left" else op(vals[i], x))
                    for i in g
                ]
                if None in moved:
                    continue
                base, translated = cval(*g), cval(*moved)
                yield record(
                    f"{side}-invariance", t, base=base, translated=translated
                ) if base != translated else None

    return sweep(name, cases())


def assert_agree(table, carrier):
    """Both validators equal the reference on the table's ordering; returns
    the reference's statuses."""
    c = table.ordering() if isinstance(table, OrderingTable) else table
    statuses = []
    for name, (validator, sides) in VALIDATORS.items():
        expected = reference(c, carrier, sides, name).to_dict()
        assert validator(c, carrier).to_dict() == expected
        statuses.append(expected["status"])
    return statuses


def with_flips(table, keys):
    return [table, *(flip_entry(table, key) for key in keys)]


@pytest.mark.parametrize("n", range(3, 9))
def test_cyclic_tables_and_every_single_flip(n):
    group = CyclicGroup(n)
    arrangements = brute_force_circular_orders(group)
    assert arrangements
    for a in arrangements:
        table = ordering_table(arrangement_circular(group, a), a)
        for ordering in with_flips(table, sorted(table.entries)):
            assert_agree(ordering, group)


def _flipped_ball_tables(c, elems, stride):
    table = ordering_table(c, elems)
    return with_flips(table, sorted(table.entries)[::stride])


@pytest.mark.parametrize("radius, stride", [(1, 1), (2, 97)])
def test_promislow_ball_flips(radius, stride):
    group = PromislowGroup()
    elems = list(ball(group.generators(), radius).elements)
    statuses = [
        assert_agree(t, elems)
        for t in _flipped_ball_tables(promislow_circular(), elems, stride)
    ]
    assert ["pass", "pass" if radius == 1 else "fail"] in statuses
    assert ["fail", "fail"] in statuses


def test_free_abelian_ball_flips():
    group = FreeAbelianGroup(2)
    elems = list(ball(group.basis(), 2).elements)
    c = secret_from_left(lex_free_abelian_order(group))
    statuses = [assert_agree(t, elems) for t in _flipped_ball_tables(c, elems, 23)]
    assert statuses[0] == ["pass", "pass"]
    assert ["fail", "fail"] in statuses


def test_carrier_with_repeats():
    z = IntegerGroup()
    elems = list(ball([z.element(1)], 3).elements)
    repeated = elems[::-1] + elems[::3]
    table = ordering_table(secret_from_left(usual_integer_order(z)), elems)
    for ordering in with_flips(table, sorted(table.entries)[::5]):
        assert_agree(ordering, repeated)
    assert_agree(natural_circular_cyclic(7), CyclicGroup(7).elements()[1:] * 2)


def _left_keys_split(table):
    """Whether c splits a class of the left key (g1^-1 g2, g1^-1 g3)."""
    op, inv = table.group._op_values, table.group._inv_value
    classes = {}
    for (a, b, d), v in table.entries.items():
        if classes.setdefault((op(inv(a), b), op(inv(a), d)), v) != v:
            return True
    return False


@pytest.mark.parametrize("group, values, outcomes", [
    # {1,2,3} and {11,12,13} are linked only by translates outside the
    # carrier, so a split key class need not fail the sweep
    (IntegerGroup(), (1, 2, 3, 11, 12, 13), {"pass", "replay-pass", "replay-fail"}),
    # translation by 6 swaps the blocks and reorders their indices, so
    # split classes show on triples out of index order too
    (CyclicGroup(12), (0, 1, 2, 6, 7, 8), {"pass", "replay-fail"}),
])
def test_every_arrangement_of_a_two_block_carrier(group, values, outcomes):
    first, *rest = [group.element(v) for v in values]
    seen = set()
    for tail in itertools.permutations(rest):
        arrangement = [first, *tail]
        table = ordering_table(arrangement_circular(group, arrangement), arrangement)
        circular, _ = assert_agree(table, [first, *rest])
        seen.add(("replay-" if _left_keys_split(table) else "") + circular)
    assert seen == outcomes


class CountingCyclic(CyclicGroup):
    """Z/n that counts its value-level products and inverses."""

    calls = 0

    def _op_values(self, a, b):
        self.calls += 1
        return super()._op_values(a, b)

    def _inv_value(self, a):
        self.calls += 1
        return super()._inv_value(a)


def test_passing_bi_invariance_costs_quadratic_group_ops():
    # the key classes take N^2 quotients and N^2 translates per side; the
    # N^4 sweep made about 6 N^4 calls here
    n = 12
    group = CountingCyclic(n)
    natural = arrangement_circular(group, group.elements())  # natural:1 on group
    report = validate_bi_invariance(natural, group)
    assert report.passed and report.mode == "exhaustive"
    assert report.checked_tuples == n**3 + 3 * n**4
    assert 0 < group.calls <= 4 * n**2
