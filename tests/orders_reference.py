"""Test-side ordering helpers: unit lists, stored tables of an ordering,
one-entry mutations of a table, and the convexity check of a subgroup.

The library reads stored tables only from JSON (`OrderingTable.from_json_dict`)
and never mutates one; the tests tabulate orderings with the oracle on every
distinct triple, flip one entry to sabotage a table, and check the coset
order of a left ordering on a ball.
"""

import itertools
from math import gcd

from ordkit.groups import ball
from ordkit.orders import OrderingTable, counterexample, sweep


def natural_units(n: int) -> list[int]:
    return [k for k in range(1, n) if gcd(k, n) == 1]


def ordering_table(c, carrier) -> OrderingTable:
    """c stored on every triple of distinct carrier elements."""
    entries = {}
    for t1, t2, t3 in itertools.permutations(carrier, 3):
        entries[(t1.value, t2.value, t3.value)] = c(t1, t2, t3)
    return OrderingTable(c.group, tuple(carrier), entries)


def flip_entry(table: OrderingTable, key) -> OrderingTable:
    """Copy of table with the sign of one stored entry flipped."""
    if key not in table.entries:
        raise KeyError(key)
    entries = dict(table.entries)
    entries[key] = -entries[key]
    return OrderingTable(table.group, table.carrier, entries)


def convexity_check(lo, subgroup_gens, carrier):
    """Check that the induced order on cosets of <subgroup_gens> is well defined.

    Membership in the subgroup is decided inside a secondary ball of radius
    2 * carrier radius; differences falling outside it are left unresolved
    and only counted, so a pass is relative to the resolved part.
    """
    radius = 2 * carrier.radius
    c_ball = ball(subgroup_gens, radius)
    elems = list(carrier.elements)

    # cosets = components of certified same-coset pairs (g^-1 h inside the
    # secondary ball); non-membership beyond that ball stays unresolved
    parent = list(range(len(elems)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, g in enumerate(elems):
        for j in range(i + 1, len(elems)):
            if ~g * elems[j] in c_ball:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    grouped: dict[int, list] = {}
    for i, g in enumerate(elems):
        grouped.setdefault(find(i), []).append(g)
    cosets = [grouped[root] for root in sorted(grouped)]

    def cases():
        # a coset pair is decided row by row: each row g x Y is compared
        # in full and counted at once
        for xi, X in enumerate(cosets):
            for Y in cosets[xi + 1 :]:
                lt_pair = gt_pair = None
                for g in X:
                    for h in Y:
                        if lo.positive(~g * h):
                            lt_pair = lt_pair or (g, h)
                        else:
                            gt_pair = gt_pair or (g, h)
                    yield len(Y) - 1
                    yield (
                        counterexample(
                            "coset-order-ill-defined",
                            (lt_pair[0], gt_pair[0], lt_pair[1], gt_pair[1]),
                            explanation="g < h but g' > h' with gC = g'C, hC = h'C",
                        )
                        if lt_pair and gt_pair
                        else None
                    )

    notes = (
        f"membership ball radius {radius} with {len(c_ball)} elements",
        "distinct-coset claims are resolved only up to that radius",
    )
    return sweep("convexity-check", cases(), notes=notes)
