"""Left orderings and circular orderings: builders and validators.

An ordering is an oracle over canonical forms, so it is defined on infinite
groups too; on a finite carrier it also gives its table, c on carrier
index triples.  Validators read that table to check the circular-ordering
axioms -- degeneracy, the 4-term cocycle identity, and left-invariance --
over a finite carrier and report the first counterexample in canonical
order.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import gcd
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

from .groups import (
    Ball,
    CyclicGroup,
    DirectProductGroup,
    Element,
    Group,
    Homomorphism,
    Record,
    require_members,
)


class OutsideCarrierError(ValueError):
    """An ordering oracle restricted to a carrier was asked about a stranger."""


def as_carrier(source: Ball | Group | Iterable[Element]) -> list[Element]:
    """Normalize a carrier to a canonically sorted element list."""
    if isinstance(source, Ball):
        return list(source.elements)
    if isinstance(source, Group):
        elems = source.elements()
    else:
        elems = list(source)
    return sorted(elems, key=lambda e: e.sort_key())


def intern_carrier(elems: Sequence[Element]) -> tuple[list, list, dict, list[int]]:
    """Distinct elems, their forms, form -> index, and each position's index."""
    points = list(dict.fromkeys(elems))
    index = {g.value: i for i, g in enumerate(points)}
    return points, [g.value for g in points], index, [index[g.value] for g in elems]


class CircularOrdering(Record):
    """Ternary ordering oracle c: G^3 -> {-1, 0, +1} with provenance; `fn`
    is c on canonical forms, the builder's `tabulate`, when given, maps
    distinct carrier values to c on index triples, and its `rows`, when
    given, maps distinct carrier values and the identity's index e to the
    rows of c's cocycle f_c that `Cocycle.on_carrier` serves.  row(i, ks)
    lists f_c(values[i], values[j]) over j, where ks[j] is the index of
    their product, or None where it leaves the values and the entry is None;
    the list stops short at the first pair where no case of the cocycle's
    ladder fires.  Arrangement, secret and lexicographic orderings give rows
    from per-element ingredients; other orderings leave the rows to the
    ladder on their table."""

    __slots__ = ("group", "provenance", "fn", "description", "_tabulate", "_rows")
    _key = attrgetter("group", "provenance", "fn", "description")
    _defaults = ("", None, None)

    def __call__(self, g1: Element, g2: Element, g3: Element) -> int:
        group = self.group
        if not (g1.group is group and g2.group is group and g3.group is group):
            require_members(group, (g1, g2, g3), "ordering")
        return self.fn(g1.value, g2.value, g3.value)

    def table(self, elems: Sequence[Element]) -> Callable[[int, int, int], int]:
        """c on index triples (i, j, k) of distinct carrier elements, from the
        builder's per-element and per-pair ingredients with no oracle call
        per triple; other orderings call `fn` on each triple."""
        require_members(self.group, elems, "ordering")
        values = [g.value for g in elems]
        if len(set(values)) != len(values):
            raise ValueError("carrier elements must be distinct")
        if self._tabulate is None:
            return lambda i, j, k: self.fn(values[i], values[j], values[k])
        return self._tabulate(values)


class LeftOrdering(Record):
    """Positive-cone membership oracle: g < h exactly when g^-1 h is
    positive; `cone` reads canonical forms."""

    __slots__ = ("group", "provenance", "cone", "description")
    _defaults = ("",)

    def positive(self, g: Element) -> bool:
        if g.group is not self.group:
            require_members(self.group, (g,), "ordering")
        return self.cone(g.value)


# -- stock left orderings ----------------------------------------------------


def usual_integer_order(group: Group) -> LeftOrdering:
    return LeftOrdering(
        group, "usual", lambda v: v > 0, "natural order on Z"
    )


def lex_free_abelian_order(group: Group) -> LeftOrdering:
    """Lexicographic order on Z^k with the last coordinate dominant."""

    def positive(v: tuple[int, ...]) -> bool:
        for x in reversed(v):
            if x != 0:
                return x > 0
        return False

    return LeftOrdering(
        group, "lexicographic", positive, "last coordinate dominant"
    )


def trivial_order(group: Group) -> LeftOrdering:
    if not (group.is_finite and group.order == 1):
        raise ValueError("trivial order exists only on the trivial group")
    return LeftOrdering(group, "trivial", lambda v: False, "empty cone")


def restricted_cone(
    group: Group, positives: Iterable[Element], carrier: Iterable[Element]
) -> LeftOrdering:
    """Cone given by an explicit positive set, defined only on the carrier."""
    pos_values = frozenset(g.value for g in positives)
    carrier_values = frozenset(g.value for g in carrier)

    def positive(v: Any) -> bool:
        if v not in carrier_values:
            raise OutsideCarrierError(
                f"element {Element(group, v)!r} is outside the cone's carrier"
            )
        return v in pos_values

    return LeftOrdering(group, "cone-table", positive, "explicit cone on carrier")


# -- builders ----------------------------------------------------------------


def _ladder(a, pairs, ident, entry: Callable) -> list:
    """The cocycle's case ladder: f_c(a, b) for each (b, ab) of pairs of
    handles, None where ab is None.  Identity arguments give 0, then ab =
    ident gives 1, then entry(a, b, ab) decides: 0 where c(id, a, ab) = +1,
    1 where c(id, ab, a) = +1, None where neither holds.  The list stops
    short at the first pair that entry leaves undecided."""
    row: list = []
    append = row.append
    for b, ab in pairs:
        if ab is None:
            append(None)
        elif a == ident or b == ident:
            append(0)
        elif ab == ident:
            append(1)
        else:
            f = entry(a, b, ab)
            if f is None:
                break
            append(f)
    return row


def _less_values(group: Group, cone: Callable[[Any], bool]):
    """x < y on canonical forms: the cone holds x^-1 y."""
    op, inv = group._op_values, group._inv_value
    return lambda x, y: bool(cone(op(inv(x), y)))


def _secret_entry(x, y, z, lt: Callable[[Any, Any], bool]) -> int:
    """+1 on increasing triples up to cyclic shift, by inversion parity."""
    if x == y or y == z or x == z:
        return 0
    return 1 if (lt(y, x) + lt(z, x) + lt(z, y)) % 2 == 0 else -1


def secret_from_left(lo: LeftOrdering) -> CircularOrdering:
    """Circular ordering that is +1 on increasing triples up to cyclic shift.

    Its cocycle rows read two bits of lo's cone per carrier point v, n(v) =
    cone(v^-1) and p(v) = cone(v), each on first use in the ladder's order:
    f(a, b) = 0 when n(a) + n(ab) + n(b) is even, else 1 when n(a) + n(ab) +
    p(b) is.  Once every n bit is read, p(b) is known as n(b^-1), the same
    cone argument.  If then each point's inverse is a point with the other n
    bit, the cone is valid on the carrier and f(a, b) = n(a) + n(ab) + n(b)
    mod 2 on every pair, with n(e) = 0: each later row is one comprehension
    that reads no cone.  Otherwise the ladder keeps reading bits.
    """
    group, cone = lo.group, lo.cone
    inv = group._inv_value
    fn = functools.partial(_secret_entry, lt=_less_values(group, cone))

    def rows(values: list, e: int) -> Callable:
        neg = functools.cache(lambda i: bool(cone(inv(values[i]))))
        pos = functools.cache(lambda i: bool(cone(values[i])))
        bits: list | bool | None = None  # n with n(e) = 0 once valid, False if not

        def entry(i: int, j: int, k: int) -> int | None:
            if not (neg(i) + neg(k) + neg(j)) & 1:
                return 0
            if not (neg(k) + neg(i) + pos(j)) & 1:
                return 1
            return None

        def decide() -> list | bool:
            index = {v: i for i, v in enumerate(values)}
            for j, v in enumerate(values):
                m = index.get(inv(v))
                if j != e and (m is None or neg(m) == neg(j)):
                    return False
            return [j != e and neg(j) for j in range(len(values))]

        def row(i: int, ks: list) -> list:
            nonlocal bits
            # the ladder never reads n(e)
            if bits is None and neg.cache_info().currsize == len(values) - 1:
                bits = decide()
            if not bits:
                return _ladder(i, enumerate(ks), e, entry)
            ni = bits[i]
            return [None if k is None else (ni + bits[k] + nj) & 1
                    for nj, k in zip(bits, ks)]

        return row

    name = f"secret of {lo.provenance}"
    return CircularOrdering(group, "secret-of-left-order", fn, name, None, rows)


def _cyclic_entry(n: int, p1: int, p2: int, p3: int) -> int:
    """Orientation of three positions on a circle of n places."""
    u, v = (p2 - p1) % n, (p3 - p1) % n
    if u == 0 or v == 0 or u == v:
        return 0
    return 1 if u < v else -1


def arrangement_circular(
    group: Group, arrangement: Sequence[Element],
    provenance: str = "arrangement", description: str = "cyclic arrangement",
) -> CircularOrdering:
    """The ordering of a cyclic arrangement of distinct elements of group:
    +1 on the distinct triples met in that order going round, -1 on the
    other distinct triples.  It is defined on the arranged elements only.

    Its cocycle rows read one position per carrier point, rel(v), counted
    going round from the identity's: f(a, b) = 1 exactly when rel(a) >
    rel(ab), which no ordering of this kind leaves undecided."""
    require_members(group, arrangement, "arrangement")
    position = {g.value: p for p, g in enumerate(arrangement)}
    n = len(arrangement)
    if len(position) != n:
        raise ValueError("arrangement has repeats")

    def fn(x: Any, y: Any, z: Any) -> int:
        return _cyclic_entry(n, position[x], position[y], position[z])

    def tabulate(values: list) -> Callable:
        pos = [position[v] for v in values]
        return lambda x, y, z: _cyclic_entry(n, pos[x], pos[y], pos[z])

    def rows(values: list, e: int) -> Callable:
        pos = [position[v] for v in values]
        rel = [(p - pos[e]) % n for p in pos]

        def row(i: int, ks: list) -> list:
            ri = rel[i]
            return [None if k is None else 1 if rel[k] < ri else 0 for k in ks]

        return row

    return CircularOrdering(group, provenance, fn, description, tabulate, rows)


def natural_circular_cyclic(n: int, k: int = 1) -> CircularOrdering:
    """Ordering of Z/n as rotations: residue r sits at angle k*r/n, so the
    arrangement's position p holds p * k^-1 mod n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if gcd(k, n) != 1:
        raise ValueError(f"unit {k} is not coprime to {n}")
    group = CyclicGroup(n)
    k, inverse = k % n, pow(k, -1, n)
    arrangement = [Element(group, p * inverse % n) for p in range(n)]
    name = f"unit {k} mod {n}"
    return arrangement_circular(group, arrangement, "natural-cyclic", name)


class SESData(Record):
    """Short exact sequence data backing a lexicographic circular ordering."""

    __slots__ = ("group", "quotient", "projection", "kernel_order", "quotient_ordering")


def _lex_entry(x, y, z, image, quotient, lt, twin) -> int:
    """lex_circular's cases: quotient on distinct images, else the kernel's
    secret ordering, which twin(x, y) gives when only x and y share one."""
    if x == y or y == z or x == z:
        return 0
    ix, iy, iz = image(x), image(y), image(z)
    if ix != iy and iy != iz and ix != iz:
        return quotient(ix, iy, iz)
    if ix == iy == iz:
        # the kernel's secret ordering at (x^-1 z, e, x^-1 y)
        return _secret_entry(z, x, y, lt)
    if ix == iy:
        return twin(x, y)
    return twin(y, z) if iy == iz else twin(z, x)


def lex_circular(ses: SESData) -> CircularOrdering:
    """The three-case lexicographic circular ordering of a short exact sequence.

    Triples whose images are all distinct defer to the quotient ordering;
    triples with a repeated image are cyclically rotated until the matching
    pair leads, then decided by the kernel's secret ordering.

    Its cocycle rows read one of three ingredients per pair (a, b), each on
    first use in the ladder's order: where the images of e, a and ab are
    distinct, the quotient's orientations from the identity's slot, per
    pair of slots; where a, b and ab lie in the kernel, the parities of the
    cone bits cone(ab) + cone(b) + cone(a^-1), then cone(a) + cone(b^-1) +
    cone((ab)^-1); where one image repeats, the twin sign T(v) of the one
    kernel element v among a, b and ab: -1 where v^2 is in the cone, 0
    where v^2 = e, else +1.  f = 0 where T(v^-1) = +1, else f = 1 where
    T(v) = +1, with the roles of v and v^-1 swapped for v = ab.
    """
    group, cone, quotient = ses.group, ses.kernel_order.cone, ses.quotient_ordering
    op, inv, ident = group._op_values, group._inv_value, group._identity_value()
    image, lt = ses.projection.rule, _less_values(group, cone)

    def twin_sign(a):
        # the kernel's secret ordering at (a, e, a^-1) counts the inversions
        # e < a, a^-1 < a, a^-1 < e: only a^2 > e decides
        square = op(a, a)
        if square == ident:
            return 0
        return -1 if cone(square) else 1

    def twin(x, y):
        return twin_sign(op(inv(y), x))

    def slots(values: list) -> tuple[list, Callable]:
        """Each value's quotient slot, and the quotient's table on the slots."""
        images = [image(x) for x in values]
        slot = {w: s for s, w in enumerate(dict.fromkeys(images))}
        order = quotient.table([Element(ses.projection.target, w) for w in slot])
        return [slot[w] for w in images], order

    def tabulate(values: list) -> Callable:
        at, order = slots(values)
        less = functools.cache(lambda x, y: lt(values[x], values[y]))
        pair = functools.cache(lambda x, y: twin(values[x], values[y]))
        return lambda x, y, z: _lex_entry(x, y, z, at.__getitem__, order, less, pair)

    def rows(values: list, e: int) -> Callable:
        at, order = slots(values)
        home = at[e]
        pos = functools.cache(lambda i: bool(cone(values[i])))
        neg = functools.cache(lambda i: bool(cone(inv(values[i]))))
        sign = functools.cache(lambda i: twin_sign(values[i]))
        inverse_sign = functools.cache(lambda i: twin_sign(inv(values[i])))

        @functools.cache
        def turn(s: int, t: int) -> int | None:
            if order(home, s, t) == 1:
                return 0
            return 1 if order(home, t, s) == 1 else None

        def entry(i: int, j: int, k: int) -> int | None:
            s, t = at[i], at[k]
            if s != t and s != home and t != home:
                return turn(s, t)
            if s == t == home:
                if not (pos(k) + pos(j) + neg(i)) & 1:
                    return 0
                if not (pos(i) + neg(j) + neg(k)) & 1:
                    return 1
                return None
            if s == home:
                first, then, v = inverse_sign, sign, i
            elif t == home:
                first, then, v = sign, inverse_sign, k
            else:
                first, then, v = inverse_sign, sign, j
            if first(v) == 1:
                return 0
            return 1 if then(v) == 1 else None

        return lambda i, ks: _ladder(i, enumerate(ks), e, entry)

    fn = functools.partial(
        _lex_entry, image=image, quotient=quotient.fn, lt=lt, twin=twin
    )
    name = f"lexicographic via {ses.projection.name}"
    return CircularOrdering(group, "lexicographic", fn, name, tabulate, rows)


def product_ses(lo: LeftOrdering, n: int) -> SESData:
    """The sequence 1 -> G -> G x Z/n -> Z/n -> 1 with kernel ordered by lo."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    base = lo.group
    cyclic = CyclicGroup(n)
    prod = DirectProductGroup(base, cyclic)
    projection = Homomorphism(
        prod, cyclic, lambda v: v[1], name=f"proj-{cyclic.descriptor}"
    )
    kernel_order = LeftOrdering(
        prod,
        lo.provenance,
        lambda v: v[1] == 0 and lo.cone(v[0]),
        f"factor order on kernel {base.descriptor}",
    )
    return SESData(
        group=prod,
        quotient=cyclic,
        projection=projection,
        kernel_order=kernel_order,
        quotient_ordering=natural_circular_cyclic(n),
    )


def product_circular(lo: LeftOrdering, n: int) -> CircularOrdering:
    """Lexicographic circular ordering on G x Z/n from a left ordering of G."""
    return lex_circular(product_ses(lo, n))


# -- explicit tables ----------------------------------------------------------


class OrderingTable(Record):
    """Stored values of a circular ordering over a finite carrier: `carrier`
    is a tuple of elements, `entries` maps value triples to -1, 0 or +1."""

    __slots__ = ("group", "carrier", "entries")

    def ordering(self) -> CircularOrdering:
        entries = self.entries

        def fn(x: Any, y: Any, z: Any) -> int:
            return entries.get((x, y, z), 0)

        return CircularOrdering(self.group, "explicit-table", fn, "table")

    def to_json_dict(self) -> dict:
        items = sorted(
            self.entries.items(),
            key=lambda kv: tuple(self.group.sort_key(v) for v in kv[0]),
        )
        return {
            "schema": 1,
            "group": self.group.descriptor,
            "carrier": [g.encode() for g in self.carrier],
            "entries": [
                [
                    self.group.encode(k[0]),
                    self.group.encode(k[1]),
                    self.group.encode(k[2]),
                    v,
                ]
                for k, v in items
            ],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "OrderingTable":
        from .groups import get_group

        if not isinstance(obj, dict):
            raise ValueError("an ordering table is a JSON object")
        for key in ("group", "carrier", "entries"):
            if key not in obj:
                raise ValueError(f"the ordering table is missing the {key!r} key")
        if not isinstance(obj["group"], str):
            raise ValueError(f"group {obj['group']!r} is not a descriptor")
        group = get_group(obj["group"])
        if not (isinstance(obj["carrier"], list) and isinstance(obj["entries"], list)):
            raise ValueError("carrier and entries must be lists")

        def decode(raw: Any) -> Any:
            try:
                return group.decode(raw)
            except (TypeError, IndexError, KeyError) as exc:
                raise ValueError(f"{raw!r} is not in {group.descriptor}") from exc

        carrier = tuple(Element(group, decode(raw)) for raw in obj["carrier"])
        entries = {}
        for item in obj["entries"]:
            if not (isinstance(item, list) and len(item) == 4):
                raise ValueError(f"entry {item!r} is not [x, y, z, value]")
            *raws, value = item
            if type(value) is not int:
                raise ValueError(f"entry value {value!r} is not an integer")
            entries[tuple(decode(raw) for raw in raws)] = value
        return OrderingTable(group, carrier, entries)


# -- validation ----------------------------------------------------------------


class ValidationReport(Record):
    __slots__ = ("name", "status", "checked_tuples", "counterexample", "mode", "notes")
    _defaults = (None, "exhaustive", ())

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "name": self.name,
            "status": self.status,
            "checked_tuples": self.checked_tuples,
            "counterexample": self.counterexample,
            "mode": self.mode,
            "notes": list(self.notes),
        }


def sweep(
    name: str,
    cases: Iterable[dict | int | None],
    mode: str = "exhaustive",
    notes: Sequence[str] = (),
) -> ValidationReport:
    """Run a check body and report its first counterexample.

    The body walks its cases in canonical order: ``yield None`` is one
    checked case, ``yield k`` (an int) is k checked cases that passed,
    decided in bulk, ``yield {...}`` is the counterexample at a checked
    case (counted, and the sweep stops there), and ``return {...}`` is a
    failure that no counted case carries.  Cases the body skips are not
    counted.  `notes` is read once the body stops, so a body may append to
    it.
    """
    cases = iter(cases)
    checked = 0
    while True:
        try:
            counter = next(cases)
        except StopIteration as stop:
            counter = stop.value
            break
        if type(counter) is int:
            checked += counter
            continue
        checked += 1
        if counter is not None:
            break
    status = "pass" if counter is None else "fail"
    return ValidationReport(name, status, checked, counter, mode, tuple(notes))


class CheckList(list):
    """Entries {"name", "status", **fields} of a dict-shaped check report."""

    def add(self, name: str, passed: bool, **fields: Any) -> None:
        self.append({"name": name, "status": "pass" if passed else "fail", **fields})

    @property
    def status(self) -> str:
        return "pass" if all(c["status"] == "pass" for c in self) else "fail"


def counterexample(kind: str, elems: Iterable[Element], **detail: Any) -> dict:
    """A counterexample record: its kind, the encoded tuple, then details."""
    return {"kind": kind, "tuple": [g.encode() for g in elems], **detail}


_DEFAULT_TUPLE_CAP = 2_000_000
_SAMPLE_SIZE = 50_000
_SAMPLE_SEED = 0


def validate_circular(
    c: CircularOrdering, carrier: Ball | Group | Iterable[Element]
) -> ValidationReport:
    """Check the circular-ordering axioms of c over a finite carrier.

    Runs, in order: value range and the degeneracy axiom on triples, the
    4-term cocycle identity on quadruples, and left-invariance on tuples
    whose translates stay inside the carrier.  c is read from its table on
    the carrier's distinct elements; repeated carrier elements count once
    per position.  Falls back to _SAMPLE_SIZE deterministic samples per
    axiom (seed _SAMPLE_SEED) when the N^4 tuple space exceeds
    _DEFAULT_TUPLE_CAP; the report says so.

    The report is that of a sweep over every triple and quadruple in
    canonical order, but an exhaustive run decides the quadruples on N^3
    slices: the cocycle identity on the quadruples led by the first
    carrier position, and invariance on the classes of a translation-fixed
    key, replaying a side's sweep only when c splits one of its classes.
    Counts and first counterexamples are the sweep's.
    """
    return _validate_ordering(c, carrier, ("left",), "validate-circular")


def validate_bi_invariance(
    c: CircularOrdering, carrier: Ball | Group | Iterable[Element]
) -> ValidationReport:
    """validate_circular plus right-invariance on applicable tuples."""
    return _validate_ordering(
        c, carrier, ("left", "right"), "validate-bi-invariance"
    )


def _validate_ordering(
    c: CircularOrdering, carrier, sides: tuple[str, ...], name: str
) -> ValidationReport:
    """The axioms of validate_circular, invariance on each of `sides`.

    The passes run over carrier indices, one per input position, and read
    c from its table, memoised per index triple.
    """
    points, vals, index, ids = intern_carrier(as_carrier(carrier))
    cval = functools.cache(c.table(points))
    op = c.group._op_values
    size = len(ids)

    exhaustive = size**4 <= _DEFAULT_TUPLE_CAP
    notes = ()
    if not exhaustive:
        notes = (
            f"carrier of {size} elements exceeds the exhaustive cap; "
            f"checked {_SAMPLE_SIZE} deterministic samples per axiom "
            f"(seed {_SAMPLE_SEED})",
        )
    rng = random.Random(_SAMPLE_SEED)

    def tuples(arity: int) -> Iterable[tuple[int, ...]]:
        if exhaustive:
            return itertools.product(ids, repeat=arity)
        return (
            tuple(rng.choice(ids) for _ in range(arity))
            for _ in range(_SAMPLE_SIZE)
        )

    def record(kind: str, t: tuple[int, ...], **detail: Any) -> dict:
        return counterexample(kind, [points[i] for i in t], **detail)

    def mover(side: str) -> Callable[[Any, Any], Any]:
        """(x, y) -> xy on the left, yx on the right."""
        return op if side == "left" else lambda x, y: op(y, x)

    def applicable_if_invariant(side: str, inverses: list) -> int | None:
        """The number of tuples the side's sweep applies to, if c is
        constant on the classes of the key (g1^-1 g2, g1^-1 g3) on the left,
        (g2 g1^-1, g3 g1^-1) on the right; None if it is not.

        A translate keeps the key, so constant classes pass every applicable
        tuple.  Only distinct triples are keyed: a degenerate triple's key
        has e or two equal entries, a distinct one's has neither, and axiom 1
        has made c zero on every degenerate triple.  Off a group, triples of
        one key may be linked by no translate inside the carrier, so a
        split class need not fail the sweep.
        """
        move, n = mover(side), len(points)
        keys = [
            [move(inverse, y) if b != a else None for b, y in enumerate(vals)]
            for a, inverse in enumerate(inverses)
        ]
        classes: dict[tuple, int] = {}
        for a, b, d in itertools.permutations(range(n), 3):
            v = cval(a, b, d)
            if classes.setdefault((keys[a][b], keys[a][d]), v) != v:
                return None
        # tuples (h, g1, g2, g3) over positions, applicable when each g
        # stays inside the carrier: m_h^3 of them per h
        weight = [0] * n
        for i in ids:
            weight[i] += 1
        stays = [
            sum(w for y, w in zip(vals, weight) if move(x, y) in index)
            for x in vals
        ]
        return sum(w * m**3 for w, m in zip(weight, stays))

    def cases():
        # axiom 1: c vanishes exactly on degenerate triples (and stays in range)
        for t in tuples(3):
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

        # axiom 2: 4-term cocycle identity.  Exhaustively only the x0-slice
        # is walked, the sweep's first N^3 quadruples: if it holds, c = dphi
        # with phi(a, b) = c(x0, a, b), so dc = ddphi = 0 on all N^4.
        slice0 = itertools.product(ids[:1], ids, ids, ids)
        for t in slice0 if exhaustive else tuples(4):
            i, j, k, m = t
            total = cval(j, k, m) - cval(i, k, m) + cval(i, j, m) - cval(i, j, k)
            yield record("cocycle", t, defect=total) if total else None
        if exhaustive:
            yield size**4 - size**3

        # axiom 3: invariance, restricted to translates inside the carrier;
        # an exhaustive side whose key classes split replays its sweep
        inverses = [c.group._inv_value(v) for v in vals] if exhaustive else []
        for side in sides:
            applicable = applicable_if_invariant(side, inverses) if exhaustive else None
            if applicable is not None:
                yield applicable
                continue
            move = mover(side)
            for t in tuples(4):
                h, *g = t
                x = vals[h]
                moved = [index.get(move(x, vals[i])) for i in g]
                if None in moved:
                    continue
                base, translated = cval(*g), cval(*moved)
                yield record(
                    f"{side}-invariance", t, base=base, translated=translated
                ) if base != translated else None

    mode = "exhaustive" if exhaustive else "sampled"
    return sweep(name, cases(), mode, notes)


def validate_left_ordering(
    lo: LeftOrdering, carrier: Ball | Group | Iterable[Element]
) -> ValidationReport:
    """Check the positive-cone axioms of lo over a finite carrier.

    Cone oracles restricted to a carrier may raise OutsideCarrierError;
    those probes are skipped and counted in the notes, once per probe the
    axioms ask for.  The cone runs once per canonical form.  A carrier
    element outside lo.group raises GroupMismatchError before any probe.
    """
    group, elems = lo.group, as_carrier(carrier)
    require_members(group, elems, "ordering")
    values = [g.value for g in elems]
    ident = group.identity()
    skipped = 0
    memo: dict[Any, bool | None] = {}

    def probe(v: Any) -> bool | None:
        nonlocal skipped
        if v in memo:
            p = memo[v]
        else:
            try:
                p = memo[v] = lo.cone(v)
            except OutsideCarrierError:
                p = memo[v] = None
        if p is None:
            skipped += 1
        return p

    def cases():
        nonlocal skipped
        e = ident.value
        if probe(e) is True:
            return counterexample("identity-positive", (ident,))
        # trichotomy: every non-identity element counts, skipped probes too
        for g, v in zip(elems, values):
            if v == e:
                continue
            p, q = probe(v), probe(group._inv_value(v))
            if p is not None and p == q:
                yield counterexample(
                    "trichotomy", (g,), positive=p, inverse_positive=q
                )
            else:
                yield None
        # closure: only positive-positive pairs count.  The trichotomy pass
        # probed every element, so the pair probes are memo reads, and a row
        # without a counted pair only adds its skipped probes.
        signs = [memo[v] for v in values]
        nones = signs.count(None)
        op = group._op_values
        for g, v, pg in zip(elems, values, signs):
            if not pg:
                skipped += len(values) * (pg is None) + nones
                continue
            for h, w, ph in zip(elems, values, signs):
                if not ph:
                    skipped += ph is None
                    continue
                gh = op(v, w)
                yield (
                    counterexample("cone-not-closed", (g, h, Element(group, gh)))
                    if probe(gh) is False
                    else None
                )

    report = sweep("validate-left-ordering", cases())
    if skipped:
        note = f"skipped {skipped} probes outside the carrier"
        report = report._replace(notes=(note,))
    return report

