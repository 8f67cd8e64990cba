"""The unwrapping central extension of a circularly ordered group.

A circular ordering c on G induces a {0,1}-valued inhomogeneous 2-cocycle
f_c, and Z x G equipped with (n,a)(m,b) = (n + m + f_c(a,b), ab) is a group
carrying a left order whose cone is {(n,a) : n >= 0} minus (0, id).  For
G = Z/n the extension is infinite cyclic, which `cyclic_lift_iso_check`
certifies by the carry identity of f_c on the base pairs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Iterable, Sequence

from .groups import Ball, CyclicGroup, Element, Group, ResourceCapError, require_members
from .orders import (
    _DEFAULT_TUPLE_CAP,
    CheckList,
    CircularOrdering,
    ValidationReport,
    _ladder,
    as_carrier,
    counterexample,
    sweep,
)


class InvalidOrderingError(ValueError):
    """The ordering behind a cocycle violates the circular-ordering axioms."""


def _invalid(a: Element, b: Element) -> InvalidOrderingError:
    return InvalidOrderingError(
        f"no cocycle case fires at ({a!r}, {b!r}); "
        "the underlying circular ordering is invalid"
    )


def _orientations(c: Callable, e) -> Callable:
    """The ladder's entry from c on handles: f(a, b) = 0 where c(e, a, ab) =
    +1, else 1 where c(e, ab, a) = +1, else None."""

    def entry(a, b, ab) -> int | None:
        if c(e, a, ab) == 1:
            return 0
        return 1 if c(e, ab, a) == 1 else None

    return entry


class Cocycle:
    """The inhomogeneous 2-cocycle f_c of a circular ordering.

    Evaluation follows an exclusive case ladder: identity arguments give 0,
    then ab = id gives 1, then the orientation of (id, a, ab) decides.
    Exactly one case must fire, or c is not a valid circular ordering and
    `InvalidOrderingError` is raised.  Values are memoized per pair of
    canonical forms, so the cache is bounded by the square of the set of
    elements the cocycle is evaluated on.
    """

    def __init__(self, ordering: CircularOrdering):
        self.ordering = ordering
        self.group = group = ordering.group
        self._cache: dict[tuple[Any, Any], int] = {}
        self._ident = ident = group._identity_value()
        self._entry = _orientations(ordering.fn, ident)

    def __call__(self, a: Element, b: Element) -> int:
        if not (a.group is self.group and b.group is self.group):
            require_members(self.group, (a, b), "cocycle")
        return self.of_values(a.value, b.value)

    def of_values(self, a: Any, b: Any) -> int:
        """f_c on canonical forms; elements are built only on a cache miss."""
        key = (a, b)
        value = self._cache.get(key)
        if value is None:
            pair = ((b, self.group._op_values(a, b)),)
            row = _ladder(a, pair, self._ident, self._entry)
            if not row:
                raise _invalid(Element(self.group, a), Element(self.group, b))
            value = self._cache[key] = row[0]
        return value

    def on_carrier(self, points: Sequence[Element]) -> Callable[[int, list], list]:
        """f_c by rows over the distinct points, which hold the identity:
        row(i, ks) lists f_c(points[i], points[j]) over j, ks[j] being the
        index of their product, or None where it leaves the points and f_c is
        not evaluated.  Rows neither read nor fill the pair memo.  They come
        from the ordering builder's own row formula where it has one
        (arrangement, secret and lexicographic orderings, see their
        builders), else from the case ladder on the ordering's table, which
        reads c(e, a, ab) and then c(e, ab, a).  Either raises
        InvalidOrderingError at the first pair where no case fires.
        """
        values, ident = [g.value for g in points], self.group._identity_value()
        if ident not in values:
            raise ValueError("carrier must contain the identity")
        require_members(self.group, points, "cocycle")
        if len(set(values)) != len(values):
            raise ValueError("carrier elements must be distinct")
        e, build = values.index(ident), self.ordering._rows
        if build is not None:
            rows = build(values, e)
        else:
            entry = _orientations(self.ordering.table(points), e)
            rows = lambda i, ks: _ladder(i, enumerate(ks), e, entry)

        def row(i: int, ks: list) -> list:
            fs = rows(i, ks)
            if len(fs) < len(ks):
                raise _invalid(points[i], points[len(fs)])
            return fs

        return row


class LiftGroup(Group):
    """Z x G with the cocycle-twisted law; elements are (n, base_value)."""

    def __init__(self, cocycle: Cocycle):
        self.cocycle = cocycle
        self.base = cocycle.group
        ordering = cocycle.ordering
        self.descriptor = (
            f"lift:{self.base.descriptor}"
            f":{ordering.provenance}:{ordering.description}"
        )

    @property
    def is_finite(self) -> bool:
        return False

    def _identity_value(self):
        return (0, self.base._identity_value())

    def _op_values(self, x, y):
        n, a = x
        m, b = y
        return (n + m + self.cocycle.of_values(a, b), self.base._op_values(a, b))

    def _inv_value(self, x):
        n, a = x
        inv_a = self.base._inv_value(a)
        return (-n - self.cocycle.of_values(a, inv_a), inv_a)

    def check_value(self, value) -> None:
        if not isinstance(value, tuple) or len(value) != 2:
            raise ValueError(f"not a lift pair: {value!r}")
        n, a = value
        if not isinstance(n, int):
            raise ValueError(f"lift degree must be an integer: {n!r}")
        self.base.check_value(a)

    def sort_key(self, value):
        return (value[0], self.base.sort_key(value[1]))

    def encode(self, value):
        return [value[0], self.base.encode(value[1])]

    def decode(self, obj):
        return (int(obj[0]), self.base.decode(obj[1]))

    def format_value(self, value) -> str:
        return f"({value[0]}, {self.base.format_value(value[1])})"


def check_inhomogeneous_cocycle(
    f: Cocycle, carrier: Ball | Group | Iterable[Element]
) -> ValidationReport:
    """Verify f(b,c) - f(ab,c) + f(a,bc) - f(a,b) = 0 over carrier triples."""
    elems = as_carrier(carrier)
    require_members(f.group, elems, "cocycle")
    pairs, op, fv = [(g, g.value) for g in elems], f.group._op_values, f.of_values

    def cases():
        for (a, x), (b, y), (c, z) in itertools.product(pairs, repeat=3):
            defect = fv(y, z) - fv(op(x, y), z) + fv(x, op(y, z)) - fv(x, y)
            yield (
                counterexample("cocycle-identity", (a, b, c), defect=defect)
                if defect
                else None
            )

    return sweep("inhomogeneous-cocycle", cases())


def _associativity(cocycle: ValidationReport) -> ValidationReport:
    """The lift-associativity entry of the cocycle entry's carrier: the slice
    products at (a,b,c) differ in degree by the cocycle defect there, so the
    failing triple lifts to the degree-0 elements [0, a]."""
    found = cocycle.counterexample
    if found is not None:
        found = {"kind": "associativity", "tuple": [[0, a] for a in found["tuple"]]}
    return cocycle._replace(
        name="lift-associativity",
        counterexample=found,
        notes=(
            "exhaustive over the degree-0 slice {(0, a)}; the degree defect "
            "f(a,b) + f(ab,c) - f(b,c) - f(a,bc) does not depend on the "
            "degrees, so the slice decides every window triple",
        ),
    )


def recover_c(f: Cocycle, g1: Element, g2: Element, g3: Element) -> int:
    """Reconstruct the circular ordering from its cocycle."""
    if g1.value == g2.value or g2.value == g3.value or g1.value == g3.value:
        return 0
    return 1 - 2 * f(~g1 * g2, ~g2 * g3)


def cyclic_enumeration(c: CircularOrdering) -> list[Element]:
    """Elements of a finite group in the cyclic order of c, identity first."""
    group = c.group
    elems = group.elements()
    ident = group.identity()
    rest = [g for g in elems if g != ident]

    def cmp(x: Element, y: Element) -> int:
        if x.value == y.value:
            return 0
        return -c(ident, x, y)

    rest.sort(key=functools.cmp_to_key(cmp))
    return [ident] + rest


def cyclic_lift_iso_check(n: int, c: CircularOrdering) -> ValidationReport:
    """Certify that the lift of (Z/n, c) is infinite cyclic.

    The candidate isomorphism is phi(m, a) = m*n + idx(a), idx being the
    position in the cyclic enumeration of c.  phi((m,a)(k,b)) - phi(m,a) -
    phi(k,b) is f(a,b)*n + idx(ab) - idx(a) - idx(b) whatever the degrees,
    so the N^2 base pairs decide the homomorphism on all of Z x Z/n.  idx is
    a bijection onto 0..n-1, so a homomorphism phi is an isomorphism onto Z:
    the lift is generated by phi^-1(1) and torsion-free.
    """
    group = CyclicGroup(n)
    if c.group != group:
        raise ValueError(f"ordering is on {c.group.descriptor}, wanted {group.descriptor}")
    index = {g.value: i for i, g in enumerate(cyclic_enumeration(c))}
    f = Cocycle(c)
    values = [g.value for g in group.elements()]
    notes: list[str] = []

    def cases():
        for a, b in itertools.product(values, repeat=2):
            lhs = f.of_values(a, b) * n + index[group._op_values(a, b)]
            rhs = index[a] + index[b]
            yield (
                {
                    "kind": "not-a-homomorphism",
                    "tuple": [[0, group.encode(a)], [0, group.encode(b)]],
                    "lhs": lhs,
                    "rhs": rhs,
                }
                if lhs != rhs
                else None
            )
        notes.append(
            "exhaustive over the base pairs; the carry identity f(a,b)*n + idx(ab) = "
            "idx(a) + idx(b) makes (m, a) -> m*n + idx(a) an isomorphism onto Z"
        )

    return sweep("cyclic-lift-iso", cases(), notes=notes)


def lift_check_report(
    c: CircularOrdering,
    base_carrier: Ball | Group | Iterable[Element],
    degree_bound: int = 3,
) -> dict:
    """Composite cocycle/associativity/cone report for the lift of (G, c).

    Only the cocycle pass walks tuples, the N^3 carrier triples; the slice
    associativity entry is read from it.  The report's own Cocycle(c) takes
    every value from the case ladder: f(a,e) = f(e,a) = 0, f(a,a^-1) =
    f(a^-1,a) = 1 for a != e, f is 0 or 1, and f(a,b) = 0 forces ab != e.
    So on the window {(n,a) : |n| <= d} every identity, inverse and
    trichotomy case holds, a product (n,a)(m,b) = (n+m+f(a,b), ab) of
    positives stays positive, and (1,e) commutes with each (n,a).  The cone
    entry passes on the W = (2d+1)*N window elements and the P^2 pairs of
    its P = d*N + (non-identity carrier positions) positives, the central
    one on the W elements.  Closure on the degree-0 positives still needs f
    on each ordered pair of non-identity carrier values, so f is read there
    in row order: an invalid ordering that a failing cocycle pass left
    unread raises InvalidOrderingError at its first such pair.

    N^3 triples over the validator's tuple cap raise ResourceCapError before
    any pass: the cocycle pass is the report's only work, whatever the
    degree bound.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    f = Cocycle(c)
    carrier = as_carrier(base_carrier)
    if (triples := len(carrier) ** 3) > _DEFAULT_TUPLE_CAP:
        raise ResourceCapError(
            f"lift-check cocycle pass over {len(carrier)} base elements has "
            f"{triples} triples, over the cap of {_DEFAULT_TUPLE_CAP}"
        )
    size = (2 * degree_bound + 1) * len(carrier)
    cocycle = check_inhomogeneous_cocycle(f, carrier)
    ident = c.group._identity_value()
    rest = [g.value for g in carrier if g.value != ident]
    for a in rest:
        for b in rest:
            f.of_values(a, b)
    positives = degree_bound * len(carrier) + len(rest)
    checks = CheckList(
        report.to_dict()
        for report in (
            cocycle,
            _associativity(cocycle),
            ValidationReport("lift-cone-axioms", "pass", size + positives**2),
            ValidationReport("lift-central-generator", "pass", size),
        )
    )
    return {
        "schema": 1,
        "group": c.group.descriptor,
        "ordering": f"{c.provenance}:{c.description}",
        "degree_bound": degree_bound,
        "status": checks.status,
        "checks": checks,
    }
