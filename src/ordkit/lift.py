"""The unwrapping central extension of a circularly ordered group.

A circular ordering c on G induces a {0,1}-valued inhomogeneous 2-cocycle
f_c, and Z x G equipped with (n,a)(m,b) = (n + m + f_c(a,b), ab) is a group
carrying a left order whose cone is {(n,a) : n >= 0} minus (0, id).  For
G = Z/n the extension is infinite cyclic, which `cyclic_lift_iso_check`
certifies on a bounded window.
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
    _secret_entry,
    as_carrier,
    counterexample,
    sweep,
)


class InvalidOrderingError(ValueError):
    """The ordering behind a cocycle violates the circular-ordering axioms."""


def _ladder(a, b, ab, ident, orient: Callable, element: Callable) -> int:
    """The cocycle's case ladder over handles of a, b, ab and the identity;
    orient(x, y) is c(id, x, y) and element(x) is shown in the error."""
    if a == ident or b == ident:
        return 0
    if ab == ident:
        return 1
    if orient(a, ab) == 1:
        return 0
    if orient(ab, a) == 1:
        return 1
    raise InvalidOrderingError(
        f"no cocycle case fires at ({element(a)!r}, {element(b)!r}); "
        "the underlying circular ordering is invalid"
    )


class Cocycle:
    """The inhomogeneous 2-cocycle f_c of a circular ordering.

    Evaluation follows an exclusive case ladder: identity arguments give 0,
    then ab = id gives 1, then the orientation of (id, a, ab) decides.
    Exactly one case must fire, or c is not a valid circular ordering and
    `InvalidOrderingError` is raised.  Values are memoized per pair of
    canonical forms (overrides seed the memo), so the cache is bounded by
    the square of the set of elements the cocycle is evaluated on.
    """

    def __init__(
        self,
        ordering: CircularOrdering,
        overrides: dict[tuple[Any, Any], int] | None = None,
    ):
        self.ordering = ordering
        self.group = group = ordering.group
        self._cache: dict[tuple[Any, Any], int] = dict(overrides or {})
        self._ident = ident = group._identity_value()
        self._element = functools.partial(Element, group)
        self._orient = functools.partial(ordering.fn, ident)

    def __call__(self, a: Element, b: Element) -> int:
        if not (a.group is self.group and b.group is self.group):
            require_members(self.group, (a, b), "cocycle")
        return self.of_values(a.value, b.value)

    def of_values(self, a: Any, b: Any) -> int:
        """f_c on canonical forms; elements are built only on a cache miss."""
        key = (a, b)
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = _ladder(
                a, b, self.group._op_values(a, b), self._ident, self._orient,
                self._element,
            )
        return value

    def on_carrier(self, elems: Sequence[Element]) -> Callable[[int, int, int], int]:
        """f_c(elems[i], elems[j]) as f(i, j, k), elems[k] being their product;
        the distinct elems hold the identity.

        The ladder's orientations c(e, a, ab) and c(e, ab, a) come from the
        ordering's table, or for a secret ordering from two bits per carrier
        value v, cone(v) and cone(v^-1), each read at most once: the secret
        entry compares e, a and ab, whose quotients are a, ab and b up to
        inversion, so it is read off its values on the eight triples of
        bits.  Both bits are read, as a corrupted cone need not satisfy
        trichotomy.
        """
        values, ident = [g.value for g in elems], self.group._identity_value()
        if ident not in values:
            raise ValueError("carrier must contain the identity")
        require_members(self.group, elems, "cocycle")
        e, cache, cone = values.index(ident), self._cache, self.ordering._cone
        step = [0, 0]  # the indices of b and ab while f evaluates a pair
        if cone is None:
            orient = functools.partial(self.ordering.table(elems), e)
        else:
            inv = self.group._inv_value
            pos = functools.cache(lambda i: bool(cone(values[i])))
            neg = functools.cache(lambda i: bool(cone(inv(values[i]))))
            # _secret_entry(e, x, y, lt) reads lt(x, e), lt(y, e) and lt(y, x),
            # lt(p, q) being cone(p^-1 q): its value on each triple of bits
            entry = {}
            for bits in itertools.product((False, True), repeat=3):
                lts = dict(zip([(1, 0), (2, 0), (2, 1)], bits))
                entry[bits] = _secret_entry(0, 1, 2, lambda p, q: lts[p, q])

            def orient(x: int, y: int) -> int:
                # lt(y, x) is cone(b^-1) for (x, y) = (a, ab), else cone(b)
                b, ab = step
                return entry[neg(x), neg(y), neg(b) if y == ab else pos(b)]

        def f(i: int, j: int, k: int) -> int:
            if cache and (value := cache.get((values[i], values[j]))) is not None:
                return value
            step[0], step[1] = j, k
            return _ladder(i, j, k, e, orient, elems.__getitem__)

        return f


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

    def element_from(self, n: int, a: Element) -> Element:
        if a.group != self.base:
            raise ValueError(f"{a!r} is not in base group {self.base.descriptor}")
        return Element(self, (n, a.value))

    def central_generator(self) -> Element:
        return Element(self, (1, self.base._identity_value()))


def lift_is_positive(x: Element) -> bool:
    """Cone membership: n >= 0, excluding the identity (0, id)."""
    n, a = x.value
    if n < 0:
        return False
    group: LiftGroup = x.group
    return not (n == 0 and a == group.base._identity_value())


def lift_window(
    lift: LiftGroup, degree_bound: int, base_carrier: Iterable[Element]
) -> list[Element]:
    """All (n, a) with |n| <= degree_bound and a in the base carrier, sorted."""
    carrier = as_carrier(base_carrier)
    return [
        Element(lift, (n, a.value))
        for n in range(-degree_bound, degree_bound + 1)
        for a in carrier
    ]


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


def check_lift_associativity(
    lift: LiftGroup, carrier: Ball | Group | Iterable[Element]
) -> ValidationReport:
    """Verify associativity of the lift law over the degree-0 slice {(0,a)}.

    ((n,a)(m,b))(k,c) and (n,a)((m,b)(k,c)) are the slice products shifted
    by n + m + k in degree, so the N^3 slice triples decide every window.
    """
    return _associativity(lift, check_inhomogeneous_cocycle(lift.cocycle, carrier))


def _associativity(lift: LiftGroup, cocycle: ValidationReport) -> ValidationReport:
    """The lift-associativity entry of the cocycle entry's carrier: the slice
    products at (a,b,c) differ in degree by the cocycle defect there."""
    found = cocycle.counterexample
    if found is not None:
        lifted = [Element(lift, (0, lift.base.decode(a))) for a in found["tuple"]]
        found = counterexample("associativity", lifted)
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


def cyclic_lift_iso_check(
    n: int, c: CircularOrdering, window: int = 3
) -> ValidationReport:
    """Certify that the lift of (Z/n, c) is infinite cyclic on a window.

    Builds the candidate isomorphism (m, a) -> m*n + idx(a), idx being the
    position in the cyclic enumeration of c, and verifies on the window
    {(m, a) : |m| <= window}: the homomorphism identity on all pairs,
    injectivity with contiguous image, that powers of the index-1 element
    sweep the window, and absence of torsion.
    """
    group = CyclicGroup(n)
    if c.group != group:
        raise ValueError(f"ordering is on {c.group.descriptor}, wanted {group.descriptor}")
    enum = cyclic_enumeration(c)
    index = {g.value: i for i, g in enumerate(enum)}
    lift = LiftGroup(Cocycle(c))

    def phi(x: Element) -> int:
        m, a = x.value
        return m * n + index[a]

    def phi_inverse(t: int) -> Element:
        return Element(lift, (t // n, enum[t % n].value))

    elems = lift_window(lift, window, group)
    notes: list[str] = []

    def cases():
        for x, y in itertools.product(elems, repeat=2):
            lhs, rhs = phi(x * y), phi(x) + phi(y)
            yield (
                counterexample("not-a-homomorphism", (x, y), lhs=lhs, rhs=rhs)
                if lhs != rhs
                else None
            )
        images = sorted(phi(x) for x in elems)
        if images != list(range(-window * n, window * n + n)):
            return {"kind": "not-bijective-on-window", "images": images[:10]}
        if n > 1:
            gen = phi_inverse(1)
            for t in range(-window * n, window * n + n):
                power, expected = gen**t, phi_inverse(t)
                yield (
                    {
                        "kind": "window-not-generated",
                        "power": t,
                        "tuple": [power.encode(), expected.encode()],
                    }
                    if power != expected
                    else None
                )
        # injectivity of a homomorphism to Z rules out torsion on the window
        notes.append(
            f"window |m| <= {window}; image is the contiguous range "
            f"[{-window * n}, {window * n + n - 1}]; torsion-free on window"
        )

    return sweep("cyclic-lift-iso", cases(), notes=notes)


def lift_check_report(
    c: CircularOrdering,
    base_carrier: Ball | Group | Iterable[Element],
    degree_bound: int = 3,
) -> dict:
    """Composite cocycle/associativity/cone report for the lift of (G, c).

    The cone sweep multiplies pairs of window elements, so a window of
    (2d+1)*N elements whose square exceeds the validator's tuple cap raises
    ResourceCapError before the window is built.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    f = Cocycle(c)
    lift = LiftGroup(f)
    carrier = as_carrier(base_carrier)
    size = (2 * degree_bound + 1) * len(carrier)
    if size * size > _DEFAULT_TUPLE_CAP:
        raise ResourceCapError(
            f"lift-check window of {size} elements (degree bound {degree_bound}, "
            f"{len(carrier)} base elements) has {size * size} pairs, over the "
            f"cap of {_DEFAULT_TUPLE_CAP}"
        )
    window = lift_window(lift, degree_bound, carrier)
    ident = lift.identity()
    central = lift.central_generator()

    def cone_cases():
        for x in window:
            if x * ident != x or ident * x != x or x * ~x != ident or ~x * x != ident:
                yield counterexample("identity-or-inverse", (x,))
                continue
            if x.value != ident.value:
                pos, neg = lift_is_positive(x), lift_is_positive(~x)
                if pos == neg:
                    yield counterexample(
                        "cone-trichotomy", (x,), positive=pos, inverse_positive=neg
                    )
                    continue
            yield None
        if lift_is_positive(ident):
            return counterexample("identity-positive", (ident,))
        positives = [x for x in window if lift_is_positive(x)]
        for x, y in itertools.product(positives, repeat=2):
            yield (
                None
                if lift_is_positive(x * y)
                else counterexample("cone-not-closed", (x, y))
            )

    central_cases = (
        None
        if central * x == x * central
        else counterexample("central-generator", (x,))
        for x in window
    )
    cocycle = check_inhomogeneous_cocycle(f, carrier)
    checks = CheckList(
        report.to_dict()
        for report in (
            cocycle,
            _associativity(lift, cocycle),
            sweep("lift-cone-axioms", cone_cases()),
            sweep("lift-central-generator", central_cases),
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
