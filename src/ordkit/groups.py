"""Computable groups with decidable equality via canonical forms.

Every group exposes identity/op/inv plus a canonical form per element, so
equality, hashing and deterministic sorting are always available.  Infinite
groups are handled through finite balls (word-metric neighbourhoods of the
identity) rather than full enumeration.
"""

from __future__ import annotations

import operator
import os
import re
from abc import ABC, abstractmethod
from collections.abc import Mapping
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

DEFAULT_MAX_BALL = 10**6
MAX_BALL_ENV = "ORDKIT_MAX_BALL"


class GroupMismatchError(ValueError):
    """Raised when elements of different groups are combined."""


def require_members(group: "Group", elems: Iterable["Element"], user: str) -> None:
    """Raise GroupMismatchError naming the group's `user` unless elems lie in it."""
    for g in elems:
        if g.group is not group and g.group != group:
            raise GroupMismatchError(
                f"{user} on {group.descriptor} applied to element "
                f"of {g.group.descriptor}"
            )


class ResourceCapError(RuntimeError):
    """Raised when a construction exceeds its configured size cap."""


class InvalidHomomorphismError(ValueError):
    """Raised when a claimed homomorphism fails its relator check."""


def max_ball_size() -> int:
    raw = os.environ.get(MAX_BALL_ENV)
    if raw is None:
        return DEFAULT_MAX_BALL
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceCapError(f"invalid {MAX_BALL_ENV}={raw!r}") from exc
    if value <= 0:
        raise ResourceCapError(f"{MAX_BALL_ENV} must be positive, got {value}")
    return value


class Record:
    """Base of the package's immutable records.

    It stands in for a frozen dataclass or a `typing.NamedTuple`: building
    either class costs about ten times a plain subclass, and every CLI call
    pays for the package's import.  A subclass names its fields in
    `__slots__`, in constructor order, and may give defaults for the last
    of them in `_defaults`.  Equality and hashing read `_key`, an
    attrgetter of every field unless the subclass sets its own.  Fields
    whose names start with "_" are left out of the repr.
    """

    __slots__ = ()
    _defaults: tuple = ()
    _key: Callable[[Any], tuple]

    def __init_subclass__(cls) -> None:
        if "_key" not in vars(cls):
            cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        slots, defaults = self.__slots__, self._defaults
        fields = dict(zip(slots[len(slots) - len(defaults):], defaults))
        fields.update(zip(slots, args), **kwargs)
        extra = len(args) > len(slots) or not kwargs.keys() <= set(slots[len(args):])
        if extra or len(fields) != len(slots):
            names = ", ".join(slots)
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = [f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_"]
        return f"{type(self).__name__}({', '.join(shown)})"

    def _replace(self, **changes: Any) -> "Record":
        """A copy with the named fields changed."""
        values = [changes.pop(n, getattr(self, n)) for n in self.__slots__]
        return type(self)(*values, **changes)


class Element(Record):
    """A group element: group tag plus canonical form."""

    __slots__ = ("group", "value")

    def __init__(self, group: "Group", value: Any) -> None:
        # the slots' own setters, cheaper than object.__setattr__ on this
        # hot path
        _set_group(self, group)
        _set_value(self, value)

    def __mul__(self, other: "Element") -> "Element":
        return self.group.op(self, other)

    def __invert__(self) -> "Element":
        return self.group.inv(self)

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            return (~self) ** (-n)
        result = self.group.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    @property
    def is_identity(self) -> bool:
        return self.value == self.group._identity_value()

    def sort_key(self) -> Any:
        return self.group.sort_key(self.value)

    def encode(self) -> Any:
        return self.group.encode(self.value)

    def __repr__(self) -> str:
        return f"<{self.group.descriptor}: {self.group.format_value(self.value)}>"


_set_group, _set_value = Element.group.__set__, Element.value.__set__


class Group(ABC):
    """Base class for the concrete groups the toolkit computes with.

    Subclasses implement the group law on canonical forms.  Instances are
    immutable, so the descriptor string is computed once: a class attribute
    where it is constant, otherwise set in ``__init__``.  Handles compare
    equal exactly when their descriptors match, so elements of
    independently constructed handles interoperate.
    """

    descriptor: str

    @property
    @abstractmethod
    def is_finite(self) -> bool: ...

    @property
    def order(self) -> int | None:
        return None

    @abstractmethod
    def _identity_value(self) -> Any: ...

    @abstractmethod
    def _op_values(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def _inv_value(self, a: Any) -> Any: ...

    @abstractmethod
    def check_value(self, value: Any) -> None:
        """Raise ValueError if value is not a canonical form of this group."""

    def sort_key(self, value: Any) -> Any:
        return value

    def encode(self, value: Any) -> Any:
        return value

    def decode(self, obj: Any) -> Any:
        self.check_value(obj)
        return obj

    def format_value(self, value: Any) -> str:
        return str(value)

    # -- wrapped API ------------------------------------------------------

    def identity(self) -> Element:
        return Element(self, self._identity_value())

    def element(self, value: Any) -> Element:
        self.check_value(value)
        return Element(self, value)

    def op(self, g: Element, h: Element) -> Element:
        if (g.group is not self and g.group != self) or (
            h.group is not self and h.group != self
        ):
            raise GroupMismatchError(
                f"cannot multiply elements of {g.group.descriptor} and "
                f"{h.group.descriptor} in {self.descriptor}"
            )
        return Element(self, self._op_values(g.value, h.value))

    def inv(self, g: Element) -> Element:
        if g.group is not self and g.group != self:
            raise GroupMismatchError(
                f"element of {g.group.descriptor} is not in {self.descriptor}"
            )
        return Element(self, self._inv_value(g.value))

    def elements(self) -> list[Element]:
        """All elements in canonical sort order (finite groups only)."""
        raise ValueError(f"{self.descriptor} is not finite-enumerable")

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Group) and self.descriptor == other.descriptor
        )

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def __repr__(self) -> str:
        return f"Group({self.descriptor})"


class CyclicGroup(Group):
    """Z/n with residues 0..n-1 as canonical forms."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {n}")
        self.n = n
        self.descriptor = f"cyclic:{n}"

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def order(self) -> int:
        return self.n

    def _identity_value(self) -> int:
        return 0

    def _op_values(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def _inv_value(self, a: int) -> int:
        return (-a) % self.n

    def check_value(self, value: Any) -> None:
        if not isinstance(value, int) or not 0 <= value < self.n:
            raise ValueError(f"not a residue mod {self.n}: {value!r}")

    def elements(self) -> list[Element]:
        return [Element(self, k) for k in range(self.n)]


class IntegerGroup(Group):
    """(Z, +)."""

    descriptor = "integers"

    @property
    def is_finite(self) -> bool:
        return False

    def _identity_value(self) -> int:
        return 0

    def _op_values(self, a: int, b: int) -> int:
        return a + b

    def _inv_value(self, a: int) -> int:
        return -a

    def check_value(self, value: Any) -> None:
        if not isinstance(value, int):
            raise ValueError(f"not an integer: {value!r}")


class FreeAbelianGroup(Group):
    """Z^k with integer vectors as canonical forms."""

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError(f"rank must be >= 0, got {rank}")
        self.rank = rank
        self.descriptor = f"free-abelian:{rank}"

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def order(self) -> int | None:
        return 1 if self.rank == 0 else None

    def _identity_value(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def _op_values(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.add, a, b))

    def _inv_value(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.neg, a))

    def check_value(self, value: Any) -> None:
        if (
            not isinstance(value, tuple)
            or len(value) != self.rank
            or not all(isinstance(x, int) for x in value)
        ):
            raise ValueError(f"not an integer {self.rank}-vector: {value!r}")

    def elements(self) -> list[Element]:
        if self.rank == 0:
            return [self.identity()]
        return super().elements()

    def encode(self, value: tuple[int, ...]) -> list[int]:
        return list(value)

    def decode(self, obj: Any) -> tuple[int, ...]:
        value = tuple(obj)
        self.check_value(value)
        return value

    def basis(self) -> list[Element]:
        out = []
        for i in range(self.rank):
            vec = [0] * self.rank
            vec[i] = 1
            out.append(Element(self, tuple(vec)))
        return out


class DirectProductGroup(Group):
    """Direct product with componentwise law."""

    def __init__(self, left: Group, right: Group, name: str | None = None):
        self.left = left
        self.right = right
        if name is None:
            name = f"product:{left.descriptor},{right.descriptor}"
        self.descriptor = name

    @property
    def is_finite(self) -> bool:
        return self.left.is_finite and self.right.is_finite

    @property
    def order(self) -> int | None:
        if self.is_finite:
            return self.left.order * self.right.order
        return None

    def _identity_value(self) -> tuple[Any, Any]:
        return (self.left._identity_value(), self.right._identity_value())

    def _op_values(self, a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        return (
            self.left._op_values(a[0], b[0]),
            self.right._op_values(a[1], b[1]),
        )

    def _inv_value(self, a: tuple[Any, Any]) -> tuple[Any, Any]:
        return (self.left._inv_value(a[0]), self.right._inv_value(a[1]))

    def check_value(self, value: Any) -> None:
        if not isinstance(value, tuple) or len(value) != 2:
            raise ValueError(f"not a pair: {value!r}")
        self.left.check_value(value[0])
        self.right.check_value(value[1])

    def sort_key(self, value: tuple[Any, Any]) -> Any:
        return (self.left.sort_key(value[0]), self.right.sort_key(value[1]))

    def encode(self, value: tuple[Any, Any]) -> list[Any]:
        return [self.left.encode(value[0]), self.right.encode(value[1])]

    def decode(self, obj: Any) -> tuple[Any, Any]:
        return (self.left.decode(obj[0]), self.right.decode(obj[1]))

    def format_value(self, value: tuple[Any, Any]) -> str:
        return (
            f"({self.left.format_value(value[0])}, "
            f"{self.right.format_value(value[1])})"
        )

    def elements(self) -> list[Element]:
        if not self.is_finite:
            return super().elements()
        return [
            Element(self, (a.value, b.value))
            for a in self.left.elements()
            for b in self.right.elements()
        ]

    def pair(self, a: Element, b: Element) -> Element:
        return Element(self, (a.value, b.value))


# Coset translation patterns of the four point-group parts: entry k is the
# parity forced on coordinate k of the doubled translation 2t (1 where t
# has fractional part 1/2).
_PROMISLOW_PARITY = {
    (1, 1, 1): (0, 0, 0),
    (1, -1, -1): (1, 1, 0),
    (-1, 1, -1): (0, 1, 1),
    (-1, -1, 1): (1, 0, 1),
}


def _half_str(u: int) -> str:
    """u/2 written as Fraction writes it: "3", "-1/2"."""
    return str(u // 2) if u % 2 == 0 else f"{u}/2"


class PromislowGroup(Group):
    """The Promislow (Hantzsche-Wendt) group in its affine representation.

    Elements are exact affine maps (D, t): a diagonal matrix D with entries
    +-1 stored as a triple, and a translation t in (1/2)Z^3 stored doubled,
    as the int triple 2t, so the group law is integer arithmetic.  Encoded
    and printed forms still show t itself ("1/2").  Generators:

        a = (diag(1,-1,-1), (1/2, 1/2, 0))
        b = (diag(-1,1,-1), (0, 1/2, 1/2))

    The defining relations a b^2 a^-1 b^2 and b a^2 b^-1 a^2 hold exactly in
    this representation (checked in the test suite before anything trusts it).
    """

    descriptor = "promislow"

    @property
    def is_finite(self) -> bool:
        return False

    def _identity_value(self):
        return ((1, 1, 1), (0, 0, 0))

    def _op_values(self, g, h):
        (d0, d1, d2), (s0, s1, s2) = g
        (e0, e1, e2), (u0, u1, u2) = h
        return (
            (d0 * e0, d1 * e1, d2 * e2),
            (d0 * u0 + s0, d1 * u1 + s1, d2 * u2 + s2),
        )

    def _inv_value(self, g):
        d, (u0, u1, u2) = g
        return (d, (-d[0] * u0, -d[1] * u1, -d[2] * u2))

    def check_value(self, value: Any) -> None:
        try:
            d, u = value
        except (TypeError, ValueError):
            raise ValueError(f"not an affine pair: {value!r}") from None
        if d not in _PROMISLOW_PARITY:
            raise ValueError(f"not a Promislow point-group part: {d!r}")
        if (
            not isinstance(u, tuple)
            or len(u) != 3
            or not all(isinstance(x, int) for x in u)
            or tuple(x % 2 for x in u) != _PROMISLOW_PARITY[d]
        ):
            raise ValueError(
                f"doubled translation {u!r} incompatible with point part {d!r}"
            )

    def encode(self, value) -> dict[str, list]:
        d, u = value
        return {"diag": list(d), "t": [_half_str(x) for x in u]}

    def decode(self, obj: Any):
        from fractions import Fraction  # here only: the CLI's start-up skips it

        d = tuple(int(x) for x in obj["diag"])
        doubled = tuple(2 * Fraction(s) for s in obj["t"])
        if any(x.denominator != 1 for x in doubled):
            raise ValueError(f"translation {obj['t']!r} is not in (1/2)Z^3")
        value = (d, tuple(int(x) for x in doubled))
        self.check_value(value)
        return value

    def format_value(self, value) -> str:
        d, u = value
        return f"diag{d}+({','.join(_half_str(x) for x in u)})"

    def gen_a(self) -> Element:
        return Element(self, ((1, -1, -1), (1, 1, 0)))

    def gen_b(self) -> Element:
        return Element(self, ((-1, 1, -1), (0, 1, 1)))

    def generators(self) -> list[Element]:
        return [self.gen_a(), self.gen_b()]

    def translation(self, x: int, y: int, z: int) -> Element:
        return Element(self, ((1, 1, 1), (2 * x, 2 * y, 2 * z)))

    def phi2_value(self, value) -> int:
        """Image in Z/2 of the map sending a -> 1, b -> 0 (a-exponent mod 2)."""
        d, _ = value
        return 1 if d in ((1, -1, -1), (-1, -1, 1)) else 0

    def psi4_value(self, value) -> int:
        """Image in Z/4 of the abelianization followed by the a-factor.

        Computed from the affine canonical form: peel off the coset
        representative (id, a, b or ab), read the remaining integer
        translation (v1, v2, v3), and combine 2*(v1+v3) with the
        representative's own image (1, 0 or 1).  The stored translation is
        doubled, so w1 = 2*v1 and w3 = 2*v3 come out without division.
        """
        d, (u0, _, u2) = value
        if d == (1, 1, 1):
            base, w1, w3 = 0, u0, u2
        elif d == (1, -1, -1):  # a * tau
            base, w1, w3 = 1, u0 - 1, -u2
        elif d == (-1, 1, -1):  # b * tau
            base, w1, w3 = 0, -u0, -(u2 - 1)
        else:  # ab * tau
            base, w1, w3 = 1, -(u0 - 1), u2 + 1
        return (base + w1 + w3) % 4

    def kernel_coords(self, value) -> tuple[int, int, int]:
        """Coordinates (x, w, j) of a phi-kernel element as a^2x (ab)^2w b^j.

        Only defined on the kernel of phi2 (point part diag(1,1,1) or
        diag(-1,1,-1)); raises ValueError otherwise.  In both cosets the
        doubled middle translation coordinate is the b-exponent j.
        """
        d, (u0, u1, u2) = value
        if d == (1, 1, 1):
            return (u0 // 2, -(u2 // 2), u1)
        if d == (-1, 1, -1):
            # g = tau * b with tau = g * b^-1 a pure translation
            return (u0 // 2, -((u2 - 1) // 2), u1)
        raise ValueError(f"element with point part {d!r} is not in ker(phi)")


# -- registry --------------------------------------------------------------


def klein_four_group() -> DirectProductGroup:
    return DirectProductGroup(CyclicGroup(2), CyclicGroup(2), name="klein4")


def get_group(descriptor: str) -> Group:
    """Resolve a builtin group descriptor such as ``cyclic:6`` or ``promislow``.

    Products nest in prefix form: ``product:<a>,<b>`` reads one descriptor,
    a comma, then another, so ``product:product:cyclic:2,cyclic:2,cyclic:3``
    is (Z/2 x Z/2) x Z/3.  No other descriptor contains a comma.
    """
    group, rest = _parse_group(descriptor)
    if rest:
        raise ValueError(f"unexpected {rest!r} at the end of {descriptor!r}")
    return group


def _parse_group(text: str) -> tuple[Group, str]:
    """Read one descriptor from the front of text; return it and the rest."""
    if text.startswith("product:"):
        left, rest = _parse_group(text[len("product:"):])
        if not rest.startswith(","):
            raise ValueError(
                f"product descriptor needs exactly two factors: {text!r}"
            )
        right, rest = _parse_group(rest[1:])
        return DirectProductGroup(left, right), rest
    leaf, comma, rest = text.partition(",")
    return _leaf_group(leaf), comma + rest


def _leaf_group(descriptor: str) -> Group:
    if descriptor == "integers":
        return IntegerGroup()
    if descriptor == "promislow":
        return PROMISLOW
    if descriptor == "klein4":
        return klein_four_group()
    if descriptor == "trivial":
        return CyclicGroup(1)
    if descriptor.startswith("cyclic:"):
        return CyclicGroup(int(descriptor.split(":", 1)[1]))
    if descriptor.startswith("free-abelian:"):
        return FreeAbelianGroup(int(descriptor.split(":", 1)[1]))
    if descriptor.startswith("witness:"):
        from . import witness

        # witness:p, or witness:p:upU:downD as a sabotaged group writes it
        form = re.fullmatch(r"witness:(\d+)(?::up(-?\d+):down(-?\d+))?", descriptor)
        if form is None:
            raise ValueError(f"bad witness descriptor: {descriptor!r}")
        p, up, down = (x if x is None else int(x) for x in form.groups())
        return witness.WitnessAmbientGroup(p, up, down)
    raise ValueError(f"unknown group descriptor: {descriptor!r}")


# -- element order ----------------------------------------------------------


def element_order(g: Element, cap: int) -> int | None:
    """Least k <= cap with g^k = id, or None when the order exceeds cap."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    ident = g.group.identity()
    power = g
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = power * g
    return None


# -- balls -------------------------------------------------------------------


class Ball(Record):
    """All products of at most `radius` generators and inverses."""

    __slots__ = ("group", "gens", "radius", "elements", "_value_set")
    _key = attrgetter("group", "gens", "radius", "elements")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, g: Element) -> bool:
        return g.group == self.group and g.value in self._value_set

    def contains_value(self, value: Any) -> bool:
        return value in self._value_set


def ball(gens: Sequence[Element], radius: int) -> Ball:
    """Breadth-first ball of the given radius around the identity.

    Deterministic: the element list is sorted by canonical form.  Raises
    ResourceCapError when the ball would exceed max_ball_size().
    """
    b, _ = ball_with_words(gens, radius)
    return b


class BallWords(Mapping):
    """Form -> shortest word of a ball, spelled on each read from the BFS
    tree.  The tree keeps per form only its parent's form and last letter,
    so a ball's memory is linear in its size, not in the sum of its words."""

    def __init__(self, tree: dict[Any, tuple[Any, int]]):
        self._tree = tree

    def __getitem__(self, value: Any) -> tuple[int, ...]:
        word: list[int] = []
        parent, letter = self._tree[value]
        while letter:
            word.append(letter)
            parent, letter = self._tree[parent]
        return tuple(reversed(word))

    def __iter__(self) -> Iterator[Any]:
        return iter(self._tree)

    def __len__(self) -> int:
        return len(self._tree)


def ball_with_words(gens: Sequence[Element], radius: int) -> tuple[Ball, BallWords]:
    """Ball plus one shortest defining word per element.

    Words are tuples of signed generator indices (1-based; negative means
    inverse), the first found in deterministic BFS order.
    """
    if not gens:
        raise ValueError("ball needs at least one generator")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    group = gens[0].group
    for g in gens:
        if g.group != group:
            raise GroupMismatchError("ball generators must share one group")
    cap = max_ball_size()

    op, key = group._op_values, group.sort_key
    steps: list[tuple[int, Any]] = []
    for i, g in enumerate(gens):
        steps.append((i + 1, g.value))
        steps.append((-(i + 1), group._inv_value(g.value)))

    # the BFS runs on canonical forms; Elements are built for the result only
    frontier = [group._identity_value()]
    tree = {frontier[0]: (frontier[0], 0)}
    for _ in range(radius):
        frontier.sort(key=key)
        next_frontier: list[Any] = []
        for w in frontier:
            for letter, s in steps:
                v = op(w, s)
                if v in tree:
                    continue
                if len(tree) >= cap:
                    raise ResourceCapError(
                        f"ball of radius {radius} exceeds cap {cap} elements"
                    )
                tree[v] = (w, letter)
                next_frontier.append(v)
        frontier = next_frontier
    ordered = tuple(Element(group, v) for v in sorted(tree, key=key))
    return Ball(group, tuple(gens), radius, ordered, frozenset(tree)), BallWords(tree)


# -- presentations -----------------------------------------------------------


def free_reduce(word: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class Presentation(Record):
    """Finite presentation: generator count plus reduced relator words."""

    __slots__ = ("num_generators", "relators", "generator_names")

    def __init__(
        self, num_generators: int, relators: tuple[tuple[int, ...], ...],
        generator_names: tuple[str, ...] = (),
    ) -> None:
        names = generator_names or tuple(
            _default_gen_name(i) for i in range(num_generators)
        )
        if len(names) != num_generators:
            raise ValueError("one name per generator required")
        reduced = tuple(free_reduce(r) for r in relators)
        for rel in reduced:
            for letter in rel:
                if not 1 <= abs(letter) <= num_generators:
                    raise ValueError(f"letter {letter} out of range in {rel}")
        super().__init__(num_generators, reduced, names)

    def exponent_sum_matrix(self) -> list[list[int]]:
        """Row per relator, column per generator: signed letter counts."""
        rows = []
        for rel in self.relators:
            row = [0] * self.num_generators
            for letter in rel:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows


def _default_gen_name(i: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return letters[i] if i < len(letters) else f"g{i}"


PROMISLOW_PRESENTATION = Presentation(
    2, ((1, 2, 2, -1, 2, 2), (2, 1, 1, -2, 1, 1)), ("a", "b")
)

# the one shared handle, so elements of the Promislow helpers and of
# get_group("promislow") meet on the identity fast path of Group.__eq__
PROMISLOW = PromislowGroup()


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format.

    One ``gens: a b`` line followed by ``rel: a b b A b b`` lines; an
    uppercase letter is the inverse of its lowercase generator.
    """
    names: list[str] | None = None
    relators: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gens:"):
            if names is not None:
                raise ValueError(f"line {lineno}: duplicate gens line")
            names = line[len("gens:"):].split()
            if not names:
                raise ValueError(f"line {lineno}: empty generator list")
        elif line.startswith("rel:"):
            if names is None:
                raise ValueError(f"line {lineno}: rel before gens")
            word = []
            for token in line[len("rel:"):].split():
                lowered = token.lower()
                if lowered not in names:
                    raise ValueError(f"line {lineno}: unknown letter {token!r}")
                index = names.index(lowered) + 1
                word.append(index if token == lowered else -index)
            relators.append(tuple(word))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if names is None:
        raise ValueError("missing gens line")
    return Presentation(len(names), tuple(relators), tuple(names))


def evaluate_word(images: Sequence[Element], word: Iterable[int]) -> Element:
    """Evaluate a signed-letter word using the given generator images."""
    if not images:
        raise ValueError("need at least one generator image")
    result = images[0].group.identity()
    for letter in word:
        base = images[abs(letter) - 1]
        result = result * (base if letter > 0 else ~base)
    return result


# -- homomorphisms -----------------------------------------------------------


class Homomorphism:
    """Group homomorphism given by a rule on canonical forms.

    `rule` maps a source canonical form to a target canonical form; calling
    the homomorphism on an element is the one place that wraps it.  When
    the source carries a presentation and generator images are supplied,
    the relators are verified at construction time (fail-fast on invalid
    certificates).  Sources without a presentation rely on
    `validate_on_carrier` for extensional checking.
    """

    def __init__(
        self,
        source: Group,
        target: Group,
        rule: Callable[[Any], Any],
        *,
        name: str = "",
        presentation: Presentation | None = None,
        gen_images: Sequence[Element] | None = None,
    ):
        self.source = source
        self.target = target
        self.rule = rule
        self.name = name or "hom"
        self.presentation = presentation
        self.gen_images = tuple(gen_images) if gen_images is not None else None
        if presentation is not None:
            if self.gen_images is None:
                raise InvalidHomomorphismError(
                    f"{self.name}: presentation given without generator images"
                )
            if len(self.gen_images) != presentation.num_generators:
                raise InvalidHomomorphismError(
                    f"{self.name}: expected {presentation.num_generators} images"
                )
            ident = target.identity()
            for rel in presentation.relators:
                image = evaluate_word(self.gen_images, rel)
                if image != ident:
                    raise InvalidHomomorphismError(
                        f"{self.name}: relator {rel} maps to "
                        f"{target.format_value(image.value)}, not the identity"
                    )

    def __call__(self, g: Element) -> Element:
        if g.group is not self.source and g.group != self.source:
            raise GroupMismatchError(
                f"{self.name}: element of {g.group.descriptor} is not in "
                f"source {self.source.descriptor}"
            )
        return Element(self.target, self.rule(g.value))

    def validate_on_carrier(self, carrier: Sequence[Element]) -> bool:
        """Decide f(gh) = f(g)f(h) for all pairs g, h of the carrier.

        On a `Ball` B = B(S, r) of the source, as `ball` builds it, with
        r >= 1 the pair law is decided on the Cayley edges of B(S, 2r): it
        holds on B exactly when f(ws) = f(w)f(s) for every w in B(S, 2r-1)
        and every letter s of S and S^-1.  (=>) Write w = xy with x in B(r), y in B(r-1); the pair
        law at (x, y), (y, s) and (x, ys) gives f(ws) = f(x)f(y)f(s) =
        f(w)f(s).  (<=) The edge law at w = e forces f(e) = 1, so f of a
        word of length <= 2r is the product of f over its letters, and a
        product xy of B is such a word.  One BFS to radius 2r checks all
        |S±| |B(2r-1)| edges, into seen vertices too, and calls `rule` once
        per vertex and once per letter, instead of |B|^2 pairs.  Any other
        carrier, and a ball of radius 0, gets the pair sweep.  Both paths
        evaluate `rule` only on B(2r), the products of pairs; `rule` is
        assumed total on canonical forms, so the verdicts agree even where
        the two stop at different values.
        """
        if (
            isinstance(carrier, Ball)
            and carrier.radius >= 1
            and carrier.group == self.source
        ):
            return self._edge_law_holds(carrier)
        img = {g.value: self(g).value for g in carrier}
        times, rule = self.target._op_values, self.rule
        return all(
            times(img[x], img[y]) == rule(self.source._op_values(x, y))
            for x in img for y in img
        )

    def _edge_law_holds(self, carrier: Ball) -> bool:
        """f(ws) = f(w)f(s) on every edge of B(carrier.gens, 2 carrier.radius)."""
        source, rule, times = self.source, self.rule, self.target._op_values
        op = source._op_values
        # an involution is its own inverse: walk each letter once
        letters = [
            (s, rule(s))
            for s in dict.fromkeys(
                s for g in carrier.gens for s in (g.value, source._inv_value(g.value))
            )
        ]
        frontier = [source._identity_value()]
        img = {frontier[0]: rule(frontier[0])}
        for _ in range(2 * carrier.radius):
            next_frontier = []
            for w in frontier:
                fw = img[w]
                for s, fs in letters:
                    v = op(w, s)
                    if v not in img:
                        img[v] = rule(v)
                        next_frontier.append(v)
                    if img[v] != times(fw, fs):
                        return False
            frontier = next_frontier
        return True

    def kernel_contains(self, g: Element) -> bool:
        return self(g).value == self.target._identity_value()
