"""The torsion-free witness group with obstruction spectrum p*N.

The ambient group is B = (H x| K/(y)) x| <z | z^p>, where H is the rank-p
module over Z[1/(p+1)] spanned by the x_i, K is free abelian on y_1..y_p
acting by y_i x_i y_i^-1 = x_i^(p+1) and y_i x_{i+1} y_i^-1 = x_{i+1}^(1/(p+1)),
y = y_1...y_p acts trivially (hence the quotient K/(y)), and z cyclically
shifts indices.  The subgroup of interest is

    G = { h k z^i  :  phi(h) = i }   with   phi(x_i^(1/(p+1)^j)) = 1 mod p.

Elements are triples (a, b, i): exact rational exponent vector a for the
x-part, integer vector b for the y-part in the canonical representative
with last coordinate zero, and the z-twist i mod p.  All arithmetic is
exact; claims about the group are verified by recomputation, not trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Iterable, Iterator, Sequence

from .groups import Element, Group
from .orders import CheckList, counterexample, sweep


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class WitnessAmbientGroup(Group):
    """B = (H x| K/(y)) x| <z>; see the module docstring.

    up_base/down_base default to p+1 and exist so tests can sabotage one
    direction of the action (the mutation knob for claim verification).
    """

    def __init__(self, p: int, up_base: int | None = None, down_base: int | None = None):
        if not _is_prime(p):
            raise ValueError(f"p must be a prime, got {p}")
        self.p = p
        self.up = (p + 1) if up_base is None else up_base
        self.down = (p + 1) if down_base is None else down_base
        self.standard = self.up == p + 1 and self.down == p + 1
        self.descriptor = (
            f"witness:{p}"
            if self.standard
            else f"witness:{p}:up{self.up}:down{self.down}"
        )

    @property
    def is_finite(self) -> bool:
        return False

    # -- canonical forms ----------------------------------------------------

    def _canon_b(self, b: Sequence[int]) -> tuple[int, ...]:
        last = b[-1]
        return tuple(x - last for x in b)

    def _shift(self, vec: Sequence[Any], s: int) -> tuple[Any, ...]:
        p = self.p
        out = [None] * p
        for idx in range(p):
            out[(idx + s) % p] = vec[idx]
        return tuple(out)

    def _factor(self, b: Sequence[int], j: int) -> Fraction:
        return Fraction(self.up) ** b[j] * Fraction(self.down) ** (-b[(j - 1) % self.p])

    def scale_vector(
        self, vec: Sequence[Fraction], b: Sequence[int]
    ) -> tuple[Fraction, ...]:
        """Conjugation action of the y-word with raw exponent vector b on H."""
        return tuple(vec[j] * self._factor(b, j) for j in range(self.p))

    def _identity_value(self):
        p = self.p
        return ((Fraction(0),) * p, (0,) * p, 0)

    def _op_values(self, x, y):
        a, b, i = x
        a2, b2, i2 = y
        shifted_a2 = self._shift(a2, i)
        shifted_b2 = self._shift(b2, i)
        new_a = tuple(
            a[j] + v for j, v in enumerate(self.scale_vector(shifted_a2, b))
        )
        new_b = self._canon_b(tuple(b[j] + shifted_b2[j] for j in range(self.p)))
        return (new_a, new_b, (i + i2) % self.p)

    def _inv_value(self, x):
        a, b, i = x
        unscaled = tuple(-a[j] / self._factor(b, j) for j in range(self.p))
        a_star = self._shift(unscaled, -i)
        b_star = self._shift(tuple(-v for v in b), -i)
        return (a_star, self._canon_b(b_star), (-i) % self.p)

    def check_value(self, value: Any) -> None:
        try:
            a, b, i = value
        except (TypeError, ValueError):
            raise ValueError(f"not a witness triple: {value!r}") from None
        p = self.p
        if len(a) != p or len(b) != p:
            raise ValueError(f"vectors must have length {p}: {value!r}")
        if not all(isinstance(q, Fraction) for q in a):
            raise ValueError(f"x-part must be exact fractions: {a!r}")
        if self.standard:
            for q in a:
                den = q.denominator
                while den != 1:
                    g = gcd(den, p + 1)
                    if g == 1:
                        raise ValueError(
                            f"denominator of {q} is not a power of {p + 1}"
                        )
                    den //= g
        if not all(isinstance(v, int) for v in b) or b[-1] != 0:
            raise ValueError(f"y-part must be canonical (last entry 0): {b!r}")
        if not isinstance(i, int) or not 0 <= i < p:
            raise ValueError(f"z-twist out of range: {i!r}")

    def sort_key(self, value):
        a, b, i = value
        return (a, b, i)

    def encode(self, value):
        a, b, i = value
        return {"x": [str(q) for q in a], "y": list(b), "z": i}

    def decode(self, obj):
        value = (
            tuple(Fraction(s) for s in obj["x"]),
            tuple(int(v) for v in obj["y"]),
            int(obj["z"]),
        )
        self.check_value(value)
        return value

    def format_value(self, value):
        a, b, i = value
        return f"x{tuple(str(q) for q in a)} y{b} z^{i}"

    # -- constructors --------------------------------------------------------

    def from_parts(
        self, a: Sequence[Fraction | int], b: Sequence[int], i: int
    ) -> Element:
        value = (
            tuple(Fraction(q) for q in a),
            self._canon_b(tuple(int(v) for v in b)),
            i % self.p,
        )
        self.check_value(value)
        return Element(self, value)

    def x_gen(self, index: int, exponent: Fraction | int = 1) -> Element:
        """x_index^exponent (index is 0-based)."""
        a = [Fraction(0)] * self.p
        a[index % self.p] = Fraction(exponent)
        return self.from_parts(a, (0,) * self.p, 0)

    def y_gen(self, index: int) -> Element:
        b = [0] * self.p
        b[index % self.p] = 1
        return self.from_parts((Fraction(0),) * self.p, b, 0)

    def z_gen(self, power: int = 1) -> Element:
        return self.from_parts((Fraction(0),) * self.p, (0,) * self.p, power)


# -- the subgroup G --------------------------------------------------------


def phi_H(group: WitnessAmbientGroup, a: Sequence[Fraction]) -> int:
    """Sum of scaled numerators mod p: x_i^(1/(p+1)^j) counts as 1.

    Well defined because p+1 = 1 mod p, so rescaling a representation
    m/(p+1)^j to m(p+1)/(p+1)^(j+1) leaves the numerator class fixed.
    """
    base = group.p + 1
    total = 0
    for q in a:
        scaled = q
        while scaled.denominator != 1:
            if gcd(scaled.denominator, base) == 1:
                raise ValueError(
                    f"exponent {q} has denominator outside powers of {base}"
                )
            scaled *= base
        total += scaled.numerator
    return total % group.p


@dataclass(frozen=True)
class WitnessMembership:
    element: Element
    phi_value: int
    in_subgroup: bool

    def to_dict(self) -> dict:
        return {
            "element": self.element.encode(),
            "phi": self.phi_value,
            "in_subgroup": self.in_subgroup,
        }


def membership_G(x: Element) -> WitnessMembership:
    """Membership test for G = {h k z^i : phi(h) = i} inside the ambient group."""
    group = x.group
    if not isinstance(group, WitnessAmbientGroup):
        raise ValueError(f"{x!r} is not in a witness ambient group")
    a, _, i = x.value
    phi = phi_H(group, a)
    return WitnessMembership(x, phi, phi == i)


def random_subgroup_element(
    group: WitnessAmbientGroup, rng: random.Random
) -> Element:
    """A random element of G: the z-twist is forced to phi of the x-part."""
    p = group.p
    a = tuple(
        Fraction(rng.randint(-4, 4), (p + 1) ** rng.randint(0, 3))
        for _ in range(p)
    )
    b = tuple(rng.randint(-3, 3) for _ in range(p))
    return group.from_parts(a, b, phi_H(group, a))


# -- claim verification -------------------------------------------------------


def _guarded(cases: Iterable[dict | None]) -> Iterator[dict | None]:
    """A family body whose arithmetic errors become its failure at the
    case that raised, which is counted."""
    try:
        yield from cases
    except (ValueError, ZeroDivisionError) as exc:
        yield {"error": str(exc)}


def verify_witness_claims(
    p: int,
    budget: int = 500,
    seed: int = 0,
    group: WitnessAmbientGroup | None = None,
) -> dict:
    """Recompute the defining claims of the witness construction exactly.

    Six check families: (1) y = y_1...y_p centralizes every x_i, (2) the
    elements g_{i,j} = x_i^(1/(p+1)^j) x_{i+1}^(-1/(p+1)^j) lie in G,
    (3) their commutators with y_{i+1} match the closed form whose x-part
    is x_{i+1}^(p/(p+1)^j) (with the wrap-around correction at p = 2),
    (4) [x_i z, x_{i+1} z] = x_i x_{i+1}^-2 x_{i+2}, (5) G is closed under
    sampled products and inverses, and (6) no sampled nontrivial element
    of G has order <= p.  Any arithmetic error inside a family is reported
    as that family's failure.
    """
    G = group or WitnessAmbientGroup(p)
    p = G.p
    rng = random.Random(seed)
    ident = G.identity()
    gij_cases = [(i, j) for i in range(p) for j in range(-3, 4)]

    def g_ij(i: int, j: int) -> tuple[Fraction, Element]:
        t = Fraction(1, (p + 1) ** j) if j >= 0 else Fraction((p + 1) ** (-j))
        return t, G.x_gen(i, t) * G.x_gen(i + 1, -t)

    def y_centralizes():
        # the product y_1...y_p acts trivially on H (raw action, so the
        # K/(y) quotient cannot mask a broken exponent)
        for i in range(p):
            basis = tuple(Fraction(int(j == i)) for j in range(p))
            conjugated = G.scale_vector(basis, (1,) * p)
            yield (
                {"generator": i, "conjugated_exponents": [str(q) for q in conjugated]}
                if conjugated != basis
                else None
            )

    def gij_in_subgroup():
        for i, j in gij_cases:
            m = membership_G(g_ij(i, j)[1])
            yield None if m.in_subgroup else {"i": i, "j": j, "phi": m.phi_value}

    def gij_y_commutator():
        for i, j in gij_cases:
            t, g = g_ij(i, j)
            y = G.y_gen(i + 1)
            comm = g * y * ~g * ~y
            expected_a = [Fraction(0)] * p
            expected_a[(i + 1) % p] += t * p
            if p == 2:
                expected_a[i] += t * p / (p + 1)
            expected = G.from_parts(expected_a, (0,) * p, 0)
            if comm != expected:
                yield {"i": i, "j": j, "got": comm.encode(), "expected": expected.encode()}
            elif not membership_G(comm).in_subgroup:
                yield {"i": i, "j": j, "reason": "commutator left G"}
            else:
                yield None

    def xz_commutator():
        for i in range(p):
            u = G.x_gen(i) * G.z_gen()
            v = G.x_gen(i + 1) * G.z_gen()
            if not (membership_G(u).in_subgroup and membership_G(v).in_subgroup):
                yield {"i": i, "reason": "x_i z not in G"}
                continue
            comm = u * v * ~u * ~v
            expected_a = [Fraction(0)] * p
            expected_a[i % p] += 1
            expected_a[(i + 1) % p] += -2
            expected_a[(i + 2) % p] += 1
            expected = G.from_parts(expected_a, (0,) * p, 0)
            yield (
                {"i": i, "got": comm.encode(), "expected": expected.encode()}
                if comm != expected
                else None
            )

    def subgroup_closure():
        # closure of G under sampled products and inverses
        for _ in range(max(10, budget // 2)):
            g = random_subgroup_element(G, rng)
            h = random_subgroup_element(G, rng)
            if not membership_G(g * h).in_subgroup:
                yield counterexample("product", (g, h))
            elif not membership_G(~g).in_subgroup:
                yield counterexample("inverse", (g,))
            elif (g * ~g) != ident or (~g * g) != ident:
                yield counterexample("inverse-law", (g,))
            else:
                yield None

    def torsion_spot_check():
        # no sampled g != id in G has order <= p; identity samples not counted
        for _ in range(max(10, budget // 4)):
            g = random_subgroup_element(G, rng)
            if g == ident:
                continue
            power, order = g, None
            for k in range(2, p + 1):
                power = power * g
                if power == ident:
                    order = k
                    break
            yield None if order is None else {"element": g.encode(), "order": order}

    checks = CheckList()
    for name, family, note in (
        ("y-centralizes-each-x", y_centralizes, ""),
        ("gij-in-subgroup", gij_in_subgroup, ""),
        (
            "gij-y-commutator",
            gij_y_commutator,
            "closed form carries the index-wrap term when p = 2",
        ),
        ("xz-commutator", xz_commutator, ""),
        ("subgroup-closure", subgroup_closure, ""),
        (
            "torsion-spot-check",
            torsion_spot_check,
            "consistent with torsion-freeness; not a proof",
        ),
    ):
        report = sweep(name, _guarded(family()))
        checks.add(
            name,
            report.passed,
            cases=report.checked_tuples,
            failure=report.counterexample,
            **({"note": note} if note else {}),
        )

    return {
        "schema": 1,
        "p": p,
        "group": G.descriptor,
        "budget": budget,
        "seed": seed,
        "status": checks.status,
        "checks": checks,
        "recorded_facts": [
            "circular-orderability of the ambient group is recorded from its "
            "construction (left-orderable kernel over a finite cyclic quotient), "
            "not constructed here",
            "the obstruction spectrum of the subgroup equals the multiples of p; "
            "recorded conclusion, exercised only through these desk-scale checks",
        ],
    }
