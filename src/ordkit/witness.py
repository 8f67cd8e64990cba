"""The torsion-free witness group with obstruction spectrum p*N.

The ambient group is B = (H x| K/(y)) x| <z | z^p>, where H is the rank-p
module over Z[1/(p+1)] spanned by the x_i, K is free abelian on y_1..y_p
acting by y_i x_i y_i^-1 = x_i^(p+1) and y_i x_{i+1} y_i^-1 = x_{i+1}^(1/(p+1)),
y = y_1...y_p acts trivially (hence the quotient K/(y)), and z cyclically
shifts indices.  The subgroup of interest is

    G = { h k z^i  :  phi(h) = i }   with   phi(x_i^(1/(p+1)^j)) = 1 mod p.

Elements are triples (a, b, i): x-part exponents as reduced int pairs
(num, den), den > 0, printed as fractions; the y-part b in the canonical
representative with last coordinate zero; the z-twist i mod p.  All
arithmetic is exact; claims about the group are verified by recomputation.
"""

from __future__ import annotations

import random
from math import gcd, isqrt
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from .groups import Element, Group, Record
from .orders import CheckList, counterexample, sweep

if TYPE_CHECKING:  # imported where used, off the start-up path of the CLI
    from fractions import Fraction


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d (d != 0) as a pair in lowest terms with a positive denominator."""
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // g, d // g


def _fmt(q: tuple[int, int]) -> str:
    """A reduced pair as str(Fraction) writes it: "3", "-1/4"."""
    n, d = q
    return str(n) if d == 1 else f"{n}/{d}"


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
        self._factors: dict[tuple[int, int], tuple[int, int]] = {}
        self._phi_multipliers: dict[int, int] = {}
        self._samples: list[list[tuple[tuple[int, int], int]]] | None = None

    @property
    def is_finite(self) -> bool:
        return False

    # -- canonical forms ----------------------------------------------------

    def _canon_b(self, b: Sequence[int]) -> tuple[int, ...]:
        last = b[-1]
        return tuple(x - last for x in b)

    def _factor(self, bj: int, bprev: int) -> tuple[int, int]:
        """up^bj * down^-bprev as a reduced pair: y-exponents bj on y_j and
        bprev on y_{j-1} scale x_j by it.  Memoised; a miss computes it from
        int powers.  A zero base under a negative power raises the error
        Fraction raises there, ZeroDivisionError("Fraction(1, 0)")."""
        pair = self._factors.get((bj, bprev))
        if pair is None:
            n = self.up ** max(bj, 0) * self.down ** max(-bprev, 0)
            d = self.up ** max(-bj, 0) * self.down ** max(bprev, 0)
            if not d:
                from fractions import Fraction

                Fraction(1, 0)  # raises, as Fraction(0) ** -k does
            pair = self._factors[bj, bprev] = _reduced(n, d)
        return pair

    def scale_vector(
        self, vec: Sequence[tuple[int, int]], b: Sequence[int]
    ) -> tuple[tuple[int, int], ...]:
        """Conjugation action of the y-word with raw exponent vector b on H."""
        out = []
        for j, (n, d) in enumerate(vec):
            fn, fd = self._factor(b[j], b[j - 1])
            out.append(_reduced(n * fn, d * fd))
        return tuple(out)

    def _identity_value(self):
        return (((0, 1),) * self.p, (0,) * self.p, 0)

    def _op_values(self, x, y):
        a, b, i = x
        a2, b2, i2 = y
        if i:  # z^i shifts the indices of the right factor by i
            a2, b2 = a2[-i:] + a2[:-i], b2[-i:] + b2[:-i]
        factors = self._factors
        new_a = []
        prev = b[-1]
        for (n1, d1), (n2, d2), bj in zip(a, a2, b):
            fn, fd = factors.get((bj, prev)) or self._factor(bj, prev)
            prev = bj
            d2 *= fd
            n, d = n1 * d2 + n2 * fn * d1, d1 * d2
            g = gcd(n, d) if d > 0 else -gcd(n, d)  # _reduced, inline
            new_a.append((n // g, d // g))
        last = b[-1] + b2[-1]
        new_b = tuple([u + v - last for u, v in zip(b, b2)])
        return (tuple(new_a), new_b, (i + i2) % self.p)

    def _product_is_identity(self, x, y) -> bool:
        """Whether _op_values(x, y) is the identity, without building it:
        n1/d1 + n2*fn/(d2*fd) = 0 on every coordinate, cross-multiplied (all
        denominators are positive), and the y- and z-parts cancel.  Every
        factor is looked up in _op_values's order, so a degenerate base
        raises the same error at the same coordinate."""
        a, b, i = x
        a2, b2, i2 = y
        if i:
            a2, b2 = a2[-i:] + a2[:-i], b2[-i:] + b2[:-i]
        factors = self._factors
        prev = b[-1]
        last = prev + b2[-1]
        zero = (i + i2) % self.p == 0
        for (n1, d1), (n2, d2), bj, bj2 in zip(a, a2, b, b2):
            fn, fd = factors.get((bj, prev)) or self._factor(bj, prev)
            prev = bj
            zero = zero and bj + bj2 == last and n1 * d2 * fd + n2 * fn * d1 == 0
        return zero

    def _inv_value(self, x):
        a, b, i = x
        factors = self._factors
        unscaled = []
        prev = b[-1]
        for (n, d), bj in zip(a, b):
            fn, fd = factors.get((bj, prev)) or self._factor(bj, prev)
            prev = bj
            if not fn:
                from fractions import Fraction

                Fraction(-n, d) / 0  # raises the ZeroDivisionError Fraction does
            unscaled.append(_reduced(-n * fd, d * fn))
        b_star = b[i:] + b[:i]  # negated below, with the canonical shift
        a_star, last = tuple(unscaled[i:] + unscaled[:i]), b_star[-1]
        return (a_star, tuple([last - v for v in b_star]), (-i) % self.p)

    def check_value(self, value: Any) -> None:
        try:
            a, b, i = value
        except (TypeError, ValueError):
            raise ValueError(f"not a witness triple: {value!r}") from None
        p = self.p
        if len(a) != p or len(b) != p:
            raise ValueError(f"vectors must have length {p}: {value!r}")
        for q in a:
            ints = isinstance(q, tuple) and len(q) == 2 and all(
                isinstance(v, int) for v in q
            )
            if not (ints and q[1] > 0 and gcd(*q) == 1):
                raise ValueError(f"x-part must be reduced (num, den) int pairs: {a!r}")
        if self.standard:
            for q in a:
                den = q[1]
                while den != 1:
                    g = gcd(den, p + 1)
                    if g == 1:
                        raise ValueError(
                            f"denominator of {_fmt(q)} is not a power of {p + 1}"
                        )
                    den //= g
        if not all(isinstance(v, int) for v in b) or b[-1] != 0:
            raise ValueError(f"y-part must be canonical (last entry 0): {b!r}")
        if not isinstance(i, int) or not 0 <= i < p:
            raise ValueError(f"z-twist out of range: {i!r}")

    def sort_key(self, value):
        from fractions import Fraction

        a, b, i = value
        return (tuple(Fraction(n, d) for n, d in a), b, i)

    def encode(self, value):
        a, b, i = value
        return {"x": [_fmt(q) for q in a], "y": list(b), "z": i}

    def decode(self, obj):
        from fractions import Fraction

        x = tuple(Fraction(s).as_integer_ratio() for s in obj["x"])
        value = (x, tuple(int(v) for v in obj["y"]), int(obj["z"]))
        self.check_value(value)
        return value

    def format_value(self, value):
        a, b, i = value
        return f"x{tuple(_fmt(q) for q in a)} y{b} z^{i}"

    # -- constructors --------------------------------------------------------

    def from_parts(
        self, a: Sequence[Fraction | int], b: Sequence[int], i: int
    ) -> Element:
        """The element with rational x-exponents a, y-part b and z-twist i."""
        x = tuple(q.as_integer_ratio() for q in a)
        return self.element((x, self._canon_b([int(v) for v in b]), i % self.p))

    def x_gen(self, index: int, exponent: Fraction | int = 1) -> Element:
        """x_index^exponent (index is 0-based)."""
        a = [0] * self.p
        a[index % self.p] = exponent
        return self.from_parts(a, (0,) * self.p, 0)

    def y_gen(self, index: int) -> Element:
        b = [0] * self.p
        b[index % self.p] = 1
        return self.from_parts((0,) * self.p, b, 0)

    def z_gen(self, power: int = 1) -> Element:
        return self.from_parts((0,) * self.p, (0,) * self.p, power)


# -- the subgroup G --------------------------------------------------------


def phi_H(group: WitnessAmbientGroup, a: Sequence[tuple[int, int]]) -> int:
    """Sum of scaled numerators mod p: x_i^(1/(p+1)^j) counts as 1.

    a is an x-part of (num, den) pairs.  Well defined because p+1 = 1 mod p,
    so rescaling a representation m/(p+1)^j to m(p+1)/(p+1)^(j+1) leaves the
    numerator class fixed.
    """
    multipliers = group._phi_multipliers
    total = 0
    for n, d in a:
        m = multipliers.get(d)
        if m is None:
            m = multipliers[d] = _phi_multiplier(group.p, d)
        if not m:
            raise ValueError(
                f"exponent {_fmt((n, d))} has denominator outside powers of "
                f"{group.p + 1}"
            )
        total += n * m
    return total % group.p


def _phi_multiplier(p: int, d: int) -> int:
    """m mod p, where d*m is a power (p+1)^j, so n/d = n*m/(p+1)^j; 0 when d
    divides no power of p+1 (m is a unit mod p, never 0)."""
    base, m = p + 1, 1
    while d != 1:
        g = gcd(d, base)
        if g == 1 or not d:
            return 0
        m, d = m * (base // g), d // g
    return m % p


class WitnessMembership(Record):
    __slots__ = ("element", "phi_value", "in_subgroup")


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
    """A random element of G: the z-twist is forced to phi of the x-part.

    Per coordinate it draws n = randint(-4, 4), then j = randint(0, 3), for
    the exponent n/(p+1)^j; then the y-part is p draws of randint(-3, 3).
    The draws are taken straight from rng.getrandbits as randint takes
    them (randint(a, b) is a + the first getrandbits(k) draw below
    b - a + 1, k its bit length), so the stream matches randint's.
    """
    p = group.p
    samples = group._samples
    if samples is None:  # samples[n + 4][j]: n/(p+1)^j and its phi class
        samples = group._samples = []
        for n in range(-4, 5):
            pairs = [_reduced(n, (p + 1) ** j) for j in range(4)]
            samples.append([(q, phi_H(group, (q,))) for q in pairs])
    bits = rng.getrandbits
    a, phi = [], 0
    for _ in range(p):
        r = bits(4)  # randint(-4, 4) + 4
        while r >= 9:
            r = bits(4)
        j = bits(3)  # randint(0, 3)
        while j >= 4:
            j = bits(3)
        q, c = samples[r][j]
        a.append(q)
        phi += c
    b = []
    for _ in range(p):
        r = bits(3)  # randint(-3, 3) + 3; the offset cancels below
        while r >= 7:
            r = bits(3)
        b.append(r)
    last = b[-1]
    # canonical by construction: reduced pairs, canonical b, phi in [0, p)
    return Element(group, (tuple(a), tuple([v - last for v in b]), phi % p))


# -- claim verification -------------------------------------------------------


def _guarded(cases: Iterable[dict | None]) -> Iterator[dict | None]:
    """A family body whose arithmetic errors become its failure at the
    case that raised, which is counted."""
    try:
        yield from cases
    except (ValueError, ZeroDivisionError) as exc:
        yield {"error": str(exc)}


def verify_witness_claims(
    group: WitnessAmbientGroup, budget: int = 500, seed: int = 0
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
    G, p = group, group.p
    rng = random.Random(seed)
    ident = G.identity()
    gij_cases = [(i, j) for i in range(p) for j in range(-3, 4)]

    def x_pow(index: int, q: tuple[int, int]) -> Element:
        """x_index^(n/d) for a reduced pair q = (n, d)."""
        a = [(0, 1)] * p
        a[index % p] = q
        return G.element((tuple(a), (0,) * p, 0))

    def g_ij(i: int, j: int) -> tuple[tuple[int, int], Element]:
        t = (1, (p + 1) ** j) if j >= 0 else ((p + 1) ** -j, 1)
        return t, x_pow(i, t) * x_pow(i + 1, (-t[0], t[1]))

    def y_centralizes():
        # the product y_1...y_p acts trivially on H (raw action, so the
        # K/(y) quotient cannot mask a broken exponent)
        for i in range(p):
            basis = tuple((int(j == i), 1) for j in range(p))
            conjugated = G.scale_vector(basis, (1,) * p)
            yield (
                {"generator": i, "conjugated_exponents": [_fmt(q) for q in conjugated]}
                if conjugated != basis
                else None
            )

    def gij_in_subgroup():
        for i, j in gij_cases:
            m = membership_G(g_ij(i, j)[1])
            yield None if m.in_subgroup else {"i": i, "j": j, "phi": m.phi_value}

    def gij_y_commutator():
        for i, j in gij_cases:
            (tn, td), g = g_ij(i, j)
            y = G.y_gen(i + 1)
            comm = g * y * ~g * ~y
            expected = x_pow(i + 1, _reduced(tn * p, td))
            if p == 2:  # x_{i+2} = x_i adds the wrap-around term
                expected = expected * x_pow(i, _reduced(tn * p, td * (p + 1)))
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
            expected = G.x_gen(i) * G.x_gen(i + 1, -2) * G.x_gen(i + 2)
            yield (
                {"i": i, "got": comm.encode(), "expected": expected.encode()}
                if comm != expected
                else None
            )

    # families (5) and (6) work on canonical values; membership of a value
    # (a, b, i) in G is phi_H(a) == i, and Elements are built only for
    # counterexamples
    op, inv, ident_value = G._op_values, G._inv_value, ident.value
    is_identity = G._product_is_identity

    def subgroup_closure():
        # closure of G under sampled products and inverses
        for _ in range(max(10, budget // 2)):
            g = random_subgroup_element(G, rng)
            h = random_subgroup_element(G, rng)
            gv = g.value
            a, _, i = op(gv, h.value)
            if phi_H(G, a) != i:
                yield counterexample("product", (g, h))
                continue
            g_inv = inv(gv)
            if phi_H(G, g_inv[0]) != g_inv[2]:
                yield counterexample("inverse", (g,))
            elif not (is_identity(gv, g_inv) and is_identity(g_inv, gv)):
                yield counterexample("inverse-law", (g,))
            else:
                yield None

    def torsion_spot_check():
        # no sampled g != id in G has order <= p; identity samples not counted
        for _ in range(max(10, budget // 4)):
            g = random_subgroup_element(G, rng)
            gv = g.value
            if gv == ident_value:
                continue
            power, order = gv, None
            for k in range(2, p):
                power = op(power, gv)
                if power == ident_value:
                    order = k
                    break
            else:  # the last power only needs deciding
                order = p if is_identity(power, gv) else None
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
