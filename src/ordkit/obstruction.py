"""Obstruction spectra: which n make G x Z/n fail to be circularly-orderable.

Finite groups are decided outright (a finite group is circularly-orderable
exactly when it is cyclic).  Infinite groups get certificate-based
bracketing: an exponent certificate from a finite abelianization puts
multiples of the exponent into the spectrum under recorded hypotheses,
and homomorphism certificates with left-orderable kernel evidence keep
individual n out of it.  The Promislow group's spectrum (the multiples of
four) is reproduced end to end at desk scale.  Every report comes from one
per-n engine, `spectrum`, which asks a builder's deciders in order.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd
from operator import mul
from typing import Any, Callable, Iterable

from .groups import (
    Ball,
    CyclicGroup,
    DirectProductGroup,
    Element,
    Group,
    Homomorphism,
    Presentation,
    PROMISLOW_PRESENTATION,
    PROMISLOW,
    Record,
    ResourceCapError,
    ball,
)
from .orders import (
    _DEFAULT_TUPLE_CAP,
    CheckList,
    CircularOrdering,
    LeftOrdering,
    OutsideCarrierError,
    SESData,
    ValidationReport,
    as_carrier,
    counterexample,
    lex_circular,
    natural_circular_cyclic,
    sweep,
    validate_left_ordering,
)
from .snf import abelianization

RECORDED_HYPOTHESES = ("countable", "amenable")


class CertificateError(RuntimeError):
    """A recomputed fact that a certificate rests on came out wrong."""


# -- finite groups -------------------------------------------------------------


def brute_force_circular_orders(
    group: Group, cap: int = 8
) -> list[tuple[Element, ...]]:
    """All left-invariant circular orderings of a small finite group, each as
    the arrangement whose positions `arrangement_circular` reads c from.

    With the identity pinned first, translation by the element a in
    position 1 must rotate the arrangement by one place, which forces it to
    be e, a, ..., a^(n-1) with a a generator.  Conversely each such
    arrangement is one: translation by a^m sends a^i to a^(m+i), a rotation
    of the arrangement, and a rotation keeps the orientation of a cyclic
    arrangement, which satisfies the axioms.  So there are phi(n) of them
    for Z/n and none for a group that is not cyclic, at most n-1 candidates
    instead of (n-1)!.  They come in lexicographic order of their carrier
    indices, which is the carrier order of a.
    """
    if not group.is_finite:
        raise ValueError(f"{group.descriptor} is not finite")
    n = group.order
    if n > cap:
        raise ResourceCapError(
            f"brute force capped at order {cap}, group has order {n}"
        )
    e = group.identity()  # the powers of e cover only Z/1
    powers = (
        tuple(itertools.accumulate([a] * (n - 1), mul, initial=e))
        for a in as_carrier(group)
    )
    return [arrangement for arrangement in powers if len(set(arrangement)) == n]


# -- spectrum reports ----------------------------------------------------------


class SpectrumReport(Record):
    """Partition of {2..cap} into obstructed / unobstructed / undetermined."""

    __slots__ = (
        "group_label", "cap", "obstructed", "unobstructed", "undetermined", "notes"
    )

    def __init__(
        self, group_label: str, cap: int, obstructed: dict[int, dict],
        unobstructed: dict[int, dict], undetermined: tuple[int, ...] = (),
        notes: tuple[str, ...] = (),
    ) -> None:
        if sorted([*obstructed, *unobstructed, *undetermined]) != [*range(2, cap + 1)]:
            raise ValueError(f"spectrum parts do not partition [2, {cap}]")
        super().__init__(
            group_label, cap, obstructed, unobstructed, undetermined, notes
        )

    @property
    def fully_determined(self) -> bool:
        return not self.undetermined

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "group": self.group_label,
            "cap": self.cap,
            "obstructed": [
                {"n": n, "certificate": self.obstructed[n]}
                for n in sorted(self.obstructed)
            ],
            "unobstructed": [
                {"n": n, "certificate": self.unobstructed[n]}
                for n in sorted(self.unobstructed)
            ],
            "undetermined": sorted(self.undetermined),
            "notes": list(self.notes),
        }


# n -> None, or (True, certificate) obstructed, (False, certificate) unobstructed
Decider = Callable[[int], "tuple[bool, dict] | None"]


def spectrum(
    label: str, cap: int, deciders: list[Decider], notes: Iterable[str] = ()
) -> SpectrumReport:
    """The report on [2, cap] that the deciders give.  Each n takes the first
    answer that is not None, so earlier deciders win; n is undetermined when
    every decider returns None.  A new certificate kind is a new decider."""
    obstructed: dict[int, dict] = {}
    unobstructed: dict[int, dict] = {}
    undetermined: list[int] = []
    for n in range(2, cap + 1):
        for decide in deciders:
            if (answer := decide(n)) is not None:
                blocked, certificate = answer
                (obstructed if blocked else unobstructed)[n] = certificate
                break
        else:
            undetermined.append(n)
    return SpectrumReport(
        label, cap, obstructed, unobstructed, tuple(undetermined), tuple(notes)
    )


def _primes(n: int) -> list[int]:
    """The distinct primes of n, ascending, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def obstruction_finite(group: Group, cap: int) -> SpectrumReport:
    """Fully determined spectrum of a finite group: n is obstructed exactly
    when G x Z/n is not cyclic, that is when G is not cyclic or shares a
    prime with n.  A cyclic G has an element of every order dividing |G|, so
    the least such prime p is the least order > 1 sharing a prime with n,
    witnessed by the first element of order p.

    The walk lists each cyclic subgroup C = <g> once, from the first g whose
    order is not yet known, by |C| - 1 multiplications by g, and reads off
    the order of every power of g.  C has phi(|C|) generators, so the walk
    makes at most the sum over g != e of (ord(g) - 1) / phi(ord(g)) group
    operations, each term at most ceil(log2 ord(g)): |G| ceil(log2 |G|)
    bounds it up front."""
    if not group.is_finite:
        raise ValueError(f"{group.descriptor} is not finite")
    order = group.order
    if (work := order * (order - 1).bit_length()) > _DEFAULT_TUPLE_CAP:
        raise ResourceCapError(
            f"spectrum of {group.descriptor} needs about {work} group operations "
            f"(|G| log2 |G|), over the cap of {_DEFAULT_TUPLE_CAP}"
        )
    # orders by canonical form, and the first element of each order
    op = group.op
    orders: dict[Any, int] = {}
    first: dict[int, Element] = {}
    for g in group.elements():
        if (v := g.value) not in orders:
            powers, x = [v], g
            while not x.is_identity:
                x = op(x, g)
                powers.append(x.value)
            d = len(powers)
            orders.update(zip(powers, [d // gcd(d, j) for j in range(1, d + 1)]))
        first.setdefault(orders[v], g)
    generator = first.get(order)
    primes = _primes(order)

    def decide(n: int) -> tuple[bool, dict]:
        if generator is None:
            return True, {
                "kind": "factor-not-cyclic",
                "note": "G is a non-cyclic finite group, so G x Z/n is "
                "never cyclic and never circularly-orderable",
            }
        if gcd(order, n) == 1:
            return False, {
                "kind": "cyclic-product",
                "product_order": order * n,
                "generator": generator.encode(),
                "note": "G x Z/n is cyclic, hence circularly-orderable",
            }
        p = next(q for q in primes if n % q == 0)
        return True, {
            "kind": "torsion",
            "element_order": p,
            "witness": first[p].encode(),
            "shared_prime": p,
        }

    notes = () if generator is not None else (
        "the group itself is not circularly-orderable (not cyclic)",
    )
    return spectrum(group.descriptor, cap, [decide], notes)


def monotonicity_check(
    hom: Homomorphism,
    kernel_evidence: "LeftOrderEvidence | str",
    rep_source: SpectrumReport,
    rep_target: SpectrumReport,
    carrier: Iterable[Element] | None = None,
) -> ValidationReport:
    """Cross-validate two spectra against a homomorphism with left-orderable
    kernel: the source's obstructed set must sit inside the target's.

    A failure here means one of the input certificates is wrong, not new
    mathematics.
    """
    if rep_source.cap != rep_target.cap:
        raise ValueError("spectra have different caps")
    elems = as_carrier(hom.source if carrier is None else carrier)

    def cases():
        if kernel_evidence == "trivial-kernel":
            seen: dict[Any, Element] = {}
            for g in elems:
                img = hom(g)
                yield (
                    counterexample(
                        "kernel-evidence",
                        (seen[img.value], g),
                        note="claimed trivial kernel is not injective",
                    )
                    if img.value in seen
                    else None
                )
                seen[img.value] = g
        else:
            kernel_part = [g for g in elems if hom.kernel_contains(g)]
            report = validate_left_ordering(kernel_evidence.order, kernel_part)
            yield report.checked_tuples
            if not report.passed:
                return {"kind": "kernel-evidence", "evidence": report.counterexample}
        # the inclusion of obstructed sets is decided for all of 2..cap at once
        yield rep_source.cap - 1
        missing = sorted(rep_source.obstructed.keys() - rep_target.obstructed.keys())
        if missing:
            return {
                "kind": "inclusion",
                "missing": missing,
                "note": "obstructed values of the source absent from the target",
            }

    return sweep("monotonicity-check", cases())


# -- certificates --------------------------------------------------------------


class LeftOrderEvidence(Record):
    """Left-orderability evidence: a named poly-Z chain or an explicit cone;
    `kind` is "poly-z-chain" or "cone-table"."""

    __slots__ = ("kind", "order", "generators", "description")
    _defaults = ((), "")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "generators": [g.encode() for g in self.generators],
            "description": self.description,
        }


class UnobstructedCertificate(Record):
    """Keeps one n out of a spectrum: a homomorphism into a cyclic group
    whose order-n subgroup pulls back to a left-orderable subgroup."""

    __slots__ = (
        "n", "hom", "subgroup_generator", "kernel_evidence", "hypotheses",
        "description",
    )
    _defaults = (RECORDED_HYPOTHESES, "")

    def summary(self) -> dict:
        return {
            "kind": "cyclic-quotient",
            "n": self.n,
            "target": self.hom.target.descriptor,
            "hom": self.hom.name,
            "subgroup_generator": self.subgroup_generator.encode(),
            "kernel_evidence": self.kernel_evidence.to_dict(),
            "hypotheses": list(self.hypotheses),
            "hypotheses_verified": False,
            "description": self.description,
        }


def verify_unobstructed(
    cert: UnobstructedCertificate,
    carrier: Ball | Group | Iterable[Element],
) -> dict:
    """Validate an unobstructed certificate at desk scale.

    Checks, on the supplied carrier of the source group: the target is
    cyclic and the designated subgroup has order exactly n; the combined
    map (g, t) -> hom(g) + t * generator witnesses surjectivity onto the
    target; and the kernel evidence validates as a left ordering on the
    preimage of the subgroup.  Amenability and countability stay recorded,
    unchecked hypotheses.  A certificate costs O(|carrier|) on canonical
    values: in Z/m the generator's orbit of 0 is dZ/m with d = gcd(generator,
    m), so the subgroup order is m/d, membership is divisibility by d, and
    surjectivity counts the distinct hom values mod d.  Only an n below m/d,
    which already fails the subgroup order, walks its first n orbit values.
    A kernel evidence is validated once per preimage (`_evidence_report`).
    """
    elems = as_carrier(carrier)
    target = cert.hom.target
    checks = CheckList()
    cyclic_target = isinstance(target, CyclicGroup)
    checks.add("target-cyclic", cyclic_target, detail={"target": target.descriptor})
    if cyclic_target:
        order = target.order
        # the wrapped op raises GroupMismatchError for a foreign generator
        step = target.op(target.identity(), cert.subgroup_generator).value
        d = gcd(step, order)  # the orbit of 0 under +step is dZ/m, of length m/d
        h_order = order // d
        checks.add(
            "subgroup-order",
            h_order == cert.n,
            detail={"expected": cert.n, "got": h_order},
        )

        hom = cert.hom  # its call raises GroupMismatchError for a foreign element
        hom_values = [
            hom.rule(g.value) if g.group is hom.source else hom(g).value for g in elems
        ]
        bases = set(hom_values)
        if cert.n >= h_order:
            # the subgroup is dZ/m, and b + dZ/m covers m/d values per residue b mod d
            preimage = tuple(g for g, v in zip(elems, hom_values) if v % d == 0)
            witnessed = h_order * len({b % d for b in bases})
        else:  # the first n orbit values
            subgroup = {k * step % order for k in range(max(cert.n, 0))}
            preimage = tuple(g for g, v in zip(elems, hom_values) if v in subgroup)
            witnessed = len({(b + s) % order for b in bases for s in subgroup})
        checks.add(
            "composed-surjectivity",
            witnessed == order,
            detail={"witnessed": witnessed, "needed": order},
        )

        evidence_report = _evidence_report(cert.kernel_evidence.order, preimage)
        checks.add(
            "kernel-evidence",
            evidence_report.passed,
            detail={
                "carrier_size": len(preimage),
                "counterexample": evidence_report.counterexample,
            },
        )

        if cert.kernel_evidence.kind == "poly-z-chain":
            escape = _chain_escape(tuple(cert.kernel_evidence.generators))
            checks.add(
                "poly-z-chain-normality",
                escape is None,
                **({"detail": escape} if escape else {}),
            )

    return {
        "schema": 1,
        "n": cert.n,
        "status": checks.status,
        "verdict": (
            "unobstructed-under-recorded-hypotheses"
            if checks.status == "pass"
            else "certificate-rejected"
        ),
        "hypotheses": list(cert.hypotheses),
        "hypotheses_verified": False,
        "checks": checks,
        "certificate": cert.summary(),
    }


@functools.lru_cache(maxsize=8)
def _evidence_report(order: LeftOrdering, preimage: tuple) -> ValidationReport:
    """One shared, read-only validation per (evidence order, preimage)."""
    return validate_left_ordering(order, preimage)


@functools.lru_cache(maxsize=8)
def _chain_escape(gens: tuple[Element, ...]) -> dict | None:
    """First conjugate of a chain generator by a later one that leaves the
    radius-6 ball of the generators below it, or None when all stay.

    A pure function of the chain, so a spectrum's certificates, which share
    one chain, compute it once."""
    for i in range(1, len(gens)):
        lower = ball(gens[:i], 6)
        for j in range(i, len(gens)):
            if gens[j] * gens[i - 1] * ~gens[j] not in lower:
                return {
                    "conjugator": gens[j].encode(),
                    "generator": gens[i - 1].encode(),
                    "note": "conjugate left the lower chain ball",
                }
    return None


def exponent_obstruction(
    presentation: Presentation,
) -> tuple[int | None, dict]:
    """Exponent of a finite abelianization, recorded as an obstruction.

    Returns (e, record): e is the largest invariant factor when the
    abelianization is finite, else None with a not-applicable record.  The
    obstruction conclusion carries its unchecked hypotheses explicitly.
    """
    result = abelianization(presentation)
    if not result.is_finite:
        return None, {
            "kind": "not-applicable",
            "invariant_factors": list(result.invariant_factors),
            "note": "abelianization is infinite; the exponent argument "
            "does not apply",
        }
    e = result.exponent
    record = {
        "kind": "abelianization-exponent",
        "exponent": e,
        "invariant_factors": list(result.invariant_factors),
        "hypotheses": [
            "finitely generated",
            "amenable",
            "circularly-orderable",
        ],
        "hypotheses_verified": False,
        "conclusion": f"{e} lies in the obstruction spectrum under the "
        "recorded hypotheses",
    }
    return e, record


# -- the Promislow worked example ----------------------------------------------


def promislow_phi() -> Homomorphism:
    """phi: G -> Z/2, a -> 1, b -> 0 (a-exponent mod 2)."""
    target = CyclicGroup(2)
    return Homomorphism(
        PROMISLOW,
        target,
        PROMISLOW.phi2_value,
        name="phi",
        presentation=PROMISLOW_PRESENTATION,
        gen_images=[Element(target, 1), Element(target, 0)],
    )


def promislow_psi() -> Homomorphism:
    """psi: G -> Z/4, the abelianization followed by the a-factor."""
    target = CyclicGroup(4)
    return Homomorphism(
        PROMISLOW,
        target,
        PROMISLOW.psi4_value,
        name="psi",
        presentation=PROMISLOW_PRESENTATION,
        gen_images=[Element(target, 1), Element(target, 0)],
    )


def promislow_product_c2() -> DirectProductGroup:
    return DirectProductGroup(PROMISLOW, CyclicGroup(2))


def promislow_beta() -> Homomorphism:
    """beta: G x Z/2 -> Z/4, (g, t) -> psi(g) + 2t."""
    target = CyclicGroup(4)
    return Homomorphism(
        promislow_product_c2(),
        target,
        lambda v: (PROMISLOW.psi4_value(v[0]) + 2 * v[1]) % 4,
        name="beta",
    )


def promislow_kernel_order() -> LeftOrdering:
    """Left order on ker(phi) via poly-Z coordinates in a^2, (ab)^2, b.

    An element of the kernel factors uniquely as (a^2)^x ((ab)^2)^w b^j;
    the cone takes the topmost nonzero coordinate (j, then w, then x)
    positive.
    """
    def positive(v) -> bool:
        try:
            x, w, j = PROMISLOW.kernel_coords(v)
        except ValueError as exc:
            raise OutsideCarrierError(str(exc)) from exc
        if j != 0:
            return j > 0
        if w != 0:
            return w > 0
        return x > 0

    return LeftOrdering(
        PROMISLOW, "poly-z-lex", positive, "chain a^2 < (ab)^2 < b on ker(phi)"
    )


@functools.cache
def promislow_kernel_evidence() -> LeftOrderEvidence:
    a, b = PROMISLOW.gen_a(), PROMISLOW.gen_b()
    return LeftOrderEvidence(
        kind="poly-z-chain",
        order=promislow_kernel_order(),
        generators=(a * a, (a * b) * (a * b), b),
        description="ker(phi) = <a^2, (ab)^2> x| <b>, poly-Z of length 3",
    )


def promislow_ses() -> SESData:
    """1 -> ker(phi) -> G -> Z/2 -> 1 with the poly-Z kernel order."""
    phi = promislow_phi()
    return SESData(
        group=phi.source,
        quotient=phi.target,
        projection=phi,
        kernel_order=promislow_kernel_order(),
        quotient_ordering=natural_circular_cyclic(2, 1),
    )


def promislow_circular() -> CircularOrdering:
    """The lexicographic circular ordering that makes G circularly ordered."""
    return lex_circular(promislow_ses())


def promislow_product_c2_circular() -> CircularOrdering:
    """The circular ordering on G x Z/2 promised by the n = 2 certificate.

    Lexicographic over beta: G x Z/2 -> Z/4, with the kernel ordered by
    pulling the poly-Z order back through the projection (g, t) -> g.
    """
    beta = promislow_beta()
    kernel = promislow_kernel_order()
    prod = beta.source
    kernel_order = LeftOrdering(
        prod,
        "poly-z-lex",
        lambda v: kernel.cone(v[0]),
        "pullback of the ker(phi) order through the factor projection",
    )
    ses = SESData(
        group=prod,
        quotient=beta.target,
        projection=beta,
        kernel_order=kernel_order,
        quotient_ordering=natural_circular_cyclic(4, 1),
    )
    return lex_circular(ses)


def promislow_unobstructed_certificate(n: int) -> UnobstructedCertificate:
    """Certificate that n (not a multiple of 4) stays out of the spectrum.

    Odd n: embed the phi image Z/2 into Z/2n.  n = 2 mod 4: embed the psi
    image Z/4 into Z/2n.  Either way the order-n subgroup of Z/2n pulls
    back to ker(phi), covered by the poly-Z evidence.
    """
    if n < 2 or n % 4 == 0:
        raise ValueError(f"no unobstructed certificate for n = {n}")
    target = CyclicGroup(2 * n)
    if n % 2 == 1:
        scale = n  # Z/2 -> Z/2n, 1 -> n
        base = promislow_phi()
        description = f"(phi x id): G x Z/{n} -> Z/2 x Z/{n} = Z/{2 * n}"
    else:
        scale = n // 2  # Z/4 -> Z/2n = Z/4m with m = n/2 odd, 1 -> m
        base = promislow_psi()
        description = (
            f"(psi-based beta x id): G x Z/{n} -> Z/4 x Z/{n // 2} = Z/{2 * n}"
        )
    hom = Homomorphism(
        PROMISLOW,
        target,
        lambda v: scale * base.rule(v) % (2 * n),
        name=f"{base.name}-into-{target.descriptor}",
        presentation=PROMISLOW_PRESENTATION,
        gen_images=[
            Element(target, scale * base.gen_images[0].value % (2 * n)),
            Element(target, scale * base.gen_images[1].value % (2 * n)),
        ],
    )
    return UnobstructedCertificate(
        n=n,
        hom=hom,
        subgroup_generator=Element(target, 2),
        kernel_evidence=promislow_kernel_evidence(),
        description=description,
    )


def _alpha_check(product_ball: Ball, factor_ball: Ball) -> dict:
    phi, beta, psi = promislow_phi(), promislow_beta(), promislow_psi()
    prod = beta.source
    kernel_beta = [u for u in product_ball if beta.kernel_contains(u)]
    kernel_phi = [g for g in factor_ball if phi.kernel_contains(g)]

    def alpha(u: Element) -> Element:
        return Element(PROMISLOW, u.value[0])

    def section_ok(g: Element) -> bool:
        u = prod.pair(g, CyclicGroup(2).element(psi(g).value // 2))
        return beta.kernel_contains(u) and alpha(u) == g

    checks = CheckList()
    checks.add(
        "alpha-injective",
        len({u.value[0] for u in kernel_beta}) == len(kernel_beta),
        cases=len(kernel_beta),
    )
    checks.add(
        "alpha-into-kernel",
        all(phi.kernel_contains(alpha(u)) for u in kernel_beta),
        cases=len(kernel_beta),
    )
    times, times_g = prod._op_values, PROMISLOW._op_values
    checks.add(
        "alpha-homomorphism",
        all(
            times(u, v)[0] == times_g(u[0], v[0])
            for u, v in itertools.product([u.value for u in kernel_beta], repeat=2)
        ),
        cases=len(kernel_beta) ** 2,
    )
    checks.add(
        "alpha-section-onto",
        all(section_ok(g) for g in kernel_phi),
        cases=len(kernel_phi),
        note="two-sided inverse witnessed on the factor ball",
    )
    return {
        "schema": 1,
        "radius": factor_ball.radius,
        "status": checks.status,
        "kernel_sizes": {"beta": len(kernel_beta), "phi": len(kernel_phi)},
        "checks": checks,
    }


def _product_c2_ball(radius: int) -> Ball:
    """Ball in G x Z/2 on the generators (a, 0), (b, 0) and (id, 1)."""
    prod = promislow_product_c2()
    c2 = prod.right
    return ball(
        [
            prod.pair(PROMISLOW.gen_a(), c2.element(0)),
            prod.pair(PROMISLOW.gen_b(), c2.element(0)),
            prod.pair(PROMISLOW.identity(), c2.element(1)),
        ],
        radius,
    )


def promislow_worked_example(radius: int = 4) -> dict:
    """End-to-end desk reproduction of the Promislow computation."""
    a, b = PROMISLOW.gen_a(), PROMISLOW.gen_b()
    checks = CheckList()

    rel1 = a * b * b * ~a * b * b
    rel2 = b * a * a * ~b * a * a
    checks.add(
        "relators-vanish",
        rel1.is_identity and rel2.is_identity,
        detail={"rel1": rel1.encode(), "rel2": rel2.encode()},
    )

    squares = {
        "a^2": (a * a).value,
        "b^2": (b * b).value,
        "(ab)^2": ((a * b) * (a * b)).value,
    }
    expected_squares = {
        "a^2": PROMISLOW.translation(1, 0, 0).value,
        "b^2": PROMISLOW.translation(0, 1, 0).value,
        "(ab)^2": PROMISLOW.translation(0, 0, -1).value,
    }
    checks.add("squares-are-translations", squares == expected_squares)

    ab_result = abelianization(PROMISLOW_PRESENTATION)
    checks.add(
        "abelianization",
        ab_result.invariant_factors == (4, 4) and ab_result.exponent == 4,
        detail={
            "invariant_factors": list(ab_result.invariant_factors),
            "exponent": ab_result.exponent,
        },
    )

    carrier, product_ball = ball([a, b], radius), _product_c2_ball(radius)
    phi, psi, beta = promislow_phi(), promislow_psi(), promislow_beta()
    checks.add("phi-homomorphism", phi.validate_on_carrier(carrier))
    checks.add("psi-homomorphism", psi.validate_on_carrier(carrier))
    checks.add("beta-homomorphism", beta.validate_on_carrier(product_ball))

    alpha_report = _alpha_check(product_ball, carrier)
    checks.add(
        "alpha-bijective-on-ball",
        alpha_report["status"] == "pass",
        detail=alpha_report["kernel_sizes"],
    )

    kernel = [g for g in carrier if phi.kernel_contains(g)]
    kernel_report = validate_left_ordering(promislow_kernel_order(), kernel)
    checks.add(
        "kernel-order-validates",
        kernel_report.passed,
        detail={"carrier_size": len(kernel)},
    )

    # index-2 and ball-generation evidence for ker(phi) = <b, a^2, (ab)^2>:
    # each kernel element of B(r) equals its poly-Z word (a^2)^x ((ab)^2)^w b^j
    # of length <= 2r, so it lies in the generators' radius-2r ball.  The
    # bound holds because a letter moves each doubled translation coordinate
    # by at most 1, and x and w are about half of one, j the whole of another.
    cosets = {phi(g).value for g in carrier}
    a2, ab2 = a * a, (a * b) * (a * b)

    def generated(g: Element) -> bool:
        x, w, j = PROMISLOW.kernel_coords(g.value)
        return abs(x) + abs(w) + abs(j) <= 2 * radius and a2**x * ab2**w * b**j == g

    checks.add(
        "kernel-index-2-and-generated",
        cosets == {0, 1} and all(generated(g) for g in kernel),
        detail={"kernel_size": len(kernel)},
    )

    return {
        "schema": 1,
        "radius": radius,
        "status": checks.status,
        "checks": checks,
        "alpha": alpha_report,
    }


def _exponent_decider(e: int, record: dict) -> Decider:
    """The exponent record obstructs e, and divisibility closure its other
    multiples.  Closure from e needs e in the spectrum, so callers ask this
    decider only for e >= 2: an exponent of 1 obstructs nothing."""

    def decide(n: int) -> tuple[bool, dict] | None:
        if n % e:
            return None
        return True, record if n == e else {
            "kind": "divisibility-closure",
            "divisor": e,
            "base_certificate": "abelianization-exponent",
        }

    return decide


def promislow_spectrum(cap: int, radius: int = 3) -> SpectrumReport:
    """The Promislow group's spectrum up to cap: the multiples of four.

    Multiples of four are obstructed through the abelianization exponent
    (4) and divisibility closure, asked first, so they build no certificate;
    everything else carries a verified unobstructed certificate or, should
    it fail verification, lands in undetermined.  Every n's preimage is
    ker(phi) in the ball (n phi(g), n odd, and (n/2) psi(g), n = 2 mod 4, are
    even exactly when phi(g) = 0), so the shared poly-Z evidence is validated
    once.  Each certificate then costs O(|B(radius)|), and `promislow --cap
    8000` takes about 0.8 s on a 2-vCPU host.
    """
    e, exponent_record = exponent_obstruction(PROMISLOW_PRESENTATION)
    if e != 4:
        raise CertificateError(f"Promislow abelianization exponent is {e}, not 4")
    carrier = ball(PROMISLOW.generators(), radius)

    def certified(n: int) -> tuple[bool, dict] | None:
        cert = promislow_unobstructed_certificate(n)
        verification = verify_unobstructed(cert, carrier)
        if verification["status"] != "pass":
            return None
        return False, {
            **cert.summary(),
            "verification": {
                "status": "pass",
                "checks": [c["name"] for c in verification["checks"]],
            },
        }

    return spectrum(
        "promislow",
        cap,
        [_exponent_decider(e, exponent_record), certified],
        notes=(
            "obstructed certificates rely on recorded hypotheses "
            "(finitely generated, amenable, circularly-orderable)",
        ),
    )


# -- spectra for other builtin descriptors ---------------------------------------


def left_orderable_spectrum(
    lo: LeftOrdering,
    cap: int,
    carrier: Ball | Group | Iterable[Element],
) -> SpectrumReport:
    """Empty spectrum of a left-orderable group, with the cone validated once."""
    report = validate_left_ordering(lo, carrier)
    if not report.passed:
        raise ValueError(f"left ordering failed validation: {report.counterexample}")
    lex = {
        "kind": "left-orderable-lex",
        "note": "a left order on G makes every G x Z/n circularly-orderable "
        "via the lexicographic construction",
        "cone_validated_on": len(as_carrier(carrier)),
    }
    return spectrum(lo.group.descriptor, cap, [lambda n: (False, lex)])


def presentation_spectrum(presentation: Presentation, cap: int) -> SpectrumReport:
    """Bracketing report for a presented group via the exponent certificate."""
    e, record = exponent_obstruction(presentation)
    deciders: list[Decider] = []
    notes = [
        "bracketing only: no unobstructed certificates are derivable from a "
        "bare presentation",
    ]
    if e is None:
        notes.append("abelianization is infinite; exponent argument not applicable")
    elif e == 1:
        notes.append(
            "abelianization is trivial (exponent 1); the exponent argument "
            "obstructs no n > 1"
        )
    else:
        deciders.append(_exponent_decider(e, record))
        notes.append(
            "obstructed entries hold under recorded hypotheses "
            "(finitely generated, amenable, circularly-orderable)"
        )
    label = "presentation(" + " ".join(presentation.generator_names) + ")"
    return spectrum(label, cap, deciders, notes)


def witness_recorded_spectrum(p: int, cap: int) -> SpectrumReport:
    """The witness subgroup's spectrum as its construction records it: the
    multiples of p.  `verify_witness_claims` makes the desk-scale checks."""
    recorded = {
        "kind": "recorded-conclusion",
        "note": "spectrum of the witness subgroup is the multiples of p by "
        "construction; run the witness subcommand for the desk-scale checks",
    }
    notes = ("recorded conclusion, not a computation",)
    return spectrum(f"witness:{p}", cap, [lambda n: (n % p == 0, recorded)], notes)
