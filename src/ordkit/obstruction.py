"""Obstruction spectra: which n make G x Z/n fail to be circularly-orderable.

Finite groups are decided outright (a finite group is circularly-orderable
exactly when it is cyclic).  Infinite groups get certificate-based
bracketing: an exponent certificate from a finite abelianization puts
multiples of the exponent into the spectrum under recorded hypotheses,
and homomorphism certificates with left-orderable kernel evidence keep
individual n out of it.  The Promislow group's spectrum (the multiples of
four) is reproduced end to end at desk scale.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd
from operator import attrgetter, mul
from typing import Any, Iterable, Sequence

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
    element_order,
)
from .orders import (
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


# -- torsion ------------------------------------------------------------------


class TorsionProfile(Record):
    """Realized element orders up to a search cap, each with a witness; the
    witnesses are left out of equality."""

    __slots__ = ("group", "cap", "orders", "witnesses")
    _key = attrgetter("group", "cap", "orders")

    def to_dict(self) -> dict:
        return {
            "group": self.group.descriptor,
            "cap": self.cap,
            "orders": list(self.orders),
            "witnesses": {
                str(k): self.witnesses[k].encode() for k in self.orders
            },
        }


def torsion_profile(
    source: Group | Ball, cap: int | None = None
) -> TorsionProfile:
    """Element orders realized in a finite group or within a ball."""
    if isinstance(source, Ball):
        group = source.group
        elems = list(source.elements)
        cap = cap or max(len(elems), 16)
    else:
        group = source
        elems = group.elements()
        cap = cap or group.order
    found: dict[int, Element] = {}
    for g in elems:
        k = element_order(g, cap)
        if k is not None and k not in found:
            found[k] = g
    if 1 not in found:
        found[1] = group.identity()
    return TorsionProfile(group, cap, tuple(sorted(found)), found)


def torsion_part(profile: TorsionProfile, cap: int) -> set[int]:
    """{n in [2, cap] : some realized order k > 1 has gcd(k, n) != 1}."""
    torsion_orders = [k for k in profile.orders if k > 1]
    return {
        n
        for n in range(2, cap + 1)
        if any(gcd(k, n) != 1 for k in torsion_orders)
    }


# -- finite groups -------------------------------------------------------------


def finite_co_decide(group: Group) -> bool:
    """A finite group is circularly-orderable iff it is cyclic."""
    if not group.is_finite:
        raise ValueError(f"{group.descriptor} is not finite")
    order = group.order
    return any(element_order(g, order) == order for g in group.elements())


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
        full = set(range(2, cap + 1))
        triple = (set(obstructed), set(unobstructed), set(undetermined))
        union = triple[0] | triple[1] | triple[2]
        total = sum(len(part) for part in triple)
        if union != full or total != len(full):
            raise ValueError(f"spectrum parts do not partition [2, {cap}]")
        super().__init__(
            group_label, cap, obstructed, unobstructed, undetermined, notes
        )

    @property
    def obstructed_set(self) -> set[int]:
        return set(self.obstructed)

    @property
    def unobstructed_set(self) -> set[int]:
        return set(self.unobstructed)

    @property
    def fully_determined(self) -> bool:
        return not self.undetermined

    def divisibility_closed(self) -> bool:
        """Certified obstructed n must drag every multiple <= cap along."""
        for n in self.obstructed:
            for m in range(2 * n, self.cap + 1, n):
                if m not in self.obstructed:
                    return False
        return True

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


def obstruction_finite(group: Group, cap: int) -> SpectrumReport:
    """Fully determined spectrum of a finite group: n is obstructed exactly
    when G x Z/n is not cyclic."""
    if not group.is_finite:
        raise ValueError(f"{group.descriptor} is not finite")
    order = group.order
    profile = torsion_profile(group)
    cyclic = order in profile.orders
    generator = profile.witnesses.get(order)

    obstructed: dict[int, dict] = {}
    unobstructed: dict[int, dict] = {}
    for n in range(2, cap + 1):
        if cyclic and gcd(order, n) == 1:
            unobstructed[n] = {
                "kind": "cyclic-product",
                "product_order": order * n,
                "generator": generator.encode(),
                "note": "G x Z/n is cyclic, hence circularly-orderable",
            }
        elif not cyclic:
            obstructed[n] = {
                "kind": "factor-not-cyclic",
                "note": "G is a non-cyclic finite group, so G x Z/n is "
                "never cyclic and never circularly-orderable",
            }
        else:
            shared = next(
                k
                for k in profile.orders
                if k > 1 and gcd(k, n) != 1
            )
            obstructed[n] = {
                "kind": "torsion",
                "element_order": shared,
                "witness": profile.witnesses[shared].encode(),
                "shared_prime": next(
                    q for q in range(2, shared + 1)
                    if shared % q == 0 and n % q == 0
                ),
            }
    notes = () if cyclic else (
        "the group itself is not circularly-orderable (not cyclic)",
    )
    return SpectrumReport(group.descriptor, cap, obstructed, unobstructed, (), notes)


def free_product_union(reports: Sequence[SpectrumReport]) -> SpectrumReport:
    """Spectrum of the free product: the union of the factors' spectra."""
    if not reports:
        raise ValueError("need at least one factor spectrum")
    cap = reports[0].cap
    for rep in reports:
        if rep.cap != cap:
            raise ValueError("factor spectra have mixed caps")
        if not rep.fully_determined:
            raise ValueError("factor spectra must be fully determined")
    obstructed: dict[int, dict] = {}
    unobstructed: dict[int, dict] = {}
    for n in range(2, cap + 1):
        sources = [
            (i, rep.obstructed[n])
            for i, rep in enumerate(reports)
            if n in rep.obstructed
        ]
        if sources:
            i, certificate = sources[0]
            obstructed[n] = {
                "kind": "free-factor",
                "factor": i,
                "factor_group": reports[i].group_label,
                "certificate": certificate,
            }
        else:
            unobstructed[n] = {
                "kind": "all-factors-unobstructed",
                "factors": [rep.group_label for rep in reports],
            }
    label = "free-product(" + ", ".join(r.group_label for r in reports) + ")"
    return SpectrumReport(label, cap, obstructed, unobstructed)


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
        missing = sorted(rep_source.obstructed_set - rep_target.obstructed_set)
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
    unchecked hypotheses.  The checks cost O(|carrier| + n) on canonical
    values (the subgroup is the generator's orbit of 0, and surjectivity
    sums over the distinct hom values), and a kernel evidence is validated
    once per preimage (`_evidence_report`).
    """
    elems = as_carrier(carrier)
    target = cert.hom.target
    checks = CheckList()
    cyclic_target = isinstance(target, CyclicGroup)
    checks.add("target-cyclic", cyclic_target, detail={"target": target.descriptor})
    if cyclic_target:
        gen, order, op = cert.subgroup_generator, target.order, target._op_values
        # the wrapped op raises GroupMismatchError for a foreign generator
        orbit, v = [0], target.op(target.identity(), gen).value
        while v != 0 and len(orbit) < order:
            orbit.append(v)
            v = op(v, gen.value)
        h_order = len(orbit) if v == 0 else None
        checks.add(
            "subgroup-order",
            h_order == cert.n,
            detail={"expected": cert.n, "got": h_order},
        )
        subgroup = set(orbit[: max(cert.n, 0)])

        hom = cert.hom  # its call raises GroupMismatchError for a foreign element
        hom_values = [
            hom.rule(g.value) if g.group is hom.source else hom(g).value for g in elems
        ]
        images = {(base + s) % order for base in set(hom_values) for s in subgroup}
        checks.add(
            "composed-surjectivity",
            images == set(range(order)),
            detail={"witnessed": len(images), "needed": order},
        )

        preimage = tuple(g for g, v in zip(elems, hom_values) if v in subgroup)
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


def promislow_alpha_check(radius: int = 4) -> dict:
    """Certify alpha: ker(beta) -> ker(phi), (g, t) -> g, bijectively on balls.

    Injectivity and the homomorphism law are checked on the kernel part of
    a product ball; surjectivity is witnessed by the explicit section
    g -> (g, psi(g)/2) over the kernel part of the factor ball.
    """
    return _alpha_check(_product_c2_ball(radius), ball(PROMISLOW.generators(), radius))


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


def _exponent_entries(e: int, record: dict, cap: int) -> dict[int, dict]:
    """The exponent record at e, divisibility closure at its other multiples."""
    return {
        n: record if n == e else {
            "kind": "divisibility-closure",
            "divisor": e,
            "base_certificate": "abelianization-exponent",
        }
        for n in range(2, cap + 1)
        if n % e == 0
    }


def promislow_spectrum(cap: int, radius: int = 3) -> SpectrumReport:
    """The Promislow group's spectrum up to cap: the multiples of four.

    Multiples of four are obstructed through the abelianization exponent
    (4) and divisibility closure; everything else carries a verified
    unobstructed certificate.  Certificates that fail verification would
    land in undetermined rather than being asserted.  Every n's preimage is
    ker(phi) in the ball (n phi(g), n odd, and (n/2) psi(g), n = 2 mod 4, are
    even exactly when phi(g) = 0), so the shared poly-Z evidence is validated
    once and `promislow --cap 2000` takes about 0.8 s.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    e, exponent_record = exponent_obstruction(PROMISLOW_PRESENTATION)
    if e != 4:
        raise CertificateError(f"Promislow abelianization exponent is {e}, not 4")
    carrier = ball(PROMISLOW.generators(), radius)

    obstructed = _exponent_entries(e, exponent_record, cap)
    unobstructed: dict[int, dict] = {}
    undetermined: list[int] = []
    for n in [m for m in range(2, cap + 1) if m not in obstructed]:
        cert = promislow_unobstructed_certificate(n)
        verification = verify_unobstructed(cert, carrier)
        if verification["status"] == "pass":
            unobstructed[n] = {
                **cert.summary(),
                "verification": {
                    "status": "pass",
                    "checks": [c["name"] for c in verification["checks"]],
                },
            }
        else:
            undetermined.append(n)
    return SpectrumReport(
        "promislow",
        cap,
        obstructed,
        unobstructed,
        tuple(undetermined),
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
    unobstructed = {
        n: {
            "kind": "left-orderable-lex",
            "note": "a left order on G makes every G x Z/n circularly-orderable "
            "via the lexicographic construction",
            "cone_validated_on": len(as_carrier(carrier)),
        }
        for n in range(2, cap + 1)
    }
    return SpectrumReport(lo.group.descriptor, cap, {}, unobstructed)


def presentation_spectrum(presentation: Presentation, cap: int) -> SpectrumReport:
    """Bracketing report for a presented group via the exponent certificate."""
    e, record = exponent_obstruction(presentation)
    obstructed = {} if e is None else _exponent_entries(e, record, cap)
    undetermined = [n for n in range(2, cap + 1) if n not in obstructed]
    notes = [
        "bracketing only: no unobstructed certificates are derivable from a "
        "bare presentation",
    ]
    if e is None:
        notes.append("abelianization is infinite; exponent argument not applicable")
    else:
        notes.append(
            "obstructed entries hold under recorded hypotheses "
            "(finitely generated, amenable, circularly-orderable)"
        )
    label = "presentation(" + " ".join(presentation.generator_names) + ")"
    return SpectrumReport(label, cap, obstructed, {}, tuple(undetermined), tuple(notes))
