"""Test-side spectrum references: element orders and torsion profiles, the
torsion part of a profile, the finite-group decision and spectrum from a
full torsion walk, free-product spectra and divisibility closure.

The library builds spectra from certificates (`obstruction_finite`,
`promislow_spectrum`); these are the statements of the paper the tests hold
those reports to: a torsion element of order k obstructs every n sharing a
prime with k, a finite group is circularly-orderable exactly when it is
cyclic, a free product's spectrum is the union of its factors', and an
obstructed n obstructs its multiples.  The torsion walk multiplies every
element up to its order, O(|G|^2) group operations, where
`obstruction_finite` searches only the prime orders.
"""

from math import gcd
from operator import attrgetter

from ordkit.groups import Ball, Record
from ordkit.obstruction import SpectrumReport


def element_order(g, cap: int) -> int | None:
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


class TorsionProfile(Record):
    """Realized element orders up to a search cap, each with a witness; the
    witnesses are left out of equality."""

    __slots__ = ("group", "cap", "orders", "witnesses")
    _key = attrgetter("group", "cap", "orders")


def torsion_profile(source, cap: int | None = None) -> TorsionProfile:
    """Element orders realized in a finite group or within a ball, each
    witnessed by the first element of that order."""
    if isinstance(source, Ball):
        group = source.group
        elems = list(source.elements)
        cap = cap or max(len(elems), 16)
    else:
        group = source
        elems = group.elements()
        cap = cap or group.order
    found = {}
    for g in elems:
        k = element_order(g, cap)
        if k is not None and k not in found:
            found[k] = g
    if 1 not in found:
        found[1] = group.identity()
    return TorsionProfile(group, cap, tuple(sorted(found)), found)


def finite_spectrum_walk(group, cap: int) -> SpectrumReport:
    """The finite-group spectrum from the full torsion profile: for cyclic
    G, n is obstructed by the least realized order k > 1 sharing a prime
    with n, witnessed by the profile, with the least such prime."""
    order = group.order
    profile = torsion_profile(group)
    generator = profile.witnesses.get(order)
    obstructed, unobstructed = {}, {}
    for n in range(2, cap + 1):
        if generator is not None and gcd(order, n) == 1:
            unobstructed[n] = {
                "kind": "cyclic-product",
                "product_order": order * n,
                "generator": generator.encode(),
                "note": "G x Z/n is cyclic, hence circularly-orderable",
            }
        elif generator is None:
            obstructed[n] = {
                "kind": "factor-not-cyclic",
                "note": "G is a non-cyclic finite group, so G x Z/n is "
                "never cyclic and never circularly-orderable",
            }
        else:
            shared = next(k for k in profile.orders if k > 1 and gcd(k, n) != 1)
            obstructed[n] = {
                "kind": "torsion",
                "element_order": shared,
                "witness": profile.witnesses[shared].encode(),
                "shared_prime": next(
                    q for q in range(2, shared + 1) if shared % q == 0 and n % q == 0
                ),
            }
    notes = () if generator is not None else (
        "the group itself is not circularly-orderable (not cyclic)",
    )
    return SpectrumReport(group.descriptor, cap, obstructed, unobstructed, (), notes)


def torsion_part(profile, cap: int) -> set[int]:
    """{n in [2, cap] : some realized order k > 1 has gcd(k, n) != 1}."""
    torsion_orders = [k for k in profile.orders if k > 1]
    return {
        n
        for n in range(2, cap + 1)
        if any(gcd(k, n) != 1 for k in torsion_orders)
    }


def finite_co_decide(group) -> bool:
    """A finite group is circularly-orderable iff it is cyclic."""
    if not group.is_finite:
        raise ValueError(f"{group.descriptor} is not finite")
    order = group.order
    return any(element_order(g, order) == order for g in group.elements())


def free_product_union(reports) -> SpectrumReport:
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


def divisibility_closed(report: SpectrumReport) -> bool:
    """Certified obstructed n must drag every multiple <= cap along."""
    return all(
        m in report.obstructed
        for n in report.obstructed
        for m in range(2 * n, report.cap + 1, n)
    )
