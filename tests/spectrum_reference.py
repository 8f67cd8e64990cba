"""Test-side spectrum references: the torsion part of a profile, the
finite-group decision, free-product spectra and divisibility closure.

The library builds spectra from certificates (`obstruction_finite`,
`promislow_spectrum`); these are the statements of the paper the tests hold
those reports to: a torsion element of order k obstructs every n sharing a
prime with k, a finite group is circularly-orderable exactly when it is
cyclic, a free product's spectrum is the union of its factors', and an
obstructed n obstructs its multiples.
"""

from math import gcd

from ordkit.groups import element_order
from ordkit.obstruction import SpectrumReport


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
