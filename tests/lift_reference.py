"""Test-side lift helpers and the window reference of the cyclic lift check.

The library decides the lift of (G, c) in closed form from the cocycle f_c:
slice associativity from the cocycle pass, and the lift of (Z/n, c) from the
carry identity on the base pairs.  `lift_window` and `window_iso_check`
apply the lift group law itself on windows {(m, a) : |m| <= d}, so the tests
can check the closed forms against the law they summarise;
`check_lift_associativity` is the associativity entry of `lift_check_report`
on its own, and `recover_c` reads the ordering back from its cocycle.
"""

import itertools

from ordkit import lift as lift_module
from ordkit.groups import CyclicGroup, Element
from ordkit.lift import (
    Cocycle,
    LiftGroup,
    _associativity,
    check_inhomogeneous_cocycle,
    cyclic_enumeration,
)
from ordkit.orders import as_carrier, counterexample, sweep


class ForcedCocycle(Cocycle):
    """f_c with the given pairs of canonical forms forced to the given values."""

    def __init__(self, ordering, forced):
        super().__init__(ordering)
        self._cache.update(forced)


def recover_c(f, g1, g2, g3):
    """Reconstruct the circular ordering from its cocycle."""
    if g1.value == g2.value or g2.value == g3.value or g1.value == g3.value:
        return 0
    return 1 - 2 * f(~g1 * g2, ~g2 * g3)


def lift_window(lift, degree_bound, base_carrier):
    """All (n, a) with |n| <= degree_bound and a in the base carrier, sorted."""
    carrier = as_carrier(base_carrier)
    return [
        Element(lift, (n, a.value))
        for n in range(-degree_bound, degree_bound + 1)
        for a in carrier
    ]


def check_lift_associativity(lift, carrier):
    """The lift-associativity entry over the degree-0 slice {(0, a)}, read
    from the cocycle pass over the carrier."""
    return _associativity(check_inhomogeneous_cocycle(lift.cocycle, carrier))


def window_iso_check(n, c, window=3):
    """Certify that the lift of (Z/n, c) is infinite cyclic on a window.

    Builds the candidate isomorphism (m, a) -> m*n + idx(a), idx being the
    position in the cyclic enumeration of c, and verifies on the window
    {(m, a) : |m| <= window}: the homomorphism identity on all pairs of lift
    products, injectivity with contiguous image, that powers of the index-1
    element sweep the window, and absence of torsion.  f_c is built by
    `lift_module.Cocycle`, so a test may patch in a forced cocycle.
    """
    group = CyclicGroup(n)
    if c.group != group:
        raise ValueError(f"ordering is on {c.group.descriptor}, wanted {group.descriptor}")
    enum = cyclic_enumeration(c)
    index = {g.value: i for i, g in enumerate(enum)}
    lift = LiftGroup(lift_module.Cocycle(c))

    def phi(x):
        m, a = x.value
        return m * n + index[a]

    def phi_inverse(t):
        return Element(lift, (t // n, enum[t % n].value))

    elems = lift_window(lift, window, group)
    notes = []

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
        notes.append(
            f"window |m| <= {window}; image is the contiguous range "
            f"[{-window * n}, {window * n + n - 1}]; torsion-free on window"
        )

    return sweep("cyclic-lift-iso", cases(), notes=notes)
