"""Acceptance suite: one test per criterion, exact checks, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS] line per
criterion with its elapsed time.
"""

import itertools
import time
from contextlib import contextmanager

from lift_reference import lift_window, recover_c
from orders_reference import flip_entry, natural_units, ordering_table
from spectrum_reference import (
    divisibility_closed,
    free_product_union,
    torsion_part,
    torsion_profile,
)
from witness_reference import FractionWitnessGroup

from ordkit.groups import (
    CyclicGroup,
    DirectProductGroup,
    FreeAbelianGroup,
    IntegerGroup,
    PROMISLOW_PRESENTATION,
    ball,
    get_group,
)
from ordkit.lift import (
    Cocycle,
    LiftGroup,
    check_inhomogeneous_cocycle,
    cyclic_lift_iso_check,
)
from ordkit.obstruction import (
    brute_force_circular_orders,
    obstruction_finite,
    promislow_spectrum,
    promislow_worked_example,
)
from ordkit.orders import (
    as_carrier,
    lex_free_abelian_order,
    natural_circular_cyclic,
    secret_from_left,
    usual_integer_order,
    validate_circular,
)
from ordkit.secret import NotSecretOnCarrier, SecretWitness, detect_secret
from ordkit.snf import abelianization
from ordkit.witness import WitnessAmbientGroup, verify_witness_claims


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[PASS] {name} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s"


def _positive(x) -> bool:
    """Cone membership in the lift: n >= 0, excluding the identity (0, e)."""
    n, a = x.value
    return n > 0 or (n == 0 and a != x.group.base._identity_value())


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def test_finite_co_iff_cyclic():
    """Brute force finds exactly phi(n) orderings on Z/n and none on the
    non-cyclic groups of order <= 8."""
    with criterion("finite-co-iff-cyclic", 10):
        for n in range(2, 8):
            count = len(brute_force_circular_orders(CyclicGroup(n)))
            assert count > 0
            assert count == euler_phi(n), (n, count)
        assert brute_force_circular_orders(get_group("klein4")) == []
        z2xz4 = DirectProductGroup(CyclicGroup(2), CyclicGroup(4))
        assert brute_force_circular_orders(z2xz4) == []


def test_cocycle_suite():
    """For every natural ordering on Z/n (n <= 12): the derived cocycle
    satisfies the inhomogeneous identity exhaustively and reconstructs the
    ordering on every triple."""
    with criterion("cocycle-suite", 30):
        for n in range(2, 13):
            group = CyclicGroup(n)
            elems = group.elements()
            for k in natural_units(n):
                c = natural_circular_cyclic(n, k)
                f = Cocycle(c)
                assert check_inhomogeneous_cocycle(f, group).passed
                for t in itertools.product(elems, repeat=3):
                    assert recover_c(f, *t) == c(*t)


def test_lift_suite():
    """The cyclic lift is infinite cyclic for every natural ordering with
    n <= 12, and the lift cone axioms hold on |m| <= 20."""
    with criterion("lift-suite", 30):
        for n in range(2, 13):
            for k in natural_units(n):
                c = natural_circular_cyclic(n, k)
                assert cyclic_lift_iso_check(n, c).passed
            # cone axioms on the wide window for the unit-1 ordering
            c = natural_circular_cyclic(n, 1)
            lift = LiftGroup(Cocycle(c))
            window = lift_window(lift, 20, CyclicGroup(n))
            ident = lift.identity()
            assert not _positive(ident)
            positives = []
            for x in window:
                if x == ident:
                    continue
                pos, neg = _positive(x), _positive(~x)
                assert pos != neg
                if pos:
                    positives.append(x)
            for x, y in itertools.product(positives, repeat=2):
                assert _positive(x * y)


def test_secret_detection():
    """Natural cyclic orderings are rejected on the full group; secret
    orderings of Z and Z^2 are re-detected with the source cone."""
    with criterion("secret-detection", 10):
        for n in range(2, 13):
            verdict = detect_secret(natural_circular_cyclic(n, 1), CyclicGroup(n))
            assert isinstance(verdict, NotSecretOnCarrier)

        z = IntegerGroup()
        lo = usual_integer_order(z)
        verdict = detect_secret(secret_from_left(lo), ball([z.element(1)], 20))
        assert isinstance(verdict, SecretWitness)
        cone = sorted(g.value for g in verdict.solution.cone_elements())
        assert cone == list(range(1, 21))

        z2 = FreeAbelianGroup(2)
        lex = lex_free_abelian_order(z2)
        carrier = ball(z2.basis(), 5)
        verdict = detect_secret(secret_from_left(lex), carrier)
        assert isinstance(verdict, SecretWitness)
        recovered = {g.value for g in verdict.solution.cone_elements()}
        expected = {g.value for g in carrier if not g.is_identity and lex.positive(g)}
        assert recovered == expected


def test_promislow_reproduction():
    """Invariant factors (4,4) with exponent 4; relators vanish in the
    affine representation; phi/psi/beta are homomorphisms on a radius-4
    ball; alpha is bijective on the ball; the spectrum up to 20 is exactly
    the multiples of 4 with nothing undetermined."""
    with criterion("promislow-reproduction", 60):
        result = abelianization(PROMISLOW_PRESENTATION)
        assert result.invariant_factors == (4, 4)
        assert result.exponent == 4

        worked = promislow_worked_example(radius=4)
        assert worked["status"] == "pass", worked
        by_name = {c["name"]: c["status"] for c in worked["checks"]}
        for name in (
            "relators-vanish",
            "phi-homomorphism",
            "psi-homomorphism",
            "beta-homomorphism",
            "alpha-bijective-on-ball",
        ):
            assert by_name[name] == "pass"

        report = promislow_spectrum(20)
        assert set(report.obstructed) == {4, 8, 12, 16, 20}
        assert report.undetermined == ()


def test_witness_group():
    """All six claim families verify for p = 2 and p = 3 at budget 500."""
    with criterion("witness-group", 60):
        for p in (2, 3):
            report = verify_witness_claims(WitnessAmbientGroup(p), budget=500)
            assert report["status"] == "pass", report
            assert len(report["checks"]) == 6
            assert all(c["status"] == "pass" for c in report["checks"])


def test_spectrum_algebra():
    """obstruction_finite(Z/6) equals the torsion part, every emitted report
    is divisibility-closed, and the free product of Z/2 and Z/3 obstructs
    exactly the multiples of 2 and 3."""
    with criterion("spectrum-algebra", 5):
        report6 = obstruction_finite(CyclicGroup(6), 30)
        assert set(report6.obstructed) == torsion_part(
            torsion_profile(CyclicGroup(6)), 30
        )

        union = free_product_union(
            [
                obstruction_finite(CyclicGroup(2), 30),
                obstruction_finite(CyclicGroup(3), 30),
            ]
        )
        assert set(union.obstructed) == {
            n for n in range(2, 31) if n % 2 == 0 or n % 3 == 0
        }

        for report in (report6, union, promislow_spectrum(20)):
            assert divisibility_closed(report)


def test_mutation_sensitivity():
    """Every single-entry flip of a valid Z/5 table breaks validation, and
    sabotaging the witness action exponent breaks claim family (1)."""
    with criterion("mutation-sensitivity", 10):
        group = CyclicGroup(5)
        table = ordering_table(natural_circular_cyclic(5, 1), as_carrier(group))
        assert validate_circular(table.ordering(), group).passed
        for key in sorted(table.entries):
            mutated = flip_entry(table, key)
            report = validate_circular(mutated.ordering(), group)
            assert not report.passed, f"flip at {key} went undetected"

        sabotaged = FractionWitnessGroup(2, up_base=2)
        report = verify_witness_claims(sabotaged, budget=50)
        assert report["checks"][0]["name"] == "y-centralizes-each-x"
        assert report["checks"][0]["status"] == "fail"
