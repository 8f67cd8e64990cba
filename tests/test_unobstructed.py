"""`verify_unobstructed` on canonical values against its Element-level
reference, and the kernel evidence validated once per preimage.

Every Promislow certificate with n <= 60 and 4 not dividing n, on balls of
radius 0 to 3, and a set of sabotaged certificates must give the same report
dict, or the same raised error type and text, as
`unobstructed_reference.verify_unobstructed_reference`.
"""

import pytest

from unobstructed_reference import verify_unobstructed_reference

from ordkit import obstruction
from ordkit.groups import (
    PROMISLOW,
    PROMISLOW_PRESENTATION,
    CyclicGroup,
    DirectProductGroup,
    FreeAbelianGroup,
    Homomorphism,
    IntegerGroup,
    ball,
)
from ordkit.obstruction import (
    LeftOrderEvidence,
    promislow_kernel_order,
    promislow_phi,
    promislow_spectrum,
    promislow_unobstructed_certificate,
    verify_unobstructed,
)
from ordkit.orders import LeftOrdering, restricted_cone

NS = [n for n in range(2, 61) if n % 4]
BALLS = {r: ball(PROMISLOW.generators(), r) for r in range(4)}
ALL_POSITIVE = LeftOrderEvidence(
    "cone-table", LeftOrdering(PROMISLOW, "bad", lambda v: True, "all")
)


def _outcome(verify, cert, carrier):
    try:
        return verify(cert, carrier)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same(cert, carrier):
    expected = _outcome(verify_unobstructed_reference, cert, carrier)
    assert _outcome(verify_unobstructed, cert, carrier) == expected
    return expected


@pytest.mark.parametrize("radius", sorted(BALLS))
def test_promislow_certificates_match_reference(radius):
    for n in NS:
        report = _assert_same(promislow_unobstructed_certificate(n), BALLS[radius])
        assert report["status"] == ("pass" if radius else "fail")


def _restricted_evidence():
    # the poly-Z cone known only on ker(phi) in B(1); larger preimages
    # probe outside it and the validator skips those probes
    kernel = [g for g in BALLS[1] if promislow_phi().kernel_contains(g)]
    positives = [g for g in kernel if promislow_kernel_order().positive(g)]
    return LeftOrderEvidence(
        "cone-table", restricted_cone(PROMISLOW, positives, kernel)
    )


def _sabotaged(n):
    # in Z/2n the generator k spans a subgroup of order m/d = 2n / gcd(k, 2n):
    # 0 and n give m/d < n (n > 2), 1 gives m/d > n, 2n - 2 gives m/d = n
    cert = promislow_unobstructed_certificate(n)
    target = cert.hom.target
    for k in (0, 1, 3, n, 2 * n - 2):
        yield f"generator-{k}", cert._replace(subgroup_generator=target.element(k))
    stranger = CyclicGroup(3 * n).element(2)
    yield "foreign-generator", cert._replace(subgroup_generator=stranger)
    # of order n in its own group, but still foreign to the target
    of_order_n = CyclicGroup(3 * n).element(3)
    yield "foreign-order-n", cert._replace(subgroup_generator=of_order_n)
    trivial = Homomorphism(
        PROMISLOW,
        target,
        lambda v: 0,
        name="trivial",
        presentation=PROMISLOW_PRESENTATION,
        gen_images=[target.element(0), target.element(0)],
    )
    yield "trivial-hom", cert._replace(hom=trivial)
    yield "all-positive", cert._replace(kernel_evidence=ALL_POSITIVE)
    yield "restricted-cone", cert._replace(kernel_evidence=_restricted_evidence())
    klein = DirectProductGroup(CyclicGroup(2), CyclicGroup(2))
    into_klein = Homomorphism(
        PROMISLOW, klein, lambda v: (PROMISLOW.phi2_value(v), 0), name="klein"
    )
    yield "product-target", cert._replace(hom=into_klein)


def _foreign_carriers():
    z3 = FreeAbelianGroup(3)
    pair = DirectProductGroup(z3, z3)
    stranger = pair.element(((0, 0, 1), (0, 0, 0)))
    other = DirectProductGroup(z3, FreeAbelianGroup(3), name="other")
    second = other.element(((0, 1, 0), (0, 0, 0)))
    yield "one-stranger", list(BALLS[2]) + [stranger]
    yield "two-strangers", list(BALLS[2]) + [second, stranger]
    yield "integers-ball", ball([IntegerGroup().element(1)], 2)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 10, 30])
def test_sabotaged_certificates_match_reference(n):
    outcomes = {}
    for label, cert in _sabotaged(n):
        for radius, carrier in BALLS.items():
            outcomes[label, radius] = _assert_same(cert, carrier)
    cert = promislow_unobstructed_certificate(n)
    for label, carrier in _foreign_carriers():
        outcomes[label] = _assert_same(cert, carrier)
    # the sabotage is seen: every sabotaged certificate fails on B(2), and
    # each foreign generator or carrier raises; 2 is the certificate's own
    # generator, 2n - 2 spans its subgroup too, and the restricted cone
    # skips the probes it cannot answer
    for label, _ in _sabotaged(n):
        if label.startswith("foreign-"):
            assert outcomes[label, 2][0].__name__ == "GroupMismatchError"
        elif label not in ("generator-2", f"generator-{2 * n - 2}", "restricted-cone"):
            assert outcomes[label, 2]["status"] == "fail"
    for label, _ in _foreign_carriers():
        assert outcomes[label][0].__name__ == "GroupMismatchError"


def _counting_validator(monkeypatch):
    calls = []
    validate = obstruction.validate_left_ordering

    def counting(order, carrier):
        calls.append(order)
        return validate(order, carrier)

    obstruction._evidence_report.cache_clear()
    monkeypatch.setattr(obstruction, "validate_left_ordering", counting)
    return calls


def test_kernel_evidence_validated_once_per_spectrum(monkeypatch):
    calls = _counting_validator(monkeypatch)
    report = promislow_spectrum(40, radius=3)
    assert len(report.unobstructed) == 29
    assert len(calls) == 1


def test_other_evidence_validated_on_its_own(monkeypatch):
    calls = _counting_validator(monkeypatch)
    cert = promislow_unobstructed_certificate(3)
    assert verify_unobstructed(cert, BALLS[3])["status"] == "pass"
    bad = cert._replace(kernel_evidence=ALL_POSITIVE)
    report = verify_unobstructed(bad, BALLS[3])
    assert report == verify_unobstructed_reference(bad, BALLS[3])
    kernel_check = report["checks"][3]
    assert kernel_check["name"] == "kernel-evidence"
    assert kernel_check["status"] == "fail"
    assert kernel_check["detail"]["counterexample"]["kind"] == "identity-positive"
    assert [c.provenance for c in calls] == ["poly-z-lex", "bad"]
    # the poly-Z evidence still reads its own memoised report
    assert verify_unobstructed(cert, BALLS[3])["status"] == "pass"
    assert len(calls) == 2


@pytest.mark.parametrize("n", [2, 398])
def test_group_ops_do_not_grow_with_n(monkeypatch, n):
    # the subgroup and its cosets are read from gcd(generator, 2n), not
    # walked; the certificate's relator check makes cyclic ops of its own,
    # so it is built before counting
    cert = promislow_unobstructed_certificate(n)
    calls = []
    op = CyclicGroup._op_values
    monkeypatch.setattr(
        CyclicGroup, "_op_values", lambda self, x, y: calls.append(x) or op(self, x, y)
    )
    assert verify_unobstructed(cert, BALLS[3])["status"] == "pass"
    assert len(calls) == 1
