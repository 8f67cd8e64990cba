"""Element-level reference of the unobstructed-certificate check.

The library checks a certificate on canonical values: the subgroup is the
generator's orbit of 0, composed surjectivity sums over the distinct hom
values only, and a kernel evidence is validated once per preimage.
`verify_unobstructed_reference` is the direct check it replaced, built from
`Element` powers, one hom call per carrier element, |carrier|·n sums and
one validation per certificate, so the tests can compare the two reports
(or raised errors) on real and sabotaged certificates.
"""

from spectrum_reference import element_order

from ordkit.groups import CyclicGroup
from ordkit.obstruction import _chain_escape
from ordkit.orders import CheckList, as_carrier, validate_left_ordering


def verify_unobstructed_reference(cert, carrier) -> dict:
    elems = as_carrier(carrier)
    target = cert.hom.target
    checks = CheckList()
    cyclic_target = isinstance(target, CyclicGroup)
    checks.add("target-cyclic", cyclic_target, detail={"target": target.descriptor})
    if cyclic_target:
        h_order = element_order(cert.subgroup_generator, target.order)
        checks.add(
            "subgroup-order",
            h_order == cert.n,
            detail={"expected": cert.n, "got": h_order},
        )
        subgroup_values = set()
        power = target.identity()
        for _ in range(cert.n):
            subgroup_values.add(power.value)
            power = power * cert.subgroup_generator

        hom_values = [cert.hom(g).value for g in elems]
        step, order = cert.subgroup_generator.value, target.order
        images = {
            (base + t * step) % order for base in hom_values for t in range(cert.n)
        }
        checks.add(
            "composed-surjectivity",
            images == set(range(target.order)),
            detail={"witnessed": len(images), "needed": target.order},
        )

        preimage = [g for g, v in zip(elems, hom_values) if v in subgroup_values]
        evidence_report = validate_left_ordering(
            cert.kernel_evidence.order, preimage
        )
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
