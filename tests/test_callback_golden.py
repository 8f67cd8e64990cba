"""Reports of the consumers of homomorphism rules, cones and oracles,
replayed against a golden file.

`tests/data/callback_reports.json` holds, per case, the canonical JSON of
one report (or the error a run raised): the Promislow worked example,
alpha check and spectrum; `verify_unobstructed` on the Promislow
certificates and on one with a subgroup generator of the wrong order; the
`monotonicity_check` cases of `tests/test_obstruction.py`;
`validate_left_ordering` on a restricted cone and on the Promislow kernel
order with skipped probes, and the restricted cone's error on a stranger;
the kernel cones, `validate_circular`, `detect_secret` and
`lift_check_report` of lexicographic orderings of G x Z/n with corrupted
kernel cones; and `validate_circular`
on the ordering of the Promislow group times Z/2.
Regenerate with ``PYTHONPATH=src python tests/test_callback_golden.py``.
"""

import json
from pathlib import Path

import pytest

from ordkit.groups import (
    PROMISLOW,
    CyclicGroup,
    Element,
    Homomorphism,
    IntegerGroup,
    Presentation,
    ball,
)
from ordkit.lift import InvalidOrderingError, lift_check_report
from ordkit.obstruction import (
    LeftOrderEvidence,
    UnobstructedCertificate,
    left_orderable_spectrum,
    monotonicity_check,
    obstruction_finite,
    promislow_kernel_order,
    promislow_product_c2_circular,
    promislow_spectrum,
    promislow_unobstructed_certificate,
    promislow_worked_example,
    verify_unobstructed,
)
from ordkit.orders import (
    LeftOrdering,
    OutsideCarrierError,
    lex_circular,
    product_ses,
    restricted_cone,
    usual_integer_order,
    validate_circular,
    validate_left_ordering,
)
from ordkit.secret import detect_secret

GOLDEN_PATH = Path(__file__).with_name("data") / "callback_reports.json"


def _form(x):
    """x's canonical form.  The callbacks below read canonical forms; they
    also accept an Element, so this file replays on versions of ordkit
    whose rules and cones took Elements."""
    return x.value if isinstance(x, Element) else x


def _hom(source, target, fn, name, **kw):
    """Homomorphism whose rule is fn on canonical forms."""

    def rule(x):
        return Element(target, fn(x.value)) if isinstance(x, Element) else fn(x)

    return Homomorphism(source, target, rule, name=name, **kw)


def _monotonicity_cases():
    c2, c6, z = CyclicGroup(2), CyclicGroup(6), IntegerGroup()
    inc = _hom(
        c2, c6, lambda v: 3 * v, "inclusion",
        presentation=Presentation(1, ((1, 1),)), gen_images=[c6.element(3)],
    )
    ident = _hom(c6, c6, lambda v: v, "id")
    proj = _hom(c6, c2, lambda v: v % 2, "proj")
    parity = _hom(z, c2, lambda v: v % 2, "mod2")
    rep2, rep6 = obstruction_finite(c2, 12), obstruction_finite(c6, 12)
    lo = usual_integer_order(z)
    carrier = ball([z.element(1)], 3)
    z_spectrum = left_orderable_spectrum(lo, 12, carrier)
    everything = LeftOrdering(c6, "all", lambda g: True, "all")
    yield "inclusion", lambda: monotonicity_check(inc, "trivial-kernel", rep2, rep6)
    yield "identity", lambda: monotonicity_check(ident, "trivial-kernel", rep6, rep6)
    yield "swapped", lambda: monotonicity_check(inc, "trivial-kernel", rep6, rep2)
    yield "fake-trivial-kernel", lambda: monotonicity_check(
        proj, "trivial-kernel", rep6, rep2
    )
    yield "kernel-evidence-count", lambda: monotonicity_check(
        parity, LeftOrderEvidence("cone-table", lo), z_spectrum, z_spectrum, carrier
    )
    yield "failing-evidence", lambda: monotonicity_check(
        proj, LeftOrderEvidence("cone-table", everything), rep6, rep6
    )


def _lex_cases():
    """(label, carrier, ses) for lexicographic orderings of G x Z/n."""
    z = IntegerGroup()
    for base, positive, n in [
        (z, {0, 2, -3}, 2),
        (CyclicGroup(4), {0, 2}, 2),
        (z, {1, 2, 3}, 2),
        (z, None, 3),
    ]:
        if positive is None:
            lo = usual_integer_order(base)
            label = f"{base.descriptor}-usual-{n}"
        else:
            lo = LeftOrdering(
                base, "corrupt", lambda g, p=frozenset(positive): _form(g) in p
            )
            label = f"{base.descriptor}-corrupt{sorted(positive)}-{n}"
        span = range(-3, 4) if base == z else range(base.order)
        ses = product_ses(lo, n)
        yield label, [ses.group.element((a, b)) for a in span for b in range(n)], ses


def _cases():
    yield "worked-example-r3", lambda: promislow_worked_example(3)
    yield "worked-example-r4", lambda: promislow_worked_example(4)
    yield "alpha-check-r3", lambda: promislow_worked_example(3)["alpha"]
    yield "spectrum-12", lambda: promislow_spectrum(12).to_dict()
    yield "spectrum-20", lambda: promislow_spectrum(20).to_dict()
    carrier = ball(PROMISLOW.generators(), 2)
    for n in (2, 3):
        cert = promislow_unobstructed_certificate(n)
        yield f"unobstructed-{n}", lambda cert=cert: verify_unobstructed(cert, carrier)
    cert = promislow_unobstructed_certificate(3)
    bad = UnobstructedCertificate(
        cert.n, cert.hom, cert.hom.target.element(3), cert.kernel_evidence,
        cert.hypotheses, cert.description,
    )
    yield "unobstructed-3-wrong-order", lambda: verify_unobstructed(bad, carrier)
    for label, run in _monotonicity_cases():
        yield f"monotonicity/{label}", lambda run=run: run().to_dict()
    z = IntegerGroup()
    elems = list(ball([z.element(1)], 4))
    cone = restricted_cone(z, [g for g in elems if g.value > 0], elems[1:-1])
    yield "left/restricted-cone", lambda: validate_left_ordering(cone, elems).to_dict()
    yield "left/restricted-cone-stranger", lambda: cone.positive(z.element(4))
    yield "left/promislow-kernel-skips", lambda: validate_left_ordering(
        promislow_kernel_order(), carrier
    ).to_dict()
    c = promislow_product_c2_circular()
    t = c.group.element((PROMISLOW._identity_value(), 1))
    a = c.group.element((PROMISLOW.gen_a().value, 0))
    yield "lex/promislow-product-c2/circular", lambda: validate_circular(
        c, ball([t, a], 2)
    ).to_dict()
    for label, elems, ses in _lex_cases():
        c = lex_circular(ses)
        yield f"lex/{label}/kernel-cone", lambda lo=ses.kernel_order, e=elems: (
            validate_left_ordering(lo, e).to_dict()
        )
        yield f"lex/{label}/circular", lambda c=c, e=elems: validate_circular(c, e).to_dict()
        yield f"lex/{label}/secret", lambda c=c, e=elems: detect_secret(c, e).to_dict()
        yield f"lex/{label}/lift", lambda c=c, e=elems: lift_check_report(c, e, 0)


def _run(case):
    try:
        return case()
    except (InvalidOrderingError, OutsideCarrierError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def current_reports() -> dict:
    return json.loads(json.dumps({label: _run(case) for label, case in _cases()}))


@pytest.fixture(scope="module")
def reports():
    return current_reports()


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_callback_report_matches_golden(reports, case):
    assert reports[case] == GOLDEN[case]


def test_golden_covers_every_case(reports):
    assert sorted(reports) == sorted(GOLDEN)


if __name__ == "__main__":
    cases = current_reports()
    GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
            for k, v in cases.items()
        )
        + "\n}\n"
    )
