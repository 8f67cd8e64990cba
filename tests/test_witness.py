import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit import witness as witness_module
from ordkit.groups import Group, get_group
from ordkit.witness import (
    WitnessAmbientGroup,
    membership_G,
    phi_H,
    random_subgroup_element,
    verify_witness_claims,
)


@pytest.fixture(params=[2, 3])
def group(request):
    return WitnessAmbientGroup(request.param)


class TestDefiningRelations:
    def test_y_raises_own_x(self, group):
        p = group.p
        for i in range(p):
            conj = group.y_gen(i) * group.x_gen(i) * ~group.y_gen(i)
            assert conj == group.x_gen(i, p + 1)

    def test_y_lowers_next_x(self, group):
        p = group.p
        for i in range(p):
            conj = group.y_gen(i) * group.x_gen(i + 1) * ~group.y_gen(i)
            assert conj == group.x_gen(i + 1, Fraction(1, p + 1))

    def test_y_fixes_distant_x(self):
        group = WitnessAmbientGroup(5)
        for i in range(5):
            for j in range(5):
                if j % 5 in (i % 5, (i + 1) % 5):
                    continue
                conj = group.y_gen(i) * group.x_gen(j) * ~group.y_gen(i)
                assert conj == group.x_gen(j)

    def test_z_shifts_indices(self, group):
        p = group.p
        z = group.z_gen()
        for i in range(p):
            assert z * group.x_gen(i) * ~z == group.x_gen(i + 1)
            assert z * group.y_gen(i) * ~z == group.y_gen(i + 1)

    def test_z_has_order_p(self, group):
        assert group.z_gen() ** group.p == group.identity()

    def test_y_product_is_trivial_in_quotient(self, group):
        y = group.identity()
        for i in range(group.p):
            y = y * group.y_gen(i)
        assert y == group.identity()


class TestGroupAxioms:
    def test_axioms_on_samples(self, group):
        rng = random.Random(11)
        ident = group.identity()
        for _ in range(120):
            g = random_subgroup_element(group, rng)
            h = random_subgroup_element(group, rng)
            k = random_subgroup_element(group, rng)
            assert (g * h) * k == g * (h * k)
            assert g * ident == g == ident * g
            assert g * ~g == ident == ~g * g

    def test_quotient_by_y_respected(self, group):
        rng = random.Random(13)
        for _ in range(80):
            g = random_subgroup_element(group, rng)
            a, b, i = g.value
            exponents = [Fraction(n, d) for n, d in a]
            shifted = group.from_parts(exponents, tuple(v + 2 for v in b), i)
            assert shifted == g
            h = random_subgroup_element(group, rng)
            assert shifted * h == g * h

    def test_canonical_forms_unique(self, group):
        rng = random.Random(17)
        seen = {}
        for _ in range(60):
            g = random_subgroup_element(group, rng)
            if g.value in seen:
                assert seen[g.value] == g
            seen[g.value] = g


def _x_part(group, *exponents):
    """The (num, den) x-part of x_0^e_0 x_1^e_1 ..."""
    return group.from_parts(exponents, (0,) * group.p, 0).value[0]


class TestPhi:
    def test_examples(self):
        g2 = WitnessAmbientGroup(2)
        assert phi_H(g2, _x_part(g2, Fraction(1, 3), 0)) == 1
        g3 = WitnessAmbientGroup(3)
        assert phi_H(g3, _x_part(g3, *[Fraction(1, 4)] * 3)) == 0
        assert phi_H(g2, _x_part(g2, 0, 0)) == 0

    def test_well_defined_across_representations(self):
        # 1/2 = 8/16 in Z[1/4]; both representations give the same class
        g3 = WitnessAmbientGroup(3)
        assert phi_H(g3, _x_part(g3, Fraction(1, 2), 0, 0)) == 2
        assert phi_H(g3, ((8, 16), (0, 1), (0, 1))) == 2

    def test_invalid_denominator(self):
        g2 = WitnessAmbientGroup(2)
        with pytest.raises(ValueError):
            phi_H(g2, ((1, 5), (0, 1)))

    def test_zero_denominator_raises(self):
        g2 = WitnessAmbientGroup(2)
        with pytest.raises(ValueError, match="1/0 has denominator outside"):
            phi_H(g2, ((1, 0), (0, 1)))

    def test_conjugation_invariance(self, group):
        rng = random.Random(19)
        for _ in range(40):
            g = random_subgroup_element(group, rng)
            for conj in (group.y_gen(rng.randrange(group.p)), group.z_gen()):
                c = conj * g * ~conj
                assert phi_H(group, c.value[0]) == phi_H(group, g.value[0])


class TestMembership:
    def test_x_times_z_in_subgroup(self):
        g2 = WitnessAmbientGroup(2)
        m = membership_G(g2.x_gen(0) * g2.z_gen())
        assert m.in_subgroup and m.phi_value == 1

    def test_bare_x_not_in_subgroup(self):
        g2 = WitnessAmbientGroup(2)
        assert not membership_G(g2.x_gen(0)).in_subgroup

    def test_identity_in_subgroup(self, group):
        assert membership_G(group.identity()).in_subgroup

    def test_closed_under_products(self, group):
        rng = random.Random(23)
        for _ in range(60):
            g = random_subgroup_element(group, rng)
            h = random_subgroup_element(group, rng)
            assert membership_G(g * h).in_subgroup
            assert membership_G(~g).in_subgroup


class TestClaimVerification:
    def test_p2_full_budget(self):
        report = verify_witness_claims(WitnessAmbientGroup(2), budget=500)
        assert report["status"] == "pass"
        assert len(report["checks"]) == 6
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_p3(self):
        report = verify_witness_claims(WitnessAmbientGroup(3), budget=200)
        assert report["status"] == "pass"

    def test_deterministic(self):
        a = verify_witness_claims(WitnessAmbientGroup(2), budget=100, seed=5)
        b = verify_witness_claims(WitnessAmbientGroup(2), budget=100, seed=5)
        assert a == b

    def test_sabotaged_action_fails_first_check(self):
        sabotaged = WitnessAmbientGroup(2, up_base=2)
        report = verify_witness_claims(sabotaged, budget=50)
        first = report["checks"][0]
        assert first["name"] == "y-centralizes-each-x"
        assert first["status"] == "fail"
        assert report["status"] == "fail"

    def test_raising_family_counts_the_raising_case(self):
        report = verify_witness_claims(WitnessAmbientGroup(2, up_base=0), budget=40)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["gij-y-commutator"]["cases"] == 1
        assert checks["gij-y-commutator"]["failure"] == {"error": "Fraction(1, 0)"}
        assert checks["subgroup-closure"]["cases"] == 1
        assert checks["subgroup-closure"]["failure"] == {"error": "Fraction(-1, 0)"}
        assert checks["torsion-spot-check"]["cases"] == 3

    def test_first_family_errors_are_reported(self):
        # down_base = 0 makes the raw action of y divide by zero in family (1)
        report = verify_witness_claims(WitnessAmbientGroup(3, down_base=0), budget=40)
        first = report["checks"][0]
        assert first["name"] == "y-centralizes-each-x"
        assert first["status"] == "fail"
        assert first["cases"] == 1
        assert first["failure"] == {"error": "Fraction(1, 0)"}
        assert report["status"] == "fail"

    def test_torsion_family_skips_identity_samples(self, monkeypatch):
        calls = 0

        def every_third_is_identity(group, rng):
            nonlocal calls
            calls += 1
            g = random_subgroup_element(group, rng)
            return group.identity() if calls % 3 == 0 else g

        monkeypatch.setattr(
            witness_module, "random_subgroup_element", every_third_is_identity
        )
        report = verify_witness_claims(WitnessAmbientGroup(2), budget=40)
        closure, torsion = report["checks"][4:]
        # closure draws 2 x 20 samples; torsion's 10 draws are calls 41..50,
        # of which 42, 45 and 48 are the identity and go uncounted
        assert closure["cases"] == 20
        assert torsion["cases"] == 7
        assert torsion["status"] == "pass"

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            WitnessAmbientGroup(4)

    def test_recorded_facts_present(self):
        report = verify_witness_claims(WitnessAmbientGroup(2), budget=20)
        assert any("recorded" in fact for fact in report["recorded_facts"])


def _randint_sample(group, rng):
    """The sampler as it drew with rng.randint, built through Fraction."""
    p = group.p
    a = []
    for _ in range(p):
        n = rng.randint(-4, 4)
        a.append(Fraction(n, (p + 1) ** rng.randint(0, 3)))
    b = [rng.randint(-3, 3) for _ in range(p)]
    return group.from_parts(a, b, _ref_phi(group, a))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sampler_matches_randint_stream(p):
    group = WitnessAmbientGroup(p)
    for seed in range(200):
        fast, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert random_subgroup_element(group, fast) == _randint_sample(
                group, reference
            )
        # both generators consumed the same draws, so later draws stay aligned
        assert fast.getrandbits(32) == reference.getrandbits(32)


def test_closure_and_torsion_families_run_on_values(monkeypatch):
    """Families (5) and (6) compute on canonical values: no Group.op,
    Group.inv or membership_G call is made while either one runs."""
    calls = Counter()
    running = [None]

    def counted(name, fn):
        def wrapper(*args):
            calls[running[0], name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Group, "op", counted("op", Group.op))
    monkeypatch.setattr(Group, "inv", counted("inv", Group.inv))
    monkeypatch.setattr(
        witness_module, "membership_G", counted("membership_G", membership_G)
    )
    guarded = witness_module._guarded

    def tagged(cases):
        running[0] = cases.__name__
        yield from guarded(cases)

    monkeypatch.setattr(witness_module, "_guarded", tagged)
    report = verify_witness_claims(WitnessAmbientGroup(3), budget=200)
    assert report["status"] == "pass"
    assert [c["cases"] for c in report["checks"][4:]] == [100, 50]
    # the counters see the Element-level families
    assert calls["gij_y_commutator", "op"] > 0
    assert calls["gij_in_subgroup", "membership_G"] > 0
    assert calls["xz_commutator", "inv"] > 0
    on_values = {
        key: n for key, n in calls.items()
        if key[0] in ("subgroup_closure", "torsion_spot_check")
    }
    assert on_values == {}


SABOTAGE_GOLDEN = json.loads(
    (Path(__file__).with_name("data") / "witness_sabotage_reports.json").read_text()
)


@pytest.mark.parametrize("base", [0, 1, -2])
@pytest.mark.parametrize("knob", ["up_base", "down_base"])
@pytest.mark.parametrize("p", [2, 3])
def test_sabotaged_report_matches_golden(p, knob, base):
    """Full reports of sabotaged groups, captured from the Fraction-based
    arithmetic, including the ZeroDivisionError texts of degenerate bases
    and the case at which each family failed; key order included."""
    group = WitnessAmbientGroup(p, **{knob: base})
    report = verify_witness_claims(group, budget=20, seed=0)
    assert json.dumps(report) == json.dumps(SABOTAGE_GOLDEN[group.descriptor])


# -- the int-pair kernel against a Fraction reference model ---------------------
#
# The reference is the arithmetic the module used before its x-parts became
# (num, den) pairs: the same formulas on Fraction vectors.


def _ref_factor(group, b, j):
    return Fraction(group.up) ** b[j] * Fraction(group.down) ** (-b[(j - 1) % group.p])


def _ref_shift(vec, s):
    out = [None] * len(vec)
    for idx, v in enumerate(vec):
        out[(idx + s) % len(vec)] = v
    return tuple(out)


def _ref_canon(b):
    return tuple(v - b[-1] for v in b)


def _ref_op(group, x, y):
    (a, b, i), (a2, b2, i2) = x, y
    p = group.p
    a2, b2 = _ref_shift(a2, i), _ref_shift(b2, i)
    scaled = [a2[j] * _ref_factor(group, b, j) for j in range(p)]
    new_a = tuple(a[j] + scaled[j] for j in range(p))
    return (new_a, _ref_canon([b[j] + b2[j] for j in range(p)]), (i + i2) % p)


def _ref_inv(group, x):
    a, b, i = x
    unscaled = tuple(-a[j] / _ref_factor(group, b, j) for j in range(group.p))
    b_star = _ref_shift(tuple(-v for v in b), -i)
    return (_ref_shift(unscaled, -i), _ref_canon(b_star), (-i) % group.p)


def _ref_phi(group, a):
    base = group.p + 1
    total = 0
    for q in a:
        scaled = q
        while scaled.denominator != 1:
            if gcd(scaled.denominator, base) == 1:
                raise ValueError(
                    f"exponent {q} has denominator outside powers of {base}"
                )
            scaled *= base
        total += scaled.numerator
    return total % group.p


def _ref_encode(value):
    a, b, i = value
    return {"x": [str(q) for q in a], "y": list(b), "z": i}


def _as_ref(value):
    """The kernel value with Fraction x-parts; fails unless every pair is
    reduced with a positive denominator."""
    a, b, i = value
    fractions = tuple(Fraction(n, d) for n, d in a)
    assert [(q.numerator, q.denominator) for q in fractions] == list(a)
    return (fractions, b, i)


def _outcome(fn):
    try:
        return ("value", fn())
    except (ValueError, ZeroDivisionError) as exc:
        return ("raises", type(exc).__name__, str(exc))


KERNEL_GROUPS = [WitnessAmbientGroup(p) for p in (2, 3, 5)] + [
    WitnessAmbientGroup(p, up, down)
    for p in (2, 3)
    for up, down in ((2, None), (4, 7), (-2, 3), (3, 3), (0, None), (None, 0))
]


@st.composite
def _elements(draw, group):
    """A random element of the ambient group, built by from_parts from
    Fraction exponents (any denominator where the group allows it)."""
    p = group.p
    dens = (
        st.integers(0, 4).map(lambda k: (p + 1) ** k)
        if group.standard
        else st.integers(1, 60)
    )
    a = [Fraction(draw(st.integers(-30, 30)), draw(dens)) for _ in range(p)]
    b = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
    return group.from_parts(a, b, draw(st.integers(0, p - 1)))


@pytest.mark.parametrize("group", KERNEL_GROUPS, ids=lambda g: g.descriptor)
class TestKernelMatchesFractionReference:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_op(self, group, data):
        x, y = data.draw(_elements(group)), data.draw(_elements(group))
        got = _outcome(lambda: _as_ref((x * y).value))
        assert got == _outcome(lambda: _ref_op(group, _as_ref(x.value), _as_ref(y.value)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_inverse(self, group, data):
        x = data.draw(_elements(group))
        got = _outcome(lambda: _as_ref((~x).value))
        assert got == _outcome(lambda: _ref_inv(group, _as_ref(x.value)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_phi(self, group, data):
        a = data.draw(_elements(group)).value[0]
        got = _outcome(lambda: phi_H(group, a))
        assert got == _outcome(lambda: _ref_phi(group, _as_ref((a, (), 0))[0]))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_encode_format_and_order(self, group, data):
        xs = data.draw(st.lists(_elements(group), min_size=1, max_size=6))
        for x in xs:
            ref = _as_ref(x.value)
            assert x.encode() == _ref_encode(ref)
            assert repr(x) == (
                f"<{group.descriptor}: x{tuple(str(q) for q in ref[0])} "
                f"y{ref[1]} z^{ref[2]}>"
            )
        by_kernel = sorted(xs, key=lambda x: x.sort_key())
        assert [_as_ref(x.value) for x in by_kernel] == sorted(map(_as_ref, (x.value for x in xs)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_codec_roundtrip(self, group, data):
        x = data.draw(_elements(group))
        resolved = get_group(group.descriptor)
        assert resolved == group and resolved.descriptor == group.descriptor
        wire = json.loads(json.dumps(x.encode()))
        assert group.decode(wire) == x.value
        assert resolved.decode(wire) == x.value


# -- the identity-product kernel and the int y-factors ---------------------------

IDENTITY_GROUPS = [WitnessAmbientGroup(p) for p in (2, 3, 5, 7)] + [
    WitnessAmbientGroup(p, **{knob: base})
    for p in (2, 3)
    for knob in ("up_base", "down_base")
    for base in (0, 1, -2)
]


def _identity_pairs(group, seed):
    """Sampled pairs, (g, g^-1) and (g^-1, g) where g^-1 exists, and
    (g^k, g) for the powers of g up to p, for samples g of G and z."""
    rng = random.Random(seed)
    samples = [random_subgroup_element(group, rng).value for _ in range(40)]
    samples.append(group.z_gen().value)
    pairs = list(zip(samples, samples[1:]))
    for g in samples:
        inverse = _outcome(lambda: group._inv_value(g))
        if inverse[0] == "value":
            pairs += [(g, inverse[1]), (inverse[1], g)]
        power = g
        for _ in range(group.p):
            pairs.append((power, g))
            step = _outcome(lambda: group._op_values(power, g))
            if step[0] != "value":
                break
            power = step[1]
    return pairs


@pytest.mark.parametrize("group", IDENTITY_GROUPS, ids=lambda g: g.descriptor)
def test_product_is_identity_matches_op(group):
    identity = group.identity().value
    outcomes = Counter()
    for seed in range(3):
        for x, y in _identity_pairs(group, seed):
            want = _outcome(lambda: group._op_values(x, y) == identity)
            assert _outcome(lambda: group._product_is_identity(x, y)) == want, (x, y)
            outcomes[want[1] if want[0] == "value" else "raises"] += 1
    # the pairs reach both verdicts, and a zero base raises
    assert outcomes[False] > 0
    assert outcomes[True] > 0 or not group.standard
    assert outcomes["raises"] > 0 or (group.up and group.down)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_int_factor_matches_fraction_powers(p):
    bases = (-2, 0, 1, 2, 4, p + 1)
    for up in bases:
        for down in bases:
            group = WitnessAmbientGroup(p, up, down)
            for bj in range(-6, 7):
                for bprev in range(-6, 7):
                    want = _outcome(
                        lambda: (
                            Fraction(up) ** bj * Fraction(down) ** -bprev
                        ).as_integer_ratio()
                    )
                    # the first call computes the pair, the second reads the memo
                    for _ in range(2):
                        assert _outcome(lambda: group._factor(bj, bprev)) == want
