import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from witness_reference import (
    FractionWitnessGroup,
    random_subgroup_element,
    to_fraction,
    value_from_parts,
)

from ordkit import witness as witness_module
from ordkit.groups import Element, Group, get_group
from ordkit.witness import (
    WitnessAmbientGroup,
    membership_G,
    random_subgroup_value,
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
            assert conj == group.x_gen(i + 1, 1, p + 1)

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
            exponents, b, i = to_fraction(group, g.value)
            shifted = group.element(
                value_from_parts(group, exponents, tuple(v + 2 for v in b), i)
            )
            assert shifted == g
            h = random_subgroup_element(group, rng)
            assert shifted * h == g * h


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_canonical_forms_unique(p):
    """Every sampled value, product, inverse and power is the canonical form
    of its rational value in the Fraction model, so two values are equal
    exactly when the model's are."""
    group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
    rng = random.Random(17)
    samples = [random_subgroup_value(group, rng) for _ in range(60)]
    values = samples + [group._inv_value(v) for v in samples]
    values += [group._op_values(u, v) for u, v in zip(samples, samples[1:])]
    for v in samples[:10]:
        power = v
        for _ in range(p):
            power = group._op_values(power, v)
            values.append(power)
    by_model = {}
    for value in values:
        group.check_value(value)
        exponents, b, i = ref = to_fraction(group, value)
        assert value_from_parts(group, exponents, b, i) == value
        assert by_model.setdefault(ref, value) == value
        model.check_value(ref)
    assert len(by_model) > len(values) // 2


def _x_part(group, *exponents):
    """The (numerator, power) x-part of x_0^e_0 x_1^e_1 ..."""
    return value_from_parts(group, exponents, (0,) * group.p, 0)[0]


class TestPhi:
    def test_examples(self):
        g2 = WitnessAmbientGroup(2)
        assert g2.phi_H(_x_part(g2, Fraction(1, 3), 0)) == 1
        g3 = WitnessAmbientGroup(3)
        assert g3.phi_H(_x_part(g3, *[Fraction(1, 4)] * 3)) == 0
        assert g2.phi_H(_x_part(g2, 0, 0)) == 0

    def test_well_defined_across_representations(self):
        # 1/2 = 8/16 = 2/4 in Z[1/4]: one normalised pair, numerator class 2
        g3 = WitnessAmbientGroup(3)
        assert _x_part(g3, Fraction(1, 2), 0, 0) == ((2, 1), (0, 0), (0, 0))
        assert g3.x_gen(0, 8, 16) == g3.x_gen(0, 1, 2) == g3.x_gen(0, 2, 4)
        assert g3.phi_H(g3.x_gen(0, 8, 16).value[0]) == 2

    def test_invalid_denominator(self):
        g2 = WitnessAmbientGroup(2)
        with pytest.raises(ValueError, match="1/5 has denominator outside powers of 3"):
            g2.x_gen(0, 1, 5)
        with pytest.raises(ValueError, match="denominator outside"):
            g2.decode({"x": ["1/5", "0"], "y": [0, 0], "z": 0})

    def test_zero_denominator_raises(self):
        g2 = WitnessAmbientGroup(2)
        with pytest.raises(ValueError, match="1/0 has denominator outside"):
            g2.x_gen(0, 1, 0)

    def test_unnormalised_pair_rejected(self):
        # 3/3^1 is (1, 0), a negative power is no pair, and zero is (0, 0)
        g2 = WitnessAmbientGroup(2)
        for x in (((3, 1), (0, 0)), ((1, -1), (0, 0)), ((0, 2), (0, 0))):
            with pytest.raises(ValueError, match="normalised"):
                g2.element((x, (0, 0), 1))

    def test_conjugation_invariance(self, group):
        rng = random.Random(19)
        for _ in range(40):
            g = random_subgroup_element(group, rng)
            for conj in (group.y_gen(rng.randrange(group.p)), group.z_gen()):
                c = conj * g * ~conj
                assert group.phi_H(c.value[0]) == group.phi_H(g.value[0])


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
        sabotaged = FractionWitnessGroup(2, up_base=2)
        report = verify_witness_claims(sabotaged, budget=50)
        first = report["checks"][0]
        assert first["name"] == "y-centralizes-each-x"
        assert first["status"] == "fail"
        assert report["status"] == "fail"

    def test_raising_family_counts_the_raising_case(self):
        report = verify_witness_claims(FractionWitnessGroup(2, up_base=0), budget=40)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["gij-y-commutator"]["cases"] == 1
        assert checks["gij-y-commutator"]["failure"] == {"error": "Fraction(1, 0)"}
        assert checks["subgroup-closure"]["cases"] == 1
        assert checks["subgroup-closure"]["failure"] == {"error": "Fraction(-1, 0)"}
        assert checks["torsion-spot-check"]["cases"] == 3

    def test_first_family_errors_are_reported(self):
        # down_base = 0 makes the raw action of y divide by zero in family (1)
        report = verify_witness_claims(FractionWitnessGroup(3, down_base=0), budget=40)
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
            g = random_subgroup_value(group, rng)
            return group._identity_value() if calls % 3 == 0 else g

        monkeypatch.setattr(
            witness_module, "random_subgroup_value", every_third_is_identity
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
    phi = FractionWitnessGroup(p).phi_H(a)
    return group.element(value_from_parts(group, a, b, phi))


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
    and the case at which each family failed; key order included.  The
    library's families run on the Fraction model, which carries the bases."""
    group = FractionWitnessGroup(p, **{knob: base})
    report = verify_witness_claims(group, budget=20, seed=0)
    assert json.dumps(report) == json.dumps(SABOTAGE_GOLDEN[group.descriptor])


# -- the Fraction model's sabotage knobs -------------------------------------------
#
# The golden sabotage reports above are only as good as the model that carries
# the bases, so the model is checked on its own.  With equal nonzero bases the
# product y = y_1...y_p acts trivially, so the model is a group whose y-action
# is the one its base names.  With unequal bases y acts by (up/down)^c on a
# y-word c(1, ..., 1), the K/(y) quotient of the canonical y-part forgets that,
# and only the right inverse survives; a zero base divides by zero exactly where
# a negative power of it is taken.

EQUAL_BASE_MODELS = [FractionWitnessGroup(p) for p in (2, 3, 5)] + [
    FractionWitnessGroup(p, base, base) for p in (2, 3) for base in (2, -2)
]
MODEL_GROUPS = EQUAL_BASE_MODELS + [
    FractionWitnessGroup(p, up, down)
    for p in (2, 3)
    for up, down in ((2, None), (4, 7), (-2, 3))
]
ZERO_BASE_GROUPS = [
    FractionWitnessGroup(p, **{knob: 0})
    for p in (2, 3)
    for knob in ("up_base", "down_base")
]


@st.composite
def _model_elements(draw, model):
    """An element of the model with any denominators up to 60."""
    p = model.p
    a = [Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 60))) for _ in range(p)]
    b = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
    return model.element(value_from_parts(model, a, b, draw(st.integers(0, p - 1))))


@pytest.mark.parametrize("model", MODEL_GROUPS, ids=lambda g: g.descriptor)
class TestFractionModel:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_right_inverse(self, model, data):
        x = data.draw(_model_elements(model))
        inverse = ~x
        model.check_value(inverse.value)
        assert x * inverse == model.identity()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_codec_roundtrip(self, model, data):
        x = data.draw(_model_elements(model))
        wire = json.loads(json.dumps(x.encode()))
        assert wire["x"] == [str(q) for q in x.value[0]]
        assert model.decode(wire) == x.value

    def test_y_centralizes_exactly_when_bases_agree(self, model):
        # family (1) of the claims fails on the model exactly when up != down
        ones = (Fraction(1),) * model.p
        fixed = model.scale_vector(ones, (1,) * model.p) == ones
        assert fixed == (model.up == model.down)


@pytest.mark.parametrize("model", EQUAL_BASE_MODELS, ids=lambda g: g.descriptor)
class TestEqualBaseModelIsAGroup:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_associative(self, model, data):
        x, y, z = (data.draw(_model_elements(model)) for _ in range(3))
        product = (x * y) * z
        model.check_value(product.value)
        assert product == x * (y * z)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_left_inverse(self, model, data):
        x = data.draw(_model_elements(model))
        assert ~x * x == model.identity()
        assert ~~x == x

    def test_y_action_follows_the_base(self, model):
        # y_j x_j^q y_j^-1 = x_j^(q up), y_(j-1) x_j^q y_(j-1)^-1 = x_j^(q/down),
        # and every other y_k fixes x_j
        p, q = model.p, Fraction(3, 5)
        for j in range(p):
            x = model.x_gen(j, q.numerator, q.denominator)
            own, prev = model.y_gen(j), model.y_gen(j - 1)
            assert own * x * ~own == model.x_gen(j, *(q * model.up).as_integer_ratio())
            assert prev * x * ~prev == model.x_gen(j, *(q / model.down).as_integer_ratio())
            for k in range(p):
                if k not in (j, (j - 1) % p):
                    y = model.y_gen(k)
                    assert y * x * ~y == x


@pytest.mark.parametrize("model", ZERO_BASE_GROUPS, ids=lambda g: g.descriptor)
def test_zero_base_divides_by_zero_on_negative_powers(model):
    """A zero base scales x_j by 0 under a positive power and raises the
    ZeroDivisionError text of Fraction under a negative one, as the golden
    reports of degenerate bases record."""
    from itertools import product

    p, ones = model.p, (Fraction(1),) * model.p
    raised = 0
    for b in product(range(-2, 3), repeat=p):
        # the power of the zero base in the factor of x_j
        powers = [b[j] if model.up == 0 else -b[j - 1] for j in range(p)]
        if min(powers) < 0:
            with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
                model.scale_vector(ones, b)
            raised += 1
        else:
            scaled = model.scale_vector(ones, b)
            assert [q == 0 for q in scaled] == [k > 0 for k in powers]
    assert 0 < raised < 5**p


# -- the int-pair kernel against the Fraction model ------------------------------

STANDARD_PRIMES = [2, 3, 5, 7]


@st.composite
def _exponents(draw, p):
    """Rational x-exponents in Z[1/(p+1)], a raw y-part and a z-twist."""
    a = [
        Fraction(draw(st.integers(-30, 30)), (p + 1) ** draw(st.integers(0, 4)))
        for _ in range(p)
    ]
    b = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
    return a, b, draw(st.integers(0, p - 1))


def _pair(group, model, parts):
    """The element of `group` with these parts and the model's value."""
    value = value_from_parts(group, *parts)
    ref = value_from_parts(model, *parts)
    assert to_fraction(group, value) == ref
    return group.element(value), ref


@pytest.mark.parametrize("p", STANDARD_PRIMES)
class TestKernelMatchesFractionReference:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_op(self, p, data):
        group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
        x, xr = _pair(group, model, data.draw(_exponents(p)))
        y, yr = _pair(group, model, data.draw(_exponents(p)))
        product = (x * y).value
        group.check_value(product)
        assert to_fraction(group, product) == model._op_values(xr, yr)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_inverse(self, p, data):
        group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
        x, xr = _pair(group, model, data.draw(_exponents(p)))
        inverse = (~x).value
        group.check_value(inverse)
        assert to_fraction(group, inverse) == model._inv_value(xr)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_phi_and_scale_vector(self, p, data):
        group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
        x, xr = _pair(group, model, data.draw(_exponents(p)))
        assert group.phi_H(x.value[0]) == model.phi_H(xr[0])
        b = data.draw(st.lists(st.integers(-4, 4), min_size=p, max_size=p))
        scaled = group.scale_vector(x.value[0], b)
        assert to_fraction(group, (scaled, (), 0))[0] == model.scale_vector(xr[0], b)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_encode_format_and_order(self, p, data):
        group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
        parts = data.draw(st.lists(_exponents(p), min_size=1, max_size=6))
        pairs = [_pair(group, model, q) for q in parts]
        for x, ref in pairs:
            assert x.encode() == model.encode(ref)
            assert repr(x) == repr(Element(model, ref))
        by_kernel = sorted(pairs, key=lambda pair: pair[0].sort_key())
        assert [ref for _, ref in by_kernel] == sorted(ref for _, ref in pairs)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_codec_roundtrip(self, p, data):
        group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
        x, _ = _pair(group, model, data.draw(_exponents(p)))
        resolved = get_group(group.descriptor)
        assert resolved == group and resolved.descriptor == group.descriptor
        wire = json.loads(json.dumps(x.encode()))
        assert group.decode(wire) == x.value
        assert resolved.decode(wire) == x.value


@pytest.mark.parametrize("p", STANDARD_PRIMES)
def test_sample_table_matches_model(p):
    group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
    table = group.sample_table()
    assert table is group.sample_table()
    assert [
        [(Fraction(n, (p + 1) ** k), c) for (n, k), c in row] for row in table
    ] == model.sample_table()


@pytest.mark.parametrize("p", STANDARD_PRIMES)
def test_y_action_matches_fraction_powers(p):
    """The y-action as a shift of the power of p+1: for every pair of
    neighbouring y-exponents in [-6, 6], scale_vector multiplies each
    exponent by (p+1)^(b_j - b_(j-1)), checked in Fraction arithmetic."""
    group, base = WitnessAmbientGroup(p), Fraction(p + 1)
    exponents = [Fraction(n, (p + 1) ** k) for n in (-7, -1, 0, 1, p, p + 1) for k in (0, 1, 3)]
    for bj in range(-6, 7):
        for bprev in range(-6, 7):
            b = [0] * p
            b[1], b[0] = bj, bprev  # x_1 is scaled by base^(b_1 - b_0)
            factor = base ** (b[1] - b[0])
            for q in exponents:
                vec = [group._coord(0, 1)] * p
                vec[1] = group._coord(*q.as_integer_ratio())
                scaled = group.scale_vector(vec, b)
                group.check_value((scaled, (0,) * p, 0))
                assert to_fraction(group, (scaled, (), 0))[0][1] == q * factor


# -- the identity-product kernel ---------------------------------------------------


def _identity_pairs(group, seed):
    """Sampled pairs, (g, g^-1) and (g^-1, g), and (g^k, g) for the powers
    of g up to p, for samples g of G and z."""
    rng = random.Random(seed)
    samples = [random_subgroup_value(group, rng) for _ in range(40)]
    samples.append(group.z_gen().value)
    pairs = list(zip(samples, samples[1:]))
    for g in samples:
        inverse = group._inv_value(g)
        pairs += [(g, inverse), (inverse, g)]
        power = g
        for _ in range(group.p):
            pairs.append((power, g))
            power = group._op_values(power, g)
    return pairs


@pytest.mark.parametrize("p", STANDARD_PRIMES)
def test_product_is_identity_matches_op(p):
    group, model = WitnessAmbientGroup(p), FractionWitnessGroup(p)
    identity = model._identity_value()
    outcomes = Counter()
    for seed in range(3):
        for x, y in _identity_pairs(group, seed):
            xr, yr = to_fraction(group, x), to_fraction(group, y)
            product = model._op_values(xr, yr)
            want = product == identity
            assert group._product_is_identity(x, y) == want, (x, y)
            assert to_fraction(group, group._op_values(x, y)) == product
            outcomes[want] += 1
    # the pairs reach both verdicts
    assert outcomes[False] > 0 and outcomes[True] > 0
