import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordkit.groups import (
    CyclicGroup,
    DirectProductGroup,
    Element,
    FreeAbelianGroup,
    GroupMismatchError,
    Homomorphism,
    IntegerGroup,
    InvalidHomomorphismError,
    PROMISLOW_PRESENTATION,
    Presentation,
    PromislowGroup,
    Record,
    ResourceCapError,
    ball,
    ball_with_words,
    element_order,
    evaluate_word,
    free_reduce,
    get_group,
    klein_four_group,
    parse_presentation,
)
from ordkit.lift import Cocycle, LiftGroup
from ordkit.orders import ValidationReport, natural_circular_cyclic, usual_integer_order


class TestGroupLaw:
    def test_cyclic_op(self):
        c5 = CyclicGroup(5)
        assert (c5.element(3) * c5.element(4)).value == 2

    def test_free_abelian_op(self):
        z2 = FreeAbelianGroup(2)
        assert (z2.element((1, 2)) * z2.element((3, -1))).value == (4, 1)

    def test_promislow_generator_square(self):
        g = PromislowGroup()
        a = g.gen_a()
        assert a * a == g.translation(1, 0, 0)
        assert (a * a).encode() == {"diag": [1, 1, 1], "t": ["1", "0", "0"]}

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            CyclicGroup(5).element(1) * CyclicGroup(6).element(1)

    @given(st.integers(2, 30), st.data())
    def test_cyclic_axioms(self, n, data):
        group = CyclicGroup(n)
        vals = st.integers(0, n - 1)
        g = group.element(data.draw(vals))
        h = group.element(data.draw(vals))
        k = group.element(data.draw(vals))
        assert (g * h) * k == g * (h * k)
        assert g * group.identity() == g
        assert g * ~g == group.identity()

    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    )
    def test_free_abelian_axioms(self, x, y, z):
        group = FreeAbelianGroup(3)
        g, h, k = (group.element(tuple(v)) for v in (x, y, z))
        assert (g * h) * k == g * (h * k)
        assert ~(~g) == g
        assert g * ~g == group.identity()

    @given(st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99)), max_size=4))
    def test_free_abelian_values_are_coordinatewise(self, pairs):
        # one pair of coordinates per rank, rank 0 included
        group = FreeAbelianGroup(len(pairs))
        a = tuple(x for x, _ in pairs)
        b = tuple(y for _, y in pairs)
        assert group._op_values(a, b) == tuple(a[i] + b[i] for i in range(len(a)))
        assert group._inv_value(a) == tuple(-a[i] for i in range(len(a)))
        assert type(group._op_values(a, b)) is tuple
        assert type(group._inv_value(a)) is tuple

    def test_promislow_axioms_on_ball(self):
        g = PromislowGroup()
        b = ball(g.generators(), 2)
        ident = g.identity()
        for x, y in itertools.product(list(b)[:8], repeat=2):
            assert x * ~x == ident
            assert ~(x * y) == ~y * ~x
        for x, y, z in itertools.islice(
            itertools.product(b, repeat=3), 0, 2000, 7
        ):
            assert (x * y) * z == x * (y * z)


class TestGroupIdentity:
    def test_independent_handles_compare_and_hash_equal(self):
        c4 = natural_circular_cyclic(4, 1)
        pairs = [
            (CyclicGroup(5), CyclicGroup(5)),
            (
                get_group("product:integers,cyclic:5"),
                DirectProductGroup(IntegerGroup(), CyclicGroup(5)),
            ),
            (LiftGroup(Cocycle(c4)), LiftGroup(Cocycle(c4))),
        ]
        for g, h in pairs:
            assert g is not h
            assert g == h and hash(g) == hash(h)
            x = g.identity()
            assert x * h.identity() == x == h.identity()
        assert CyclicGroup(5) != CyclicGroup(6)
        assert CyclicGroup(5) != "cyclic:5"

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: CyclicGroup(5).inv(x),
            lambda x: natural_circular_cyclic(5)(
                CyclicGroup(5).identity(), CyclicGroup(5).element(1), x
            ),
            lambda x: usual_integer_order(IntegerGroup()).positive(x),
            lambda x: Homomorphism(CyclicGroup(5), CyclicGroup(5), lambda g: g)(x),
        ],
        ids=["inv", "circular-oracle", "left-cone", "homomorphism"],
    )
    def test_mismatch_raised_at_every_boundary(self, call):
        with pytest.raises(GroupMismatchError):
            call(CyclicGroup(6).element(1))


class TestPromislowRepresentation:
    @pytest.fixture
    def group(self):
        return PromislowGroup()

    def test_relators_vanish(self, group):
        a, b = group.gen_a(), group.gen_b()
        assert (a * b * b * ~a * b * b).is_identity
        assert (b * a * a * ~b * a * a).is_identity

    def test_squares_are_translations(self, group):
        a, b = group.gen_a(), group.gen_b()
        assert (a * a) == group.translation(1, 0, 0)
        assert (b * b) == group.translation(0, 1, 0)
        ab = a * b
        assert (ab * ab) == group.translation(0, 0, -1)

    def test_torsion_free_sample(self, group):
        for g in ball(group.generators(), 2):
            if not g.is_identity:
                assert element_order(g, 50) is None

    def test_generator_order_exceeds_cap(self, group):
        assert element_order(group.gen_a(), 50) is None

    def test_phi2_psi4_match_word_exponent_sums(self, group):
        _, words = ball_with_words(group.generators(), 3)
        for value, word in words.items():
            a_sum = sum(1 if l == 1 else -1 if l == -1 else 0 for l in word)
            assert group.phi2_value(value) == a_sum % 2
            assert group.psi4_value(value) == a_sum % 4

    def test_kernel_coords_roundtrip(self, group):
        a, b = group.gen_a(), group.gen_b()
        a2, ab2 = a * a, (a * b) * (a * b)
        for g in ball(group.generators(), 3):
            if group.phi2_value(g.value) != 0:
                with pytest.raises(ValueError):
                    group.kernel_coords(g.value)
                continue
            x, w, j = group.kernel_coords(g.value)
            assert (a2**x) * (ab2**w) * (b**j) == g

    def test_coset_pattern_enforced(self, group):
        with pytest.raises(ValueError):
            group.element(((1, -1, -1), (0, 0, 0)))

    def test_codec_roundtrip_radius_3(self, group):
        for g in ball(group.generators(), 3):
            assert group.decode(group.encode(g.value)) == g.value

    @pytest.mark.parametrize(
        "obj",
        [
            {"diag": [1, 1, 1], "t": ["1/3", "0", "0"]},
            {"diag": [1, 1, 1], "t": ["1/2", "0", "0"]},
            {"diag": [1, -1, -1], "t": ["0", "1/2", "0"]},
        ],
    )
    def test_decode_rejects_non_canonical(self, group, obj):
        with pytest.raises(ValueError):
            group.decode(obj)

    def test_printed_forms_show_halves(self, group):
        a = group.gen_a()
        assert group.format_value(a.value) == "diag(1, -1, -1)+(1/2,1/2,0)"
        assert repr(~a) == "<promislow: diag(1, -1, -1)+(-1/2,1/2,0)>"
        assert (a * group.gen_b()).encode() == {
            "diag": [-1, -1, 1], "t": ["1/2", "0", "-1/2"]
        }


class TestElementOrder:
    def test_cyclic(self):
        assert element_order(CyclicGroup(6).element(2), 10) == 3

    def test_integer_exceeds(self):
        assert element_order(IntegerGroup().element(1), 100) is None

    def test_identity(self):
        assert element_order(CyclicGroup(7).identity(), 3) == 1

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            element_order(CyclicGroup(3).element(1), 0)


class TestBall:
    def test_integers_radius_3(self):
        z = IntegerGroup()
        b = ball([z.element(1)], 3)
        assert [g.value for g in b] == [-3, -2, -1, 0, 1, 2, 3]

    def test_cyclic_4_radius_2_full(self):
        b = ball([CyclicGroup(4).element(1)], 2)
        assert len(b) == 4

    def test_promislow_radius_2_matches_word_oracle(self):
        # independent oracle: multiply out every freely reduced word of
        # length <= 2 in the affine representation and deduplicate
        group = PromislowGroup()
        a, b = group.gen_a(), group.gen_b()
        letters = {1: a, -1: ~a, 2: b, -2: ~b}
        seen = {group.identity().value}
        for l1 in letters:
            seen.add(letters[l1].value)
            for l2 in letters:
                if l2 != -l1:
                    seen.add((letters[l1] * letters[l2]).value)
        computed = ball([a, b], 2)
        assert {g.value for g in computed} == seen
        assert len(computed) == 17

    def test_contains_identity_and_inverses(self):
        z2 = FreeAbelianGroup(2)
        b = ball(z2.basis(), 3)
        assert z2.identity() in b
        for g in b:
            assert ~g in b

    def test_cap_exceeded(self):
        z = IntegerGroup()
        with pytest.raises(ResourceCapError):
            ball([z.element(1)], 10, max_size=5)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("ORDKIT_MAX_BALL", "3")
        z = IntegerGroup()
        with pytest.raises(ResourceCapError):
            ball([z.element(1)], 5)

    def test_deterministic_order(self):
        g = PromislowGroup()
        b1 = ball(g.generators(), 2)
        b2 = ball(g.generators(), 2)
        assert [e.value for e in b1] == [e.value for e in b2]


class TestPresentation:
    def test_parse(self):
        text = "gens: a b\nrel: a b b A b b\nrel: b a a B a a\n"
        assert parse_presentation(text) == PROMISLOW_PRESENTATION

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_presentation("rel: a\n")
        with pytest.raises(ValueError):
            parse_presentation("gens: a\nrel: b\n")
        with pytest.raises(ValueError):
            parse_presentation("oops\n")

    def test_free_reduce(self):
        assert free_reduce((1, -1, 2)) == (2,)
        assert free_reduce((1, 2, -2, -1)) == ()

    def test_exponent_sum_matrix(self):
        assert PROMISLOW_PRESENTATION.exponent_sum_matrix() == [[0, 4], [4, 0]]

    def test_relators_reduced_on_construction(self):
        p = Presentation(1, ((1, -1, 1),))
        assert p.relators == ((1,),)


class TestHomomorphism:
    def test_valid_promislow_phi(self):
        group = PromislowGroup()
        c2 = CyclicGroup(2)
        phi = Homomorphism(
            group,
            c2,
            group.phi2_value,
            name="phi",
            presentation=PROMISLOW_PRESENTATION,
            gen_images=[c2.element(1), c2.element(0)],
        )
        assert phi.validate_on_carrier(list(ball(group.generators(), 2)))

    def test_invalid_images_rejected(self):
        group = PromislowGroup()
        c3 = CyclicGroup(3)
        with pytest.raises(InvalidHomomorphismError):
            Homomorphism(
                group,
                c3,
                lambda v: 0,
                name="bad",
                presentation=PROMISLOW_PRESENTATION,
                gen_images=[c3.element(1), c3.element(0)],
            )

    def test_evaluate_word(self):
        c6 = CyclicGroup(6)
        img = evaluate_word([c6.element(2)], (1, 1, -1))
        assert img.value == 2


class TestRegistry:
    @pytest.mark.parametrize(
        "descriptor,order",
        [
            ("cyclic:5", 5),
            ("klein4", 4),
            ("trivial", 1),
            ("product:cyclic:2,cyclic:3", 6),
        ],
    )
    def test_finite_descriptors(self, descriptor, order):
        assert get_group(descriptor).order == order

    def test_infinite_descriptors(self):
        for descriptor in ("integers", "free-abelian:2", "promislow", "witness:2"):
            assert not get_group(descriptor).is_finite

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_group("nonsense:1")

    @pytest.mark.parametrize("up,down", [(None, None), (2, None), (4, 7)])
    def test_witness_descriptor_round_trip(self, up, down):
        from ordkit.witness import WitnessAmbientGroup

        group = WitnessAmbientGroup(3, up_base=up, down_base=down)
        parsed = get_group(group.descriptor)
        assert parsed == group
        assert (parsed.up, parsed.down) == (group.up, group.down)

    @pytest.mark.parametrize(
        "descriptor", ["witness:x", "witness:3:up2", "witness:3:down2:up4"]
    )
    def test_bad_witness_descriptor(self, descriptor):
        with pytest.raises(ValueError, match="bad witness descriptor"):
            get_group(descriptor)

    def test_promislow_handle_is_shared(self):
        from ordkit.groups import PROMISLOW
        from ordkit.obstruction import promislow_kernel_order, promislow_phi

        assert get_group("promislow") is PROMISLOW
        assert promislow_phi().source is PROMISLOW
        assert promislow_kernel_order().group is PROMISLOW

    def test_klein_four_is_not_cyclic_product(self):
        k4 = klein_four_group()
        assert k4.descriptor == "klein4"
        assert all(element_order(g, 4) in (1, 2) for g in k4.elements())


def group_trees():
    leaves = st.one_of(
        st.integers(1, 12).map(CyclicGroup),
        st.just(IntegerGroup()),
        st.integers(0, 3).map(FreeAbelianGroup),
        st.just(klein_four_group()),
    )
    return st.recursive(
        leaves,
        lambda children: st.tuples(children, children).map(
            lambda pair: DirectProductGroup(*pair)
        ),
        max_leaves=6,
    )


class TestNestedProducts:
    @given(group_trees())
    def test_descriptor_roundtrip(self, group):
        back = get_group(group.descriptor)
        assert back == group
        assert back.descriptor == group.descriptor

    def test_nested_left_factor(self):
        inner = DirectProductGroup(CyclicGroup(2), CyclicGroup(2))
        group = DirectProductGroup(inner, CyclicGroup(3))
        assert group.descriptor == "product:product:cyclic:2,cyclic:2,cyclic:3"
        back = get_group(group.descriptor)
        assert back.left == inner and back.right == CyclicGroup(3)
        assert back.order == 12

    @pytest.mark.parametrize(
        "descriptor",
        ["product:cyclic:2", "product:cyclic:2,cyclic:3,cyclic:4", "cyclic:2,cyclic:3"],
    )
    def test_wrong_arity_rejected(self, descriptor):
        with pytest.raises(ValueError):
            get_group(descriptor)


class TestCodec:
    @pytest.mark.parametrize(
        "descriptor",
        ["cyclic:7", "integers", "free-abelian:3", "klein4", "promislow"],
    )
    def test_roundtrip(self, descriptor):
        group = get_group(descriptor)
        if group.is_finite:
            sample = group.elements()
        else:
            gens = (
                group.generators()
                if isinstance(group, PromislowGroup)
                else [
                    Element(group, v)
                    for v in (
                        [1] if descriptor == "integers" else [(1, 0, 0), (0, -2, 1)]
                    )
                ]
            )
            sample = list(ball(gens, 2))
        for g in sample:
            assert group.decode(group.encode(g.value)) == g.value


class TestRecord:
    """The generic record behaviour every plain groups.Record subclass gets."""

    def test_positional_keyword_and_default_construction_agree(self):
        full = ValidationReport("axiom", "pass", 3, None, "exhaustive", ())
        assert ValidationReport("axiom", "pass", 3) == full
        assert ValidationReport(checked_tuples=3, status="pass", name="axiom") == full
        assert hash(ValidationReport("axiom", "pass", 3)) == hash(full)
        assert repr(full) == (
            "ValidationReport(name='axiom', status='pass', checked_tuples=3, "
            "counterexample=None, mode='exhaustive', notes=())"
        )
        assert ValidationReport("axiom", "pass", 3, mode="sampled").mode == "sampled"

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (("axiom", "pass"), {}),
            (("axiom", "pass", 3, None, "exhaustive", (), "extra"), {}),
            (("axiom", "pass", 3), {"name": "again"}),
            (("axiom", "pass", 3), {"bogus": 1}),
        ],
        ids=["missing", "too-many", "repeated", "unknown"],
    )
    def test_arity_checked(self, args, kwargs):
        with pytest.raises(TypeError, match="ValidationReport takes the fields"):
            ValidationReport(*args, **kwargs)

    def test_replace(self):
        report = ValidationReport("axiom", "pass", 3)
        changed = report._replace(status="fail", notes=("why",))
        assert changed == ValidationReport("axiom", "fail", 3, notes=("why",))
        assert report.status == "pass"
        with pytest.raises(TypeError):
            report._replace(bogus=1)

    def test_immutable_and_typed_equality(self):
        report = ValidationReport("axiom", "pass", 3)
        with pytest.raises(AttributeError):
            report.status = "fail"
        with pytest.raises(AttributeError):
            del report.status

        class Twin(Record):
            __slots__ = ValidationReport.__slots__
            _defaults = ValidationReport._defaults

        assert Twin("axiom", "pass", 3) != report
        assert report != ("axiom", "pass", 3, None, "exhaustive", ())
