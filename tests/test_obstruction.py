import itertools
import math

import pytest

from spectrum_reference import (
    TorsionProfile,
    divisibility_closed,
    element_order,
    finite_co_decide,
    finite_spectrum_walk,
    free_product_union,
    torsion_part,
    torsion_profile,
)

from ordkit.groups import (
    CyclicGroup,
    DirectProductGroup,
    Element,
    Homomorphism,
    IntegerGroup,
    PROMISLOW,
    PROMISLOW_PRESENTATION,
    Presentation,
    PromislowGroup,
    ResourceCapError,
    ball,
    ball_with_words,
    get_group,
    parse_presentation,
)
from ordkit import groups, obstruction, orders
from ordkit.obstruction import (
    CertificateError,
    LeftOrderEvidence,
    SpectrumReport,
    UnobstructedCertificate,
    brute_force_circular_orders,
    exponent_obstruction,
    left_orderable_spectrum,
    monotonicity_check,
    obstruction_finite,
    presentation_spectrum,
    promislow_circular,
    promislow_kernel_order,
    promislow_phi,
    promislow_psi,
    promislow_spectrum,
    promislow_unobstructed_certificate,
    promislow_worked_example,
    spectrum,
    verify_unobstructed,
)
from ordkit.orders import (
    LeftOrdering,
    arrangement_circular,
    as_carrier,
    usual_integer_order,
    validate_circular,
    validate_left_ordering,
)


class TestTorsion:
    def test_cyclic_6_profile(self):
        profile = torsion_profile(CyclicGroup(6))
        assert profile.orders == (1, 2, 3, 6)
        for k in profile.orders:
            assert element_order(profile.witnesses[k], 6) == k

    def test_torsion_part_examples(self):
        c6 = torsion_profile(CyclicGroup(6))
        assert torsion_part(c6, 10) == {2, 3, 4, 6, 8, 9, 10}
        five = TorsionProfile(
            CyclicGroup(5), 5, (1, 5),
            {1: CyclicGroup(5).identity(), 5: CyclicGroup(5).element(1)},
        )
        assert torsion_part(five, 12) == {5, 10}
        torsion_free = TorsionProfile(
            IntegerGroup(), 10, (1,), {1: IntegerGroup().identity()}
        )
        assert torsion_part(torsion_free, 40) == set()

    def test_ball_profile_torsion_free(self):
        group = PromislowGroup()
        profile = torsion_profile(ball(group.generators(), 2), cap=30)
        assert profile.orders == (1,)


class TestFiniteDecision:
    def test_cyclic_is_co(self):
        assert finite_co_decide(CyclicGroup(8))

    def test_klein_four_is_not(self):
        assert not finite_co_decide(get_group("klein4"))

    def test_coprime_product_is_cyclic(self):
        assert finite_co_decide(DirectProductGroup(CyclicGroup(2), CyclicGroup(3)))


class TestBruteForce:
    @pytest.mark.parametrize(
        "n,count", [(2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (7, 6)]
    )
    def test_cyclic_counts_match_euler_phi(self, n, count):
        assert len(brute_force_circular_orders(CyclicGroup(n))) == count

    def test_noncyclic_groups_have_none(self):
        assert brute_force_circular_orders(get_group("klein4")) == []
        z2xz4 = DirectProductGroup(CyclicGroup(2), CyclicGroup(4))
        assert brute_force_circular_orders(z2xz4) == []

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force_circular_orders(CyclicGroup(9), cap=8)

    @pytest.mark.parametrize("descriptor", ["cyclic:4", "cyclic:5", "klein4"])
    def test_rotation_filter_matches_full_validation(self, descriptor):
        group = get_group(descriptor)
        elems = as_carrier(group)
        ident = group.identity()
        others = [g for g in elems if g != ident]
        slow = []
        for perm in itertools.permutations(others):
            arrangement = (ident, *perm)
            c = arrangement_circular(group, arrangement)
            if validate_circular(c, elems).passed:
                slow.append(tuple(g.value for g in arrangement))
        fast = [
            tuple(g.value for g in a) for a in brute_force_circular_orders(group)
        ]
        assert sorted(slow) == sorted(fast)

    def test_orderings_are_valid(self):
        # brute_force_circular_orders validates nothing itself: the
        # arrangement theorem in its docstring is checked here instead
        groups = [CyclicGroup(n) for n in range(1, 13)]
        groups += [get_group("klein4"), DirectProductGroup(CyclicGroup(2), CyclicGroup(4))]
        for group in groups:
            arrangements = brute_force_circular_orders(group, cap=12)
            cyclic = isinstance(group, CyclicGroup)
            n = group.order
            phi = sum(math.gcd(k, n) == 1 for k in range(n))
            assert len(arrangements) == (phi if cyclic else 0), group.descriptor
            for a in arrangements:
                report = validate_circular(arrangement_circular(group, a), group)
                assert (report.status, report.mode) == ("pass", "exhaustive")

    def test_enumeration_evaluates_no_ordering(self, monkeypatch):
        # the arrangements are the output: no entry of c is computed for them
        calls, entry = [], orders._cyclic_entry
        monkeypatch.setattr(
            orders, "_cyclic_entry", lambda *a: calls.append(a) or entry(*a)
        )
        group = CyclicGroup(12)
        arrangements = brute_force_circular_orders(group, cap=12)
        assert calls == []
        assert len(arrangements) == 4
        for a in arrangements:
            assert type(a) is tuple and len(a) == 12
            assert all(type(g) is Element and g.group is group for g in a)


class TestObstructionFinite:
    def test_cyclic_6(self):
        report = obstruction_finite(CyclicGroup(6), 10)
        assert set(report.obstructed) == {2, 3, 4, 6, 8, 9, 10}
        assert set(report.obstructed) == torsion_part(
            torsion_profile(CyclicGroup(6)), 10
        )

    def test_trivial_group_all_unobstructed(self):
        report = obstruction_finite(CyclicGroup(1), 10)
        assert set(report.obstructed) == set()

    def test_cyclic_5(self):
        report = obstruction_finite(CyclicGroup(5), 9)
        assert set(report.obstructed) == {5}

    def test_equals_torsion_part_for_cyclic_groups(self):
        for n in (2, 3, 4, 5, 6, 8, 12):
            group = CyclicGroup(n)
            report = obstruction_finite(group, 15)
            assert set(report.obstructed) == torsion_part(torsion_profile(group), 15)

    def test_matches_brute_force_ground_truth(self):
        groups = [
            CyclicGroup(2),
            CyclicGroup(3),
            CyclicGroup(4),
            get_group("klein4"),
            DirectProductGroup(CyclicGroup(2), CyclicGroup(3)),
        ]
        for group in groups:
            report = obstruction_finite(group, 8)
            for n in range(2, 9):
                prod = DirectProductGroup(group, CyclicGroup(n))
                if prod.order <= 8:
                    truth = len(brute_force_circular_orders(prod)) > 0
                elif prod.order <= 24:
                    truth = finite_co_decide(prod)
                else:
                    continue
                assert (n in report.unobstructed) == truth

    def test_divisibility_closure(self):
        for n in (4, 6, 9):
            assert divisibility_closed(obstruction_finite(CyclicGroup(n), 30))

    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            SpectrumReport("x", 5, {2: {}}, {3: {}}, (4,))

    FINITE_GROUPS = [
        *(f"cyclic:{n}" for n in range(1, 61)),
        *(f"product:cyclic:{a},cyclic:{b}" for a in range(1, 9) for b in range(1, 9)),
        "klein4",
        "trivial",
        "product:product:cyclic:2,cyclic:3,cyclic:5",
        "product:product:cyclic:2,cyclic:2,cyclic:3",
        "product:cyclic:4,product:cyclic:3,cyclic:5",
    ]

    def test_report_matches_the_torsion_walk(self):
        # the prime-order search keeps every byte of the report that the
        # full torsion profile gives, witnesses and generators included
        assert len(self.FINITE_GROUPS) == 129
        for desc in self.FINITE_GROUPS:
            group = get_group(desc)
            expected = finite_spectrum_walk(group, 40).to_dict()
            assert obstruction_finite(group, 40).to_dict() == expected, desc

    def test_group_operations_grow_with_log_order(self, monkeypatch):
        # the torsion walk made 558,903 Group.op calls on Z/1000; listing
        # each cyclic subgroup once makes 999
        calls, op = [], groups.Group.op
        monkeypatch.setattr(
            groups.Group, "op", lambda *a: calls.append(None) or op(*a)
        )
        obstruction_finite(CyclicGroup(1000), 20)
        assert len(calls) < 10_000

    def test_work_bound(self, monkeypatch):
        # |G| * ceil(log2 |G|) group operations against the tuple cap: at
        # the real cap 117,647 * 17 = 1,999,999 is accepted and 117,648 * 17
        # refused before any element is built; at a cap of 896 = 128 * 7
        # order 128 runs and order 129 (129 * 8 = 1,032) is refused, for a
        # cyclic and a non-cyclic group
        assert obstruction_finite(CyclicGroup(117647), 3).fully_determined
        with pytest.raises(ResourceCapError) as refused:
            obstruction_finite(CyclicGroup(117648), 3)
        assert str(refused.value) == (
            "spectrum of cyclic:117648 needs about 2000016 group operations "
            "(|G| log2 |G|), over the cap of 2000000"
        )
        monkeypatch.setattr(obstruction, "_DEFAULT_TUPLE_CAP", 896)
        for accepted, refused_desc in [
            ("cyclic:128", "cyclic:129"),
            ("product:cyclic:8,cyclic:16", "product:cyclic:3,cyclic:43"),
        ]:
            report = obstruction_finite(get_group(accepted), 4)
            assert report.fully_determined
            with pytest.raises(ResourceCapError) as refused:
                obstruction_finite(get_group(refused_desc), 4)
            assert str(refused.value) == (
                f"spectrum of {refused_desc} needs about 1032 group operations "
                "(|G| log2 |G|), over the cap of 896"
            )
        # and the walk's Group.op calls stay within that estimate, cyclic or
        # not; the old walk made 2,704,800 on the last group, accepted at the
        # real cap
        calls, op = [], groups.Group.op
        monkeypatch.setattr(
            groups.Group, "op", lambda *a: calls.append(None) or op(*a)
        )
        for descriptor, cap in [
            ("trivial", 896), ("cyclic:2", 896), ("cyclic:128", 896),
            ("klein4", 896), ("product:cyclic:2,cyclic:3", 896),
            ("product:cyclic:6,cyclic:10", 896), ("product:cyclic:8,cyclic:16", 896),
            ("product:cyclic:3,cyclic:43", 1032),
            ("product:cyclic:2,cyclic:58800", 2_000_000),
        ]:
            monkeypatch.setattr(obstruction, "_DEFAULT_TUPLE_CAP", cap)
            group = get_group(descriptor)
            estimate = group.order * (group.order - 1).bit_length()
            calls.clear()
            assert obstruction_finite(group, 12).fully_determined
            assert len(calls) <= estimate <= cap, descriptor


class TestFreeProduct:
    def test_z2_z3_union(self):
        reports = [
            obstruction_finite(CyclicGroup(2), 12),
            obstruction_finite(CyclicGroup(3), 12),
        ]
        union = free_product_union(reports)
        assert set(union.obstructed) == {
            n for n in range(2, 13) if n % 2 == 0 or n % 3 == 0
        }

    def test_single_factor_identity(self):
        rep = obstruction_finite(CyclicGroup(2), 10)
        assert set(free_product_union([rep]).obstructed) == set(rep.obstructed)

    def test_promislow_with_z3(self):
        union = free_product_union(
            [promislow_spectrum(12), obstruction_finite(CyclicGroup(3), 12)]
        )
        assert set(union.obstructed) == {3, 4, 6, 8, 9, 12}

    def test_mixed_caps_rejected(self):
        with pytest.raises(ValueError):
            free_product_union(
                [
                    obstruction_finite(CyclicGroup(2), 10),
                    obstruction_finite(CyclicGroup(3), 12),
                ]
            )

    def test_undetermined_inputs_rejected(self):
        undetermined = presentation_spectrum(PROMISLOW_PRESENTATION, 10)
        with pytest.raises(ValueError):
            free_product_union([undetermined])


class TestMonotonicity:
    def test_inclusion_z2_into_z6(self):
        c2, c6 = CyclicGroup(2), CyclicGroup(6)
        inc = Homomorphism(
            c2, c6, lambda v: 3 * v,
            name="inclusion",
            presentation=Presentation(1, ((1, 1),)),
            gen_images=[c6.element(3)],
        )
        report = monotonicity_check(
            inc, "trivial-kernel",
            obstruction_finite(c2, 12), obstruction_finite(c6, 12),
        )
        assert report.passed

    def test_identity_map(self):
        c6 = CyclicGroup(6)
        ident = Homomorphism(c6, c6, lambda g: g, name="id")
        rep = obstruction_finite(c6, 12)
        assert monotonicity_check(ident, "trivial-kernel", rep, rep).passed

    def test_swapped_arguments_fail(self):
        c2, c6 = CyclicGroup(2), CyclicGroup(6)
        inc = Homomorphism(c2, c6, lambda v: 3 * v, name="inc")
        report = monotonicity_check(
            inc, "trivial-kernel",
            obstruction_finite(c6, 12), obstruction_finite(c2, 12),
        )
        assert not report.passed
        assert 3 in report.counterexample["missing"]

    def test_fake_trivial_kernel_caught(self):
        c6, c2 = CyclicGroup(6), CyclicGroup(2)
        proj = Homomorphism(c6, c2, lambda v: v % 2, name="proj")
        report = monotonicity_check(
            proj, "trivial-kernel",
            obstruction_finite(c6, 12), obstruction_finite(c2, 12),
        )
        assert not report.passed
        assert report.counterexample["kind"] == "kernel-evidence"

    def test_inclusion_adds_cap_minus_one_at_once(self):
        c2, c6 = CyclicGroup(2), CyclicGroup(6)
        inc = Homomorphism(c2, c6, lambda v: 3 * v, name="inc")
        report = monotonicity_check(
            inc, "trivial-kernel",
            obstruction_finite(c6, 12), obstruction_finite(c2, 12),
        )
        # two elements of Z/2, then n = 2..12 decided in one step, although
        # 3 is the first missing value
        assert report.checked_tuples == 2 + 11
        assert report.counterexample["missing"] == [3, 9]

    def test_kernel_evidence_count_carries_over(self):
        z, c2 = IntegerGroup(), CyclicGroup(2)
        parity = Homomorphism(z, c2, lambda v: v % 2, name="mod2")
        lo = usual_integer_order(z)
        carrier = ball([z.element(1)], 3)
        spectrum = left_orderable_spectrum(lo, 12, carrier)
        evidence = LeftOrderEvidence("cone-table", lo)
        report = monotonicity_check(parity, evidence, spectrum, spectrum, carrier)
        # kernel part {-2, 0, 2}: 2 trichotomy cases and the pair (2, 2)
        assert report.passed
        assert report.checked_tuples == 3 + 11

    def test_failing_evidence_keeps_its_count(self):
        c6, c2 = CyclicGroup(6), CyclicGroup(2)
        proj = Homomorphism(c6, c2, lambda v: v % 2, name="proj")
        spectrum = obstruction_finite(c6, 12)
        everything = LeftOrderEvidence(
            "cone-table", LeftOrdering(c6, "all", lambda g: True, "all")
        )
        report = monotonicity_check(proj, everything, spectrum, spectrum)
        assert report.checked_tuples == 0
        assert report.counterexample == {
            "kind": "kernel-evidence",
            "evidence": {"kind": "identity-positive", "tuple": [0]},
        }


class TestExponentObstruction:
    def test_promislow(self):
        e, record = exponent_obstruction(PROMISLOW_PRESENTATION)
        assert e == 4
        assert record["invariant_factors"] == [4, 4]
        assert record["hypotheses_verified"] is False

    def test_cyclic_5(self):
        e, _ = exponent_obstruction(Presentation(1, ((1, 1, 1, 1, 1),)))
        assert e == 5

    def test_infinite_abelianization(self):
        e, record = exponent_obstruction(Presentation(2, ((1, 2, -1, -2),)))
        assert e is None
        assert record["kind"] == "not-applicable"


class TestPromislowCertificates:
    def test_phi_psi_beta_are_homomorphisms(self):
        group = PromislowGroup()
        carrier = list(ball(group.generators(), 3))
        assert promislow_phi().validate_on_carrier(carrier)
        assert promislow_psi().validate_on_carrier(carrier)

    def test_kernel_order_validates(self):
        group = PromislowGroup()
        phi = promislow_phi()
        carrier = [g for g in ball(group.generators(), 3) if phi.kernel_contains(g)]
        assert validate_left_ordering(promislow_kernel_order(), carrier).passed

    def test_circular_ordering_validates(self, monkeypatch):
        monkeypatch.setattr(orders, "_DEFAULT_TUPLE_CAP", 100_000)
        group = PromislowGroup()
        carrier = ball(group.generators(), 2)
        assert validate_circular(promislow_circular(), carrier).passed

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 9, 10])
    def test_certificates_verify(self, n):
        cert = promislow_unobstructed_certificate(n)
        group = PromislowGroup()
        report = verify_unobstructed(cert, ball(group.generators(), 3))
        assert report["status"] == "pass"
        assert report["verdict"] == "unobstructed-under-recorded-hypotheses"
        assert report["hypotheses_verified"] is False

    def test_no_certificate_for_multiples_of_four(self):
        with pytest.raises(ValueError):
            promislow_unobstructed_certificate(8)

    def test_corrupted_evidence_fails(self):
        cert = promislow_unobstructed_certificate(3)
        bad = UnobstructedCertificate(
            cert.n,
            cert.hom,
            cert.subgroup_generator,
            LeftOrderEvidence(
                "cone-table",
                LeftOrdering(PromislowGroup(), "bad", lambda g: True, "all"),
            ),
            cert.hypotheses,
            cert.description,
        )
        group = PromislowGroup()
        report = verify_unobstructed(bad, ball(group.generators(), 2))
        assert report["status"] == "fail"

    def test_wrong_subgroup_order_fails(self):
        cert = promislow_unobstructed_certificate(3)
        bad = UnobstructedCertificate(
            cert.n, cert.hom, cert.hom.target.element(3), cert.kernel_evidence,
            cert.hypotheses, cert.description,
        )
        group = PromislowGroup()
        report = verify_unobstructed(bad, ball(group.generators(), 2))
        assert report["status"] == "fail"

    def test_alpha_check(self):
        report = promislow_worked_example(3)["alpha"]
        assert report["status"] == "pass"
        assert report["kernel_sizes"]["beta"] > 0

    def test_product_c2_ordering_validates(self, monkeypatch):
        # the circular ordering on G x Z/2 that the n = 2 certificate
        # promises; sampled validation on a small product ball
        from ordkit.groups import CyclicGroup as C
        from ordkit.obstruction import promislow_product_c2_circular

        ordering = promislow_product_c2_circular()
        prod = ordering.group
        group = PromislowGroup()
        c2 = C(2)
        carrier = ball(
            [
                prod.pair(group.gen_a(), c2.element(0)),
                prod.pair(group.gen_b(), c2.element(0)),
                prod.pair(group.identity(), c2.element(1)),
            ],
            2,
        )
        monkeypatch.setattr(orders, "_DEFAULT_TUPLE_CAP", 200_000)
        report = validate_circular(ordering, carrier)
        assert report.passed


class TestPromislowSpectrum:
    def test_cap_20(self):
        report = promislow_spectrum(20)
        assert set(report.obstructed) == {4, 8, 12, 16, 20}
        assert report.fully_determined
        assert divisibility_closed(report)

    def test_cap_12(self):
        report = promislow_spectrum(12)
        assert set(report.obstructed) == {4, 8, 12}
        assert set(report.unobstructed) == {2, 3, 5, 6, 7, 9, 10, 11}

    def test_cap_2(self):
        assert set(promislow_spectrum(2).unobstructed) == {2}

    def test_chain_normality_checked_once(self, monkeypatch):
        # the 14 certificates up to 20 share one poly-Z chain: its two lower
        # chain balls are built once, next to the spectrum's own carrier
        built = []

        def counted_ball(gens, radius):
            built.append(radius)
            return ball(gens, radius)

        monkeypatch.setattr(obstruction, "ball", counted_ball)
        obstruction._chain_escape.cache_clear()
        assert promislow_spectrum(20).fully_determined
        assert built == [3, 6, 6]

    def test_multiples_of_four_build_no_certificate(self, monkeypatch):
        # the exponent decider answers first, so the certificate decider is
        # asked only for the n it does not obstruct
        asked = []
        build = obstruction.promislow_unobstructed_certificate
        monkeypatch.setattr(
            obstruction, "promislow_unobstructed_certificate",
            lambda n: asked.append(n) or build(n),
        )
        assert promislow_spectrum(20).fully_determined
        assert asked == [n for n in range(2, 21) if n % 4]

    def test_cap_4(self):
        report = promislow_spectrum(4)
        assert set(report.obstructed) == {4}
        assert set(report.unobstructed) == {2, 3}

    def test_wrong_exponent_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            obstruction, "exponent_obstruction", lambda presentation: (2, {})
        )
        with pytest.raises(CertificateError):
            promislow_spectrum(8)

    def test_worked_example(self):
        report = promislow_worked_example(radius=3)
        assert report["status"] == "pass"
        names = {c["name"] for c in report["checks"]}
        assert "abelianization" in names and "alpha-bijective-on-ball" in names

    def test_worked_example_builds_each_ball_once(self, monkeypatch):
        # the alpha check reads the worked example's own two balls: B(S, 4)
        # and the G x Z/2 ball are each built once
        built = []

        def counted(gens, radius):
            built.append(len(gens))
            return ball_with_words(gens, radius)

        monkeypatch.setattr(groups, "ball_with_words", counted)
        assert promislow_worked_example(radius=4)["status"] == "pass"
        assert built == [2, 3]

    def test_kernel_generation_is_witnessed_by_words(self, monkeypatch):
        # coordinates whose poly-Z word is not the element witness nothing
        monkeypatch.setattr(PROMISLOW, "kernel_coords", lambda value: (0, 0, 0))
        report = promislow_worked_example(radius=2)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["kernel-index-2-and-generated"] == "fail"


class TestOtherSpectra:
    def test_left_orderable_group_empty_spectrum(self):
        z = IntegerGroup()
        report = left_orderable_spectrum(
            usual_integer_order(z), 10, ball([z.element(1)], 4)
        )
        assert set(report.unobstructed) == set(range(2, 11))
        assert set(report.obstructed) == set()

    def test_presentation_bracketing(self):
        report = presentation_spectrum(PROMISLOW_PRESENTATION, 10)
        assert set(report.obstructed) == {4, 8}
        assert set(report.undetermined) == {2, 3, 5, 6, 7, 9, 10}
        assert not report.fully_determined

    def test_presentation_infinite_abelianization(self):
        report = presentation_spectrum(Presentation(2, ((1, 2, -1, -2),)), 8)
        assert set(report.obstructed) == set()
        assert set(report.undetermined) == set(range(2, 9))

    @pytest.mark.parametrize("m", range(1, 31))
    def test_cyclic_presentation_agrees_with_the_finite_decision(self, m):
        # <a | a^m> is Z/m: the exponent record may leave n undetermined that
        # the finite decision settles, but never settle it the other way
        cap = 60
        presentation = parse_presentation("gens: a\nrel:" + " a" * m)
        bracket = presentation_spectrum(presentation, cap)
        decided = obstruction_finite(CyclicGroup(m), cap)
        assert not bracket.obstructed.keys() & decided.unobstructed.keys()
        assert not bracket.unobstructed.keys() & decided.obstructed.keys()
        assert set(bracket.obstructed) == {
            n for n in range(2, cap + 1) if m > 1 and n % m == 0
        }


class TestSpectrumEngine:
    def test_first_answer_wins(self):
        deciders = [
            lambda n: (True, {"by": "first"}) if n % 3 == 0 else None,
            lambda n: (False, {"by": "second"}) if n % 2 == 0 else None,
            lambda n: (True, {"by": "third"}) if n % 5 == 0 else None,
        ]
        report = spectrum("x", 12, deciders, ["note"])
        assert report.obstructed == {
            3: {"by": "first"}, 5: {"by": "third"}, 6: {"by": "first"},
            9: {"by": "first"}, 12: {"by": "first"},
        }
        assert report.unobstructed == {
            2: {"by": "second"}, 4: {"by": "second"}, 8: {"by": "second"},
            10: {"by": "second"},
        }
        assert report.undetermined == (7, 11)
        assert (report.group_label, report.cap, report.notes) == ("x", 12, ("note",))
