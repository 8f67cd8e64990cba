import itertools
import math

import pytest

from ordkit.groups import (
    CyclicGroup,
    DirectProductGroup,
    Homomorphism,
    IntegerGroup,
    PROMISLOW,
    PROMISLOW_PRESENTATION,
    Presentation,
    PromislowGroup,
    ResourceCapError,
    ball,
    ball_with_words,
    klein_four_group,
)
from ordkit import groups, obstruction
from ordkit.obstruction import (
    CertificateError,
    LeftOrderEvidence,
    SpectrumReport,
    TorsionProfile,
    UnobstructedCertificate,
    brute_force_circular_orders,
    exponent_obstruction,
    finite_co_decide,
    free_product_union,
    left_orderable_spectrum,
    monotonicity_check,
    obstruction_finite,
    presentation_spectrum,
    promislow_alpha_check,
    promislow_circular,
    promislow_kernel_order,
    promislow_phi,
    promislow_psi,
    promislow_spectrum,
    promislow_unobstructed_certificate,
    promislow_worked_example,
    torsion_part,
    torsion_profile,
    verify_unobstructed,
)
from ordkit.orders import (
    LeftOrdering,
    OrderingTable,
    as_carrier,
    usual_integer_order,
    validate_circular,
    validate_left_ordering,
)


class TestTorsion:
    def test_cyclic_6_profile(self):
        from ordkit.groups import element_order

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
        assert not finite_co_decide(klein_four_group())

    def test_coprime_product_is_cyclic(self):
        assert finite_co_decide(DirectProductGroup(CyclicGroup(2), CyclicGroup(3)))


class TestBruteForce:
    @pytest.mark.parametrize(
        "n,count", [(2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (7, 6)]
    )
    def test_cyclic_counts_match_euler_phi(self, n, count):
        assert len(brute_force_circular_orders(CyclicGroup(n))) == count

    def test_noncyclic_groups_have_none(self):
        assert brute_force_circular_orders(klein_four_group()) == []
        z2xz4 = DirectProductGroup(CyclicGroup(2), CyclicGroup(4))
        assert brute_force_circular_orders(z2xz4) == []

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force_circular_orders(CyclicGroup(9), cap=8)

    @pytest.mark.parametrize("descriptor", ["cyclic:4", "cyclic:5", "klein4"])
    def test_rotation_filter_matches_full_validation(self, descriptor):
        from ordkit.groups import get_group

        group = get_group(descriptor)
        elems = as_carrier(group)
        ident = group.identity()
        others = [g for g in elems if g != ident]
        slow = []
        for perm in itertools.permutations(others):
            table = OrderingTable.from_arrangement(group, [ident, *perm])
            if validate_circular(table.ordering(), elems).passed:
                slow.append(tuple(g.value for g in table.carrier))
        fast = [
            tuple(g.value for g in t.carrier)
            for t in brute_force_circular_orders(group)
        ]
        assert sorted(slow) == sorted(fast)

    def test_orderings_are_valid(self):
        # brute_force_circular_orders validates nothing itself: the
        # arrangement theorem in its docstring is checked here instead
        groups = [CyclicGroup(n) for n in range(1, 13)]
        groups += [klein_four_group(), DirectProductGroup(CyclicGroup(2), CyclicGroup(4))]
        for group in groups:
            tables = brute_force_circular_orders(group, cap=12)
            cyclic = isinstance(group, CyclicGroup)
            n = group.order
            phi = sum(math.gcd(k, n) == 1 for k in range(n))
            assert len(tables) == (phi if cyclic else 0), group.descriptor
            for table in tables:
                report = validate_circular(table.ordering(), group)
                assert (report.status, report.mode) == ("pass", "exhaustive")


class TestObstructionFinite:
    def test_cyclic_6(self):
        report = obstruction_finite(CyclicGroup(6), 10)
        assert report.obstructed_set == {2, 3, 4, 6, 8, 9, 10}
        assert report.obstructed_set == torsion_part(
            torsion_profile(CyclicGroup(6)), 10
        )

    def test_trivial_group_all_unobstructed(self):
        report = obstruction_finite(CyclicGroup(1), 10)
        assert report.obstructed_set == set()

    def test_cyclic_5(self):
        report = obstruction_finite(CyclicGroup(5), 9)
        assert report.obstructed_set == {5}

    def test_equals_torsion_part_for_cyclic_groups(self):
        for n in (2, 3, 4, 5, 6, 8, 12):
            group = CyclicGroup(n)
            report = obstruction_finite(group, 15)
            assert report.obstructed_set == torsion_part(torsion_profile(group), 15)

    def test_matches_brute_force_ground_truth(self):
        groups = [
            CyclicGroup(2),
            CyclicGroup(3),
            CyclicGroup(4),
            klein_four_group(),
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
                assert (n in report.unobstructed_set) == truth

    def test_divisibility_closure(self):
        for n in (4, 6, 9):
            assert obstruction_finite(CyclicGroup(n), 30).divisibility_closed()

    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            SpectrumReport("x", 5, {2: {}}, {3: {}}, (4,))


class TestFreeProduct:
    def test_z2_z3_union(self):
        reports = [
            obstruction_finite(CyclicGroup(2), 12),
            obstruction_finite(CyclicGroup(3), 12),
        ]
        union = free_product_union(reports)
        assert union.obstructed_set == {
            n for n in range(2, 13) if n % 2 == 0 or n % 3 == 0
        }

    def test_single_factor_identity(self):
        rep = obstruction_finite(CyclicGroup(2), 10)
        assert free_product_union([rep]).obstructed_set == rep.obstructed_set

    def test_promislow_with_z3(self):
        union = free_product_union(
            [promislow_spectrum(12), obstruction_finite(CyclicGroup(3), 12)]
        )
        assert union.obstructed_set == {3, 4, 6, 8, 9, 12}

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

    def test_circular_ordering_validates(self):
        group = PromislowGroup()
        carrier = ball(group.generators(), 2)
        assert validate_circular(
            promislow_circular(), carrier, tuple_cap=100_000
        ).passed

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
        report = promislow_alpha_check(radius=3)
        assert report["status"] == "pass"
        assert report["kernel_sizes"]["beta"] > 0

    def test_product_c2_ordering_validates(self):
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
        report = validate_circular(ordering, carrier, tuple_cap=200_000)
        assert report.passed


class TestPromislowSpectrum:
    def test_cap_20(self):
        report = promislow_spectrum(20)
        assert report.obstructed_set == {4, 8, 12, 16, 20}
        assert report.fully_determined
        assert report.divisibility_closed()

    def test_cap_12(self):
        report = promislow_spectrum(12)
        assert report.obstructed_set == {4, 8, 12}
        assert report.unobstructed_set == {2, 3, 5, 6, 7, 9, 10, 11}

    def test_cap_2(self):
        assert promislow_spectrum(2).unobstructed_set == {2}

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

    def test_cap_4(self):
        report = promislow_spectrum(4)
        assert report.obstructed_set == {4}
        assert report.unobstructed_set == {2, 3}

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

        def counted(gens, radius, max_size=None):
            built.append(len(gens))
            return ball_with_words(gens, radius, max_size)

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
        assert report.unobstructed_set == set(range(2, 11))
        assert report.obstructed_set == set()

    def test_presentation_bracketing(self):
        report = presentation_spectrum(PROMISLOW_PRESENTATION, 10)
        assert report.obstructed_set == {4, 8}
        assert set(report.undetermined) == {2, 3, 5, 6, 7, 9, 10}
        assert not report.fully_determined

    def test_presentation_infinite_abelianization(self):
        report = presentation_spectrum(Presentation(2, ((1, 2, -1, -2),)), 8)
        assert report.obstructed_set == set()
        assert set(report.undetermined) == set(range(2, 9))
