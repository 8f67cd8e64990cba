import random
from fractions import Fraction

import pytest

from ordkit import witness as witness_module
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
            shifted = group.from_parts(a, tuple(v + 2 for v in b), i)
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


class TestPhi:
    def test_examples(self):
        g2 = WitnessAmbientGroup(2)
        assert phi_H(g2, (Fraction(1, 3), Fraction(0))) == 1
        g3 = WitnessAmbientGroup(3)
        assert phi_H(g3, (Fraction(1, 4),) * 3) == 0
        assert phi_H(g2, (Fraction(0), Fraction(0))) == 0

    def test_well_defined_across_representations(self):
        # 1/2 = 2/4 in Z[1/4]; both representations give the same class
        g3 = WitnessAmbientGroup(3)
        assert phi_H(g3, (Fraction(1, 2), Fraction(0), Fraction(0))) == 2
        assert phi_H(g3, (Fraction(8, 16), Fraction(0), Fraction(0))) == 2

    def test_invalid_denominator(self):
        g2 = WitnessAmbientGroup(2)
        with pytest.raises(ValueError):
            phi_H(g2, (Fraction(1, 5), Fraction(0)))

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
        report = verify_witness_claims(2, budget=500)
        assert report["status"] == "pass"
        assert len(report["checks"]) == 6
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_p3(self):
        report = verify_witness_claims(3, budget=200)
        assert report["status"] == "pass"

    def test_deterministic(self):
        a = verify_witness_claims(2, budget=100, seed=5)
        b = verify_witness_claims(2, budget=100, seed=5)
        assert a == b

    def test_sabotaged_action_fails_first_check(self):
        sabotaged = WitnessAmbientGroup(2, up_base=2)
        report = verify_witness_claims(2, budget=50, group=sabotaged)
        first = report["checks"][0]
        assert first["name"] == "y-centralizes-each-x"
        assert first["status"] == "fail"
        assert report["status"] == "fail"

    def test_raising_family_counts_the_raising_case(self):
        report = verify_witness_claims(
            2, budget=40, group=WitnessAmbientGroup(2, up_base=0)
        )
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["gij-y-commutator"]["cases"] == 1
        assert checks["gij-y-commutator"]["failure"] == {"error": "Fraction(1, 0)"}
        assert checks["subgroup-closure"]["cases"] == 1
        assert checks["subgroup-closure"]["failure"] == {"error": "Fraction(-1, 0)"}
        assert checks["torsion-spot-check"]["cases"] == 3

    def test_first_family_errors_are_reported(self):
        # down_base = 0 makes the raw action of y divide by zero in family (1)
        report = verify_witness_claims(
            3, budget=40, group=WitnessAmbientGroup(3, down_base=0)
        )
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
        report = verify_witness_claims(2, budget=40)
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
        report = verify_witness_claims(2, budget=20)
        assert any("recorded" in fact for fact in report["recorded_facts"])
