import itertools

import pytest

from ordkit import secret
from ordkit.groups import (
    CyclicGroup,
    DirectProductGroup,
    FreeAbelianGroup,
    GroupMismatchError,
    IntegerGroup,
    ball,
)
from ordkit.lift import Cocycle
from ordkit.orders import (
    arrangement_circular,
    lex_free_abelian_order,
    natural_circular_cyclic,
    product_circular,
    secret_from_left,
    trivial_order,
    usual_integer_order,
    validate_left_ordering,
)
from ordkit.secret import (
    Inconclusive,
    NotSecretOnCarrier,
    SecretWitness,
    cone_from_solution,
    detect_secret,
)


class TestCyclicGroupsNeverSecret:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_natural_ordering_rejected(self, n):
        verdict = detect_secret(natural_circular_cyclic(n, 1), CyclicGroup(n))
        assert isinstance(verdict, NotSecretOnCarrier)
        assert verdict.trace[-1]["kind"] == "conflict"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive_oracle_agrees(self, n):
        # brute force over all 2^(n-1) candidate maps d with d(0) = 0
        group = CyclicGroup(n)
        f = Cocycle(natural_circular_cyclic(n, 1))
        elems = group.elements()
        for bits in itertools.product((0, 1), repeat=n - 1):
            d = {0: 0, **{i + 1: bit for i, bit in enumerate(bits)}}
            satisfied = all(
                d[g.value] - d[(g * h).value] + d[h.value] == f(g, h)
                for g, h in itertools.product(elems, repeat=2)
            )
            assert not satisfied


class TestWitnessRecovery:
    def test_integers_radius_20(self):
        z = IntegerGroup()
        lo = usual_integer_order(z)
        verdict = detect_secret(secret_from_left(lo), ball([z.element(1)], 20))
        assert isinstance(verdict, SecretWitness)
        cone = sorted(g.value for g in verdict.solution.cone_elements())
        assert cone == list(range(1, 21))
        # a repeated carrier element is one variable, listed once in the
        # cone; the constraints are still counted per carrier position
        repeated = [z.element(v) for v in (0, 1, 1)]
        verdict = detect_secret(secret_from_left(lo), repeated)
        assert verdict.solution.cone_elements() == [z.element(1)]
        assert verdict.checked_constraints == 5

    def test_recovered_cone_validates(self):
        z = IntegerGroup()
        lo = usual_integer_order(z)
        carrier = ball([z.element(1)], 12)
        verdict = detect_secret(secret_from_left(lo), carrier)
        cone = cone_from_solution(verdict.solution)
        assert validate_left_ordering(cone, carrier).passed
        for g in carrier:
            if not g.is_identity:
                assert cone.positive(g) == lo.positive(g)

    def test_free_abelian_lex_radius_5(self):
        z2 = FreeAbelianGroup(2)
        lo = lex_free_abelian_order(z2)
        carrier = ball(z2.basis(), 5)
        verdict = detect_secret(secret_from_left(lo), carrier)
        assert isinstance(verdict, SecretWitness)
        cone = cone_from_solution(verdict.solution)
        for g in carrier:
            if not g.is_identity:
                assert cone.positive(g) == lo.positive(g)

    def test_secret_agreement_on_inside_triples(self):
        # fully-inside triples: the recovered cone only answers for carrier
        # elements, so pairwise quotients have to stay inside as well
        z = IntegerGroup()
        lo = usual_integer_order(z)
        c = secret_from_left(lo)
        carrier = ball([z.element(1)], 6)
        values = {g.value for g in carrier}
        verdict = detect_secret(c, carrier)
        recovered = secret_from_left(cone_from_solution(verdict.solution))
        compared = 0
        for t in itertools.product(list(carrier), repeat=3):
            quotients = [(~a * b).value for a, b in itertools.permutations(t, 2)]
            if all(q in values for q in quotients):
                assert recovered(*t) == c(*t)
                compared += 1
        assert compared > 100

    def test_trivial_group_empty_cone(self):
        triv = CyclicGroup(1)
        prod_ordering = product_circular(trivial_order(triv), 3)
        # restrict to the kernel copy of the trivial group: just the identity
        verdict = detect_secret(
            secret_from_left(trivial_order(triv)), [triv.identity()]
        )
        assert isinstance(verdict, SecretWitness)
        assert verdict.solution.cone_elements() == []


class TestFiniteGroupsNeverSecret:
    def test_every_ordering_of_small_cyclic_products(self):
        # nontrivial finite groups are not left-orderable, so no circular
        # ordering of one can be secret; exercise every brute-forced
        # ordering of the cyclic groups of order <= 6 and of Z/2 x Z/3
        from ordkit.obstruction import brute_force_circular_orders

        groups = [CyclicGroup(n) for n in (2, 3, 4, 5, 6)]
        groups.append(DirectProductGroup(CyclicGroup(2), CyclicGroup(3)))
        for group in groups:
            for a in brute_force_circular_orders(group):
                verdict = detect_secret(arrangement_circular(group, a), group)
                assert isinstance(verdict, NotSecretOnCarrier), group.descriptor


class TestTorsionCarriers:
    def test_product_with_z2_rejected(self):
        z = IntegerGroup()
        c = product_circular(usual_integer_order(z), 2)
        group = c.group
        carrier = ball([group.element((1, 0)), group.element((0, 1))], 4)
        verdict = detect_secret(c, carrier)
        assert isinstance(verdict, NotSecretOnCarrier)

    def test_trace_mentions_constraint(self):
        verdict = detect_secret(natural_circular_cyclic(4, 1), CyclicGroup(4))
        conflict = verdict.trace[-1]
        assert {"g", "h", "gh", "f"} <= set(conflict["constraint"])


class TestSolverMechanics:
    def test_identity_required(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        with pytest.raises(ValueError):
            detect_secret(c, [z.element(1), z.element(2)])

    def test_sparse_carrier_branches(self):
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        verdict = detect_secret(c, [z.element(0), z.element(5), z.element(10)])
        assert isinstance(verdict, SecretWitness)
        assert sorted(g.value for g in verdict.solution.cone_elements()) == [5, 10]

    def test_trials_cap_gives_inconclusive(self, monkeypatch):
        monkeypatch.setattr(secret, "_MAX_TRIALS", 1)
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        verdict = detect_secret(c, ball([z.element(1)], 10))
        assert isinstance(verdict, Inconclusive)
        assert verdict.components

    def test_determinism(self):
        args = (natural_circular_cyclic(6, 1), CyclicGroup(6))
        assert detect_secret(*args).to_dict() == detect_secret(*args).to_dict()

    def test_witness_satisfies_all_constraints(self):
        z2 = FreeAbelianGroup(2)
        lo = lex_free_abelian_order(z2)
        carrier = ball(z2.basis(), 3)
        verdict = detect_secret(secret_from_left(lo), carrier)
        d = verdict.solution.d
        f = Cocycle(secret_from_left(lo))
        values = {g.value for g in carrier}
        for g, h in itertools.product(list(carrier), repeat=2):
            gh = g * h
            if gh.value in values:
                assert d[g.value] - d[gh.value] + d[h.value] == f(g, h)

    def test_carrier_of_another_group_rejected(self):
        with pytest.raises(
            GroupMismatchError,
            match="^cocycle on cyclic:5 applied to element of cyclic:7$",
        ):
            detect_secret(natural_circular_cyclic(5, 1), CyclicGroup(7))


def _lex_torsion(n, radius):
    c = product_circular(usual_integer_order(IntegerGroup()), n)
    carrier = ball([c.group.element((1, 0)), c.group.element((0, 1))], radius)
    return detect_secret(c, carrier)


def _branch(step, element):
    return {"step": step, "kind": "branch", "element": element, "value": 1}


def _derive(step, element, value, g, h, gh, f):
    return {
        "step": step,
        "kind": "derive",
        "element": element,
        "value": value,
        "constraint": {"g": g, "h": h, "gh": gh, "f": f},
    }


def _conflict(step, detail, g, h, gh, f):
    return {
        "step": step,
        "kind": "conflict",
        "detail": detail,
        "constraint": {"g": g, "h": h, "gh": gh, "f": f},
    }


def _linked_components(free, carrier, add):
    """Union-find over the free elements: two are linked when g, h and g+h
    all lie in the carrier and both are among them.  Components come in
    the order of free, each listing its members in that order."""
    parent = {g: g for g in free}

    def find(g):
        while parent[g] != g:
            g = parent[g]
        return g

    for g in carrier:
        for h in carrier:
            gh = add(g, h)
            if gh not in carrier:
                continue
            linked = [x for x in (g, h, gh) if x in parent]
            for x in linked[1:]:
                parent[find(x)] = find(linked[0])
    components = {}
    for g in free:
        components.setdefault(find(g), []).append(g)
    return tuple(tuple(c) for c in components.values())


class TestPinnedSearch:
    """Full search outcomes; both traces end after two refuted branches."""

    def test_lex_z_times_z5_radius_10(self):
        verdict = _lex_torsion(5, 10)
        assert verdict.checked_constraints == 6451
        assert list(verdict.trace) == [
            _branch(1, [-10, 0]),
            _branch(21, [-9, 1]),
            _derive(22, [1, 1], 1, [-10, 0], [1, 1], [-9, 1], 1),
            _conflict(
                27, "derived d((-8, 2)) = 2 outside {0,1}", [-9, 1], [1, 1], [-8, 2], 0
            ),
        ]

    def test_lex_z_times_z3_radius_4(self):
        verdict = _lex_torsion(3, 4)
        assert verdict.checked_constraints == 393
        assert list(verdict.trace) == [
            _branch(1, [-4, 0]),
            _derive(3, [-2, 0], 1, [-2, 0], [-2, 0], [-4, 0], 1),
            _derive(4, [2, 0], 0, [2, 0], [-4, 0], [-2, 0], 0),
            _derive(5, [-1, 0], 1, [-1, 0], [-1, 0], [-2, 0], 1),
            _derive(8, [-3, 0], 1, [-3, 0], [2, 0], [-1, 0], 0),
            _branch(9, [-3, 1]),
            _derive(11, [0, 1], 1, [-3, 0], [0, 1], [-3, 1], 1),
            _conflict(
                13, "derived d((-3, 2)) = 2 outside {0,1}", [-3, 1], [0, 1], [-3, 2], 0
            ),
        ]

    @pytest.mark.parametrize(
        "max_trials,free",
        [
            (1, [*range(-10, 0), *range(1, 11)]),
            (3, [-9, -8, -7, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 7, 8, 9]),
        ],
    )
    def test_inconclusive_integers_radius_10(self, max_trials, free, monkeypatch):
        monkeypatch.setattr(secret, "_MAX_TRIALS", max_trials)
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        verdict = detect_secret(c, ball([z.element(1)], 10))
        assert verdict.reason == f"branching exceeded the cap of {max_trials} trials"
        expected = _linked_components(free, range(-10, 11), lambda g, h: g + h)
        assert len(expected) == 1
        assert verdict.components == expected

    @pytest.mark.parametrize(
        "max_trials,free",
        [
            (
                1,
                [[-2, -1], [-2, 0], [-2, 1], [-1, -2], [-1, -1], [-1, 0], [-1, 1],
                 [-1, 2], [0, -3], [0, -2], [0, -1], [0, 1], [0, 2], [0, 3],
                 [1, -2], [1, -1], [1, 0], [1, 1], [1, 2], [2, -1], [2, 0], [2, 1]],
            ),
            (
                3,
                [[-2, 0], [-2, 1], [-1, -1], [-1, 0], [-1, 2], [0, -2], [0, -1],
                 [0, 1], [0, 2], [1, -2], [1, 0], [1, 1], [2, -1], [2, 0]],
            ),
        ],
    )
    def test_inconclusive_free_abelian_radius_3(self, max_trials, free, monkeypatch):
        monkeypatch.setattr(secret, "_MAX_TRIALS", max_trials)
        z2 = FreeAbelianGroup(2)
        c = secret_from_left(lex_free_abelian_order(z2))
        carrier = ball(z2.basis(), 3)
        verdict = detect_secret(c, carrier)
        assert verdict.reason == f"branching exceeded the cap of {max_trials} trials"
        expected = _linked_components(
            [tuple(g) for g in free],
            {g.value for g in carrier},
            lambda g, h: (g[0] + h[0], g[1] + h[1]),
        )
        assert len(expected) == 1
        assert verdict.components == tuple(
            tuple(list(g) for g in component) for component in expected
        )

    @pytest.mark.parametrize(
        "points,components",
        [
            ([0, 5, 7], [[5], [7]]),
            ([0, 3, 5, 10, 20], [[3], [5, 10, 20]]),
            ([-4, 0, 1, 4, 8], [[-4, 4, 8], [1]]),
        ],
    )
    def test_inconclusive_sparse_components(self, points, components, monkeypatch):
        monkeypatch.setattr(secret, "_MAX_TRIALS", 0)
        z = IntegerGroup()
        c = secret_from_left(usual_integer_order(z))
        verdict = detect_secret(c, [z.element(v) for v in points])
        free = [v for v in points if v]
        assert _linked_components(free, points, lambda g, h: g + h) == tuple(
            map(tuple, components)
        )
        assert verdict.to_dict()["unconstrained_components"] == components
