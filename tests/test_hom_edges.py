"""`Homomorphism.validate_on_carrier` on balls: the Cayley-edge law on the
doubled ball against the pair sweep it replaces.

A `Ball` carrier of radius >= 1 is decided by one BFS over the edges of
B(S, 2r); a list of the same elements goes through the pair sweep.  The two
must give the same verdict on true homomorphisms, on rules corrupted at one
value inside or just outside B(2r), and on maps that agree with a
homomorphism along every geodesic but not across inverses, which only the
edges into already-seen vertices catch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit.groups import (
    PROMISLOW,
    CyclicGroup,
    DirectProductGroup,
    FreeAbelianGroup,
    Homomorphism,
    IntegerGroup,
    ball,
)
from ordkit.obstruction import _product_c2_ball, promislow_beta, promislow_phi

Z, Z2 = IntegerGroup(), FreeAbelianGroup(2)
Z_C5 = DirectProductGroup(Z, CyclicGroup(5))


def _split(x: int, a: int, b: int) -> int:
    """a x on x >= 0 and b x below: linear along geodesics of Z, and a
    homomorphism exactly when a == b."""
    return a * x if x >= 0 else b * x


def _promislow(data):
    n, k = data.draw(st.sampled_from([(2, 1), (4, 1), (4, 3), (8, 2), (4, 2)]))
    if n == 2:
        return CyclicGroup(2), lambda v: k * PROMISLOW.phi2_value(v) % 2
    return CyclicGroup(n), lambda v: k * PROMISLOW.psi4_value(v) % n


def _free_abelian(data):
    a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    if data.draw(st.booleans()):
        return Z, lambda v: a * v[0] + b * v[1]
    c = data.draw(st.integers(-3, 3).filter(lambda c: c != a))
    return Z, lambda v: _split(v[0], a, c) + b * v[1]


def _z_c5(data):
    a, b = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    target = CyclicGroup(5)
    if data.draw(st.booleans()):
        return target, lambda v: (a * v[0] + b * v[1]) % 5
    c = data.draw(st.integers(0, 4).filter(lambda c: c != a))
    return target, lambda v: (_split(v[0], a, c) + b * v[1]) % 5


def _promislow_c2(data):
    k, t = data.draw(st.sampled_from([(1, 2), (3, 2), (1, 0), (2, 2), (0, 1)]))
    if t == 1:
        return CyclicGroup(2), lambda v: (PROMISLOW.phi2_value(v[0]) + v[1]) % 2
    return CyclicGroup(4), lambda v: (k * PROMISLOW.psi4_value(v[0]) + t * v[1]) % 4


# family -> (generators, draw(data) -> (target, rule))
FAMILIES = {
    "promislow": (PROMISLOW.generators(), _promislow),
    "free-abelian:2": (Z2.basis(), _free_abelian),
    "product:integers,cyclic:5": (
        [Z_C5.element((1, 0)), Z_C5.element((0, 1))], _z_c5
    ),
    "_product_c2_ball": (list(_product_c2_ball(0).gens), _promislow_c2),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 3), st.data())
def test_ball_path_matches_pair_path(family, radius, data):
    gens, draw_rule = FAMILIES[family]
    source, carrier = gens[0].group, ball(gens, radius)
    target, rule = draw_rule(data)
    hom = Homomorphism(source, target, rule)
    if data.draw(st.booleans()):
        # corrupt one value of B(2r + 1): inside B(2r), or just outside
        point = data.draw(
            st.sampled_from([g.value for g in ball(gens, 2 * radius + 1)])
        )
        shift = (
            data.draw(st.sampled_from([-2, -1, 1, 3]))
            if target == Z
            else data.draw(st.integers(1, target.order - 1))
        )
        corrupted = Homomorphism(
            source,
            target,
            lambda v: target._op_values(rule(v), shift) if v == point else rule(v),
        )
        if not ball(gens, 2 * radius).contains_value(point):
            # neither path evaluates the rule beyond B(2r)
            assert corrupted.validate_on_carrier(carrier) == (
                hom.validate_on_carrier(carrier)
            )
        if point == source._identity_value():
            assert not corrupted.validate_on_carrier(carrier)
        hom = corrupted
    assert hom.validate_on_carrier(carrier) == hom.validate_on_carrier(list(carrier))


def test_inverse_inconsistent_map_fails_on_a_ball():
    # f(n) = n for n >= 0 and 2n below holds on every BFS tree edge of Z; only
    # the edges back into seen vertices (1 -> 0 by -1) break it
    hom = Homomorphism(Z, Z, lambda v: _split(v, 1, 2))
    for radius in (1, 2, 3):
        carrier = ball([Z.element(1)], radius)
        assert not hom.validate_on_carrier(carrier)
        assert not hom.validate_on_carrier(list(carrier))


def test_true_homomorphisms_pass_on_balls():
    phi = promislow_phi()
    for radius in (1, 2, 4):
        assert phi.validate_on_carrier(ball(PROMISLOW.generators(), radius))


def test_phi_rule_calls_bounded_by_doubled_ball():
    # one call per vertex of B(8) and one per letter; the pair sweep made
    # 83 + 83^2 = 6,972
    phi = promislow_phi()
    calls = []

    def rule(v):
        calls.append(v)
        return phi.rule(v)

    counted = Homomorphism(PROMISLOW, phi.target, rule, name="phi")
    gens = PROMISLOW.generators()
    assert len(ball(gens, 4)) == 83
    assert len(ball(gens, 8)) + 4 == 529
    assert counted.validate_on_carrier(ball(gens, 4))
    assert len(calls) <= 529


def test_involution_letter_walked_once(monkeypatch):
    # (id, 1) is its own inverse, so S u S^-1 has 5 letters on the G x Z/2
    # ball, and the beta walk makes one product op per letter and element
    # of B(S, 2r - 1)
    calls = []
    op = DirectProductGroup._op_values

    def counting(self, a, b):
        calls.append(1)
        return op(self, a, b)

    beta = promislow_beta()
    for radius, expected in [(1, 30), (2, 290), (3, 1150), (4, 3010)]:
        carrier = _product_c2_ball(radius)
        assert 5 * len(ball(carrier.gens, 2 * radius - 1)) == expected
        calls.clear()
        monkeypatch.setattr(DirectProductGroup, "_op_values", counting)
        assert beta.validate_on_carrier(carrier)
        monkeypatch.setattr(DirectProductGroup, "_op_values", op)
        assert len(calls) == expected
