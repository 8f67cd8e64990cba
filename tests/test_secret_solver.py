"""The counted solver of `detect_secret` against a rescan reference.

`rescan_detect_secret` is the solver `detect_secret` replaced: every visit to
a constraint re-sums its terms from the current values.  It takes f_c from
`Cocycle.of_values`, the cocycle on canonical forms, so it shares neither the
propagation nor the carrier cocycle with `detect_secret`.  Both must give the
same verdict JSON and spend the same number of branch trials.
"""

import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit import secret
from ordkit.cli import main
from ordkit.groups import CyclicGroup, FreeAbelianGroup, IntegerGroup, ball
from ordkit.lift import Cocycle, InvalidOrderingError
from ordkit.orders import (
    LeftOrdering,
    as_carrier,
    intern_carrier,
    lex_free_abelian_order,
    natural_circular_cyclic,
    natural_units,
    product_circular,
    secret_from_left,
    usual_integer_order,
)
from ordkit.secret import (
    CoboundarySolution,
    Inconclusive,
    NotSecretOnCarrier,
    SecretWitness,
    SolverInvariantError,
    detect_secret,
)

Z = IntegerGroup()
Z2 = FreeAbelianGroup(2)


def rescan_detect_secret(c, carrier, max_trials=1 << 20):
    """The rescan solver: (verdict, number of branch trials)."""
    elems, group = as_carrier(carrier), c.group
    points, vals, index, ids = intern_carrier(elems)
    if group._identity_value() not in index:
        raise ValueError("carrier must contain the identity")
    cocycle = Cocycle(c)

    constraints = []
    watch = [[] for _ in vals]
    for gi in ids:
        for hi in ids:
            ghi = index.get(group._op_values(vals[gi], vals[hi]))
            if ghi is None:
                continue
            coeffs = {}
            for var, k in ((gi, 1), (hi, 1), (ghi, -1)):
                coeffs[var] = coeffs.get(var, 0) + k
            terms = tuple((var, k) for var, k in coeffs.items() if k)
            for var, _ in terms:
                watch[var].append(len(constraints))
            rhs = cocycle.of_values(vals[gi], vals[hi])
            constraints.append((gi, hi, ghi, rhs, terms))

    trail = []
    value = [None] * len(vals)
    origin = [0] * len(vals)

    def assign(kind, var, x, ci):
        value[var] = x
        origin[var] = len(trail)
        trail.append((kind, var, x, ci))

    def propagate(var):
        queue = deque(watch[var])
        while queue:
            ci = queue.popleft()
            _, _, _, rhs, terms = constraints[ci]
            known, unknown = 0, []
            for v, k in terms:
                if value[v] is None:
                    unknown.append((v, k))
                else:
                    known += k * value[v]
            if not unknown:
                if known != rhs:
                    return ci, f"constraint evaluates to {known}, needs {rhs}"
                continue
            if len(unknown) > 1:
                continue
            (v, k), num = unknown[0], rhs - known
            if num % k == 0 and num // k in (0, 1):
                assign("derive", v, num // k, ci)
                queue.extend(watch[v])
                continue
            name = group.format_value(vals[v])
            if num % k:
                return ci, f"d({name}) = {num}/{k} is not integral"
            return ci, f"derived d({name}) = {num // k} outside {{0,1}}"
        return None

    def constraint_dict(ci):
        g, h, gh, rhs, _ = constraints[ci]
        return {
            "g": group.encode(vals[g]),
            "h": group.encode(vals[h]),
            "gh": group.encode(vals[gh]),
            "f": rhs,
        }

    def conflict_trace(ci, detail):
        chain = set()
        stack = [ci]
        while stack:
            for var in constraints[stack.pop()][:3]:
                if value[var] is not None and origin[var] not in chain:
                    chain.add(origin[var])
                    if trail[origin[var]][3] is not None:
                        stack.append(trail[origin[var]][3])
        trace = []
        for pos in sorted(chain):
            kind, var, x, cause = trail[pos]
            entry = {"step": pos, "kind": kind, "element": group.encode(vals[var]),
                     "value": x}
            if cause is not None:
                entry["constraint"] = constraint_dict(cause)
            trace.append(entry)
        conflict = {"step": len(trail), "kind": "conflict", "detail": detail}
        return (*trace, {**conflict, "constraint": constraint_dict(ci)})

    ident = index[group._identity_value()]
    assign("seed", ident, 0, None)
    conflict = propagate(ident)
    if conflict is not None:
        return NotSecretOnCarrier(conflict_trace(*conflict), len(constraints)), 0

    order = sorted(range(len(vals)), key=lambda i: group.sort_key(vals[i]))

    def next_free():
        return next((i for i in order if value[i] is None), None)

    def free_components():
        label = {}
        for start in (i for i in order if value[i] is None and i not in label):
            label[start], stack = start, [start]
            while stack:
                for ci in watch[stack.pop()]:
                    for v in constraints[ci][:3]:
                        if value[v] is None and v not in label:
                            label[v] = start
                            stack.append(v)
        components = {}
        for i in order:
            if i in label:
                components.setdefault(label[i], []).append(group.encode(vals[i]))
        return tuple(map(tuple, components.values()))

    trials = 0
    frames = []
    var, x = next_free(), 0
    while var is not None:
        if trials >= max_trials:
            reason = f"branching exceeded the cap of {max_trials} trials"
            return Inconclusive(reason, free_components()), trials
        trials += 1
        frames.append((var, x, len(trail)))
        assign("branch", var, x, None)
        conflict = propagate(var)
        if conflict is None:
            var, x = next_free(), 0
            continue
        while frames and frames[-1][1] == 1:
            frames.pop()
        if not frames:
            verdict = NotSecretOnCarrier(conflict_trace(*conflict), len(constraints))
            return verdict, trials
        var, _, mark = frames.pop()
        for entry in trail[mark:]:
            value[entry[1]] = None
        del trail[mark:]
        x = 1

    d = {vals[var]: x for _, var, x, _ in trail}
    solution = CoboundarySolution(group, tuple(elems), d)
    return SecretWitness(solution, len(constraints)), trials


def assert_solvers_agree(c, carrier, max_trials=1 << 20):
    """The same verdict JSON, or the same InvalidOrderingError, and the same
    trial count: a cap one below it stops the counted solver short."""
    try:
        want, trials = rescan_detect_secret(c, carrier, max_trials)
    except InvalidOrderingError as exc:
        with pytest.raises(InvalidOrderingError, match=f"^{re.escape(str(exc))}$"):
            detect_secret(c, carrier, max_trials=max_trials)
        return
    assert detect_secret(c, carrier, max_trials=max_trials).to_dict() == want.to_dict()
    if trials:
        short = detect_secret(c, carrier, max_trials=trials - 1)
        assert isinstance(short, Inconclusive)
    if not isinstance(want, Inconclusive):
        assert detect_secret(c, carrier, max_trials=trials).to_dict() == want.to_dict()


caps = st.sampled_from([0, 1, 2, 3, 1 << 20])


class TestCountedMatchesRescan:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-8, 8), max_size=9, unique=True), caps)
    def test_integer_carriers(self, points, max_trials):
        c = secret_from_left(usual_integer_order(Z))
        assert_solvers_agree(c, [Z.element(v) for v in {0, *points}], max_trials)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), caps)
    def test_free_abelian_carriers(self, data, max_trials):
        ball_elems = list(ball(Z2.basis(), 3).elements)
        drawn = data.draw(st.lists(st.sampled_from(ball_elems), max_size=12, unique=True))
        c = secret_from_left(lex_free_abelian_order(Z2))
        assert_solvers_agree(c, [Z2.identity(), *drawn], max_trials)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(-6, 6)),
        st.lists(st.integers(-6, 6), max_size=8, unique=True),
        caps,
    )
    def test_corrupted_integer_cones(self, positives, points, max_trials):
        c = secret_from_left(LeftOrdering(Z, "corrupted", positives.__contains__))
        assert_solvers_agree(c, [Z.element(v) for v in {0, *points}], max_trials)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), caps)
    def test_corrupted_free_abelian_cones(self, data, max_trials):
        ball_elems = list(ball(Z2.basis(), 2).elements)
        positives = data.draw(st.sets(st.sampled_from([g.value for g in ball_elems])))
        drawn = data.draw(st.lists(st.sampled_from(ball_elems), max_size=10, unique=True))
        c = secret_from_left(LeftOrdering(Z2, "corrupted", positives.__contains__))
        assert_solvers_agree(c, [Z2.identity(), *drawn], max_trials)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_natural_cyclic(self, n):
        for k in natural_units(n):
            assert_solvers_agree(natural_circular_cyclic(n, k), CyclicGroup(n))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_lex_torsion_products(self, n):
        c = product_circular(usual_integer_order(Z), n)
        gens = [c.group.element((1, 0)), c.group.element((0, 1))]
        assert_solvers_agree(c, ball(gens, 4))

    @pytest.mark.parametrize("max_trials", [0, 1, 2, 3])
    def test_caps_that_end_inconclusive(self, max_trials):
        integers = secret_from_left(usual_integer_order(Z))
        lex = secret_from_left(lex_free_abelian_order(Z2))
        for c, carrier in (
            (integers, ball([Z.element(1)], 10)),
            (lex, ball(Z2.basis(), 3)),
        ):
            want, _ = rescan_detect_secret(c, carrier, max_trials)
            assert isinstance(want, Inconclusive)
            assert_solvers_agree(c, carrier, max_trials)


def corrupt_solution(monkeypatch):
    """Make `detect_secret` return a solution with d(1) flipped."""
    real = secret.CoboundarySolution

    def flipped(group, carrier, d):
        return real(group, carrier, {**d, 1: 1 - d[1]})

    monkeypatch.setattr(secret, "CoboundarySolution", flipped)


class TestSoundnessPass:
    def test_broken_assignment_raises(self, monkeypatch):
        corrupt_solution(monkeypatch)
        c = secret_from_left(usual_integer_order(Z))
        with pytest.raises(SolverInvariantError, match="^the solver's assignment"):
            detect_secret(c, ball([Z.element(1)], 3))

    def test_cli_exits_2(self, monkeypatch, capsys):
        corrupt_solution(monkeypatch)
        argv = ["detect-secret", "--group", "integers", "--ordering", "secret",
                "--radius", "3"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the solver's assignment breaks")
        assert len(err.splitlines()) == 1
