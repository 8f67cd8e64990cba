"""Detect whether a circular ordering is consistent with a secret left order.

On a finite carrier, c is (locally) a secret left ordering exactly when the
cocycle equation d(g) - d(gh) + d(h) = f_c(g,h) admits a {0,1}-valued
solution d with d(id) = 0; the solution's zero set minus the identity is
the recovered positive cone.  Verdicts are explicitly local: a witness on a
ball says nothing about the whole group, and the verdict names say so.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, NamedTuple

from .groups import Ball, Element, Group
from .lift import Cocycle
from .orders import (
    CircularOrdering,
    LeftOrdering,
    as_carrier,
    intern_carrier,
    restricted_cone,
)


class CoboundarySolution(NamedTuple):
    """A full {0,1} assignment satisfying every carrier constraint."""

    group: Group
    carrier: tuple[Element, ...]
    d: dict[Any, int]

    def cone_elements(self) -> list[Element]:
        return [g for g in self.carrier if self.d[g.value] == 0 and not g.is_identity]


class SecretWitness(NamedTuple):
    solution: CoboundarySolution
    checked_constraints: int

    status = "secret-on-carrier"

    def to_dict(self) -> dict:
        return {
            "verdict": "SecretWitness",
            "scope": "on carrier only; says nothing beyond it",
            "checked_constraints": self.checked_constraints,
            "cone": [g.encode() for g in self.solution.cone_elements()],
        }


class NotSecretOnCarrier(NamedTuple):
    trace: tuple[dict, ...]
    checked_constraints: int

    status = "not-secret-on-carrier"

    def to_dict(self) -> dict:
        return {
            "verdict": "NotSecretOnCarrier",
            "scope": "contradiction within the carrier",
            "checked_constraints": self.checked_constraints,
            "contradiction_trace": list(self.trace),
        }


class Inconclusive(NamedTuple):
    reason: str
    components: tuple[tuple, ...] = ()

    status = "inconclusive"

    def to_dict(self) -> dict:
        return {
            "verdict": "Inconclusive",
            "reason": self.reason,
            "unconstrained_components": [list(c) for c in self.components],
        }


DetectionVerdict = SecretWitness | NotSecretOnCarrier | Inconclusive


def detect_secret(
    c: CircularOrdering,
    carrier: Ball | Group | Iterable[Element],
    *,
    max_trials: int = 1 << 20,
) -> DetectionVerdict:
    """Solve the coboundary equations for c over the carrier.

    Seeds d(id) = 0, propagates d(gh) = d(g) + d(h) - f_c(g,h) across every
    pair with g, h and gh inside the carrier, then searches the remaining
    free values depth-first (smallest canonical form first, value 0 before
    1) with chronological backtracking on one trail of assignments.
    Deterministic, including the contradiction trace; the trace of a failed
    search shows the last falsified branch after all alternatives were
    exhausted.
    """
    elems, group = as_carrier(carrier), c.group
    # the variables are carrier indices; vals[i] is the canonical form of i
    points, vals, index, ids = intern_carrier(elems)
    f = Cocycle(c).on_carrier(points)

    # constraint (g, h, gh, f, terms) over indices: the nonzero coefficients
    # of d(g) + d(h) - d(gh) = f, watched by each index they mention; terms
    # of three distinct indices share their (index, coefficient) pairs
    constraints: list[tuple[int, int, int, int, tuple]] = []
    watch: list[list[int]] = [[] for _ in vals]
    pairs = [((i, 1), (i, -1)) for i in range(len(vals))]
    for gi in ids:
        g = vals[gi]
        for hi in ids:
            ghi = index.get(group._op_values(g, vals[hi]))
            if ghi is None:
                continue
            terms: tuple = (pairs[gi][0], pairs[hi][0], pairs[ghi][1])
            if gi == hi or gi == ghi or hi == ghi:
                coeffs: dict[int, int] = {}
                for var, k in terms:
                    coeffs[var] = coeffs.get(var, 0) + k
                terms = tuple((var, k) for var, k in coeffs.items() if k)
            for var, _ in terms:
                watch[var].append(len(constraints))
            constraints.append((gi, hi, ghi, f(gi, hi, ghi), terms))

    # trail entries (kind, var, value, constraint); origin[var] is the trail
    # position of var's entry while value[var] is not None
    trail: list[tuple[str, int, int, int | None]] = []
    value: list[int | None] = [None] * len(vals)
    origin = [0] * len(vals)

    def assign(kind: str, var: int, x: int, ci: int | None) -> None:
        value[var] = x
        origin[var] = len(trail)
        trail.append((kind, var, x, ci))

    def propagate(var: int) -> tuple[int, str] | None:
        """Derive forced values from var on; the first violated constraint."""
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

    def constraint_dict(ci: int) -> dict:
        g, h, gh, rhs, _ = constraints[ci]
        return {
            "g": group.encode(vals[g]),
            "h": group.encode(vals[h]),
            "gh": group.encode(vals[gh]),
            "f": rhs,
        }

    def conflict_trace(ci: int, detail: str) -> tuple[dict, ...]:
        # the trail positions the violated constraint depends on, transitively
        chain: set[int] = set()
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
            entry = {
                "step": pos,
                "kind": kind,
                "element": group.encode(vals[var]),
                "value": x,
            }
            if cause is not None:
                entry["constraint"] = constraint_dict(cause)
            trace.append(entry)
        conflict = {"step": len(trail), "kind": "conflict", "detail": detail}
        return (*trace, {**conflict, "constraint": constraint_dict(ci)})

    assign("seed", index[group._identity_value()], 0, None)
    conflict = propagate(index[group._identity_value()])
    if conflict is not None:
        return NotSecretOnCarrier(conflict_trace(*conflict), len(constraints))

    order = sorted(range(len(vals)), key=lambda i: group.sort_key(vals[i]))

    def next_free() -> int | None:
        return next((i for i in order if value[i] is None), None)

    def free_components() -> tuple[tuple, ...]:
        """Unassigned variables linked by shared constraints, each component
        in canonical order and labelled by its first element."""
        label: dict[int, int] = {}
        for start in (i for i in order if value[i] is None and i not in label):
            label[start], stack = start, [start]
            while stack:
                for ci in watch[stack.pop()]:
                    for v in constraints[ci][:3]:
                        if value[v] is None and v not in label:
                            label[v] = start
                            stack.append(v)
        components: dict[int, list] = {}
        for i in order:
            if i in label:
                components.setdefault(label[i], []).append(group.encode(vals[i]))
        return tuple(map(tuple, components.values()))

    # depth-first search over the leftover variables: smallest canonical form
    # first, value 0 before 1, capped trials; a frame (var, value, mark) is a
    # branch taken when the trail had length mark
    trials = 0
    frames: list[tuple[int, int, int]] = []
    var, x = next_free(), 0
    while var is not None:
        if trials >= max_trials:
            reason = f"branching exceeded the cap of {max_trials} trials"
            return Inconclusive(reason, free_components())
        trials += 1
        frames.append((var, x, len(trail)))
        assign("branch", var, x, None)
        conflict = propagate(var)
        if conflict is None:
            var, x = next_free(), 0
            continue
        # retry the deepest branch still at value 0 with value 1
        while frames and frames[-1][1] == 1:
            frames.pop()
        if not frames:
            return NotSecretOnCarrier(conflict_trace(*conflict), len(constraints))
        var, _, mark = frames.pop()
        for entry in trail[mark:]:
            value[entry[1]] = None
        del trail[mark:]
        x = 1

    # soundness: every carrier constraint must hold exactly
    for g, h, gh, rhs, _ in constraints:
        if value[g] + value[h] - value[gh] != rhs:
            raise AssertionError(f"inconsistent assignment at {vals[g]!r}, {vals[h]!r}")

    d = {vals[var]: x for _, var, x, _ in trail}
    return SecretWitness(CoboundarySolution(group, tuple(elems), d), len(constraints))


def cone_from_solution(solution: CoboundarySolution) -> LeftOrdering:
    """Positive-cone oracle of a witness, restricted to its carrier."""
    return restricted_cone(solution.group, solution.cone_elements(), solution.carrier)
