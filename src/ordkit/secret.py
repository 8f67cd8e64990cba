"""Detect whether a circular ordering is consistent with a secret left order.

On a finite carrier, c is (locally) a secret left ordering exactly when the
cocycle equation d(g) - d(gh) + d(h) = f_c(g,h) admits a {0,1}-valued
solution d with d(id) = 0; the solution's zero set minus the identity is
the recovered positive cone.  Verdicts are explicitly local: a witness on a
ball says nothing about the whole group, and the verdict names say so.
"""

from __future__ import annotations

from typing import Iterable

from .groups import Ball, Element, Group, Record
from .lift import Cocycle
from .orders import (
    CircularOrdering,
    LeftOrdering,
    as_carrier,
    intern_carrier,
    restricted_cone,
)


class CoboundarySolution(Record):
    """A full {0,1} assignment satisfying every carrier constraint: `d` maps
    the canonical form of each element of `carrier` to 0 or 1."""

    __slots__ = ("group", "carrier", "d")

    def cone_elements(self) -> list[Element]:
        return [g for g in self.carrier if self.d[g.value] == 0 and not g.is_identity]


class SecretWitness(Record):
    __slots__ = ("solution", "checked_constraints")

    status = "secret-on-carrier"

    def to_dict(self) -> dict:
        return {
            "verdict": "SecretWitness",
            "scope": "on carrier only; says nothing beyond it",
            "checked_constraints": self.checked_constraints,
            "cone": [g.encode() for g in self.solution.cone_elements()],
        }


class NotSecretOnCarrier(Record):
    __slots__ = ("trace", "checked_constraints")

    status = "not-secret-on-carrier"

    def to_dict(self) -> dict:
        return {
            "verdict": "NotSecretOnCarrier",
            "scope": "contradiction within the carrier",
            "checked_constraints": self.checked_constraints,
            "contradiction_trace": list(self.trace),
        }


class Inconclusive(Record):
    __slots__ = ("reason", "components")
    _defaults = ((),)

    status = "inconclusive"

    def to_dict(self) -> dict:
        return {
            "verdict": "Inconclusive",
            "reason": self.reason,
            "unconstrained_components": [list(c) for c in self.components],
        }


DetectionVerdict = SecretWitness | NotSecretOnCarrier | Inconclusive


class SolverInvariantError(RuntimeError):
    """The search's assignment breaks a carrier constraint: a solver defect,
    not a verdict about the ordering."""


def detect_secret(
    c: CircularOrdering,
    carrier: Ball | Group | Iterable[Element],
    *,
    max_trials: int = 1 << 20,
) -> DetectionVerdict:
    """Solve the coboundary equations for c over the carrier.

    Every pair with g, h and gh inside the carrier gives the constraint
    d(g) + d(h) - d(gh) = f_c(g,h), with f_c from `Cocycle.on_carrier`; for
    a secret ordering that reads two cone bits per carrier element.  Seeds
    d(id) = 0 and propagates: each constraint keeps the number of its
    unassigned terms and the sum of its assigned ones, so a visit to one
    with two or more unknowns costs O(1), one with none compares its sum
    with f, and only one with a single unknown reads its terms.  The
    remaining free values are searched depth-first (smallest canonical form
    first, value 0 before 1) with chronological backtracking on one trail of
    assignments, along which the counts are restored.  Deterministic,
    including the contradiction trace; the trace of a failed search shows
    the last falsified branch after all alternatives were exhausted.
    """
    elems, group = as_carrier(carrier), c.group
    # the variables are carrier indices; vals[i] is the canonical form of i
    points, vals, index, ids = intern_carrier(elems)
    f = Cocycle(c).on_carrier(points)

    # constraint (g, h, gh, f) over indices; its terms are the indices of
    # nonzero coefficient, each watching it, and unknown[ci] counts those
    # still unassigned; g, h and gh are distinct unless g = h or one of
    # them is the identity
    constraints: list[tuple[int, int, int, int]] = []
    watch: list[list[int]] = [[] for _ in vals]
    unknown: list[int] = []
    op, find, row = group._op_values, index.get, [(hi, vals[hi]) for hi in ids]
    watch_add = [w.append for w in watch]
    for gi in ids:
        g = vals[gi]
        for hi, h in row:
            ghi = find(op(g, h))
            if ghi is None:
                continue
            ci, constraint = len(constraints), (gi, hi, ghi, f(gi, hi, ghi))
            if gi != hi and gi != ghi and hi != ghi:
                watch_add[gi](ci)
                watch_add[hi](ci)
                watch_add[ghi](ci)
                unknown.append(3)
            else:
                terms = [v for v in {gi, hi, ghi} if _coefficient(v, constraint)]
                for v in terms:
                    watch_add[v](ci)
                unknown.append(len(terms))
            constraints.append(constraint)
    # known[ci] sums the assigned terms of constraint ci
    known = [0] * len(constraints)

    # trail entries (kind, var, value, constraint); origin[var] is the trail
    # position of var's entry while value[var] is not None
    trail: list[tuple[str, int, int, int | None]] = []
    value: list[int | None] = [None] * len(vals)
    origin = [0] * len(vals)

    def count(var: int, x: int, sign: int) -> None:
        """Count var = x into (sign 1) or out of (sign -1) the unknowns and
        known sums of the constraints var watches."""
        for ci in watch[var]:
            unknown[ci] -= sign
        if x:
            # _coefficient, inlined: this loop runs once per watch entry
            for ci in watch[var]:
                g, h, gh, _ = constraints[ci]
                known[ci] += sign * ((var == g) + (var == h) - (var == gh))

    def assign(kind: str, var: int, x: int, ci: int | None) -> None:
        value[var] = x
        origin[var] = len(trail)
        trail.append((kind, var, x, ci))
        count(var, x, 1)

    def undo(mark: int) -> None:
        for _, var, x, _ in trail[mark:]:
            value[var] = None
            count(var, x, -1)
        del trail[mark:]

    def propagate(var: int) -> tuple[int, str] | None:
        """Derive forced values from var on; the first violated constraint.
        Visits the constraints var watches, then those each derived variable
        watches, first in first out."""
        batches = [watch[var]]
        for batch in batches:
            for ci in batch:
                left = unknown[ci]
                if left > 1:
                    continue
                constraint = constraints[ci]
                rhs = constraint[3]
                num = rhs - known[ci]
                if not left:
                    if num:
                        return ci, f"constraint evaluates to {known[ci]}, needs {rhs}"
                    continue
                v = next(
                    v for v in constraint[:3]
                    if value[v] is None and _coefficient(v, constraint)
                )
                k = _coefficient(v, constraint)
                if num % k == 0 and num // k in (0, 1):
                    assign("derive", v, num // k, ci)
                    batches.append(watch[v])
                    continue
                name = group.format_value(vals[v])
                if num % k:
                    return ci, f"d({name}) = {num}/{k} is not integral"
                return ci, f"derived d({name}) = {num // k} outside {{0,1}}"
        return None

    def constraint_dict(ci: int) -> dict:
        g, h, gh, rhs = constraints[ci]
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
        undo(mark)
        x = 1

    # soundness: the returned d must satisfy every carrier constraint exactly
    solution = CoboundarySolution(
        group, tuple(elems), {vals[var]: x for _, var, x, _ in trail}
    )
    d = [solution.d[v] for v in vals]
    for g, h, gh, rhs in constraints:
        if d[g] + d[h] - d[gh] != rhs:
            raise SolverInvariantError(
                f"the solver's assignment breaks d(g) + d(h) - d(gh) = {rhs} at "
                f"g = {group.format_value(vals[g])}, h = {group.format_value(vals[h])}"
            )
    return SecretWitness(solution, len(constraints))


def _coefficient(var: int, constraint: tuple[int, int, int, int]) -> int:
    """The coefficient of d(var) in the constraint d(g) + d(h) - d(gh) = f."""
    g, h, gh, _ = constraint
    return (var == g) + (var == h) - (var == gh)


def cone_from_solution(solution: CoboundarySolution) -> LeftOrdering:
    """Positive-cone oracle of a witness, restricted to its carrier."""
    return restricted_cone(solution.group, solution.cone_elements(), solution.carrier)
