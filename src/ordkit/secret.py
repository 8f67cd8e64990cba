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
        """The elements with d = 0 other than the identity, each once, in
        carrier order."""
        return [
            g for g in dict.fromkeys(self.carrier)
            if self.d[g.value] == 0 and not g.is_identity
        ]


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


class SolverInvariantError(RuntimeError):
    """The search's assignment breaks a carrier constraint: a solver defect,
    not a verdict about the ordering."""


_MAX_TRIALS = 1 << 20


def detect_secret(
    c: CircularOrdering, carrier: Ball | Group | Iterable[Element]
) -> SecretWitness | NotSecretOnCarrier | Inconclusive:
    """Solve the coboundary equations for c over the carrier.

    Every pair with g, h and gh inside the carrier gives the constraint
    d(g) + d(h) - d(gh) = f_c(g,h), f_c read by rows of `Cocycle.on_carrier`.
    A pair with an identity argument says d(id) = f_c = 0, which the seed
    d(id) = 0 meets: it is counted and re-checked by the closing pass but
    never searched.  Every other constraint has three distinct terms except
    the diagonal (g, g, g²), the one with a coefficient of 2.  Seeds
    d(id) = 0 and propagates: a visit to a constraint reads its terms'
    values from the assignment, passes over one with two or more free
    terms, checks one with none against f, and derives the free term of
    one with exactly one.  The remaining free values are searched
    depth-first (smallest canonical form first, value 0 before 1) with
    chronological backtracking on one trail of assignments.  Visit order,
    verdicts and traces are those of the rescan reference solver of
    tests/test_secret_solver.py; beside the per-element assignment and
    trail, the memory is the constraints and their watch lists only.
    Deterministic, including the contradiction trace; the trace of a failed
    search shows the last falsified branch after all alternatives were
    exhausted.
    """
    elems, group = as_carrier(carrier), c.group
    # the variables are carrier indices; vals[i] is the canonical form of i
    points, vals, index, ids = intern_carrier(elems)
    row = Cocycle(c).on_carrier(points)

    # constraint (g, h, gh, f) over indices; watch[v] lists those with v a
    # term.  An identity pair, (e, h, h) or (g, e, g), says d(e) = f = 0 and
    # is watched by nothing; every other has three distinct terms except the
    # diagonal (g, g, g²)
    constraints: list[tuple[int, int, int, int]] = []
    watch: list[list[int]] = [[] for _ in vals]
    op, find, ci = group._op_values, index.get, -1
    e = index[group._identity_value()]
    for gi in ids:
        g = vals[gi]
        ks = [find(op(g, h)) for h in vals]
        fs = row(gi, ks)
        for hi in ids:
            ghi = ks[hi]
            if ghi is None:
                continue
            ci += 1
            constraints.append((gi, hi, ghi, fs[hi]))
            if gi != e and hi != e:
                watch[gi].append(ci)
                if hi != gi:
                    watch[hi].append(ci)
                watch[ghi].append(ci)

    # trail entries (kind, var, value, constraint); origin[var] is the trail
    # position of var's entry while value[var] is not None
    trail: list[tuple[str, int, int, int | None]] = []
    value: list[int | None] = [None] * len(vals)
    origin = [0] * len(vals)

    def assign(kind: str, var: int, x: int, ci: int | None) -> None:
        value[var] = x
        origin[var] = len(trail)
        trail.append((kind, var, x, ci))

    def undo(mark: int) -> None:
        for _, var, _, _ in trail[mark:]:
            value[var] = None
        del trail[mark:]

    def propagate(var: int) -> tuple[int, str] | None:
        """Derive forced values from var on; the first violated constraint.
        Visits the constraints var watches, then those each derived variable
        watches, first in first out."""
        batches = [watch[var]]
        for batch in batches:
            for ci in batch:
                # most visits find all three terms assigned and only check f;
                # otherwise the free variables are counted, the diagonal's g
                # once, and the one free term of a constraint is derived
                g, h, gh, rhs = constraints[ci]
                a, b, ab = value[g], value[h], value[gh]
                if a is not None and b is not None and ab is not None:
                    if a + b - ab != rhs:
                        return ci, f"constraint evaluates to {a + b - ab}, needs {rhs}"
                    continue
                if (a is None) + (b is None and h != g) + (ab is None) > 1:
                    continue
                num = rhs - (a or 0) - (b or 0) + (ab or 0)
                if a is None:
                    v, k = g, 1 + (h == g)
                elif b is None:
                    v, k = h, 1
                else:
                    v, k = gh, -1
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

    assign("seed", e, 0, None)
    conflict = propagate(e)
    if conflict is not None:
        return NotSecretOnCarrier(conflict_trace(*conflict), len(constraints))

    order = range(len(vals))  # intern_carrier keeps as_carrier's canonical order

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
        if trials >= _MAX_TRIALS:
            reason = f"branching exceeded the cap of {_MAX_TRIALS} trials"
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


def cone_from_solution(solution: CoboundarySolution) -> LeftOrdering:
    """Positive-cone oracle of a witness, restricted to its carrier."""
    return restricted_cone(solution.group, solution.cone_elements(), solution.carrier)
