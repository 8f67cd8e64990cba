"""Detect whether a circular ordering is consistent with a secret left order.

On a finite carrier, c is (locally) a secret left ordering exactly when the
cocycle equation d(g) - d(gh) + d(h) = f_c(g,h) admits a {0,1}-valued
solution d with d(id) = 0; the solution's zero set minus the identity is
the recovered positive cone.  Verdicts are explicitly local: a witness on a
ball says nothing about the whole group, and the verdict names say so.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from .groups import Ball, Element, Group
from .lift import Cocycle
from .orders import (
    CircularOrdering,
    LeftOrdering,
    as_carrier,
    restricted_cone,
)


@dataclass(frozen=True)
class CoboundarySolution:
    """A full {0,1} assignment satisfying every carrier constraint."""

    group: Group
    carrier: tuple[Element, ...]
    d: dict[Any, int]

    def cone_elements(self) -> list[Element]:
        ident = self.group.identity()
        return [
            g
            for g in self.carrier
            if self.d[g.value] == 0 and g.value != ident.value
        ]


@dataclass(frozen=True)
class SecretWitness:
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


@dataclass(frozen=True)
class NotSecretOnCarrier:
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


@dataclass(frozen=True)
class Inconclusive:
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


@dataclass
class _Constraint:
    index: int
    g: Any
    h: Any
    gh: Any
    rhs: int
    coeffs: dict[Any, int]


class _Conflict(Exception):
    def __init__(self, constraint: _Constraint, detail: str):
        self.constraint = constraint
        self.detail = detail


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
    1) with chronological backtracking.  Deterministic, including the
    contradiction trace; the trace of a failed search shows the last
    falsified branch after all alternatives were exhausted.
    """
    elems = as_carrier(carrier)
    group = c.group
    ident = group.identity()
    values = {g.value for g in elems}
    if ident.value not in values:
        raise ValueError("carrier must contain the identity")
    f = Cocycle(c)
    by_value = {g.value: g for g in elems}

    constraints: list[_Constraint] = []
    by_var: dict[Any, list[int]] = {v: [] for v in values}
    for g in elems:
        for h in elems:
            gh = g * h
            if gh.value not in values:
                continue
            coeffs: dict[Any, int] = {}
            for var, coeff in ((g.value, 1), (h.value, 1), (gh.value, -1)):
                coeffs[var] = coeffs.get(var, 0) + coeff
            coeffs = {v: k for v, k in coeffs.items() if k != 0}
            con = _Constraint(
                len(constraints), g.value, h.value, gh.value, f(g, h), coeffs
            )
            constraints.append(con)
            for var in coeffs:
                by_var[var].append(con.index)

    assignment: dict[Any, int] = {}
    origin: dict[Any, int] = {}
    steps: list[dict] = []

    def encode(v: Any) -> Any:
        return group.encode(v)

    def record(kind: str, var: Any, value: int, con: _Constraint | None) -> int:
        entry: dict[str, Any] = {
            "step": len(steps),
            "kind": kind,
            "element": encode(var),
            "value": value,
        }
        if con is not None:
            entry["constraint"] = {
                "g": encode(con.g),
                "h": encode(con.h),
                "gh": encode(con.gh),
                "f": con.rhs,
            }
        steps.append(entry)
        return len(steps) - 1

    def assign(var: Any, value: int, kind: str, con: _Constraint | None) -> None:
        assignment[var] = value
        origin[var] = record(kind, var, value, con)

    def propagate(queue: deque[int]) -> None:
        while queue:
            con = constraints[queue.popleft()]
            unknown = [
                (var, k) for var, k in con.coeffs.items() if var not in assignment
            ]
            known = sum(
                k * assignment[var]
                for var, k in con.coeffs.items()
                if var in assignment
            )
            if not unknown:
                if known != con.rhs:
                    raise _Conflict(
                        con, f"constraint evaluates to {known}, needs {con.rhs}"
                    )
                continue
            if len(unknown) > 1:
                continue
            var, k = unknown[0]
            num = con.rhs - known
            if num % k != 0:
                raise _Conflict(
                    con, f"d({group.format_value(var)}) = {num}/{k} is not integral"
                )
            value = num // k
            if value not in (0, 1):
                raise _Conflict(
                    con,
                    f"derived d({group.format_value(var)}) = {value} outside {{0,1}}",
                )
            assign(var, value, "derive", con)
            for ci in by_var[var]:
                queue.append(ci)

    def conflict_trace(conflict: _Conflict) -> tuple[dict, ...]:
        con = conflict.constraint
        chain: list[int] = []
        seen: set[int] = set()
        stack = [v for v in (con.g, con.h, con.gh) if v in origin]
        while stack:
            var = stack.pop()
            idx = origin[var]
            if idx in seen:
                continue
            seen.add(idx)
            chain.append(idx)
            entry = steps[idx]
            if "constraint" in entry:
                raw = entry["constraint"]
                for enc in (raw["g"], raw["h"], raw["gh"]):
                    val = group.decode(enc)
                    if val in origin and origin[val] not in seen:
                        stack.append(val)
        chain.sort()
        trace = [steps[i] for i in chain]
        trace.append(
            {
                "step": len(steps),
                "kind": "conflict",
                "detail": conflict.detail,
                "constraint": {
                    "g": encode(con.g),
                    "h": encode(con.h),
                    "gh": encode(con.gh),
                    "f": con.rhs,
                },
            }
        )
        return tuple(trace)

    try:
        assign(ident.value, 0, "seed", None)
        queue = deque(by_var[ident.value])
        propagate(queue)
    except _Conflict as conflict:
        return NotSecretOnCarrier(conflict_trace(conflict), len(constraints))

    sorted_vars = sorted(values, key=group.sort_key)

    def next_unassigned() -> Any | None:
        for v in sorted_vars:
            if v not in assignment:
                return v
        return None

    # depth-first search over the leftover variables: smallest canonical form
    # first, value 0 before 1, chronological backtracking, capped trials
    trials = 0
    frames: list[tuple[Any, list[int], dict, dict, int]] = []
    var = next_unassigned()
    pending_value: int | None = 0 if var is not None else None
    while var is not None:
        if trials >= max_trials:
            free = tuple(encode(v) for v in sorted_vars if v not in assignment)
            return Inconclusive(
                f"branching exceeded the cap of {max_trials} trials",
                (free,),
            )
        trials += 1
        saved = (dict(assignment), dict(origin), len(steps))
        try:
            assign(var, pending_value, "branch", None)
            propagate(deque(by_var[var]))
        except _Conflict as conflict:
            trace = conflict_trace(conflict)
            assignment.clear()
            assignment.update(saved[0])
            origin.clear()
            origin.update(saved[1])
            del steps[saved[2]:]
            if pending_value == 0:
                pending_value = 1
                continue
            # both values failed: unwind to the deepest frame with value 0
            while frames:
                fvar, fvalue, fassign, forigin, fsteps = frames.pop()
                assignment.clear()
                assignment.update(fassign)
                origin.clear()
                origin.update(forigin)
                del steps[fsteps:]
                if fvalue == 0:
                    var, pending_value = fvar, 1
                    break
            else:
                return NotSecretOnCarrier(trace, len(constraints))
            continue
        frames.append((var, pending_value, *saved))
        var = next_unassigned()
        pending_value = 0

    # soundness: every carrier constraint must hold exactly
    for con in constraints:
        total = sum(k * assignment[var] for var, k in con.coeffs.items())
        if total != con.rhs:
            raise AssertionError(
                f"solver produced an inconsistent assignment at {con}"
            )

    solution = CoboundarySolution(group, tuple(elems), dict(assignment))
    return SecretWitness(solution, len(constraints))


def cone_from_solution(solution: CoboundarySolution) -> LeftOrdering:
    """Positive-cone oracle of a witness, restricted to its carrier."""
    return restricted_cone(
        solution.group, solution.cone_elements(), solution.carrier
    )
