"""Command-line surface: validation, lifting, detection, spectra, enumeration.

Exit codes: 0 when every mathematical check in the run passes, 1 when a
check fails and the report carries the witness, 2 for usage or resource
errors.  JSON is the canonical output format (sorted keys, two-space
indent); the table format is a flat rendering of the same dictionary, so
identical configurations produce byte-identical output either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .groups import (
    Ball,
    CyclicGroup,
    DirectProductGroup,
    Element,
    FreeAbelianGroup,
    Group,
    IntegerGroup,
    PromislowGroup,
    ResourceCapError,
    ball,
    get_group,
    parse_presentation,
)
from .lift import InvalidOrderingError, lift_check_report
from .obstruction import (
    SpectrumReport,
    brute_force_circular_orders,
    left_orderable_spectrum,
    obstruction_finite,
    presentation_spectrum,
    promislow_circular,
    promislow_spectrum,
    promislow_worked_example,
)
from .orders import (
    CircularOrdering,
    LeftOrdering,
    OrderingTable,
    lex_free_abelian_order,
    natural_circular_cyclic,
    product_circular,
    secret_from_left,
    trivial_order,
    usual_integer_order,
    validate_bi_invariance,
    validate_circular,
)
from .secret import SolverInvariantError, detect_secret
from .witness import WitnessAmbientGroup, verify_witness_claims

SCHEMA = 1


class UsageError(ValueError):
    """Bad descriptors, files or parameter combinations (exit code 2)."""


# -- descriptor resolution ------------------------------------------------------


def resolve_group(descriptor: str) -> Group:
    try:
        return get_group(descriptor)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def builtin_generators(group: Group) -> list[Element]:
    if isinstance(group, CyclicGroup):
        return [group.element(1 % group.n)] if group.n > 1 else [group.identity()]
    if isinstance(group, IntegerGroup):
        return [group.element(1)]
    if isinstance(group, FreeAbelianGroup):
        return group.basis() or [group.identity()]
    if isinstance(group, PromislowGroup):
        return [group.gen_a(), group.gen_b()]
    if isinstance(group, DirectProductGroup):
        left = builtin_generators(group.left)
        right = builtin_generators(group.right)
        lid, rid = group.left.identity(), group.right.identity()
        return [group.pair(g, rid) for g in left] + [
            group.pair(lid, h) for h in right
        ]
    if isinstance(group, WitnessAmbientGroup):
        return [group.x_gen(0), group.y_gen(0), group.z_gen()]
    raise UsageError(f"no builtin generators for {group.descriptor}")


def builtin_left_order(group: Group) -> LeftOrdering:
    if isinstance(group, IntegerGroup):
        return usual_integer_order(group)
    if isinstance(group, FreeAbelianGroup) and group.rank > 0:
        return lex_free_abelian_order(group)
    if group.is_finite and group.order == 1:
        return trivial_order(group)
    raise UsageError(
        f"{group.descriptor} has no builtin left ordering "
        "(only integers, free-abelian:k and the trivial group do)"
    )


def resolve_ordering(group: Group, descriptor: str) -> CircularOrdering:
    """Ordering descriptors: natural[:k], secret, lex, table:<file>."""
    if descriptor.startswith("natural"):
        if not isinstance(group, CyclicGroup):
            raise UsageError("natural orderings live on cyclic groups")
        try:
            unit = int(descriptor.split(":", 1)[1]) if ":" in descriptor else 1
            return natural_circular_cyclic(group.n, unit).on(group)
        except ValueError as exc:
            raise UsageError(f"bad ordering {descriptor!r}: {exc}") from exc
    if descriptor == "secret":
        return secret_from_left(builtin_left_order(group))
    if descriptor == "lex":
        if isinstance(group, PromislowGroup):
            return promislow_circular()
        if isinstance(group, DirectProductGroup) and isinstance(
            group.right, CyclicGroup
        ):
            lo = builtin_left_order(group.left)
            try:
                ordering = product_circular(lo, group.right.n)
            except ValueError as exc:
                raise UsageError(f"bad ordering {descriptor!r}: {exc}") from exc
            if ordering.group != group:
                raise UsageError(
                    f"lex ordering lives on {ordering.group.descriptor}, "
                    f"not {group.descriptor}"
                )
            return ordering.on(group)
        raise UsageError(
            "lex orderings exist for promislow and product:<G>,cyclic:<n> groups"
        )
    if descriptor.startswith("table:"):
        path = Path(descriptor[len("table:"):])
        try:
            obj = json.loads(path.read_text())
            table = OrderingTable.from_json_dict(obj)
        except (OSError, ValueError, KeyError) as exc:
            raise UsageError(f"cannot load ordering table {path}: {exc}") from exc
        if table.group != group:
            raise UsageError(
                f"table is for {table.group.descriptor}, not {group.descriptor}"
            )
        return table.ordering()
    raise UsageError(f"unknown ordering descriptor: {descriptor!r}")


def resolve_carrier(group: Group, radius: int) -> Ball | Group:
    if group.is_finite:
        return group
    return ball(builtin_generators(group), radius)


# -- output -----------------------------------------------------------------------


def render_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _flatten(obj: Any, prefix: str, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), lines)
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            body = ", ".join(str(x) for x in obj)
            lines.append(f"{prefix} = [{body}]")
        else:
            for i, x in enumerate(obj):
                _flatten(x, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix} = {obj}")


def render_table(obj: dict) -> str:
    lines: list[str] = []
    _flatten(obj, "", lines)
    return "\n".join(lines) + "\n"


def emit(obj: dict, fmt: str, output: str | None) -> None:
    text = render_json(obj) if fmt == "json" else render_table(obj)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    ordering = resolve_ordering(group, args.ordering)
    carrier = resolve_carrier(group, args.radius)
    if args.bi:
        report = validate_bi_invariance(ordering, carrier)
    else:
        report = validate_circular(ordering, carrier)
    payload = {
        "schema": SCHEMA,
        "command": "validate",
        "group": group.descriptor,
        "ordering": args.ordering,
        "bi_invariance": bool(args.bi),
        "carrier_size": len(list(carrier.elements)) if isinstance(carrier, Ball)
        else group.order,
        "report": report.to_dict(),
    }
    return payload, report.passed


def cmd_lift_check(args: argparse.Namespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    ordering = resolve_ordering(group, args.ordering)
    carrier = resolve_carrier(group, args.radius)
    report = lift_check_report(ordering, carrier, degree_bound=args.degree_bound)
    payload = {
        "schema": SCHEMA,
        "command": "lift-check",
        "group": group.descriptor,
        "ordering": args.ordering,
        "report": report,
    }
    return payload, report["status"] == "pass"


def cmd_detect_secret(args: argparse.Namespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    ordering = resolve_ordering(group, args.ordering)
    carrier = resolve_carrier(group, args.radius)
    verdict = detect_secret(ordering, carrier)
    payload = {
        "schema": SCHEMA,
        "command": "detect-secret",
        "group": group.descriptor,
        "ordering": args.ordering,
        "radius": args.radius if not group.is_finite else None,
        "verdict": verdict.to_dict(),
    }
    return payload, verdict.status == "secret-on-carrier"


def _witness_recorded_spectrum(p: int, cap: int) -> SpectrumReport:
    certificate = {
        "kind": "recorded-conclusion",
        "note": "spectrum of the witness subgroup is the multiples of p by "
        "construction; run the witness subcommand for the desk-scale checks",
    }
    obstructed = {n: dict(certificate) for n in range(2, cap + 1) if n % p == 0}
    unobstructed = {
        n: dict(certificate) for n in range(2, cap + 1) if n % p != 0
    }
    return SpectrumReport(
        f"witness:{p}",
        cap,
        obstructed,
        unobstructed,
        notes=("recorded conclusion, not a computation",),
    )


def cmd_spectrum(args: argparse.Namespace) -> tuple[dict, bool]:
    desc: str = args.group
    if desc == "promislow":
        report = promislow_spectrum(args.cap, radius=args.radius)
    elif desc.startswith("presentation:"):
        path = Path(desc[len("presentation:"):])
        try:
            presentation = parse_presentation(path.read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read presentation {path}: {exc}") from exc
        report = presentation_spectrum(presentation, args.cap)
    elif desc.startswith("witness:"):
        group = resolve_group(desc)
        if not group.standard:
            raise UsageError(
                f"{group.descriptor}: the recorded witness spectrum holds only "
                "for the standard construction"
            )
        report = _witness_recorded_spectrum(group.p, args.cap)
    else:
        group = resolve_group(desc)
        if group.is_finite:
            report = obstruction_finite(group, args.cap)
        else:
            lo = builtin_left_order(group)
            carrier = ball(builtin_generators(group), args.radius)
            report = left_orderable_spectrum(lo, args.cap, carrier)
    payload = {
        "schema": SCHEMA,
        "command": "spectrum",
        "report": report.to_dict(),
    }
    return payload, True


def cmd_enumerate(args: argparse.Namespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    if not group.is_finite:
        raise UsageError(f"enumerate needs a finite group, got {group.descriptor}")
    try:
        tables = brute_force_circular_orders(group, cap=args.cap)
    except ResourceCapError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "schema": SCHEMA,
        "command": "enumerate",
        "group": group.descriptor,
        "order": group.order,
        "count": len(tables),
        "orderings": [
            [g.encode() for g in table.carrier] for table in tables
        ],
    }
    return payload, True


def cmd_promislow(args: argparse.Namespace) -> tuple[dict, bool]:
    worked = promislow_worked_example(radius=args.radius)
    spectrum = promislow_spectrum(args.cap, radius=min(args.radius, 3))
    payload = {
        "schema": SCHEMA,
        "command": "promislow",
        "worked_example": worked,
        "spectrum": spectrum.to_dict(),
    }
    ok = worked["status"] == "pass" and spectrum.fully_determined
    return payload, ok


def cmd_witness(args: argparse.Namespace) -> tuple[dict, bool]:
    try:
        report = verify_witness_claims(args.p, budget=args.budget, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "schema": SCHEMA,
        "command": "witness",
        "report": report,
    }
    return payload, report["status"] == "pass"


# -- entry point --------------------------------------------------------------------


def at_least(low: int, what: str) -> Callable[[str], int]:
    """argparse type for an integer option that must be >= low."""

    def integer(text: str) -> int:  # argparse: "invalid integer value: 'x'"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    return integer


# a spectrum's range [2, cap] must not be empty
spectrum_cap = at_least(2, "cap")
radius_arg = at_least(0, "radius")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordkit",
        description="computing with left orderings and circular orderings",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, ordering: bool = True) -> None:
        p.add_argument("--group", required=True, help="group descriptor")
        if ordering:
            p.add_argument(
                "--ordering", required=True, help="ordering descriptor"
            )
        p.add_argument("--radius", type=radius_arg, default=3,
                       help="ball radius for infinite groups (default 3)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", help="write the report to this path")

    p = sub.add_parser("validate", help="run the circular-ordering validators")
    common(p)
    p.add_argument("--bi", action="store_true",
                   help="also require right-invariance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lift-check",
                       help="cocycle, group-law and cone checks for the lift")
    common(p)
    p.add_argument("--degree-bound", type=at_least(0, "degree bound"), default=3,
                   help="window bound on the central coordinate (default 3)")
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("detect-secret",
                       help="decide secretness of an ordering on a carrier")
    common(p)
    p.set_defaults(func=cmd_detect_secret)

    p = sub.add_parser("spectrum", help="obstruction spectrum up to a cap")
    p.add_argument("--group", required=True)
    p.add_argument("--cap", type=spectrum_cap, required=True)
    p.add_argument("--radius", type=radius_arg, default=3)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("enumerate",
                       help="brute-force circular orderings of a finite group")
    p.add_argument("--group", required=True)
    p.add_argument("--cap", type=at_least(1, "cap"), default=8,
                   help="largest group order to enumerate (default 8)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("promislow",
                       help="reproduce the Promislow computation")
    p.add_argument("--cap", type=spectrum_cap, required=True)
    # radius 0 sees one coset of ker(phi), so the worked example cannot pass
    p.add_argument("--radius", type=at_least(1, "radius"), default=4)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_promislow)

    p = sub.add_parser("witness",
                       help="verify the witness-group construction claims")
    p.add_argument("--p", type=int, required=True, choices=(2, 3, 5),
                   help="the prime parameter")
    p.add_argument("--budget", type=at_least(1, "budget"), default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload, passed = args.func(args)
    except (
        UsageError, ResourceCapError, InvalidOrderingError, SolverInvariantError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    emit(payload, args.format, args.output)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
