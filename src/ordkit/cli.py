"""Command-line surface: validation, lifting, detection, spectra, enumeration.

Exit codes: 0 when every mathematical check in the run passes, 1 when a
check fails and the report carries the witness, 2 for usage or resource
errors.  JSON is the canonical output format (sorted keys, two-space
indent); the table format is a flat rendering of the same dictionary, so
identical configurations produce byte-identical output either way.
"""

from __future__ import annotations

import contextlib
import re
import sys
from _json import encode_basestring_ascii as _quote
from pathlib import Path
from types import SimpleNamespace
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
    brute_force_circular_orders,
    left_orderable_spectrum,
    obstruction_finite,
    presentation_spectrum,
    promislow_circular,
    promislow_spectrum,
    promislow_worked_example,
    witness_recorded_spectrum,
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
    if descriptor == "natural" or descriptor.startswith("natural:"):
        if not isinstance(group, CyclicGroup):
            raise UsageError("natural orderings live on cyclic groups")
        _, colon, k = descriptor.partition(":")
        digits = k.removeprefix("-")
        try:
            unit = int(k) if colon else 1
            if colon and not (digits.isascii() and digits.isdigit()):
                # int() also takes '+', spaces, '_' and other scripts' digits
                raise ValueError("k must be ASCII digits after at most a '-'")
            return natural_circular_cyclic(group.n, unit)
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
                return product_circular(lo, group.right.n)
            except ValueError as exc:
                raise UsageError(f"bad ordering {descriptor!r}: {exc}") from exc
        raise UsageError(
            "lex orderings exist for promislow and product:<G>,cyclic:<n> groups"
        )
    if descriptor.startswith("table:"):
        import json  # only table files are read as JSON; reports render without it

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


def _json_text(obj: Any, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it at indent pad:
    str-keyed dicts, lists, tuples, str, int, bool and None.  Anything else,
    a float or a non-str key included, raises TypeError."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_quote(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_json_text(x, inner) for x in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def render_json(obj: dict) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", byte for byte, without
    the json package: its import and its pure-Python indent encoder."""
    return _json_text(obj, "") + "\n"


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
    try:
        if output:
            Path(output).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # a missing directory, a closed pipe, a full disk
        raise UsageError(f"cannot write report to {output or 'stdout'}: {exc}") from exc


# -- subcommands -------------------------------------------------------------------


def cmd_validate(args: SimpleNamespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    ordering = resolve_ordering(group, args.ordering)
    carrier = resolve_carrier(group, args.radius)
    validator = validate_bi_invariance if args.bi else validate_circular
    report = validator(ordering, carrier)
    return {
        "group": group.descriptor,
        "ordering": args.ordering,
        "bi_invariance": bool(args.bi),
        "carrier_size": len(list(carrier.elements)) if isinstance(carrier, Ball)
        else group.order,
        "report": report.to_dict(),
    }, report.passed


def cmd_lift_check(args: SimpleNamespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    ordering = resolve_ordering(group, args.ordering)
    carrier = resolve_carrier(group, args.radius)
    report = lift_check_report(ordering, carrier, degree_bound=args.degree_bound)
    body = {"group": group.descriptor, "ordering": args.ordering, "report": report}
    return body, report["status"] == "pass"


def cmd_detect_secret(args: SimpleNamespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    ordering = resolve_ordering(group, args.ordering)
    carrier = resolve_carrier(group, args.radius)
    verdict = detect_secret(ordering, carrier)
    return {
        "group": group.descriptor,
        "ordering": args.ordering,
        "radius": args.radius if not group.is_finite else None,
        "verdict": verdict.to_dict(),
    }, verdict.status == "secret-on-carrier"


def cmd_spectrum(args: SimpleNamespace) -> tuple[dict, bool]:
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
        report = witness_recorded_spectrum(resolve_group(desc).p, args.cap)
    else:
        group = resolve_group(desc)
        if group.is_finite:
            report = obstruction_finite(group, args.cap)
        else:
            lo = builtin_left_order(group)
            carrier = ball(builtin_generators(group), args.radius)
            report = left_orderable_spectrum(lo, args.cap, carrier)
    return {"report": report.to_dict()}, True


def cmd_enumerate(args: SimpleNamespace) -> tuple[dict, bool]:
    group = resolve_group(args.group)
    if not group.is_finite:
        raise UsageError(f"enumerate needs a finite group, got {group.descriptor}")
    try:
        arrangements = brute_force_circular_orders(group, cap=args.cap)
    except ResourceCapError as exc:
        raise UsageError(str(exc)) from exc
    return {
        "group": group.descriptor,
        "order": group.order,
        "count": len(arrangements),
        "orderings": [[g.encode() for g in a] for a in arrangements],
    }, True


def cmd_promislow(args: SimpleNamespace) -> tuple[dict, bool]:
    worked = promislow_worked_example(radius=args.radius)
    spectrum = promislow_spectrum(args.cap, radius=min(args.radius, 3))
    ok = worked["status"] == "pass" and spectrum.fully_determined
    return {"worked_example": worked, "spectrum": spectrum.to_dict()}, ok


def cmd_witness(args: SimpleNamespace) -> tuple[dict, bool]:
    try:
        report = verify_witness_claims(
            WitnessAmbientGroup(args.p), budget=args.budget, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return {"report": report}, report["status"] == "pass"


# -- command line -------------------------------------------------------------------


def at_least(low: int, what: str) -> Callable[[str], int]:
    """Converter for an integer option that must be >= low."""

    def integer(text: str) -> int:  # its name reads "invalid integer value: 'x'"
        if (value := int(text)) < low:
            raise UsageError(f"{what} must be >= {low}, got {value}")
        return value

    return integer


REQUIRED = object()
GROUP = {"--group": (str, REQUIRED, "group descriptor")}
RADIUS = {"--radius": (at_least(0, "radius"), 3, "ball radius for infinite groups")}
CARRIER = {**GROUP, "--ordering": (str, REQUIRED, "ordering descriptor"), **RADIUS}
REPORT = {"--format": (("json", "table"), "json", "report format"),
          "--output": (str, None, "write the report to this path")}
CAP = {"--cap": (at_least(2, "cap"), REQUIRED, "largest n")}  # [2, cap] is not empty
# subcommand -> (help, function, options), and option -> (converter, default or
# REQUIRED, help), where a converter is a function of the text, a tuple of the
# choices or bool for a flag.  Error messages list options in this order.
COMMANDS: dict[str, tuple[str, Callable[[Any], tuple[dict, bool]], dict]] = {
    "validate": ("run the circular-ordering validators", cmd_validate, {
        **CARRIER, **REPORT, "--bi": (bool, False, "also require right-invariance")}),
    "lift-check": ("cocycle, group-law and cone checks for the lift", cmd_lift_check, {
        **CARRIER, **REPORT, "--degree-bound": (
            at_least(0, "degree bound"), 3, "window bound on the central coordinate")}),
    "detect-secret": ("decide secretness of an ordering on a carrier",
                      cmd_detect_secret, {**CARRIER, **REPORT}),
    "spectrum": ("obstruction spectrum up to a cap", cmd_spectrum,
                 {**GROUP, **CAP, **RADIUS, **REPORT}),
    "enumerate": ("brute-force circular orderings of a finite group", cmd_enumerate, {
        **GROUP, "--cap": (at_least(1, "cap"), 8, "largest group order"), **REPORT}),
    # radius 0 sees one coset of ker(phi), so the worked example cannot pass
    "promislow": ("reproduce the Promislow computation", cmd_promislow, {
        **CAP, "--radius": (at_least(1, "radius"), 4, "ball radius"), **REPORT}),
    "witness": ("verify the witness-group construction claims", cmd_witness, {
        "--p": ((2, 3, 5), REQUIRED, "the prime parameter"),
        "--budget": (at_least(1, "budget"), 500, "sampling budget"),
        "--seed": (int, 0, "sampler seed"), **REPORT}),
}
HELP = ("-h", "--help")


class ArgvExit(Exception):
    """A command line that runs nothing: the help of ordkit or of a subcommand
    (code 0), or its usage line and an error (code 2)."""

    def __init__(self, command: str | None, error: str | None = None) -> None:
        if command is None:
            out = [f"usage: ordkit [-h] {{{','.join(COMMANDS)}}} ..."] + [
                f"  {name:<24}{text}" for name, (text, _, _) in COMMANDS.items()]
        else:
            title, _, options = COMMANDS[command]
            usage, out = [f"usage: ordkit {command} [-h]"], [title]
            for name, (convert, default, text) in options.items():
                kind = name[2:].upper() if not isinstance(convert, tuple) else (
                    "{" + ",".join(map(str, convert)) + "}")
                form = name if convert is bool else f"{name} {kind}"
                usage.append(form if default is REQUIRED else f"[{form}]")
                out.append(f"  {form:<24}{text}")
            out.insert(0, " ".join(usage))
        if error is not None:
            out = [out[0], f"ordkit{f' {command}' if command else ''}: error: {error}"]
        super().__init__(0 if error is None else 2, "\n".join(out) + "\n")


def _option(arg: str, names: Sequence[str]) -> tuple[str | None, str | None] | None:
    """How argparse reads a string: None for a value, else (option, or None if
    unknown; glued value or None).  An ambiguous prefix raises UsageError."""
    if arg[:1] != "-" or len(arg) == 1:
        return None
    head, eq, value = arg.partition("=")
    glued = value if eq else None
    if head in names:
        return head, glued
    if arg[1] == "-":  # a unique prefix of a long option
        found = [(name, glued) for name in names if name.startswith(head)]
    else:  # a short option with its value glued on
        found = [(arg[:2], arg[2:])] if arg[:2] in names else []
    if len(found) > 1:
        matches = ", ".join(name for name, _ in found)
        raise UsageError(f"ambiguous option: {arg} could match {matches}")
    if found:
        return found[0]
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)


def _take(command: str | None, option: str, text: str | None, convert: Any) -> Any:
    """An option's value from its text (None if none followed); help ends here."""
    text = (text.lstrip("h") or None) if option == "-h" and text else text  # -hh: -h -h
    kind = type(convert[0]) if isinstance(convert, tuple) else convert
    try:
        if (convert is bool) != (text is None):
            raise UsageError("expected one argument" if text is None
                             else f"ignored explicit argument {text!r}")
        value = True if convert is bool else kind(text)
        if isinstance(convert, tuple) and value not in convert:
            choices = ", ".join(map(repr, convert))
            raise UsageError(f"invalid choice: {value!r} (choose from {choices})")
    except ValueError as exc:  # UsageError is a ValueError
        name = "-h/--help" if option in HELP else option
        raise UsageError(f"argument {name}: " + (str(exc) if isinstance(exc, UsageError)
                         else f"invalid {kind.__name__} value: {text!r}")) from None
    if option in HELP:
        raise ArgvExit(command)
    return value


def parse_args(argv: Sequence[str]) -> tuple[str, SimpleNamespace]:
    """The subcommand and option values of argv, read from COMMANDS by the rules
    of the argparse parser this replaced, with its error lines.  Raises ArgvExit
    for help or a usage error."""
    rest, extras, command = list(argv), [], None
    try:
        while rest and rest[0] != "--" and (found := _option(rest[0], HELP)):
            if found[0]:  # before the subcommand only -h/--help is known
                _take(None, *found, bool)
            extras.append(rest.pop(0))
        if rest in ([], ["--"]):
            raise UsageError("the following arguments are required: subcommand")
        if rest[0] not in COMMANDS:
            raise UsageError(f"argument subcommand: invalid choice: {rest[0]!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
        command, strings = rest[0], rest[1:]
        options = COMMANDS[command][2]
        values = {name: default for name, (_, default, _) in options.items()}
        # all strings are read before any is taken, so an ambiguous prefix fails
        # first; "--" is never a value, and every string after it is one
        cut = (strings + ["--"]).index("--")
        kinds = [_option(arg, (*HELP, *options)) for arg in strings[:cut]]
        kinds += [(None, None)] + [None] * (len(strings) - cut - 1)
        steps = iter(range(len(strings)))
        for i in steps:
            option, glued = kinds[i] or (None, None)
            if option is None:  # a stray value, "--" or an unknown option
                extras.append(strings[i])
                continue
            convert = options[option][0] if option in options else bool
            if glued is None and convert is not bool and kinds[i + 1] is None:
                glued = strings[next(steps)]
            values[option] = _take(command, option, glued, convert)
        if missing := [name for name, value in values.items() if value is REQUIRED]:
            raise UsageError("the following arguments are required: "
                             + ", ".join(missing))
    except UsageError as exc:
        raise ArgvExit(command, str(exc)) from None
    if extras:
        raise ArgvExit(None, f"unrecognized arguments: {' '.join(extras)}")
    return command, SimpleNamespace(**{name[2:].replace("-", "_"): value
                                       for name, value in values.items()})


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else argv)
        body, passed = COMMANDS[command][1](args)
        emit({"schema": SCHEMA, "command": command, **body}, args.format, args.output)
        return 0 if passed else 1
    except ArgvExit as exc:
        code, text = exc.args
    except (UsageError, ResourceCapError, InvalidOrderingError,
            SolverInvariantError) as exc:
        code, text = 2, f"error: {exc}\n"
    with contextlib.suppress(OSError):  # like argparse: nothing on a closed stream
        (sys.stderr if code else sys.stdout).write(text)
    return code


if __name__ == "__main__":  # not an entry: a silent exit 0 would read as a pass
    sys.stderr.write("error: run python -m ordkit, not python -m ordkit.cli\n")
    raise SystemExit(2)
