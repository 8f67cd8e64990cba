"""Lift reports replayed against a golden file.

`tests/data/lift_reports.json` holds, per case, one row per run: the
report's entries as [name, status, checked_tuples, counterexample, notes],
or the error the run raised.  The cases cover `lift_check_report` at degree
bound 0 on every brute-forced table of Z/3..Z/6 and its single-entry flips,
one flip per 3-subset (the entry at its increasing triple), and the
standalone cocycle and associativity checks on the natural orderings of
Z/2..Z/5 with one cocycle value overridden to -1, 1 or 2, and an ordering
of Z/5 whose error text fixes the order in which the cocycle identity's
four terms are evaluated.  Regenerate with
``PYTHONPATH=src python tests/test_lift_golden.py``.
"""

import itertools
import json
from pathlib import Path

import pytest

from ordkit.groups import CyclicGroup
from ordkit.lift import (
    Cocycle,
    InvalidOrderingError,
    LiftGroup,
    check_inhomogeneous_cocycle,
    check_lift_associativity,
    lift_check_report,
)
from ordkit.obstruction import brute_force_circular_orders
from ordkit.orders import CircularOrdering, natural_circular_cyclic

GOLDEN_PATH = Path(__file__).with_name("data") / "lift_reports.json"


def _row(entries):
    return [
        [e["name"], e["status"], e["checked_tuples"], e["counterexample"], e["notes"]]
        for e in entries
    ]


def _run(check):
    try:
        return _row(check())
    except InvalidOrderingError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _table_cases():
    for n in range(3, 7):
        group = CyclicGroup(n)
        for t, table in enumerate(brute_force_circular_orders(group)):
            keys = [k for k in sorted(table.entries) if k[0] < k[1] < k[2]]
            tables = [table, *(table.flipped(key) for key in keys)]
            yield f"cyclic:{n}/table{t}", [
                _run(lambda: lift_check_report(o.ordering(), group, 0)["checks"])
                for o in tables
            ]


def _standalone(f, group):
    return [
        report.to_dict()
        for report in (
            check_inhomogeneous_cocycle(f, group),
            check_lift_associativity(LiftGroup(f), group),
        )
    ]


def _override_cases():
    for n in range(2, 6):
        group = CyclicGroup(n)
        c = natural_circular_cyclic(n, 1)
        yield f"cyclic:{n}/overrides", [
            _run(lambda: _standalone(Cocycle(c, {(a, b): v}), group))
            for a, b in itertools.product(range(n), repeat=2)
            for v in (-1, 1, 2)
        ]


def _evaluation_order_case():
    # f raises at (2, 1) and (1, 2) but not at (1, 1), so on the carrier {1}
    # the error names whichever of f(ab,c) and f(a,bc) is evaluated first
    group = CyclicGroup(5)
    natural, blind = natural_circular_cyclic(5, 1), {(2, 3), (3, 2), (1, 3), (3, 1)}
    c = CircularOrdering(
        group, "explicit", lambda x, y, z: 0 if (y, z) in blind else natural.fn(x, y, z)
    )
    carrier = [group.element(1)]
    yield "cyclic:5/evaluation-order", [
        _run(lambda: [check_inhomogeneous_cocycle(Cocycle(c), carrier).to_dict()]),
        _run(lambda: [
            check_lift_associativity(LiftGroup(Cocycle(c)), carrier).to_dict()
        ]),
        _run(lambda: lift_check_report(c, carrier, 0)["checks"]),
    ]


def current_reports() -> dict:
    out = dict(_table_cases())
    out.update(_override_cases())
    out.update(_evaluation_order_case())
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def reports():
    return current_reports()


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_lift_report_matches_golden(reports, case):
    assert reports[case] == GOLDEN[case]


def test_golden_covers_every_case(reports):
    assert sorted(reports) == sorted(GOLDEN)


if __name__ == "__main__":
    cases = current_reports()
    GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in cases.items())
        + "\n}\n"
    )
