"""Validator reports replayed against a golden file.

`tests/data/validator_reports.json` holds, per case, the report name, mode
and notes shared by its runs and one row [status, checked_tuples,
counterexample] per run (or the error a run raised).  The cases cover
every brute-forced table of Z/3..Z/7 and its single-entry flips, one flip
per 3-subset (the entry at its increasing triple), under exhaustive,
bi-invariance and forced sampled validation, a carrier list with repeats,
a foreign carrier, degenerate and out-of-range entries, and Promislow's
group.  Regenerate with ``PYTHONPATH=src python tests/test_validator_golden.py``.
"""

import json
from pathlib import Path

import pytest

from ordkit.groups import (
    CyclicGroup,
    GroupMismatchError,
    IntegerGroup,
    PromislowGroup,
    ball,
)
from ordkit.obstruction import brute_force_circular_orders, promislow_circular
from ordkit.orders import (
    OrderingTable,
    natural_circular_cyclic,
    secret_from_left,
    usual_integer_order,
    validate_bi_invariance,
    validate_circular,
)

GOLDEN_PATH = Path(__file__).with_name("data") / "validator_reports.json"


def _sampled(c, carrier):
    return validate_circular(c, carrier, tuple_cap=50, sample_size=300, seed=7)


VALIDATORS = {
    "circular": validate_circular,
    "bi": validate_bi_invariance,
    "sampled": _sampled,
}


def _with_entries(table, changes):
    return OrderingTable(table.group, table.carrier, {**table.entries, **changes})


def _families():
    """(case family, carrier, orderings), the orderings of a family sharing
    a carrier."""
    for n in range(3, 8):
        group = CyclicGroup(n)
        for t, table in enumerate(brute_force_circular_orders(group)):
            keys = [k for k in sorted(table.entries) if k[0] < k[1] < k[2]]
            flips = [table.flipped(key) for key in keys]
            yield f"cyclic:{n}/table{t}", group, [table, *flips]
    z = IntegerGroup()
    elems = list(ball([z.element(1)], 3).elements)
    repeated = elems[::-1] + elems[::3]
    secret = OrderingTable.from_ordering(
        secret_from_left(usual_integer_order(z)), elems
    )
    yield "integers-ball-repeats", repeated, [secret, secret.flipped((-1, 0, 2))]
    yield "foreign-carrier", CyclicGroup(6), [natural_circular_cyclic(5)]
    group = CyclicGroup(5)
    table = OrderingTable.from_ordering(natural_circular_cyclic(5), list(group.elements()))
    edits = [{(0, 1, 2): 0}, {(0, 1, 2): 5}, {(0, 1, 2): 2}, {(0, 0, 1): 1}]
    yield "cyclic:5/edited", group, [_with_entries(table, e) for e in edits]


def _promislow_cases():
    group = PromislowGroup()
    c = promislow_circular()
    yield "promislow-r2/bi", validate_bi_invariance, c, ball(group.generators(), 2)
    yield "promislow-r3/sampled", lambda o, carrier: validate_circular(
        o, carrier, sample_size=2000, seed=3
    ), c, ball(group.generators(), 3)


def _run(validator, ordering, carrier):
    if isinstance(ordering, OrderingTable):
        ordering = ordering.ordering()
    try:
        report = validator(ordering, carrier)
    except GroupMismatchError as exc:
        return None, {"error": f"{type(exc).__name__}: {exc}"}
    row = [report.status, report.checked_tuples, report.counterexample]
    return (report.name, report.mode, list(report.notes)), row


def _case(runs):
    shared, rows = set(), []
    for header, row in runs:
        if header is not None:
            shared.add(json.dumps(header))
        rows.append(row)
    assert len(shared) <= 1
    name, mode, notes = json.loads(shared.pop()) if shared else (None, None, None)
    return {"name": name, "mode": mode, "notes": notes, "rows": rows}


def current_reports() -> dict:
    out = {}
    for family, carrier, orderings in _families():
        for label, validator in VALIDATORS.items():
            out[f"{family}/{label}"] = _case(
                _run(validator, o, carrier) for o in orderings
            )
    for label, validator, c, carrier in _promislow_cases():
        out[label] = _case([_run(validator, c, carrier)])
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def reports():
    return current_reports()


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_validator_report_matches_golden(reports, case):
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
