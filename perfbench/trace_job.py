"""Run one ordkit CLI job with every layer boundary wrapped, from outside.

    python perfbench/trace_job.py TRACE_OUT JOB_ID -- <ordkit argv>

The wrappers are installed where each callable is looked up: methods on the
classes that own them (group law per group family, ordering oracles, cones,
cocycles, homomorphisms) and functions in every ``ordkit`` module namespace
that imported them.  Per-op boundaries are aggregated in memory as count,
total time and self time per (boundary, parent); coarse entry points are
also kept as spans (name, start, end, parent, job id).  ``Group.__eq__`` is
only counted.  Everything is written to TRACE_OUT when the job ends; stdout
and the exit code are the untraced job's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable

# boundary name -> (module, attribute) of the callables it wraps
SPANS = {
    "groups.ball": [("groups", "ball_with_words")],
    "orders.validate": [("orders", "validate_circular"),
                        ("orders", "validate_bi_invariance")],
    "orders.validate_left": [("orders", "validate_left_ordering")],
    "lift.check_cocycle": [("lift", "check_inhomogeneous_cocycle")],
    "lift.check_report": [("lift", "lift_check_report")],
    "lift.iso_check": [("lift", "cyclic_lift_iso_check")],
    "secret.detect": [("secret", "detect_secret")],
    "snf.smith": [("snf", "smith_normal_form")],
    "snf.abelianization": [("snf", "abelianization")],
    "obstruction.worked_example": [("obstruction", "promislow_worked_example")],
    "obstruction.spectrum": [("obstruction", "promislow_spectrum"),
                             ("obstruction", "presentation_spectrum"),
                             ("obstruction", "obstruction_finite"),
                             ("obstruction", "left_orderable_spectrum")],
    "obstruction.verify_unobstructed": [("obstruction", "verify_unobstructed")],
    "obstruction.enumerate": [("obstruction", "brute_force_circular_orders")],
    "witness.verify": [("witness", "verify_witness_claims")],
    "cli.resolve": [("cli", "resolve_group"), ("cli", "resolve_ordering"),
                    ("cli", "resolve_carrier")],
    "cli.emit": [("cli", "emit")],
}
# per-op functions: aggregated, not kept as spans
OPS = {"witness.membership": [("witness", "membership_G")]}
# boundary name -> (module, class, method)
METHODS = {
    "groups.hom": ("groups", "Homomorphism", "__call__"),
    "orders.oracle": ("orders", "CircularOrdering", "__call__"),
    "orders.cone": ("orders", "LeftOrdering", "positive"),
    "lift.cocycle": ("lift", "Cocycle", "__call__"),
}
GROUP_FAMILIES = {
    ("groups", "PromislowGroup"): "promislow",
    ("lift", "LiftGroup"): "lift",
    ("groups", "CyclicGroup"): "cyclic",
    ("groups", "IntegerGroup"): "integers",
    ("groups", "DirectProductGroup"): "product",
    ("groups", "FreeAbelianGroup"): "free-abelian",
    ("witness", "WitnessAmbientGroup"): "witness",
}


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        # frame: [boundary name, time spent in child boundaries, oracle reached]
        self.stack: list[list] = [["job", 0.0, False]]
        # (name, parent) -> [calls, total s, self s, calls that reached an oracle]
        self.agg: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.eq_calls = [0]
        self.oracle_depth = [0]
        self.oracle_outer = [0]
        self.oracle_keys: set = set()
        self.missing: list[str] = []
        self.epoch = time.perf_counter()

    def wrap(self, name: str, fn: Callable, span: bool = False,
             oracle: bool = False) -> Callable:
        stack, agg, clock, epoch = self.stack, self.agg, time.perf_counter, self.epoch
        spans = self.spans if span else None
        depth, outer, keys = self.oracle_depth, self.oracle_outer, self.oracle_keys

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [name, 0.0, False]
            if oracle:
                parent[2] = True
                if depth[0] == 0:
                    outer[0] += 1
                    keys.add((args[1].value, args[2].value, args[3].value))
                depth[0] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if oracle:
                    depth[0] -= 1
                elapsed = end - start
                parent[1] += elapsed
                entry = agg.get((name, parent[0]))
                if entry is None:
                    entry = agg[(name, parent[0])] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                entry[3] += frame[2]
                if spans is not None:
                    spans.append((name, start - epoch, end - epoch, parent[0]))

        return functools.update_wrapper(wrapper, fn)

    def count(self, fn: Callable) -> Callable:
        calls = self.eq_calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        import ordkit.cli  # noqa: F401  (imports every layer)

        modules = {
            name.split(".")[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("ordkit.") and mod is not None
        }
        for boundaries, span in ((SPANS, True), (OPS, False)):
            for name, targets in boundaries.items():
                for mod_name, attr in targets:
                    original = getattr(modules[mod_name], attr, None)
                    if original is None:
                        self.missing.append(f"{mod_name}.{attr}")
                        continue
                    wrapped = self.wrap(name, original, span=span)
                    for mod in modules.values():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
        for name, (mod_name, cls_name, method) in METHODS.items():
            cls = getattr(modules[mod_name], cls_name, None)
            if cls is None:
                self.missing.append(f"{mod_name}.{cls_name}")
                continue
            setattr(cls, method, self.wrap(name, getattr(cls, method),
                                           oracle=name == "orders.oracle"))
        for (mod_name, cls_name), family in GROUP_FAMILIES.items():
            cls = getattr(modules[mod_name], cls_name, None)
            if cls is None:
                self.missing.append(f"{mod_name}.{cls_name}")
                continue
            cls.op = self.wrap(f"groups.op.{family}", cls.op)
            cls.inv = self.wrap("groups.inv", cls.inv)
            cls.__eq__ = self.count(cls.__eq__)

    def dump(self) -> dict:
        return {
            "job": self.job_id,
            "boundaries": [
                [name, parent, *entry] for (name, parent), entry in sorted(self.agg.items())
            ],
            "counts": {
                "groups.eq": self.eq_calls[0],
                "orders.oracle.outer": self.oracle_outer[0],
                "orders.oracle.distinct": len(self.oracle_keys),
            },
            "spans": [[*span, self.job_id] for span in self.spans],
            "missing": self.missing,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    out_path, job_id, job_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(job_id)
    tracer.install()
    from ordkit.cli import main as ordkit_main

    try:
        return ordkit_main(job_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as out:
            json.dump(tracer.dump(), out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
