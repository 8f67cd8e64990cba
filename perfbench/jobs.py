"""The benchmark's workloads: ordkit CLI jobs and the results they must give.

Each job is one ``python -m ordkit <argv>`` call.  Its expected result is a
set of report fields, addressed by dotted paths, with values derived from
the mathematics (spectra, cones, counts) or, where only the program can
produce them (first counterexamples, contradiction traces of the search),
captured once from the parent commit of the benchmark in ``captured.json``.
Fields the program adds later are ignored; a missing or changed field fails.

A workload maps a seed to a job list.  Parameters the seed chooses are
confined to ranges where the work per job barely changes, so that runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Any, Callable


@dataclass
class Job:
    """One CLI call with its expected exit code and report fields."""

    argv: list[str]
    exit_code: int
    expect: dict[str, Any]
    # wall time at the benchmark's parent commit on a 2-core Xeon; the
    # per-job timeout is scaled from it
    seed_s: float
    # files (path relative to the work directory -> text) the job reads
    files: dict[str, str] = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@functools.cache
def _captured() -> dict[str, dict[str, Any]]:
    return json.loads(Path(__file__).with_name("captured.json").read_text())


def captured(argv: list[str]) -> dict[str, Any]:
    return _captured()[" ".join(argv)]


# -- field comparison ------------------------------------------------------------


class MissingField(LookupError):
    pass


def extract(obj: Any, path: str) -> Any:
    """Value at a dotted path; ``key[]`` maps over a list, ``key[i]`` indexes."""
    parts = path.split(".")

    def walk(node: Any, i: int) -> Any:
        if i == len(parts):
            return node
        part = parts[i]
        key, _, index = part.partition("[")
        if not isinstance(node, dict) or key not in node:
            raise MissingField(path)
        node = node[key]
        if not index:
            return walk(node, i + 1)
        if not isinstance(node, list):
            raise MissingField(path)
        if index == "]":
            return [walk(item, i + 1) for item in node]
        pos = int(index[:-1])
        if pos >= len(node):
            raise MissingField(path)
        return walk(node[pos], i + 1)

    return walk(obj, 0)


def check_output(job: Job, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one job's exit code and report; empty when it is right."""
    problems = []
    if returncode != job.exit_code:
        problems.append(f"exit code {returncode}, expected {job.exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    for path, want in job.expect.items():
        try:
            got = extract(report, path)
        except MissingField:
            problems.append(f"missing field {path}")
            continue
        if got != want:
            problems.append(f"field {path} = {_short(got)}, expected {_short(want)}")
    return problems


def _short(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 120 else text[:117] + "..."


# -- job constructors ------------------------------------------------------------


def validate_promislow(radius: int, bi: bool, seed_s: float) -> Job:
    """The lexicographic ordering of the Promislow group is left- but not
    right-invariant; from radius 2 the ball sees a right-invariance failure,
    whose first tuple in canonical order is captured."""
    argv = ["validate", "--group", "promislow", "--ordering", "lex",
            "--radius", str(radius)] + (["--bi"] if bi else [])
    fails = bi and radius >= 2
    expect = {
        "command": "validate",
        "group": "promislow",
        "bi_invariance": bi,
        "report.status": "fail" if fails else "pass",
        **captured(argv),
    }
    return Job(argv, 1 if fails else 0, expect, seed_s)


def promislow(cap: int, radius: int | None, seed_s: float) -> Job:
    """The Promislow spectrum is the multiples of four, every other n certified."""
    argv = ["promislow", "--cap", str(cap)]
    if radius is not None:
        argv += ["--radius", str(radius)]
    expect = {
        "command": "promislow",
        "worked_example.status": "pass",
        "spectrum.obstructed[].n": [n for n in range(2, cap + 1) if n % 4 == 0],
        "spectrum.unobstructed[].n": [n for n in range(2, cap + 1) if n % 4],
        "spectrum.undetermined": [],
    }
    return Job(argv, 0, expect, seed_s)


def lift_check(n: int, k: int, seed_s: float, degree_bound: int | None = None) -> Job:
    """The lift of a natural ordering of Z/n is a left-ordered group."""
    argv = ["lift-check", "--group", f"cyclic:{n}", "--ordering", f"natural:{k}"]
    if degree_bound is not None:
        argv += ["--degree-bound", str(degree_bound)]
    names = ["inhomogeneous-cocycle", "lift-associativity", "lift-cone-axioms",
             "lift-central-generator"]
    expect = {
        "command": "lift-check",
        "report.status": "pass",
        "report.group": f"cyclic:{n}",
        "report.ordering": f"natural-cyclic:unit {k % n} mod {n}",
        "report.checks[].name": names,
        "report.checks[].status": ["pass"] * len(names),
    }
    return Job(argv, 0, expect, seed_s)


def _constraint_count(ball: list[tuple], op: Callable[[tuple, tuple], tuple]) -> int:
    members = set(ball)
    return sum(1 for g in ball for h in ball if op(g, h) in members)


def secret_integers(radius: int, seed_s: float) -> Job:
    """The secret ordering of the usual order on Z is secret; the cone is the
    positives, and there is one constraint per pair g, h with g+h in the ball."""
    argv = ["detect-secret", "--group", "integers", "--ordering", "secret",
            "--radius", str(radius)]
    expect = {
        "verdict.verdict": "SecretWitness",
        "verdict.checked_constraints": (2 * radius + 1) ** 2 - radius * (radius + 1),
        "verdict.cone": list(range(1, radius + 1)),
    }
    return Job(argv, 0, expect, seed_s)


def secret_free_abelian(radius: int, seed_s: float) -> Job:
    """On Z^2 the recovered cone is the lex positives (last coordinate first)."""
    argv = ["detect-secret", "--group", "free-abelian:2", "--ordering", "secret",
            "--radius", str(radius)]
    ball = sorted(
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    )
    expect = {
        "verdict.verdict": "SecretWitness",
        "verdict.checked_constraints": _constraint_count(
            ball, lambda g, h: (g[0] + h[0], g[1] + h[1])
        ),
        "verdict.cone": [[x, y] for x, y in ball if y > 0 or (y == 0 and x > 0)],
    }
    return Job(argv, 0, expect, seed_s)


def secret_torsion_product(n: int, radius: int, seed_s: float) -> Job:
    """Z x Z/n has torsion, so its lex ordering is not secret on the ball;
    the contradiction trace of the search is captured."""
    argv = ["detect-secret", "--group", f"product:integers,cyclic:{n}",
            "--ordering", "lex", "--radius", str(radius)]
    ball = [
        (a, b)
        for a in range(-radius, radius + 1)
        for b in range(n)
        if abs(a) + min(b, n - b) <= radius
    ]
    expect = {
        "verdict.verdict": "NotSecretOnCarrier",
        "verdict.checked_constraints": _constraint_count(
            ball, lambda g, h: (g[0] + h[0], (g[1] + h[1]) % n)
        ),
        **captured(argv),
    }
    return Job(argv, 1, expect, seed_s)


def secret_cyclic(n: int, k: int, seed_s: float) -> Job:
    """A natural ordering of Z/n (n even) is not secret: f(n/2, n/2) = 1 asks
    for 2 d(n/2) = 1, the first constraint the propagation can decide."""
    if n % 2:
        raise ValueError("the derived contradiction needs an even n")
    argv = ["detect-secret", "--group", f"cyclic:{n}", "--ordering", f"natural:{k}"]
    half = n // 2
    expect = {
        "verdict.verdict": "NotSecretOnCarrier",
        "verdict.checked_constraints": n * n,
        "verdict.contradiction_trace": [
            {"element": 0, "kind": "seed", "step": 0, "value": 0},
            {
                "constraint": {"f": 1, "g": half, "gh": 0, "h": half},
                "detail": f"d({half}) = 1/2 is not integral",
                "kind": "conflict",
                "step": 1,
            },
        ],
    }
    return Job(argv, 1, expect, seed_s)


def spectrum_cyclic(n: int, cap: int, seed_s: float) -> Job:
    """Z/n x Z/m is cyclic, hence circularly orderable, exactly when gcd(n, m) = 1."""
    argv = ["spectrum", "--group", f"cyclic:{n}", "--cap", str(cap)]
    expect = {
        "report.group": f"cyclic:{n}",
        "report.obstructed[].n": [m for m in range(2, cap + 1) if gcd(n, m) > 1],
        "report.unobstructed[].n": [m for m in range(2, cap + 1) if gcd(n, m) == 1],
        "report.undetermined": [],
    }
    return Job(argv, 0, expect, seed_s)


def spectrum_free_abelian(rank: int, cap: int, radius: int, seed_s: float) -> Job:
    """A left-orderable group has an empty spectrum."""
    argv = ["spectrum", "--group", f"free-abelian:{rank}", "--cap", str(cap),
            "--radius", str(radius)]
    expect = {
        "report.obstructed": [],
        "report.unobstructed[].n": list(range(2, cap + 1)),
        "report.undetermined": [],
    }
    return Job(argv, 0, expect, seed_s)


def spectrum_presentation(rng: random.Random, cap: int, seed_s: float) -> Job:
    """A presented group whose exponent-sum matrix is U diag(d) V.

    U and V are random unimodular matrices and d a divisibility chain, so the
    invariant factors, hence the exponent, are known without Smith normal
    form; commutators padded into the relators leave the matrix unchanged.
    """
    a = rng.choice([1, 2, 3])
    b = rng.choice([2, 3, 4, 5])
    diag = [1, a, a * b]
    size = len(diag)
    u, v = _unimodular(rng, size), _unimodular(rng, size)
    m = _matmul(_matmul(u, [[diag[i] if i == j else 0 for j in range(size)]
                            for i in range(size)]), v)
    names = "abc"
    lines = ["gens: " + " ".join(names)]
    for row in m:
        word = [names[j] if x > 0 else names[j].upper()
                for j, x in enumerate(row) for _ in range(abs(x))]
        p, q = rng.sample(range(size), 2)
        pos = rng.randint(0, len(word))
        word[pos:pos] = [names[p], names[q], names[p].upper(), names[q].upper()]
        lines.append("rel: " + " ".join(word))
    path = "presentation.txt"
    exponent = a * b
    argv = ["spectrum", "--group", f"presentation:{path}", "--cap", str(cap)]
    expect = {
        "report.group": "presentation(a b c)",
        "report.obstructed[].n": list(range(exponent, cap + 1, exponent)),
        "report.obstructed[0].certificate.exponent": exponent,
        "report.obstructed[0].certificate.invariant_factors": [d for d in diag if d != 1],
        "report.unobstructed": [],
        "report.undetermined": [n for n in range(2, cap + 1) if n % exponent],
    }
    return Job(argv, 0, expect, seed_s, files={path: "\n".join(lines) + "\n"})


def _unimodular(rng: random.Random, size: int) -> list[list[int]]:
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(4):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def enumerate_cyclic(n: int, seed_s: float) -> Job:
    """Z/n has phi(n) circular orderings: the arrangements 0, u, 2u, ... for
    units u, listed in lexicographic order."""
    argv = ["enumerate", "--group", f"cyclic:{n}"]
    arrangements = sorted(
        [i * u % n for i in range(n)] for u in range(1, n) if gcd(u, n) == 1
    )
    expect = {"order": n, "count": len(arrangements), "orderings": arrangements}
    return Job(argv, 0, expect, seed_s)


def enumerate_noncyclic(seed_s: float) -> Job:
    """A non-cyclic finite group has no circular ordering."""
    argv = ["enumerate", "--group", "product:cyclic:2,cyclic:4", "--cap", "8"]
    return Job(argv, 0, {"order": 8, "count": 0, "orderings": []}, seed_s)


def witness(p: int, budget: int, seed: int, seed_s: float) -> Job:
    """The six claim families of the witness construction hold for every seed."""
    argv = ["witness", "--p", str(p), "--budget", str(budget), "--seed", str(seed)]
    names = ["y-centralizes-each-x", "gij-in-subgroup", "gij-y-commutator",
             "xz-commutator", "subgroup-closure", "torsion-spot-check"]
    expect = {
        "report.p": p,
        "report.budget": budget,
        "report.seed": seed,
        "report.status": "pass",
        "report.checks[].name": names,
        "report.checks[].status": ["pass"] * len(names),
    }
    return Job(argv, 0, expect, seed_s)


# -- workloads -------------------------------------------------------------------


def _units(n: int) -> list[int]:
    return [k for k in range(1, n) if gcd(k, n) == 1]


def promislow_workload(rng: random.Random) -> list[Job]:
    # exact Fraction arithmetic of Promislow elements (the worked example's
    # radius-4 ball, the spectrum certificates), the lex oracle and the
    # validator loops; lift and secret stay idle
    return [
        validate_promislow(1, True, seed_s=0.3),
        promislow(20, None, seed_s=1.3),
        promislow(12, 3, seed_s=0.5),
    ]


def lift_workload(rng: random.Random) -> list[Job]:
    # base ops are cheap ints, so the lift group law and the cocycle dominate;
    # the seed picks only the units, which leave the work unchanged
    return [
        lift_check(4, rng.choice(_units(4)), seed_s=0.6),
        lift_check(5, rng.choice(_units(5)), seed_s=1.0),
        lift_check(10, rng.choice(_units(10)), seed_s=0.7, degree_bound=1),
    ]


def secret_workload(rng: random.Random) -> list[Job]:
    # constraint build (cocycle, secret-of-left oracle, group ops) dominates;
    # the 161-element carrier of Z is where an N^3 table would show in memory
    n = rng.randrange(56, 65, 2)
    return [
        secret_integers(80, seed_s=0.9),
        secret_free_abelian(6, seed_s=0.4),
        secret_torsion_product(5, 10, seed_s=0.9),
        secret_cyclic(n, rng.choice(_units(n)), seed_s=0.2),
    ]


def spectrum_workload(rng: random.Random) -> list[Job]:
    # snf, witness arithmetic, brute-force enumeration and rendering of large
    # reports; the N^3-N^4 sweeps, lift and secret are nearly idle
    seed = rng.randrange(1000)
    return [
        spectrum_cyclic(rng.randint(30, 60), 400, seed_s=0.15),
        spectrum_presentation(rng, 200, seed_s=0.15),
        spectrum_free_abelian(2, 100, 6, seed_s=0.15),
        enumerate_cyclic(8, seed_s=0.7),
        enumerate_noncyclic(seed_s=0.3),
        witness(5, 3000, seed, seed_s=1.2),
        witness(3, 1500, seed, seed_s=0.4),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "promislow": promislow_workload,
    "lift": lift_workload,
    "secret": secret_workload,
    "spectrum": spectrum_workload,
}


def tiny_workloads(rng: random.Random) -> dict[str, list[Job]]:
    """Small versions of the four workloads, a few seconds in all."""
    return {
        "promislow": [validate_promislow(1, True, 0.3), promislow(8, 2, 0.3)],
        "lift": [lift_check(3, 2, 0.5)],
        "secret": [secret_integers(5, 0.3), secret_cyclic(6, 5, 0.2)],
        "spectrum": [
            spectrum_cyclic(6, 20, 0.2),
            spectrum_presentation(rng, 20, 0.2),
            enumerate_cyclic(5, 0.2),
            witness(2, 20, 1, 0.2),
        ],
    }


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for a seed, in a seed-chosen order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
