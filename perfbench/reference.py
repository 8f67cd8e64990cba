"""A fixed pure-Python program that measures the host's speed, not ordkit's.

    python3 perfbench/reference.py

It mimics the shape of ordkit's work without importing it: frozen
dataclass elements of an affine group over Fraction translations, a ball
built by breadth-first search, and a sweep over triples of the ball with
dict lookups.  It prints a checksum, which never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Affine:
    diag: tuple[int, int, int]
    trans: tuple[Fraction, Fraction, Fraction]

    def __mul__(self, other: "Affine") -> "Affine":
        d, t = self.diag, self.trans
        return Affine(
            (d[0] * other.diag[0], d[1] * other.diag[1], d[2] * other.diag[2]),
            tuple(d[k] * other.trans[k] + t[k] for k in range(3)),
        )

    def __invert__(self) -> "Affine":
        d, t = self.diag, self.trans
        return Affine(d, tuple(-d[k] * t[k] for k in range(3)))


def ball(gens: list[Affine], radius: int) -> list[Affine]:
    identity = Affine((1, 1, 1), (Fraction(0),) * 3)
    seen, frontier = {identity}, [identity]
    steps = gens + [~g for g in gens]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in steps:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen, key=lambda g: (g.diag, g.trans))


def main() -> int:
    a = Affine((1, -1, -1), (HALF, HALF, Fraction(0)))
    b = Affine((-1, 1, -1), (Fraction(0), HALF, HALF))
    elems = ball([a, b], 2)
    index = {g: i for i, g in enumerate(elems)}
    checksum = 0
    for g in elems:
        for h in elems:
            gh = g * h
            for k in elems:
                checksum += index.get(gh * k, -1) - index.get(g * (h * k), -1) + 1
    print(len(elems), checksum)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
