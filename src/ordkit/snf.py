"""Exact integer Smith normal form and presentation abelianization.

All arithmetic is on arbitrary-precision Python integers.  Only the diagonal
form is kept; the tests check it against the matrix's determinantal divisors.
"""

from __future__ import annotations

from typing import Sequence

from .groups import Presentation, Record

Matrix = list[list[int]]


def _validate(matrix: Sequence[Sequence[int]]) -> Matrix:
    rows = [list(row) for row in matrix]
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
        for x in row:
            if not isinstance(x, int):
                raise ValueError(f"non-integer entry {x!r}")
    return rows


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Diagonalize an integer matrix by unimodular row and column operations:
    returns D, whose diagonal satisfies d_i | d_{i+1} with d_i >= 0.
    Deterministic: pivots are chosen by minimal absolute value, first
    position in row-major order.
    """
    D = _validate(matrix)
    m = len(D)
    n = len(D[0]) if D else 0

    def swap_cols(i: int, j: int) -> None:
        for row in D:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        nonzero = [
            (abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j]
        ]
        if not nonzero:
            break
        _, i, j = min(nonzero)  # the least |entry|, first in row-major order
        D[t], D[i] = D[i], D[t]
        swap_cols(t, j)

        while True:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] == 0:
                    continue
                q = D[i][t] // D[t][t]
                D[i] = [x - q * y for x, y in zip(D[i], D[t])]
                if D[i][t] != 0:
                    D[t], D[i] = D[i], D[t]
                    dirty = True
            for j in range(t + 1, n):
                if D[t][j] == 0:
                    continue
                q = D[t][j] // D[t][t]
                for row in D:
                    row[j] -= q * row[t]
                if D[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if not dirty:
                break

        # the pivot must divide the rest of the submatrix for the
        # divisibility chain; fold an offending row in and redo
        pivot = D[t][t]
        rows = range(t + 1, m)
        offender = next((i for i in rows if any(x % pivot for x in D[i][t + 1:])), None)
        if offender is not None:
            D[t] = [x + y for x, y in zip(D[t], D[offender])]
            continue
        t += 1

    for i in range(min(m, n)):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
    return D


class AbelianizationResult(Record):
    """Invariant factors of G/G' (0 encodes a Z factor) plus the exponent,
    None when G/G' is infinite."""

    __slots__ = ("invariant_factors", "exponent")

    @property
    def is_finite(self) -> bool:
        return self.exponent is not None


def abelianization(presentation: Presentation) -> AbelianizationResult:
    """Invariant factors of the abelianized presentation via Smith normal form.

    Trivial factors (1) are dropped; a 0 entry stands for a free Z factor.
    The exponent is the largest invariant factor when the abelianization is
    finite, None otherwise.
    """
    rows = presentation.exponent_sum_matrix()
    n = presentation.num_generators
    if not rows:
        factors = (0,) * n
        return AbelianizationResult(factors, None if n else 1)
    D = smith_normal_form(rows)
    diag = [D[i][i] for i in range(min(len(rows), n))]
    factors = tuple(d for d in diag if d != 1) + (0,) * (n - len(diag))
    if all(d != 0 for d in factors):
        exponent = factors[-1] if factors else 1
        return AbelianizationResult(factors, exponent)
    return AbelianizationResult(factors, None)
