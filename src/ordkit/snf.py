"""Exact integer Smith normal form and presentation abelianization.

All arithmetic is on arbitrary-precision Python integers; the transform
matrices are tracked so callers can verify U * M * V = D exactly.
"""

from __future__ import annotations

from typing import Sequence

from .groups import Presentation, Record

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    a = _validate(matrix)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (D, U, V) with D = U*M*V.

    U and V are unimodular and the diagonal satisfies d_i | d_{i+1} with
    d_i >= 0.  Deterministic: pivots are chosen by minimal absolute value,
    first position in row-major order.
    """
    D = _validate(matrix)
    m = len(D)
    n = len(D[0]) if D else 0
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i: int, j: int) -> None:
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, c: int) -> None:
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst: int, src: int, c: int) -> None:
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i: int) -> None:
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        best: tuple[int, int] | None = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v != 0 and (
                    best is None or abs(v) < abs(D[best[0]][best[1]])
                ):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        while True:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] == 0:
                    continue
                q = D[i][t] // D[t][t]
                add_row(i, t, -q)
                if D[i][t] != 0:
                    swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if D[t][j] == 0:
                    continue
                q = D[t][j] // D[t][t]
                add_col(j, t, -q)
                if D[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if not dirty:
                break

        # the pivot must divide the rest of the submatrix for the
        # divisibility chain; fold an offending row in and redo
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if D[i][i] < 0:
            negate_row(i)
    return D, U, V


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
    D, _, _ = smith_normal_form(rows)
    diag = [D[i][i] for i in range(min(len(rows), n))]
    factors = tuple(d for d in diag if d != 1) + (0,) * (n - len(diag))
    if all(d != 0 for d in factors):
        exponent = factors[-1] if factors else 1
        return AbelianizationResult(factors, exponent)
    return AbelianizationResult(factors, None)


def divides_chain(diagonal: Sequence[int]) -> bool:
    """True when each entry divides the next (0 divides only 0)."""
    for a, b in zip(diagonal, diagonal[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True
