import math
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordkit.groups import PROMISLOW_PRESENTATION, Presentation
from ordkit.snf import _validate, abelianization, smith_normal_form


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


def divides_chain(diagonal: Sequence[int]) -> bool:
    """True when each entry divides the next (0 divides only 0)."""
    for a, b in zip(diagonal, diagonal[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def determinantal_divisor(matrix: Sequence[Sequence[int]], k: int) -> int:
    """The gcd of the k x k minors of matrix, 0 when every one vanishes."""
    rows, cols = range(len(matrix)), range(len(matrix[0]))
    return math.gcd(*(
        int_det([[matrix[i][j] for j in picked_cols] for i in picked_rows])
        for picked_rows in combinations(rows, k)
        for picked_cols in combinations(cols, k)
    ))


def assert_equivalent(M: Sequence[Sequence[int]], D: Sequence[Sequence[int]]) -> None:
    """D has M's shape and its diagonal has M's determinantal divisors:
    d_1 ... d_k is the gcd of M's k x k minors for every k.  Those gcds are
    unchanged by unimodular row and column operations, and they fix the
    diagonal of a Smith form, so no U and V need to be tracked."""
    assert [len(row) for row in D] == [len(row) for row in M]
    diag = diagonal(D)
    for k in range(1, len(diag) + 1):
        assert math.prod(diag[:k]) == determinantal_divisor(M, k), k


class TestSmithNormalForm:
    def test_antidiagonal_fours(self):
        # hand reduction: swap columns, clear, leaves diag(4, 4)
        M = [[0, 4], [4, 0]]
        D = smith_normal_form(M)
        assert diagonal(D) == [4, 4]
        assert_equivalent(M, D)

    def test_identity_fixed(self):
        M = [[1, 0], [0, 1]]
        D = smith_normal_form(M)
        assert D == M

    def test_gcd_reduction(self):
        # hand reduction: gcd of entries 2, |det| = 8, so diag(2, 4)
        M = [[2, 4], [6, 8]]
        D = smith_normal_form(M)
        assert diagonal(D) == [2, 4]
        assert_equivalent(M, D)

    def test_zero_matrix(self):
        D = smith_normal_form([[0, 0], [0, 0]])
        assert D == [[0, 0], [0, 0]]
        assert_equivalent([[0, 0], [0, 0]], D)

    def test_rectangular(self):
        M = [[2, 4, 6]]
        D = smith_normal_form(M)
        assert diagonal(D) == [2]
        assert_equivalent(M, D)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1.5, 2], [0, 1]])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_properties(self, rows):
        D = smith_normal_form(rows)
        assert_equivalent(rows, D)
        diag = diagonal(D)
        assert all(d >= 0 for d in diag)
        assert divides_chain(diag)
        # off-diagonal entries are zero
        for i, row in enumerate(D):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


class TestDeterminant:
    def test_known(self):
        assert int_det([[4, 3], [6, 3]]) == -6
        assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert int_det([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert int_det([[1, 2], [2, 4]]) == 0


class TestOracleShapes:
    """The oracles reject a wrong diagonal and the shapes a wrong minor has."""

    def test_equivalence_rejects_a_wrong_diagonal(self):
        # diag(2, 8) has M's d_1 = 2 but |det| 16, not 8; diag(1, 8) has
        # |det| 8 but d_1 = 1; the last has the wrong shape
        M = [[2, 4], [6, 8]]
        for wrong in ([[2, 0], [0, 8]], [[1, 0], [0, 8]], [[2, 0, 0], [0, 4, 0]]):
            with pytest.raises(AssertionError):
                assert_equivalent(M, wrong)

    def test_non_square_determinant_raises(self):
        with pytest.raises(ValueError, match="square"):
            int_det([[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize(
        "matrix, message",
        [([[1, 0], [0]], "ragged"), ([[1, 0.5], [0, 1]], "non-integer")],
    )
    def test_determinant_validates_entries(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            int_det(matrix)


class TestAbelianization:
    def test_promislow(self):
        result = abelianization(PROMISLOW_PRESENTATION)
        assert result.invariant_factors == (4, 4)
        assert result.exponent == 4
        assert result.is_finite

    def test_cyclic_5(self):
        result = abelianization(Presentation(1, ((1, 1, 1, 1, 1),)))
        assert result.invariant_factors == (5,)
        assert result.exponent == 5

    def test_free_abelian_rank_2(self):
        result = abelianization(Presentation(2, ((1, 2, -1, -2),)))
        assert result.invariant_factors == (0, 0)
        assert result.exponent is None

    def test_no_relators(self):
        result = abelianization(Presentation(2, ()))
        assert result.invariant_factors == (0, 0)

    def test_klein_style(self):
        pres = Presentation(2, ((1, 1), (2, 2), (1, 2, -1, -2)))
        result = abelianization(pres)
        assert result.invariant_factors == (2, 2)
        assert result.exponent == 2

    def test_trivial_factor_dropped(self):
        result = abelianization(Presentation(2, ((1,),)))
        assert result.invariant_factors == (0,)
