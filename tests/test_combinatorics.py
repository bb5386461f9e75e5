import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irratio.combinatorics import (binomial, binomial_expand, dominance_index,
                                   factorial, growth_table, pascal_rows,
                                   sqrt_rationality)

F = Fraction


class TestFactorial:
    def test_known_values(self):
        assert factorial(7) == 5040
        assert factorial(0) == 1
        assert factorial(5) == 120

    def test_negative(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomial:
    def test_known_values(self):
        assert binomial(5, 2) == 10
        assert binomial(7, 0) == 1
        assert binomial(4, 2) == 6

    def test_k_greater_than_n(self):
        with pytest.raises(ValueError):
            binomial(3, 4)

    def test_closed_form_equals_recursion(self):
        # binomial() asserts its closed form against math.comb; Pascal's
        # rule checks it by a route independent of both
        for n in range(31):
            for k in range(n + 1):
                if 0 < k < n:
                    assert binomial(n, k) == \
                        binomial(n - 1, k - 1) + binomial(n - 1, k)
                else:
                    assert binomial(n, k) == 1

    @settings(deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=300).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_matches_math_comb(self, nk):
        n, k = nk
        assert binomial(n, k) == math.comb(n, k)


class TestPascal:
    def test_row_five(self):
        assert pascal_rows(5).row(5) == [1, 5, 10, 10, 5, 1]

    def test_single_row(self):
        assert pascal_rows(0).rows == [[1]]

    def test_row_four(self):
        assert pascal_rows(4).row(4) == [1, 4, 6, 4, 1]

    def test_row_sums_are_powers_of_two(self):
        triangle = pascal_rows(20)
        for n, row in enumerate(triangle.rows):
            assert sum(row) == 2 ** n


class TestBinomialExpand:
    def test_row_sum(self):
        assert binomial_expand(F(1), F(1), 4) == 16

    def test_zero_second_argument(self):
        assert binomial_expand(F(3, 2), F(0), 5) == F(3, 2) ** 5

    def test_half(self):
        assert binomial_expand(F(1), F(1, 2), 2) == F(9, 4)


class TestDominanceIndex:
    def test_base_two(self):
        # brute force: 2^3=8 >= 3!=6 but 2^4=16 < 4!=24
        assert dominance_index(F(2), F(1)) == 4

    def test_base_one(self):
        assert dominance_index(F(1), F(1)) == 2

    def test_base_below_one(self):
        assert dominance_index(F(1, 2), F(1)) == 1

    def test_minimality(self):
        for a, c in [(F(3), F(1)), (F(5, 2), F(7)), (F(10), F(1, 3))]:
            n = dominance_index(a, c)
            assert c * a ** n < factorial(n)
            if n > 1:
                assert c * a ** (n - 1) >= factorial(n - 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            dominance_index(F(0), F(1))


class TestSqrtRationality:
    def test_perfect_squares(self):
        assert sqrt_rationality(4).root == 2
        assert sqrt_rationality(144).root == 12
        assert sqrt_rationality(1).root == 1

    def test_irrational(self):
        res = sqrt_rationality(2)
        assert res.is_irrational and res.root is None

    def test_scan(self):
        squares = {k * k for k in range(1, 33)}
        for m in range(1, 1001):
            assert sqrt_rationality(m).is_perfect_square == (m in squares)


class TestGrowthTable:
    def test_matches_reference_table(self):
        expected = [
            (0, 0, 0, 1, 1),
            (1, 1, 1, 2, 1),
            (2, 4, 8, 4, 2),
            (3, 9, 27, 8, 6),
            (4, 16, 64, 16, 24),
            (5, 25, 125, 32, 120),
            (6, 36, 216, 64, 720),
            (7, 49, 343, 128, 5040),
        ]
        assert growth_table(7) == expected
