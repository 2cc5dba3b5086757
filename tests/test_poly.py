"""Exact rational polynomial arithmetic and the binomial-basis machinery."""
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from signedgrids.poly import (
    ZERO,
    Polynomial,
    binomial_basis_poly,
    choose_poly,
    format_coeff_array,
    format_latex,
    from_histogram,
    gregory_newton,
    to_json_dict,
)

import tables


def P(*coeffs):
    return Polynomial.from_coeffs(coeffs)


class TestBinomialBasis:
    def test_m1_is_constant_one(self):
        assert binomial_basis_poly(1) == P(1)

    def test_m2(self):
        assert binomial_basis_poly(2) == P(-1, 1)

    def test_m3(self):
        assert binomial_basis_poly(3) == P(1, Fraction(-3, 2), Fraction(1, 2))

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            binomial_basis_poly(0)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_vanishes_below_m_and_is_one_at_m(self, m):
        p = binomial_basis_poly(m)
        for n in range(1, m):
            assert p(n) == 0
        assert p(m) == 1

    @pytest.mark.parametrize("m", range(1, 8))
    def test_integer_valued(self, m):
        p = binomial_basis_poly(m)
        for n in range(0, 20):
            assert p(n).denominator == 1


class TestFromHistogram:
    def test_worked_example_histogram(self):
        assert from_histogram({1: 2, 2: 2, 3: 1}) == P(1, Fraction(1, 2), Fraction(1, 2))

    def test_empty(self):
        assert from_histogram({}) == ZERO

    def test_single_point(self):
        assert from_histogram({1: 1}) == P(1)

    @given(st.dictionaries(st.integers(1, 7), st.integers(1, 50), max_size=5))
    def test_integer_valued_at_integers(self, counts):
        p = from_histogram(counts)
        for n in range(0, 15):
            assert p(n).denominator == 1


class TestEvaluate:
    def test_worked_example_at_three(self):
        assert P(1, Fraction(1, 2), Fraction(1, 2))(3) == 7

    def test_constant_term_at_zero(self):
        p = from_histogram({1: 2, 2: 2, 3: 1})
        assert p(0) == p.coeffs[0]

    def test_reference_square_plus_one(self):
        assert tables.PANCAKE_AT_MOST[2](4) == 17


class TestArithmetic:
    def test_difference_of_reference_tables_k4(self):
        diff = tables.PANCAKE_AT_MOST[4] - tables.PANCAKE_AT_MOST[3]
        assert diff == P(0, Fraction(-3, 2), 4, Fraction(-7, 2), 1)

    def test_self_difference_is_zero(self):
        p = tables.PANCAKE_AT_MOST[5]
        assert p - p == ZERO

    def test_difference_k5_matches_factored_form(self):
        diff = tables.PANCAKE_AT_MOST[5] - tables.PANCAKE_AT_MOST[4]
        assert diff == P(0, 1, Fraction(-43, 6), 11, Fraction(-35, 6), 1)
        assert diff == tables.expand_factored(5)

    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.lists(st.integers(-9, 9), max_size=5),
    )
    def test_add_sub_inverse(self, a, b):
        pa, pb = P(*a), P(*b)
        assert (pa + pb) - pb == pa

    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert P(0, 0).coeffs == ()


class TestGregoryNewton:
    def test_two_values(self):
        assert gregory_newton([0, 2]) == P(0, -1, 1)

    def test_single_value(self):
        assert gregory_newton([5]) == P(0, 5)

    def test_reconstructs_factored_reference_k5(self):
        expected = tables.expand_factored(5)
        values = [expected(j) for j in range(1, 6)]
        assert gregory_newton(values) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gregory_newton([])

    @given(st.dictionaries(st.integers(2, 6), st.integers(1, 30), min_size=1, max_size=4))
    def test_reconstructs_zero_rooted_class_differences(self, counts):
        # differences of nested class polynomials vanish at 0; any
        # histogram polynomial minus its constant term has that shape
        p = from_histogram(counts)
        p = p - P(p(0))
        k = max(p.degree, 1)
        values = [p(j) for j in range(1, k + 1)]
        assert gregory_newton(values) == p


class TestChoosePoly:
    @pytest.mark.parametrize("r", range(0, 7))
    def test_matches_binomials_at_integers(self, r):
        import math

        p = choose_poly(r)
        for n in range(0, 12):
            assert p(n) == math.comb(n, r)


class TestFormatting:
    def test_coeff_array(self):
        assert format_coeff_array(P(1, Fraction(1, 2), Fraction(1, 2))) == "[1, 1/2, 1/2]"

    def test_coeff_array_zero(self):
        assert format_coeff_array(ZERO) == "[]"

    def test_coeff_array_integer_coeffs(self):
        assert format_coeff_array(P(1, 0, 1)) == "[1, 0, 1]"

    def test_latex(self):
        assert format_latex(P(1, 0, Fraction(1, 2))) == r"1 + \frac{1}{2} n^{2}"
        assert format_latex(P(1, 1)) == "1 + n"
        assert format_latex(P(0, -1, 1)) == "-n + n^{2}"
        assert format_latex(ZERO) == "0"

    def test_json_schema(self):
        d = to_json_dict(P(1, Fraction(1, 2), Fraction(1, 2)))
        assert d == {
            "basis": "monomial",
            "coeffs": ["1", "1/2", "1/2"],
            "valid_for": "n>=1",
        }
