"""Ring arithmetic, exact division, kernels and coefficient extraction."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipchain.exactpoly import LaurentPoly, NotDivisible, TruncatedBiSeries, lp_div_one_minus_t_pow

ONE = LaurentPoly.one()
T = LaurentPoly.monomial(1)


def poly(d):
    return LaurentPoly(d)


# -- basic ring operations ---------------------------------------------------


def test_difference_of_squares():
    assert poly({0: 1, 1: 1}) * poly({0: 1, 1: -1}) == poly({0: 1, 2: -1})


def test_binomial_expansion():
    assert poly({0: 1, 1: 1}) ** 4 == poly({0: 1, 1: 4, 2: 6, 3: 4, 4: 1})


@pytest.mark.parametrize("n", [2.0, True, False, Fraction(2), "2", None])
def test_power_takes_only_an_int_exponent(n):
    with pytest.raises(TypeError, match=f"^exponent must be an int, got {re.escape(repr(n))}$"):
        poly({0: 1, 1: 1}) ** n


@pytest.mark.parametrize("scalar", [True, False])
def test_a_bool_scalar_is_rejected_like_a_bool_coefficient(scalar):
    p = poly({0: 1, 1: 1})
    for op in (lambda: p * scalar, lambda: scalar * p, lambda: p + scalar):
        with pytest.raises(TypeError):
            op()
    assert p * int(scalar) == int(scalar) * p == poly({0: int(scalar), 1: int(scalar)})


def test_laurent_exponent_addition():
    assert LaurentPoly.monomial(-2) * LaurentPoly.monomial(5) == LaurentPoly.monomial(3)


def test_monomial_values():
    assert LaurentPoly.monomial(7, 0) == LaurentPoly.monomial(-3, 0) == LaurentPoly.zero()
    assert LaurentPoly.monomial(-3, 5).valuation() == LaurentPoly.monomial(-3, 5).degree() == -3
    assert LaurentPoly.monomial(-3, 5) == poly({-3: 5})


def test_zero_normalization_and_predicates():
    p = poly({3: 1}) - poly({3: 1})
    assert p.is_zero() and p == LaurentPoly.zero()
    assert poly({-1: 2}).is_polynomial() is False
    assert poly({0: 1, 5: 3}).is_polynomial() is True
    assert LaurentPoly.zero().is_polynomial() is True


def test_non_integer_terms_are_rejected_not_truncated():
    for terms in ({0.5: 1.9, 2: 3.7}, {2: 3.7}, {0: "1"}, {1: 0.0}, {True: 1}, {0: Fraction(2)}):
        with pytest.raises(TypeError, match="must be integers"):
            LaurentPoly(terms)


def test_degree_valuation_palindromic():
    p = poly({-2: 1, 0: 5, 2: 1})
    assert p.degree() == 2 and p.valuation() == -2
    assert p.is_palindromic()
    assert not poly({0: 1, 1: 2, 2: 3}).is_palindromic()
    with pytest.raises(ValueError):
        LaurentPoly.zero().degree()


def test_evaluation_at_one():
    p = poly({-1: 2, 0: 3, 4: -1})
    assert p(1) == 4


@pytest.mark.parametrize("x", [0.5, 1.0, True, False, "2", None, 2j])
def test_evaluation_takes_only_an_int_or_a_fraction(x):
    with pytest.raises(TypeError, match=f"^evaluation point must be an int or a Fraction, got {re.escape(repr(x))}$"):
        poly({0: 1, 1: 1, -1: 2})(x)


# -- exact division ----------------------------------------------------------


def test_geometric_factor_division():
    assert lp_div_one_minus_t_pow(poly({0: 1, 6: -1}), 2) == poly({0: 1, 2: 1, 4: 1})


def test_identity_division():
    assert lp_div_one_minus_t_pow(poly({0: 1, 2: -1}), 2) == ONE


def test_division_oracle_by_multiplication():
    # ((1+t)^4 (1-t^4)) / (1-t^2) compared against the product route
    lhs = lp_div_one_minus_t_pow(poly({0: 1, 1: 1}) ** 4 * poly({0: 1, 4: -1}), 2)
    rhs = poly({0: 1, 1: 1}) ** 4 * poly({0: 1, 2: 1})
    assert lhs == rhs


def test_not_divisible():
    with pytest.raises(NotDivisible, match=r"^\(1 \+ t\) is not divisible by \(1 - t\^2\)$"):
        lp_div_one_minus_t_pow(poly({0: 1, 1: 1}), 2)
    with pytest.raises(NotDivisible):
        lp_div_one_minus_t_pow(poly({0: 1, 3: -1}), 4)  # a span shorter than k
    for k in (0, -2, True, 2.0):
        with pytest.raises(ValueError, match="^k must be a positive int"):
            lp_div_one_minus_t_pow(ONE, k)


#: A Fraction whose numerator is past the 4,300-digit limit of int-to-str, so its repr raises.
HUGE = Fraction(10**5000, 3)


@pytest.mark.parametrize("call, kind, message", [
    (lambda: LaurentPoly({HUGE: 1}), TypeError, "exponents and coefficients must be integers, got <Fraction>: 1"),
    (lambda: LaurentPoly({0: HUGE}), TypeError, "exponents and coefficients must be integers, got 0: <Fraction>"),
    (lambda: LaurentPoly.monomial(HUGE), TypeError, "exponents and coefficients must be integers, got <Fraction>: 1"),
    (lambda: LaurentPoly.monomial(1) ** HUGE, TypeError, "exponent must be an int, got <Fraction>"),
    (lambda: lp_div_one_minus_t_pow(LaurentPoly.monomial(1), HUGE), ValueError,
     "k must be a positive int, got <Fraction>"),
    (lambda: lp_div_one_minus_t_pow(LaurentPoly.monomial(1), -10**5000), ValueError,
     "k must be a positive int, got <int of 16610 bits>"),
    (lambda: ONE(type("Big", (int,), {})(10**5000)), TypeError,
     "evaluation point must be an int or a Fraction, got <Big>"),
], ids=["exponent", "coefficient", "monomial", "power", "divisor-fraction", "divisor-int", "evaluation-point"])
def test_a_value_too_long_to_print_is_rejected_with_its_own_message(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message


def test_laurent_division_with_shifts():
    num = LaurentPoly.monomial(-3) * poly({0: 1, 4: -1})
    q = lp_div_one_minus_t_pow(num, 2)
    assert q * poly({0: 1, 2: -1}) == num
    assert q == poly({-3: 1, -1: 1})


# -- geometric kernels and series --------------------------------------------


def kernel(order, k=0):
    """1/(1 - x t^k) = sum_n x^n t^(k n), truncated at order."""
    return TruncatedBiSeries([LaurentPoly.monomial(k * n) for n in range(order + 1)], order)


def test_kernels_invert_their_denominators():
    n = 6
    k4 = kernel(n, k=4)
    den4 = TruncatedBiSeries([ONE, -LaurentPoly.monomial(4)], n)
    assert k4 * den4 == TruncatedBiSeries([ONE], n)


def test_coeff_x_binomial():
    s = TruncatedBiSeries([ONE, T], 2)
    assert (s * s).coeff_x(1) == poly({1: 2})


def test_coeff_x_double_geometric():
    # 1/((1-x)(1-x t^2)) convolves two geometric series
    s = kernel(2, k=0) * kernel(2, k=2)
    assert s.coeff_x(2) == poly({0: 1, 2: 1, 4: 1})


def test_constant_term_of_kernel_products():
    s = kernel(4, k=0) * kernel(4, k=2) * kernel(4, k=4)
    assert s.coeff_x(0) == ONE


def test_order_exceeded():
    s = kernel(3, k=2)
    with pytest.raises(ValueError, match="beyond truncation order"):
        s.coeff_x(4)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        kernel(3) * kernel(4)


# -- serialization -----------------------------------------------------------


def test_json_round_trip_and_layout():
    p = poly({-2: 3, 0: -7, 5: 12345678901234567890})
    obj = json.loads(p.json_text())
    assert obj == {"terms": [[-2, "3"], [0, "-7"], [5, "12345678901234567890"]]}


# -- property tests ----------------------------------------------------------

terms_st = st.dictionaries(st.integers(-6, 6), st.integers(-50, 50), max_size=6)
poly_st = terms_st.map(LaurentPoly)


@settings(derandomize=True, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(derandomize=True, deadline=None)
@given(poly_st, st.integers(1, 8))
def test_exact_division_round_trip(a, k):
    assert lp_div_one_minus_t_pow(a * poly({0: 1, k: -1}), k) == a


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    st.lists(terms_st, min_size=1, max_size=4).map(
        lambda ts: TruncatedBiSeries([LaurentPoly(t) for t in ts], 3)
    ),
    st.lists(terms_st, min_size=1, max_size=4).map(
        lambda ts: TruncatedBiSeries([LaurentPoly(t) for t in ts], 3)
    ),
)
def test_series_product_is_coefficient_convolution(f, g):
    prod = f * g
    for k in range(4):
        expected = LaurentPoly.zero()
        for a in range(k + 1):
            expected = expected + f.coeff_x(a) * g.coeff_x(k - a)
        assert prod.coeff_x(k) == expected


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 6), st.integers(0, 8))
def test_geometric_kernel_identity(k, n):
    kern = kernel(n, k=k)
    den = TruncatedBiSeries([ONE, -LaurentPoly.monomial(k)], n)
    assert kern * den == TruncatedBiSeries([ONE], n)
