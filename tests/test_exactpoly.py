"""Ring arithmetic, exact division, kernels and coefficient extraction."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipchain.exactpoly import (
    LaurentPoly,
    NotDivisible,
    OrderExceeded,
    TruncatedBiSeries,
    geom_kernel,
    lp_div_exact,
    one_plus_xt_power,
)

ONE = LaurentPoly.one()
T = LaurentPoly.monomial(1)


def poly(d):
    return LaurentPoly(d)


# -- basic ring operations ---------------------------------------------------


def test_difference_of_squares():
    assert poly({0: 1, 1: 1}) * poly({0: 1, 1: -1}) == poly({0: 1, 2: -1})


def test_binomial_expansion():
    assert poly({0: 1, 1: 1}) ** 4 == poly({0: 1, 1: 4, 2: 6, 3: 4, 4: 1})


def test_laurent_exponent_addition():
    assert LaurentPoly.monomial(-2) * LaurentPoly.monomial(5) == LaurentPoly.monomial(3)


def test_zero_normalization_and_predicates():
    p = poly({3: 1}) - poly({3: 1})
    assert p.is_zero() and p == LaurentPoly.zero()
    assert poly({-1: 2}).is_polynomial() is False
    assert poly({0: 1, 5: 3}).is_polynomial() is True
    assert LaurentPoly.zero().is_polynomial() is True


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


# -- exact division ----------------------------------------------------------


def test_geometric_factor_division():
    num = poly({0: 1, 6: -1})
    den = poly({0: 1, 2: -1})
    assert lp_div_exact(num, den) == poly({0: 1, 2: 1, 4: 1})


def test_identity_division():
    den = poly({0: 1, 2: -1})
    assert lp_div_exact(den, den) == ONE


def test_division_oracle_by_multiplication():
    # ((1+t)^4 (1-t^4)) / (1-t^2) compared against the product route
    lhs = lp_div_exact(poly({0: 1, 1: 1}) ** 4 * poly({0: 1, 4: -1}), poly({0: 1, 2: -1}))
    rhs = poly({0: 1, 1: 1}) ** 4 * poly({0: 1, 2: 1})
    assert lhs == rhs


def test_not_divisible():
    with pytest.raises(NotDivisible):
        lp_div_exact(poly({0: 1, 1: 1}), poly({0: 1, 2: -1}))
    with pytest.raises(NotDivisible):
        lp_div_exact(poly({0: 3}), poly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        lp_div_exact(ONE, LaurentPoly.zero())


def test_integer_division_by_a_non_unit_leading_coefficient():
    den = poly({0: 3, 1: 5})
    assert lp_div_exact(poly({0: 1, 1: 2}) * den, den) == poly({0: 1, 1: 2})
    with pytest.raises(NotDivisible):
        lp_div_exact(poly({0: 1, 1: 2}), den)


def test_laurent_division_with_shifts():
    num = LaurentPoly.monomial(-3) * poly({0: 1, 4: -1})
    den = LaurentPoly.monomial(2) * poly({0: 1, 2: -1})
    q = lp_div_exact(num, den)
    assert q * den == num


# -- geometric kernels and series --------------------------------------------


def test_geom_kernel_xt4():
    k = geom_kernel(3, k=4)
    assert k.coeff_x(2) == LaurentPoly.monomial(8)
    assert k.coeff_x(0) == ONE


def test_kernels_invert_their_denominators():
    n = 6
    k4 = geom_kernel(n, k=4)
    den4 = TruncatedBiSeries([ONE, -LaurentPoly.monomial(4)], n)
    assert k4 * den4 == TruncatedBiSeries([ONE], n)


def test_coeff_x_binomial():
    s = TruncatedBiSeries([ONE, T], 2)
    assert (s * s).coeff_x(1) == poly({1: 2})


def test_coeff_x_double_geometric():
    # 1/((1-x)(1-x t^2)) convolves two geometric series
    s = geom_kernel(2, k=0) * geom_kernel(2, k=2)
    assert s.coeff_x(2) == poly({0: 1, 2: 1, 4: 1})


def test_constant_term_of_kernel_products():
    s = (
        geom_kernel(4, k=0)
        * geom_kernel(4, k=2)
        * geom_kernel(4, k=4)
    )
    assert s.coeff_x(0) == ONE


def test_order_exceeded():
    s = geom_kernel(3, k=2)
    with pytest.raises(OrderExceeded):
        s.coeff_x(4)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        geom_kernel(3) * geom_kernel(4)


def test_one_plus_xt_power():
    s = one_plus_xt_power(4, 6)
    assert s.coeff_x(2) == poly({2: 6})
    assert s.coeff_x(5) == LaurentPoly.zero()


# -- serialization -----------------------------------------------------------


def test_json_round_trip_and_layout():
    p = poly({-2: 3, 0: -7, 5: 12345678901234567890})
    obj = p.to_json_obj()
    assert obj == {"terms": [[-2, "3"], [0, "-7"], [5, "12345678901234567890"]]}
    assert LaurentPoly.from_json_obj(json.loads(json.dumps(obj))) == p


# -- property tests ----------------------------------------------------------

terms_st = st.dictionaries(st.integers(-6, 6), st.integers(-50, 50), max_size=6)
poly_st = terms_st.map(LaurentPoly)
nonzero_poly_st = poly_st.filter(lambda p: not p.is_zero())


@settings(derandomize=True, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(derandomize=True, deadline=None)
@given(poly_st, nonzero_poly_st)
def test_exact_division_round_trip(a, b):
    assert lp_div_exact(a * b, b) == a


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
    kern = geom_kernel(n, k=k)
    den = TruncatedBiSeries([ONE, -LaurentPoly.monomial(k)], n)
    assert kern * den == TruncatedBiSeries([ONE], n)
