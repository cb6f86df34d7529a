"""Differential test of the dense LaurentPoly and lp_div_exact against the
sparse dict class they replaced (dict_laurent.py): every public operation,
on small dense inputs, on sparse t^a - t^b inputs with spans up to 600 (the
shape of the flip numerators at |d| = 150) and on palindromes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_laurent import DictLaurentPoly, dict_div_exact
from flipchain.exactpoly import LaurentPoly, lp_div_exact

coeffs = st.integers(-20, 20) | st.integers(-10**30, 10**30)
small_pairs = st.lists(st.tuples(st.integers(-8, 8), coeffs), max_size=8)
sparse_pairs = st.builds(
    lambda a, b, c, extra: [(a, c), (b, -c)] + extra,
    st.integers(-300, 300), st.integers(-300, 300), st.sampled_from([1, -1, 2, -3]),
    st.lists(st.tuples(st.integers(-300, 300), st.integers(-5, 5)), max_size=2),
)
palindrome_pairs = st.builds(lambda ps, s: ps + [(s - e, c) for e, c in ps], small_pairs, st.integers(-8, 8))
cancelling_pairs = st.builds(lambda ps, k: ps + [(e, -c) for e, c in ps[:k]], small_pairs, st.integers(0, 8))
pairs_st = small_pairs | sparse_pairs | palindrome_pairs | cancelling_pairs
short_pairs = small_pairs | cancelling_pairs  # operands kept small for ** and as divisors


def both(pairs):
    return LaurentPoly(pairs), DictLaurentPoly(pairs)


def assert_same(dense, ref):
    assert type(dense) is LaurentPoly and type(ref) is DictLaurentPoly
    assert list(dense.items()) == dense.sorted_items() == ref.sorted_items()
    assert (str(dense), repr(dense), dense.to_json_obj()) == (str(ref), repr(ref), ref.to_json_obj())
    assert dense.is_zero() is ref.is_zero() and bool(dense) is bool(ref)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(dense, ref):
    if isinstance(ref, DictLaurentPoly):
        assert_same(dense, ref)
    else:
        assert type(dense) is type(ref) and dense == ref


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st)
def test_construction_from_pairs_and_from_a_mapping(pairs):
    assert_same(*both(pairs))
    assert_same(*both(dict(pairs)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st, st.integers(0, 3), st.integers(0, 3))
def test_hash_and_equality_across_construction_paths(pairs, pad_lo, pad_hi):
    p = LaurentPoly(pairs)
    lo = p.valuation() if p else 0
    dense = [0] * pad_lo + [p.coeff(e) for e in range(lo, p.degree() + 1 if p else lo)] + [0] * pad_hi
    merged = {}
    for e, c in pairs:
        merged[e] = merged.get(e, 0) + c
    for q in (LaurentPoly(merged), LaurentPoly._from_coeffs(lo - pad_lo, dense), LaurentPoly(reversed(pairs)),
              p + LaurentPoly.zero(), p * 1, -(-p), LaurentPoly(p.items())):
        assert q == p and hash(q) == hash(p)
        assert_same(q, DictLaurentPoly(merged))


BAD_TERMS = [(0.5, 1), (1, 1.5), (True, 1), (1, False), (0, "1"), ("0", 1), (1, Fraction(2)), (1, 0.0)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_pairs, st.sampled_from(BAD_TERMS), st.integers(0, 8), st.booleans())
def test_non_integer_terms_raise_the_same_type_error(pairs, bad, at, as_mapping):
    pairs = [(e, c) for e, c in pairs if e != bad[0]]  # so that a mapping keeps the bad term
    terms = pairs[:at] + [bad] + pairs[at:]
    if as_mapping:
        terms = dict(terms)
    assert outcome(LaurentPoly, terms) == outcome(DictLaurentPoly, terms)
    assert outcome(LaurentPoly, terms)[0] is TypeError


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(-300, 300), coeffs | st.just(0))
def test_monomials(exponent, coeff):
    assert_same(LaurentPoly.monomial(exponent, coeff), DictLaurentPoly.monomial(exponent, coeff))
    assert_same(LaurentPoly.monomial(exponent), DictLaurentPoly.monomial(exponent))


@pytest.mark.parametrize("bad", BAD_TERMS)
def test_monomials_of_non_integer_terms_raise_the_same_type_error(bad):
    assert outcome(LaurentPoly.monomial, *bad) == outcome(DictLaurentPoly.monomial, *bad)
    assert outcome(LaurentPoly.monomial, *bad)[0] is TypeError


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st, pairs_st, st.integers(-5, 5))
def test_ring_operations(a_pairs, b_pairs, k):
    (a, ra), (b, rb) = both(a_pairs), both(b_pairs)
    for dense, ref in ((a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb), (b * a, rb * ra),
                       (a * k, ra * k), (k * a, k * ra), (a + k, ra + k), (k + a, k + ra), (a - k, ra - k),
                       (k - a, k - ra)):
        assert_same(dense, ref)
    for other in ("x", 1.5, Fraction(1, 2), True, False):  # the messages name the two classes
        assert outcome(lambda: a + other)[0] is outcome(lambda: ra + other)[0] is TypeError
        assert outcome(lambda: a * other)[0] is outcome(lambda: ra * other)[0] is TypeError


@settings(derandomize=True, deadline=None, max_examples=100)
@given(short_pairs, st.integers(-1, 4))
def test_powers(pairs, n):
    a, ra = both(pairs)
    assert_same_outcome(outcome(pow, a, n), outcome(pow, ra, n))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st, short_pairs, st.booleans())
def test_exact_division_and_its_failures(a_pairs, b_pairs, exact):
    (a, ra), (b, rb) = both(a_pairs), both(b_pairs)
    num, rnum = (a * b, ra * rb) if exact else (a, ra)
    got, want = outcome(lp_div_exact, num, b), outcome(dict_div_exact, rnum, rb)
    assert_same_outcome(got, want)
    if exact and b:
        assert got == a


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(-300, 300), st.integers(-300, 300), st.integers(1, 300), st.sampled_from([1, -1, 2, -2, 3]))
def test_division_of_sparse_binomials(a, b, k, lead):
    """(t^a - t^b) / (1 - t^2) and by lead t^k - 1, as in the flip fibers and the bundle route."""
    num, rnum = both([(a, 1), (b, -1)])
    for den_pairs in ([(0, 1), (2, -1)], [(0, -1), (k, lead)]):
        den, rden = both(den_pairs)
        assert_same_outcome(outcome(lp_div_exact, num, den), outcome(dict_div_exact, rnum, rden))


def test_division_by_zero_and_of_zero():
    zero, rzero = both([])
    for pairs in ([], [(0, 1)], [(-3, 2), (5, 1)]):
        p, rp = both(pairs)
        assert outcome(lp_div_exact, p, zero) == outcome(dict_div_exact, rp, rzero) == (
            ZeroDivisionError, "division by the zero polynomial")
        if pairs:
            assert_same(lp_div_exact(zero, p), dict_div_exact(rzero, rp))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st)
def test_inspection(pairs):
    p, rp = both(pairs)
    for name in ("degree", "valuation", "is_polynomial", "is_palindromic", "has_nonneg_coeffs", "is_zero"):
        assert outcome(getattr(p, name)) == outcome(getattr(rp, name)), name
    lo, hi = (p.valuation(), p.degree()) if p else (0, 0)
    for e in range(lo - 2, hi + 3):
        assert p.coeff(e) == rp.coeff(e)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st, st.sampled_from([1, 2, -1, 0, Fraction(1), Fraction(3, 2), Fraction(-2, 5)]))
def test_evaluation(pairs, x):
    p, rp = both(pairs)
    got, want = outcome(p, x), outcome(rp, x)
    assert type(got) is type(want) and got == want


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st)
def test_evaluation_at_one_is_the_coefficient_sum(pairs):
    """x = 1 takes the sum of the coefficients instead of Horner's rule; the
    result is an int unless some exponent is negative, as for any int x."""
    p, rp = both(pairs)
    got, want = p(1), rp(1)
    assert type(got) is type(want) and got == want == sum(c for _, c in rp.items())
    assert type(got) is (Fraction if p and p.valuation() < 0 else int)


@pytest.mark.parametrize("pairs", [[], [(0, 1)], [(-2, 3), (0, -7), (5, 12345678901234567890)], [(600, 1), (0, -1)]])
def test_formatting_examples(pairs):
    assert_same(*both(pairs))
