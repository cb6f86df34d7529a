"""Differential test of the dense LaurentPoly, its division by 1 - t^k and
the Betti layer's product by a projective space's polynomial against the
sparse dict class the dense one replaced (dict_laurent.py) and its long
division: every public operation, on small dense inputs, on sparse t^a - t^b
inputs with spans up to 600 (the shape of the flip numerators at
|d| = 150) and on palindromes."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_laurent import DictLaurentPoly, dict_div_exact
from flipchain.betti import _times_proj_space
from flipchain.exactpoly import LaurentPoly, NotDivisible, lp_div_one_minus_t_pow

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
    assert (str(dense), repr(dense), json.loads(dense.json_text())) == (str(ref), repr(ref), ref.to_json_obj())
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


def kernel(k):
    """1 - t^k on both sides."""
    return both([(0, 1), (k, -1)])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs_st, st.integers(1, 8), st.booleans(), st.integers(-20, 20), st.integers(-5, 5).filter(bool))
def test_division_by_one_minus_t_pow_and_its_failures(a_pairs, k, exact, e, c):
    """A numerator a * (1 - t^k) is divided back to a; a perturbed one, or a
    itself when it is not divisible, raises the same NotDivisible on both sides."""
    (a, ra), (den, rden) = both(a_pairs), kernel(k)
    num, rnum = (a * den, ra * rden) if exact else (a, ra)
    got = outcome(lp_div_one_minus_t_pow, num, k)
    assert_same_outcome(got, outcome(dict_div_exact, rnum, rden))
    if exact:
        assert got == a
    bumped, rbumped = num + LaurentPoly.monomial(e, c), rnum + DictLaurentPoly.monomial(e, c)
    got = outcome(lp_div_one_minus_t_pow, bumped, k)
    assert_same_outcome(got, outcome(dict_div_exact, rbumped, rden))
    if exact:  # a monomial is never a multiple of 1 - t^k
        assert got[0] is NotDivisible


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(-300, 300), st.integers(-300, 300), st.integers(1, 300))
def test_division_of_sparse_binomials(a, b, k):
    """(t^a - t^b) / (1 - t^k), as in the flip fibers (k = 2) and the bundle route."""
    num, rnum = both([(a, 1), (b, -1)])
    for m in (2, k):
        assert_same_outcome(outcome(lp_div_one_minus_t_pow, num, m), outcome(dict_div_exact, rnum, kernel(m)[1]))


def test_division_of_zero():
    zero, rzero = both([])
    for k in range(1, 9):
        assert_same(lp_div_one_minus_t_pow(zero, k), dict_div_exact(rzero, kernel(k)[1]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(coeffs, max_size=12), st.integers(0, 8) | st.integers(9, 60))
def test_product_by_a_projective_space(p, m):
    """_times_proj_space(p, m), one sliding sum, against the oracle's product
    by 1 + t^2 + ... + t^(2m); zeros at either end of p included."""
    out = _times_proj_space(p, m)
    assert len(out) == len(p) + 2 * m
    proj = DictLaurentPoly({2 * k: 1 for k in range(m + 1)})
    assert_same(LaurentPoly._from_coeffs(0, out), DictLaurentPoly(enumerate(p)) * proj)


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
