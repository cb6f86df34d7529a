"""Poincare polynomial routes: symmetric products, flip differences,
telescoping vs closed-form extraction, bundle moduli and blow-up identity."""

import contextlib
import hashlib
import inspect
import io
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from math import comb

import pytest

from dict_laurent import DictLaurentPoly, dict_div_exact
from flipchain import betti, cli
from flipchain.betti import (
    CHAMBER_INVARIANTS,
    REPORT_INVARIANTS,
    blowup_consistency,
    blowup_delta,
    build_betti_report,
    flip_difference,
    fm_poincare_closed,
    fm_poincare_recursive,
    mcon_poincare,
    proj_space_poincare,
    report_from_json_obj,
    report_to_json_obj,
    sym_product_poincare,
    terminal_poincare,
    u2d_from_bundle,
    u2d_poincare,
)
from flipchain.chambers import InvalidInput, _json_text, fm_index_range, moduli_dim
from flipchain.exactpoly import ConsistencyFailure, LaurentPoly, NotDivisible, TruncatedBiSeries, lp_div_one_minus_t_pow

ONE_PLUS_T = LaurentPoly({0: 1, 1: 1})


# -- symmetric products --------------------------------------------------------


def test_sym_product_point():
    assert sym_product_poincare(0, 3) == LaurentPoly.one()


def test_sym_product_curve_itself():
    for g in range(1, 6):
        assert sym_product_poincare(1, g) == LaurentPoly({0: 1, 1: 2 * g, 2: 1})


def test_sym_square_elliptic():
    expected = ONE_PLUS_T ** 2 * LaurentPoly({0: 1, 2: 1})
    assert sym_product_poincare(2, 1) == expected
    assert sym_product_poincare(2, 1) == LaurentPoly({0: 1, 1: 2, 2: 2, 3: 2, 4: 1})


def sym_product_by_monomial_sum(n, g):
    """Macdonald's sum as sym_product_poincare built it before it filled one
    list: C(2g, k) t^k times P^(n-k) as LaurentPoly values, summed."""
    terms = (LaurentPoly({k: comb(2 * g, k)}) * proj_space_poincare(n - k) for k in range(min(n, 2 * g) + 1))
    return sum(terms, LaurentPoly.zero())


def test_the_list_filled_sym_product_matches_the_monomial_sum():
    for g in range(9):
        for n in range(61):
            assert sym_product_poincare(n, g) == sym_product_by_monomial_sum(n, g), (n, g)


def test_the_binomial_row_is_the_power_of_one_plus_t():
    for n in range(21):
        assert LaurentPoly._from_coeffs(0, betti._one_plus_t_pow(n)) == ONE_PLUS_T ** n, n


# -- flip differences -----------------------------------------------------------


def test_flip_difference_top_index_is_minus_terminal():
    for d, g in ((-5, 2), (-7, 3), (-4, 2)):
        assert flip_difference(-d - 1, d, g) == -terminal_poincare(d, g)


def test_flip_difference_degree_matches_locus_dimension():
    # at (j=3, d=-5, g=2) the ranks differ, so the top degree is twice the
    # dimension of the larger projectivized locus
    diff = flip_difference(3, -5, 2)
    assert diff.degree() == 2 * 6


def test_flip_difference_vanishes_when_ranks_match():
    # rank W- = rank W+ = 2 at (j=2, d=-5, g=2): a Betti-neutral wall
    assert flip_difference(2, -5, 2).is_zero()


def test_flip_difference_range():
    with pytest.raises(InvalidInput, match="^j: "):
        flip_difference(1, -5, 2)


# -- terminal chamber -------------------------------------------------------------


def test_terminal_d_minus5_g2():
    expected = ONE_PLUS_T ** 4 * LaurentPoly({2 * k: 1 for k in range(6)})
    assert terminal_poincare(-5, 2) == expected
    assert terminal_poincare(-5, 2).degree() == 14


def test_terminal_d_minus1_g2():
    assert terminal_poincare(-1, 2) == ONE_PLUS_T ** 4 * LaurentPoly({0: 1, 2: 1})


# -- chamber polynomials -----------------------------------------------------------


def test_recursive_top_chamber_is_terminal():
    for d, g in ((-5, 2), (-8, 3), (-1, 2)):
        assert fm_poincare_recursive(-d - 1, d, g) == terminal_poincare(d, g)
        assert fm_poincare_closed(-d - 1, d, g) == terminal_poincare(d, g)


def test_first_chamber_shape():
    p = fm_poincare_recursive(2, -5, 2)
    assert p.degree() == 14
    assert p.is_palindromic()
    assert p.coeff(0) == 1


def test_two_routes_agree_spot_grid():
    for g in (2, 3):
        for d in (-1, -2, -3, -6, -9):
            lo, hi = fm_index_range(d)
            for i in range(lo, hi + 1):
                assert fm_poincare_recursive(i, d, g) == fm_poincare_closed(i, d, g)


def test_two_routes_agree_at_large_degree():
    for g in range(2, 6):
        for d in (-40, -41):
            lo, hi = fm_index_range(d)
            for i in range(lo, hi + 1):
                assert fm_poincare_recursive(i, d, g) == fm_poincare_closed(i, d, g), (i, d, g)


def macdonald_series(g, order):
    """(1+xt)^(2g) * 1/(1-x) * 1/(1-x t^2) truncated at order: Macdonald's
    generating function for the symmetric products, the definition both
    routes' formulas come from."""
    binomial = TruncatedBiSeries([LaurentPoly.monomial(k, comb(2 * g, k)) for k in range(order + 1)], order)
    product = binomial
    for step in (0, 2):
        product = product * TruncatedBiSeries([LaurentPoly.monomial(step * n) for n in range(order + 1)], order)
    return product


def _undivided(divided):
    """The numerator of a list cached divided by 1 - t^2: a step-2 difference undoes the division."""
    return LaurentPoly(enumerate(x - y for x, y in zip(divided, [0, 0] + divided)))


def test_explicit_sum_and_recurrence_match_the_generating_function():
    # the closed lists hold (1+t)^(2g) f_k only inside (1+t)^(2g) A_k and (1+t)^(2g) B_k, so all three
    # are compared times (1+t)^(2g), which is nonzero: Z[t] has no zero divisors
    for g in range(7):
        series, shared = macdonald_series(g, 15), ONE_PLUS_T ** (2 * g)
        a_below = b_below = LaurentPoly.zero()
        for k in range(16):
            a, b = (_undivided(divided) for divided in betti._closed_lists(k, g))
            listed = a - LaurentPoly.monomial(4) * a_below  # A_k = f_k + t^4 A_(k-1)
            assert listed == shared * sym_product_poincare(k, g) == shared * series.coeff_x(k), (k, g)
            assert b - b_below == LaurentPoly.monomial(2 * k) * listed, (k, g)  # B_k = B_(k-1) + t^(2k) f_k
            a_below, b_below = a, b


def _betti_caches():
    return [f for f in vars(betti).values() if callable(getattr(f, "cache_clear", None))]


def _with_shallow_stack(route, *args):
    """route(*args) cold and with at most 60 frames of stack to spare."""
    for cache in _betti_caches():
        cache.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        return route(*args)
    finally:
        sys.setrecursionlimit(limit)


def test_closed_route_at_a_very_large_degree_needs_no_deep_recursion():
    p = _with_shallow_stack(fm_poincare_closed, 1100, -2200, 2)
    assert p.degree() == 2 * moduli_dim(-2200, 2)
    assert p.coeff(0) == 1


def test_the_closed_table_grows_to_a_large_n_without_deep_recursion():
    a, b = _with_shallow_stack(betti._closed_lists, 1100, 2)
    assert len(a) == len(b) == 4 * 1100 + 2 * 2 + 1


def test_threads_growing_one_cold_table_get_the_rows_of_one_thread():
    def rows(g):
        return [betti._closed_lists(n, g) for n in range(120)]

    for g in (2, 3):
        betti._closed_table.cache_clear()
        alone = rows(g)
        betti._closed_table.cache_clear()
        betti._closed_table(g)  # so that every thread grows this one table
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                grown = list(pool.map(rows, [g] * 4))
        finally:
            sys.setswitchinterval(interval)
        assert grown == [alone] * 4 and rows(g) == alone, g
    betti._closed_table.cache_clear()


def test_recursive_route_at_a_large_degree_needs_no_deep_recursion():
    lo, _ = fm_index_range(-300)
    assert _with_shallow_stack(fm_poincare_recursive, lo, -300, 2) == fm_poincare_closed(lo, -300, 2)


def test_only_the_caches_keyed_by_genus_remain_and_stay_small():
    assert sorted(f.__name__ for f in _betti_caches()) == [
        "_bundle_numerator", "_closed_table", "_divided_shared_factor", "_fiber_identity_holds", "mcon_poincare",
        "u2d_poincare"]
    for cache in _betti_caches():
        cache.cache_clear()
    for d in range(-1, -41, -1):
        build_betti_report(d, 2)
    verdicts = betti._fiber_identity_holds
    assert sum(cache.cache_info().currsize for cache in _betti_caches() if cache is not verdicts) <= 80
    assert betti._bundle_numerator.cache_info().misses == 1  # u2d_poincare and mcon_poincare share it
    # the verdict cache holds one bool per distinct (up, down, rank W+, rank W-) the reports meet
    keys = {(2 * d + 4 + 4 * j + 2, -2 * d - 2 * j - 2, -d - j - 1, d + 2 + 2 * j + 1)
            for d in range(-1, -41, -1) for j in range(fm_index_range(d)[0], -d)}
    assert verdicts.cache_info().currsize == len(keys) == 420


def test_flip_difference_is_the_product_of_the_bundle_and_shared_factors():
    # plain LaurentPoly products, sharing no code with the prefix-pass division
    cells = [(j, d, g) for g in range(2, 7) for d in range(-1, -61, -1) for j in range(fm_index_range(d)[0], -d)]
    assert len(cells) == 4650
    for j, d, g in cells:
        rank_plus, rank_minus = -d - j - 1, d + g + 2 * j + 1
        bundle = proj_space_poincare(rank_plus - 1) - proj_space_poincare(rank_minus - 1)
        shared = ONE_PLUS_T ** (2 * g) * sym_product_poincare(rank_plus, g)  # E(n, g)
        assert flip_difference(j, d, g) == bundle * shared, (j, d, g)


def test_the_divided_shared_factor_is_the_product_below_and_from_n_2g():
    # (1+t)^(2g) Sym^n by plain LaurentPoly products, divided by 1 - t^2 in a running sum per parity
    # of the exponent; the route's one formula has m = min(n, 2g), so from n = 2g on m stops growing
    # and no binomial term past t^m is subtracted
    for cache in _betti_caches():
        cache.cache_clear()
    sides = set()
    for g in range(2, 13):
        shared = ONE_PLUS_T ** (2 * g)
        for n in range(101):
            q = list((shared * sym_product_poincare(n, g))._coeffs)
            for k in range(2, len(q)):
                q[k] += q[k - 2]
            assert betti._divided_shared_factor(n, g) == q, (n, g)
            sides.add(n >= 2 * g)
    assert sides == {False, True}


def test_betti_json_output_is_unchanged():
    # sha256 of the concatenated betti --json stdout, g 2..6 and d -1..-44, before the fiber
    # verdict cache and the prefix-pass division
    digest = hashlib.sha256()
    for g in range(2, 7):
        for d in range(-1, -45, -1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["betti", "--d", str(d), "--g", str(g), "--json"]) == 0
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == "d8882e0a67a591480bee8553672a6a984409883fc2205585ab612a978f86b324"


def test_an_agreeing_chamber_polynomial_is_written_once(monkeypatch):
    # d = -20 is even, so the report's other polynomials are u2d.closed, mcon and terminal
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert cli.main(["betti", "--d", "-20", "--g", "3", "--json"]) == 0
    calls = []

    def counted(self, indent="\n", _json_text=LaurentPoly.json_text):
        calls.append(self)
        return _json_text(self, indent)

    monkeypatch.setattr(LaurentPoly, "json_text", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["betti", "--d", "-20", "--g", "3", "--json"]) == 0
    assert out.getvalue() == plain.getvalue()
    chambers = json.loads(out.getvalue())["chambers"]
    assert len(chambers) == 10 and all(ch["p_closed"] == ch["p_recursive"] for ch in chambers)
    assert len(calls) == 10 + 3


def _projective(n):
    """1 + t^2 + ... + t^(2n), written here as the test's own oracle; zero for n = -1."""
    return LaurentPoly({2 * k: 1 for k in range(n + 1)})


def _fiber_oracle(up, down, rank_plus, rank_minus):
    """LaurentPoly equality of the two fiber factors, with the division multiplied out: Z[t, 1/t]
    has no zero divisors, so (t^up - t^down) / (1 - t^2) = B exactly when t^up - t^down = B (1 - t^2)."""
    bundle = _projective(rank_plus - 1) - _projective(rank_minus - 1)
    return bundle * LaurentPoly({0: 1, 2: -1}) == LaurentPoly({up: 1}) - LaurentPoly({down: 1})


def test_the_fiber_verdict_is_polynomial_equality_of_the_two_factors():
    # every key a betti_sweep pass meets (g 2..5, d -1..-32), and wrong keys made from each
    keys = {(2 * d + 2 * g + 4 * j + 2, -2 * d - 2 * j - 2, -d - j - 1, d + g + 2 * j + 1)
            for g in range(2, 6) for d in range(-1, -33, -1) for j in range(fm_index_range(d)[0], -d)}
    assert len(keys) == 320 and all(_fiber_oracle(*key) for key in keys)
    holds = betti._fiber_identity_holds.__wrapped__  # the verdict itself, past its cache
    for up, down, rank_plus, rank_minus in keys:
        for key in ((up, down, rank_plus, rank_minus), (up + 2, down, rank_plus, rank_minus),
                    (up - 2, down, rank_plus, rank_minus), (up, down, rank_minus, rank_plus)):
            assert holds(*key) == _fiber_oracle(*key), key


def _blowup_oracle(next_to_last, d, g):
    """next_to_last - terminal - center (P^(c-1) - 1), c = -d+g-3, in LaurentPoly arithmetic."""
    center = ONE_PLUS_T ** (2 * g) * LaurentPoly({0: 1, 1: 2 * g, 2: 1})  # Pic x curve
    terminal = ONE_PLUS_T ** (2 * g) * _projective(-d + g - 2)
    return next_to_last - terminal - center * (_projective(-d + g - 4) - LaurentPoly.one())


def test_the_blowup_difference_is_the_polynomial_formula():
    for g in range(2, 7):
        for d in range(-3, -61, -1):
            next_to_last, terminal = fm_poincare_recursive(-d - 2, d, g), terminal_poincare(d, g)
            assert betti._blowup_delta(next_to_last, terminal, d, g) == _blowup_oracle(next_to_last, d, g) == LaurentPoly.zero()
            assert blowup_delta(d, g).is_zero()
            e = (0, next_to_last.degree() // 2, -2, next_to_last.degree() + 3)[d % 4]  # inside and outside its span
            bumped = next_to_last + LaurentPoly.monomial(e, -3 if d % 3 else 1)
            delta = betti._blowup_delta(bumped, terminal, d, g)
            assert delta == _blowup_oracle(bumped, d, g) == bumped - next_to_last and delta, (d, g)


@pytest.mark.parametrize("call, path", [
    pytest.param(lambda: u2d_from_bundle("x", -9), "g", id="u2d_from_bundle-str"),
    pytest.param(lambda: u2d_from_bundle(None, -9), "g", id="u2d_from_bundle-None"),
    pytest.param(lambda: blowup_delta("x", 2), "d", id="blowup_delta-str"),
    pytest.param(lambda: blowup_consistency(None, 2), "d", id="blowup_consistency-None"),
    pytest.param(lambda: blowup_delta(-5, "x"), "g", id="blowup_delta-genus-str"),
])
def test_a_wrongly_typed_argument_is_invalid_input_naming_it(call, path):
    with pytest.raises(InvalidInput, match=f"^{path}: expected an integer, got "):
        call()


def test_each_fiber_identity_is_checked_once_per_key(monkeypatch):
    counts = {"_fiber_factors": 0, "_subtract_flip": 0}
    for name in counts:
        def counted(*args, _route=getattr(betti, name), _name=name):
            counts[_name] += 1
            return _route(*args)
        monkeypatch.setattr(betti, name, counted)
    for cache in _betti_caches():
        cache.cache_clear()
    for g in range(2, 6):
        for d in range(-1, -33, -1):
            build_betti_report(d, g)
    assert counts == {"_fiber_factors": 320, "_subtract_flip": 1088}
    assert betti._fiber_identity_holds.cache_info().currsize == 320


def _disagreement(j, d, g):
    return rf"^flip difference routes disagree at j={j}, d={d}, g={g}: formula=.*, bundle=.*$"


def test_a_failing_fiber_identity_is_never_recorded_as_passed(monkeypatch):
    proj = betti._proj_space  # the bundle side's P^m lists
    monkeypatch.setattr(betti, "_proj_space", lambda m: [2, *proj(m)[1:]] if m == 30 else proj(m))  # wrong P^30
    for cache in _betti_caches():
        cache.cache_clear()
    try:
        with pytest.raises(NotDivisible, match=_disagreement(29, -30, 2)):  # cold
            build_betti_report(-30, 2)
        for d in range(-1, -30, -1):  # none of these meets P^30
            build_betti_report(d, 2)
        with pytest.raises(NotDivisible, match=_disagreement(30, -32, 2)):  # after other keys are cached
            build_betti_report(-32, 2)
        for d, j in ((-30, 29), (-32, 30)):  # and again
            with pytest.raises(NotDivisible, match=_disagreement(j, d, 2)):
                build_betti_report(d, 2)
    finally:
        for cache in _betti_caches():
            cache.cache_clear()


def test_recursive_route_rejects_a_negative_exponent(monkeypatch):
    # j = 3 is below the window [5, 9] of d = -10, where up = 2d+2g+4j+2 = -2 and down = 12
    monkeypatch.setattr(betti, "_chamber_index_range", lambda i, d, path="i": (0, -d - 1))
    message = r"^negative exponent t\^-2 in the recursive route at \(j=3, d=-10, g=2\)$"
    with pytest.raises(ConsistencyFailure, match=message):
        fm_poincare_recursive(0, -10, 2)
    with pytest.raises(ConsistencyFailure, match=message):
        flip_difference(3, -10, 2)


def _raises(*args, **kwargs):
    raise AssertionError("a Betti route used polynomial arithmetic")


def _reports_and_routes():
    """betti --json's text for full and --chamber reports at both parities of d, at g = 2, 3 and 5 and d down
    to -41, so flips fall on both sides of n = 2g - 1, and the bundle route, flip differences and blow-up
    differences; every cache cleared first."""
    for cache in _betti_caches():
        cache.cache_clear()
    out = []
    for g in (2, 3, 5):
        for d in (-1, -4, -9, -16, -40, -41):
            lo, hi = fm_index_range(d)
            out += [_json_text(build_betti_report(d, g, i)) for i in (None, lo, (lo + hi) // 2, hi)]
            out += [flip_difference(j, d, g) for j in (lo, hi)]
            if d <= -3:
                out.append(blowup_delta(d, g))
            if d % 2 and -d > 4 * g - 4:
                out.append(u2d_from_bundle(g, d))
    return out


def test_closed_route_shares_no_arithmetic_with_the_recursive_route(monkeypatch):
    # whole reports and the other routes with LaurentPoly's ring operations raising, then the closed route
    # alone with the recursive route's division and sliding sum raising too
    expected = _reports_and_routes()
    # the lowest and the top chamber of each (d, g)
    cells = [(i, d, g) for g, d in ((2, -5), (3, -17), (4, -28), (5, -40), (2, -40)) for i in fm_index_range(d)]
    closed = [fm_poincare_closed(*cell) for cell in cells]
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "_combine"):
        monkeypatch.setattr(LaurentPoly, name, _raises)
    assert _reports_and_routes() == expected
    monkeypatch.setattr(betti, "_div_one_minus_t_pow", _raises)
    monkeypatch.setattr(betti, "_times_proj_space", _raises)
    for cache in _betti_caches():
        cache.cache_clear()
    assert [fm_poincare_closed(*cell) for cell in cells] == closed


def test_a_wrong_sym_product_fails_the_two_route_check_and_leaves_the_closed_route_alone(monkeypatch):
    d, g = -9, 3
    lo, hi = fm_index_range(d)
    for cache in _betti_caches():
        cache.cache_clear()
    expected = [fm_poincare_closed(i, d, g) for i in range(lo, hi + 1)]

    def wrong(n, g, _shared=betti._divided_shared_factor):
        # Sym^n + 1, constant term 1 -> 2: E(n, g) gains (1+t)^(2g), so E / (1 - t^2) gains its prefix sums
        gained = [comb(2 * g, k) for k in range(2 * g + 1)] + [0] * (2 * n)
        for r in (0, 1):
            gained[r::2] = accumulate(gained[r::2])
        return [x + y for x, y in zip(_shared(n, g), gained)]

    wrong.cache_clear = betti._divided_shared_factor.cache_clear
    monkeypatch.setattr(betti, "_divided_shared_factor", wrong)
    for cache in _betti_caches():
        cache.cache_clear()
    try:
        report = build_betti_report(d, g)
        assert [f for f in report.failures() if f.startswith("two routes agree")] == [
            f"two routes agree fails at (i={i}, d={d}, g={g})" for i in range(lo, hi + 1)]
        assert [ch.p_closed for ch in report.chambers] == expected
        assert [fm_poincare_closed(i, d, g) for i in range(lo, hi + 1)] == expected
    finally:
        for cache in _betti_caches():
            cache.cache_clear()


def test_closed_route_rejects_a_negative_shift(monkeypatch):
    # i = 0 is below the window [5, 9] of d = -10, where 2d+2g+4i+2 = -14
    monkeypatch.setattr(betti, "_chamber_index_range", lambda i, d, path="i": (0, -d - 1))
    with pytest.raises(ConsistencyFailure, match=r"^negative shift t\^-14 in the closed route at \(i=0, d=-10, g=2\)$"):
        fm_poincare_closed(0, -10, 2)


def test_closed_route_raises_on_a_nonzero_remainder():
    for cache in _betti_caches():
        cache.cache_clear()
    try:
        fm_poincare_closed(6, -12, 3)
        betti._closed_lists(5, 3)[1][-1] += 1  # corrupt (1+t)^(2g) B_5 / (1 - t^2), which chamber 6 of d = -12 reads
        with pytest.raises(ConsistencyFailure, match=r"^nonzero remainder in the closed route at \(i=6, d=-12, g=3\)$"):
            fm_poincare_closed(6, -12, 3)
    finally:
        for cache in _betti_caches():
            cache.cache_clear()


_CHAMBER_ROUTE_FUNCTIONS = ("_subtract_flip", "_recursive_chain", "_fiber_factors", "flip_difference",
                            "fm_poincare_recursive", "fm_poincare_closed", "_closed_chamber", "_closed_lists",
                            "_closed_table", "_divided_shared_factor")

# the lines of those functions that only raise, or only build a raise's message, by function and text
_UNREACHED_BY_VALID_INPUT = {
    ("_subtract_flip",
     'raise ConsistencyFailure(f"negative exponent t^{lo} in the recursive route at (j={j}, d={d}, g={g})")'),
    ("_subtract_flip",
     "formula, bundle = (LaurentPoly._from_coeffs(0, f) for f in _fiber_factors(up, down, rank_plus, rank_minus))"),
    ("_subtract_flip", 'raise NotDivisible(f"flip difference routes disagree at j={j}, d={d}, g={g}: '
                       'formula={formula}, bundle={bundle}")'),
    ("_closed_chamber",
     'raise ConsistencyFailure(f"negative shift t^{shift} in the closed route at (i={i}, d={d}, g={g})")'),
    ("_closed_chamber", 'raise NotDivisible(f"nonzero remainder in the closed route at (i={i}, d={d}, g={g})")'),
}


def _body_lines(code):
    """Each line of a function's body that holds code, mapped to its text."""
    lines, first = inspect.getsourcelines(code)
    return {n: lines[n - first].strip() for _, _, n in code.co_lines() if n is not None and n != first}


def test_every_line_of_the_chamber_routes_runs_on_valid_input():
    codes = {name: inspect.unwrap(getattr(betti, name)).__code__ for name in _CHAMBER_ROUTE_FUNCTIONS}
    ran = {code: set() for code in codes.values()}

    def trace(frame, event, arg):
        if frame.f_code not in ran:
            return None
        if event == "line":
            ran[frame.f_code].add(frame.f_lineno)
        return trace

    for cache in _betti_caches():
        cache.cache_clear()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for g in (2, 5):
            for d in (-1, -2, -3, -4, -9, -20):
                lo, hi = fm_index_range(d)
                for i in (lo, hi):
                    build_betti_report(d, g, i)
                    flip_difference(i, d, g)
                    fm_poincare_recursive(i, d, g)
                    fm_poincare_closed(i, d, g)
                build_betti_report(d, g)
    finally:
        sys.settrace(previous)
        for cache in _betti_caches():
            cache.cache_clear()
    missed = {(name, text) for name, code in codes.items()
              for n, text in _body_lines(code).items() if n not in ran[code]}
    assert missed == _UNREACHED_BY_VALID_INPUT


def test_a_report_takes_each_flip_difference_once(monkeypatch):
    calls = []

    def counted(acc, j, d, g, _subtract_flip=betti._subtract_flip):
        calls.append(j)
        _subtract_flip(acc, j, d, g)

    monkeypatch.setattr(betti, "_subtract_flip", counted)
    report = build_betti_report(-9, 3)
    assert sorted(calls) == [ch.i for ch in report.chambers]


@pytest.mark.parametrize("only_chamber, closed_calls", [(None, 5), (4, 1), (6, 2)])
def test_a_report_takes_the_lowest_closed_chamber_once(monkeypatch, only_chamber, closed_calls):
    # d = -9 is odd with -d > 4g - 4, so the report divides its lowest chamber, 4, by the bundle's fiber;
    # a report that does not hold chamber 4 computes it.  A cold u2d_poincare(2) also takes the lowest
    # chamber at d = -5, which this does not count
    calls = []

    def counted(i, d, g, _closed=betti._closed_chamber):
        if d == -9:
            calls.append(i)
        return _closed(i, d, g)

    monkeypatch.setattr(betti, "_closed_chamber", counted)
    report = build_betti_report(-9, 2, only_chamber)
    assert len(calls) == closed_calls and calls.count(4) == 1
    assert report.u2d.via_bundle == u2d_poincare(2) and report.u2d.agree is True


def test_an_agreeing_chamber_keeps_one_polynomial():
    report = build_betti_report(-9, 3)
    assert all(ch.agree and ch.p_closed is ch.p_recursive for ch in report.chambers)


@pytest.mark.parametrize("route", [fm_poincare_closed, fm_poincare_recursive, flip_difference])
def test_routes_reject_a_genus_below_two(route):
    with pytest.raises(InvalidInput, match="^g: genus must be at least 2, got 1$"):
        route(3, -5, 1)


def test_chamber_index_out_of_range():
    with pytest.raises(InvalidInput, match="^i: "):
        fm_poincare_closed(1, -5, 2)
    with pytest.raises(InvalidInput, match="^i: "):
        fm_poincare_recursive(5, -5, 2)


def test_specialization_at_one_matches_telescoping():
    for d, g in ((-5, 2), (-7, 3)):
        lo, hi = fm_index_range(d)
        for i in range(lo, hi + 1):
            tele = -sum(flip_difference(j, d, g)(1) for j in range(i, hi + 1))
            assert fm_poincare_recursive(i, d, g)(1) == tele


def test_flip_difference_at_one_closed_form_is_the_sum():
    """For n >= 2g the t = 1 check uses 4^g (n + 1 - g) in place of
    sum_k C(2g, k)(n - k + 1); both sides agree with the sum for every n.
    Each n is the lowest chamber of two degrees, whose rank differences
    n - g and n - g - 1 are not both zero."""
    for g in range(2, 17):
        for n in range(400):
            total = sum(comb(2 * g, k) * (n - k + 1) for k in range(min(n, 2 * g) + 1))
            for j, d in ((n, -2 * n - 1), (n + 1, -2 * n - 2)):
                assert fm_index_range(d)[0] == j
                rank_plus, rank_minus = -d - j - 1, d + g + 2 * j + 1
                assert betti._flip_difference_at_one(j, d, g) == (rank_plus - rank_minus) * 4 ** g * total


# -- bundle moduli and the constrained space -------------------------------------------


def test_u2d_g2_exact():
    # the factor by the dict-backed oracle's long division, which shares no code with the library's
    factor = LaurentPoly(dict_div_exact(
        DictLaurentPoly({0: 1, 3: 1}) ** 4 - DictLaurentPoly.monomial(4) * DictLaurentPoly({0: 1, 1: 1}) ** 4,
        DictLaurentPoly({0: 1, 2: -1}) * DictLaurentPoly({0: 1, 4: -1}),
    ).items())
    assert [factor.coeff(k) for k in range(7)] == [1, 0, 1, 4, 1, 0, 1]
    assert u2d_poincare(2) == ONE_PLUS_T ** 4 * factor


def test_u2d_degree_and_shape():
    for g in (2, 3, 4):
        u = u2d_poincare(g)
        assert u.degree() == 2 * (4 * g - 3)
        assert u.has_nonneg_coeffs() and u.is_palindromic()
        assert u.coeff(0) == 1


def test_u2d_via_bundle():
    assert u2d_from_bundle(2, -5) == u2d_poincare(2)
    assert u2d_from_bundle(3, -9) == u2d_poincare(3)


def test_u2d_fiber_factor():
    # for (g, d) = (2, -5) the lowest chamber fibers in projective planes
    fm = fm_poincare_closed(2, -5, 2)
    assert fm == u2d_poincare(2) * proj_space_poincare(2)


def test_the_bundle_quotient_is_the_lowest_chamber_times_one_minus_t2_over_the_fiber_kernel():
    # LaurentPoly products and lp_div_one_minus_t_pow as the reference for the list pass
    one_minus_t2 = LaurentPoly({0: 1, 2: -1})
    for g in range(2, 6):
        for d in range(-4 * g + 3, -42, -2):
            lowest, k = fm_poincare_closed(fm_index_range(d)[0], d, g), 2 * (-d - 2 * g + 2)
            assert betti._bundle_quotient(lowest, d, g) == lp_div_one_minus_t_pow(lowest * one_minus_t2, k), (d, g)
            for wrong in (lowest + 1, LaurentPoly.monomial(-3) * (lowest + 1)):  # both name the same numerator
                with pytest.raises(NotDivisible) as expected:
                    lp_div_one_minus_t_pow(wrong * one_minus_t2, k)
                with pytest.raises(NotDivisible, match=f"^{re.escape(str(expected.value))}$"):
                    betti._bundle_quotient(wrong, d, g)


def test_u2d_from_bundle_preconditions():
    with pytest.raises(InvalidInput, match="^d: "):
        u2d_from_bundle(2, -4)  # even degree
    with pytest.raises(InvalidInput, match="^d: "):
        u2d_from_bundle(3, -7)  # -d too small


def test_mcon_identity():
    one_plus_t2 = LaurentPoly({0: 1, 2: 1})
    for g in (2, 3, 4):
        assert mcon_poincare(g) == u2d_poincare(g) * one_plus_t2
        assert mcon_poincare(g).degree() == 2 * (4 * g - 3) + 2


@pytest.mark.parametrize("d, g", [(-10, 3), (-4, 2), (-5, 3), (-9, 3)])
def test_a_wrong_bundle_numerator_fails_betti_naming_the_genus(monkeypatch, capsys, d, g):
    # u2d_poincare checks its closed form against the lowest chamber at d = 3 - 4g, so a doubled
    # numerator fails a report at even d and at small |d| too, where the report has no bundle route
    numerator = betti._bundle_numerator
    monkeypatch.setattr(betti, "_bundle_numerator", lambda g: [2 * c for c in numerator(g)])
    for cache in _betti_caches():
        cache.cache_clear()
    try:
        assert cli.main(["betti", "--d", str(d), "--g", str(g)]) == 1
    finally:
        for cache in _betti_caches():
            cache.cache_clear()
    assert capsys.readouterr().out == (
        f"error: consistency failure: bundle moduli polynomial differs from the lowest chamber's quotient at g={g}\n")


# -- blow-up identity ---------------------------------------------------------------


def test_blowup_consistency_examples():
    assert blowup_consistency(-5, 2)
    assert blowup_consistency(-3, 2)
    assert blowup_delta(-5, 2).is_zero()


def test_blowup_requires_terminal_flip():
    with pytest.raises(InvalidInput, match="^d: "):
        blowup_consistency(-2, 2)


# -- reports --------------------------------------------------------------------------


def test_report_ok_and_round_trip():
    report = build_betti_report(-5, 2)
    assert report.ok
    assert [ch.i for ch in report.chambers] == [2, 3, 4]
    assert report.u2d.agree is True
    assert report.blowup_check is True
    round_tripped = report_from_json_obj(json.loads(json.dumps(report_to_json_obj(report))))
    assert round_tripped == report


def test_report_reader_reads_polynomial_terms():
    obj = report_to_json_obj(build_betti_report(-5, 2))
    obj["mcon"] = {"terms": [[1.5, 2], [True, " 3"]]}
    with pytest.raises(InvalidInput, match=r"^mcon\.terms\[0\]\[0\]: "):
        report_from_json_obj(obj)


@pytest.mark.parametrize("d, g", [(-3, 2), (-5, 2), (-9, 3), (-12, 4)])
def test_single_chamber_reports_match_the_full_report(d, g):
    full = build_betti_report(d, g)
    for ch in full.chambers:
        assert build_betti_report(d, g, only_chamber=ch.i) == full._replace(chambers=(ch,))


def test_report_single_chamber_and_no_blowup():
    report = build_betti_report(-1, 2, only_chamber=0)
    assert len(report.chambers) == 1
    assert report.blowup_check is None
    assert report.u2d.via_bundle is None


# -- the report invariant table ----------------------------------------------------


def _doctor_chamber(changes):
    """Doctor chamber i = 3 of a report."""

    def doctor(report):
        chs = tuple(ch._replace(**changes(ch)) if ch.i == 3 else ch for ch in report.chambers)
        return report._replace(chambers=chs)

    return doctor


#: One doctoring of the (d=-5, g=2) report per invariant, and the indices
#: its failure line names.
REPORT_DOCTORS = {
    "two routes agree": (_doctor_chamber(lambda ch: {"agree": False}), "i=3, d=-5, g=2"),
    "degree = 2 dim": (_doctor_chamber(lambda ch: {"degree": 13}), "i=3, d=-5, g=2"),
    "palindromic": (_doctor_chamber(lambda ch: {"palindromic": False}), "i=3, d=-5, g=2"),
    "nonnegative": (_doctor_chamber(lambda ch: {"nonneg": False}), "i=3, d=-5, g=2"),
    "constant term 1": (_doctor_chamber(lambda ch: {"constant_term": 2}), "i=3, d=-5, g=2"),
    "t=1 telescoping": (_doctor_chamber(lambda ch: {"p_recursive": ch.p_recursive + 1}), "i=3, d=-5, g=2"),
    "bundle route": (lambda r: r._replace(u2d=r.u2d._replace(agree=False)), "d=-5, g=2"),
    "terminal blow-up identity": (lambda r: r._replace(blowup_check=False), "d=-5, g=2"),
    "terminal chamber": (lambda r: r._replace(terminal=r.terminal + 1), "d=-5, g=2"),
}


def test_every_report_invariant_is_doctored():
    names = [name for name, _ in CHAMBER_INVARIANTS + REPORT_INVARIANTS]
    assert names == list(REPORT_DOCTORS)


@pytest.mark.parametrize("name", REPORT_DOCTORS)
def test_doctored_report_names_its_invariant(name):
    doctor, indices = REPORT_DOCTORS[name]
    report = build_betti_report(-5, 2)
    assert report.ok and list(report.failures()) == []
    doctored = doctor(report)
    assert not doctored.ok
    assert list(doctored.failures()) == [f"{name} fails at ({indices})"]


def test_telescoping_at_one_on_single_chamber_reports():
    for d, g in ((-5, 2), (-9, 3), (-12, 4)):
        lo, hi = fm_index_range(d)
        for i in range(lo, hi + 1):
            assert build_betti_report(d, g, only_chamber=i).ok
