"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Every comparison is exact; the timed criteria also enforce their
runtime budgets."""

import time
from fractions import Fraction

from dict_laurent import DictLaurentPoly, dict_div_exact
from flipchain.betti import (
    blowup_consistency,
    fm_poincare_closed,
    fm_poincare_recursive,
    mcon_poincare,
    sym_product_poincare,
    u2d_from_bundle,
    u2d_poincare,
)
from flipchain.chambers import build_chambers, chamber_of, flip_locus, fm_index_range
from flipchain.exactpoly import LaurentPoly
from flipchain.stability import run_stability_suite

GRID_G = (2, 3, 4, 5)
GRID_D = range(-15, 0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_1_two_route_betti_equality():
    t0 = time.monotonic()
    mismatches = []
    for g in GRID_G:
        for d in GRID_D:
            lo, hi = fm_index_range(d)
            for i in range(lo, hi + 1):
                if fm_poincare_recursive(i, d, g) != fm_poincare_closed(i, d, g):
                    mismatches.append((i, d, g))
    elapsed = time.monotonic() - t0
    _report(
        1,
        "two-route Betti equality",
        not mismatches and elapsed < 60.0,
        f"[{elapsed:.1f}s]" + (f" mismatches={mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_2_u2d_reproduction():
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    fixed_det = LaurentPoly({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})
    expected = one_plus_t ** 4 * fixed_det
    # the oracle's long division, which shares no code with the library's
    numerator = DictLaurentPoly({0: 1, 3: 1}) ** 4 - DictLaurentPoly.monomial(4) * DictLaurentPoly({0: 1, 1: 1}) ** 4
    denominator = DictLaurentPoly({0: 1, 2: -1}) * DictLaurentPoly({0: 1, 4: -1})
    independent = LaurentPoly(dict_div_exact(numerator, denominator).items())
    ok = (
        u2d_poincare(2) == expected
        and independent == fixed_det
        and [independent.coeff(k) for k in range(7)] == [1, 0, 1, 4, 1, 0, 1]
    )
    _report(2, "rank-2 odd bundle moduli polynomial", ok)


def test_criterion_3_via_bundle_route():
    _report(3, "bundle route at (g, d) = (2, -5)", u2d_from_bundle(2, -5) == u2d_poincare(2))


def test_criterion_4_constrained_moduli():
    one_plus_t2 = LaurentPoly({0: 1, 2: 1})
    ok = all(mcon_poincare(g) == u2d_poincare(g) * one_plus_t2 for g in (2, 3, 4))
    _report(4, "constrained moduli fiber identity", ok)


def test_criterion_5_wall_structure():
    ok = build_chambers(-5, 2).walls == (1, 3)
    ok = ok and chamber_of(Fraction(11, 2), build_chambers(-5, 2)).kind == "empty"
    ok = ok and chamber_of(Fraction(5), build_chambers(-5, 2)).kind == "chamber"
    ok = ok and build_chambers(-6, 2).walls == (2, 4)
    for d in range(-20, 0):
        cd = build_chambers(d, 2)
        if d <= -3:
            ok = ok and cd.walls[-1] == -d - 2 and cd.walls[0] == (1 if d % 2 else 2)
        else:
            ok = ok and cd.walls == ()  # no positive walls exist for d in {-1, -2}
    _report(5, "wall structure and parity", ok)


def test_criterion_6_flip_locus_numerics():
    ok = True
    bad = None
    for g in GRID_G:
        for d in GRID_D:
            lo, hi = fm_index_range(d)
            for i in range(lo, hi):
                fl = flip_locus(i, d, g)
                checks = [
                    fl.rank_minus == d + g + 2 * i + 1,
                    fl.rank_plus == -d - i - 1,
                    fl.rank_minus + fl.rank_plus == g + i,
                ]
                if i < -d - 2:
                    checks.append(fl.codim_minus >= 2 and fl.codim_plus >= 2)
                else:
                    checks.append(fl.codim_minus == 1)
                    checks.append(fl.dim_p_minus == -d + 2 * g - 3)
                if not all(checks):
                    ok = False
                    bad = bad or (i, d, g)
    _report(6, "flip locus ranks and codimensions", ok, f"first failure {bad}" if bad else "")


def test_criterion_7_blowup_consistency():
    bad = [(d, g) for g in (2, 3) for d in range(-10, -2) if not blowup_consistency(d, g)]
    _report(7, "terminal blow-up identity", not bad, str(bad[:3]) if bad else "")


def test_criterion_8_smoothness_shadows():
    ok = True
    bad = None
    for g in GRID_G:
        for d in GRID_D:
            lo, hi = fm_index_range(d)
            for i in range(lo, hi + 1):
                p = fm_poincare_recursive(i, d, g)
                if not (
                    p.degree() == 2 * (-d + 2 * g - 2)
                    and p.is_palindromic()
                    and p.has_nonneg_coeffs()
                    and p.coeff(0) == 1
                ):
                    ok = False
                    bad = bad or (i, d, g)
    _report(8, "palindromic nonnegative chamber polynomials", ok, f"first failure {bad}" if bad else "")


def test_criterion_9_stability_property_suite():
    t0 = time.monotonic()
    res = run_stability_suite(seed=7, n_models=10000)
    elapsed = time.monotonic() - t0
    ok = res.ok and res.models >= 10000 and elapsed < 30.0
    _report(
        9,
        "stability property suite",
        ok,
        f"[{res.models} models, {res.checks} checks, {elapsed:.1f}s]"
        + (f" first failure: {res.failures[0]}" if res.failures else ""),
    )


def test_criterion_10_symmetric_product_spot_checks():
    ok = all(
        sym_product_poincare(1, g) == LaurentPoly({0: 1, 1: 2 * g, 2: 1}) for g in range(1, 6)
    )
    expected = LaurentPoly({0: 1, 1: 1}) ** 2 * LaurentPoly({0: 1, 2: 1})
    ok = ok and sym_product_poincare(2, 1) == expected
    _report(10, "symmetric product spot checks", ok)
