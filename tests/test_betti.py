"""Poincare polynomial routes: symmetric products, flip differences,
telescoping vs closed-form extraction, bundle moduli and blow-up identity."""

import json
from dataclasses import replace
from math import comb

import pytest

from flipchain.betti import (
    CHAMBER_INVARIANTS,
    _macdonald_coeff,
    REPORT_INVARIANTS,
    NegativeExponentSurvived,
    PreconditionFailed,
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
from flipchain.chambers import InvalidInput, OutOfRange, fm_index_range, moduli_dim
from flipchain.exactpoly import LaurentPoly, lp_div_exact

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
    with pytest.raises(OutOfRange):
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


def test_macdonald_recurrence_matches_the_explicit_sum():
    # f_k = sum_j C(2g, j) t^j (1 + t^2 + ... + t^(2(k-j))), Macdonald 1962
    for g in range(7):
        for k in range(16):
            explicit = sum(
                (LaurentPoly.monomial(j, comb(2 * g, j)) * proj_space_poincare(k - j) for j in range(min(k, 2 * g) + 1)),
                LaurentPoly.zero(),
            )
            assert _macdonald_coeff(k, g) == explicit == sym_product_poincare(k, g), (k, g)


def test_closed_route_at_a_very_large_degree_needs_no_deep_recursion():
    fm_poincare_closed.cache_clear()
    _macdonald_coeff.cache_clear()
    p = fm_poincare_closed(1100, -2200, 2)
    assert p.degree() == 2 * moduli_dim(-2200, 2)
    assert p.coeff(0) == 1


def test_chamber_index_out_of_range():
    with pytest.raises(OutOfRange):
        fm_poincare_closed(1, -5, 2)
    with pytest.raises(OutOfRange):
        fm_poincare_recursive(5, -5, 2)


def test_specialization_at_one_matches_telescoping():
    for d, g in ((-5, 2), (-7, 3)):
        lo, hi = fm_index_range(d)
        for i in range(lo, hi + 1):
            tele = -sum(flip_difference(j, d, g)(1) for j in range(i, hi + 1))
            assert fm_poincare_recursive(i, d, g)(1) == tele


# -- bundle moduli and the constrained space -------------------------------------------


def test_u2d_g2_exact():
    factor = lp_div_exact(
        LaurentPoly({0: 1, 3: 1}) ** 4 - LaurentPoly.monomial(4) * ONE_PLUS_T ** 4,
        LaurentPoly({0: 1, 2: -1}) * LaurentPoly({0: 1, 4: -1}),
    )
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


def test_u2d_from_bundle_preconditions():
    with pytest.raises(PreconditionFailed):
        u2d_from_bundle(2, -4)  # even degree
    with pytest.raises(PreconditionFailed):
        u2d_from_bundle(3, -7)  # -d too small


def test_mcon_identity():
    one_plus_t2 = LaurentPoly({0: 1, 2: 1})
    for g in (2, 3, 4):
        assert mcon_poincare(g) == u2d_poincare(g) * one_plus_t2
        assert mcon_poincare(g).degree() == 2 * (4 * g - 3) + 2


# -- blow-up identity ---------------------------------------------------------------


def test_blowup_consistency_examples():
    assert blowup_consistency(-5, 2)
    assert blowup_consistency(-3, 2)
    assert blowup_delta(-5, 2).is_zero()


def test_blowup_requires_terminal_flip():
    with pytest.raises(PreconditionFailed):
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


def test_report_single_chamber_and_no_blowup():
    report = build_betti_report(-1, 2, only_chamber=0)
    assert len(report.chambers) == 1
    assert report.blowup_check is None
    assert report.u2d.via_bundle is None


# -- the report invariant table ----------------------------------------------------


def _doctor_chamber(changes):
    """Doctor chamber i = 3 of a report."""

    def doctor(report):
        chs = tuple(replace(ch, **changes(ch)) if ch.i == 3 else ch for ch in report.chambers)
        return replace(report, chambers=chs)

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
    "bundle route": (lambda r: replace(r, u2d=replace(r.u2d, agree=False)), "d=-5, g=2"),
    "terminal blow-up identity": (lambda r: replace(r, blowup_check=False), "d=-5, g=2"),
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
