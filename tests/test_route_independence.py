"""Each pair of routes that check one another shares only the flipchain
functions its row allows.  A route is run alone on cold caches under
sys.setprofile, and every flipchain frame it enters is recorded by module and
qualified name; a function nested in another counts as the one around it.  A
helper that both routes of a row run and the row does not allow could hide
one bug in both."""

import sys
from fractions import Fraction

import pytest

from flipchain import betti
from flipchain.stability import (
    CurveContext,
    FramedModel,
    FramedType,
    SubobjectData,
    _filtration,
    _framed_slope_terms,
    _graded_slopes_decrease,
    _max_destabilizer,
    _slopes,
    _verdicts,
    hn_filtration,
    rank2_threshold_holds,
)

D, G = -20, 3
#: A rank-2 model that C destabilizes at SIGMA, so the HN filtration takes a step.
MODEL = FramedModel(CurveContext(2), FramedType(2, -5, True),
                    (SubobjectData("K", 1, -3, False), SubobjectData("C", 1, -2, True)))
SIGMA = Fraction(1, 3)
HN = hn_filtration(MODEL, SIGMA)

INPUT_CHECKS = {"chambers._chamber_index_range", "chambers._require_genus", "chambers._require_int",
                "chambers.fm_index_range"}
LIST_TO_POLY = {"exactpoly.LaurentPoly._from_coeffs", "exactpoly._trimmed"}


def suite_oracle():
    """The suite's exact oracle: integer slope terms and the rank-2 thresholds."""
    for s in MODEL.subs:
        _framed_slope_terms(s.rank, s.degree, s.fr, SIGMA, MODEL.typ.framing_nonzero)
        rank2_threshold_holds(s, MODEL.typ, SIGMA)
        rank2_threshold_holds(s, MODEL.typ, SIGMA, strict=True)
    _graded_slopes_decrease(HN, SIGMA)


def suite_engine():
    """What the suite checks against the oracle: one slope pass and its readers."""
    amb, slopes = _slopes(MODEL, SIGMA)
    _verdicts(MODEL, amb, slopes)
    _max_destabilizer(MODEL, amb, slopes)
    _filtration(MODEL, amb, slopes)


#: (row, one route, the other route, the flipchain functions the two may share)
ROUTES = [
    ("recursive and closed chambers",
     lambda: betti.fm_poincare_recursive(-D - 2, D, G), lambda: betti.fm_poincare_closed(-D - 2, D, G),
     INPUT_CHECKS | LIST_TO_POLY),
    # no lp_div_exact: the terminal chamber is (1+t)^(2g) P^(-d+g-2), not a long division
    ("terminal chamber and the recursive chain's top entry",
     lambda: betti.terminal_poincare(D, G), lambda: betti._recursive_chain(-D - 1, D, G),
     {"chambers._require_genus", "chambers._require_int", "chambers.fm_index_range",
      "betti._one_plus_t_pow", "betti.proj_space_poincare", "exactpoly.LaurentPoly.__mul__"} | LIST_TO_POLY),
    # exact division and products, which test_laurent_oracle checks against a dict-based oracle
    ("bundle moduli and the lowest chamber's fibration quotient",
     lambda: betti.u2d_poincare(G), lambda: betti.u2d_from_bundle(G, -4 * G - 1),
     {"chambers._require_genus", "chambers._require_int", "exactpoly.LaurentPoly.__init__",
      "exactpoly.LaurentPoly.__mul__", "exactpoly.LaurentPoly.is_zero", "exactpoly.lp_div_exact"} | LIST_TO_POLY),
    ("suite oracle and suite engine", suite_oracle, suite_engine, set()),
]


def flipchain_frames(route):
    """Module-qualified names of the flipchain functions route() enters, on cold caches."""
    for f in vars(betti).values():
        if callable(getattr(f, "cache_clear", None)):
            f.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("flipchain."):
            seen.add(f"{module[len('flipchain.'):]}.{frame.f_code.co_qualname.split('.<locals>')[0]}")

    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("row, route_a, route_b, allowed", ROUTES, ids=[row[0] for row in ROUTES])
def test_two_routes_share_only_their_allowed_functions(row, route_a, route_b, allowed):
    a, b = flipchain_frames(route_a), flipchain_frames(route_b)
    assert a and b, row
    assert a & b <= allowed, f"{row} also share {sorted(a & b - allowed)}"


def test_the_recursive_chain_calls_lp_div_exact():
    """So the terminal row rejects an lp_div_exact in terminal_poincare."""
    assert "exactpoly.lp_div_exact" in flipchain_frames(lambda: betti._recursive_chain(-D - 1, D, G))
