"""Exact Poincare polynomials along the chain of rank-2 flips.

Every quantity is computed by at least two independent routes and compared
exactly.  The per-chamber polynomial comes once from a telescoping sum of
flip differences and once from a closed-form coefficient extraction that
sums shifted coefficients of the symmetric-product recurrence; the flip
differences themselves are checked against a direct projective-bundle
computation.  All divisions are exact divisions that fail loudly, never
series inversions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Dict, Iterator, List, Optional, Tuple

from .chambers import _REQUIRED, InvalidInput, OutOfRange, _checked, _fields, fm_index_range, moduli_dim
from .exactpoly import (
    LaurentPoly,
    NotDivisible,
    geom_kernel,
    lp_div_exact,
    one_plus_xt_power,
)


class NegativeExponentSurvived(ArithmeticError):
    """A final Betti polynomial kept a negative exponent; the chamber index
    translation went wrong somewhere."""


class PreconditionFailed(ValueError):
    """A route was requested outside its range of validity."""


_T = LaurentPoly.monomial
_ONE_MINUS_T2 = LaurentPoly({0: 1, 2: -1})
_ONE_PLUS_T2 = LaurentPoly({0: 1, 2: 1})


def _one_plus_t_pow(n: int) -> LaurentPoly:
    return LaurentPoly({0: 1, 1: 1}) ** n


def proj_space_poincare(n: int) -> LaurentPoly:
    """1 + t^2 + ... + t^(2n) for projective n-space; zero for n = -1."""
    if n < -1:
        raise ValueError(f"projective dimension must be at least -1, got {n}")
    return LaurentPoly({2 * k: 1 for k in range(n + 1)})


@lru_cache(maxsize=None)
def sym_product_poincare(n: int, g: int) -> LaurentPoly:
    """Poincare polynomial of the n-th symmetric product of a genus-g curve.

    Extracted as the x^n coefficient of (1+xt)^(2g) / ((1-x)(1-x t^2)),
    with the series truncated exactly at order n.
    """
    if n < 0 or g < 0:
        raise ValueError("need n >= 0 and g >= 0")
    series = one_plus_xt_power(2 * g, n) * geom_kernel(n, k=0) * geom_kernel(n, k=2)
    return series.coeff_x(n)


@lru_cache(maxsize=None)
def flip_difference(j: int, d: int, g: int) -> LaurentPoly:
    """Betti change across the wall above chamber j, by two routes.

    Formula route: (t^(2d+2g+4j+2) - t^(-2d-2j-2)) / (1-t^2) times
    (1+t)^(2g) times the symmetric-product polynomial.  Bundle route:
    difference of the Poincare polynomials of the two projectivized flip
    loci over Pic x Sym.  A mismatch raises NotDivisible.
    """
    lo, hi = fm_index_range(d)
    if not (lo <= j <= hi):
        raise OutOfRange(f"flip index {j} outside [{lo}, {hi}] for d={d}")
    sym = sym_product_poincare(-d - j - 1, g)
    even_factor = _one_plus_t_pow(2 * g) * sym
    num = _T(2 * d + 2 * g + 4 * j + 2) - _T(-2 * d - 2 * j - 2)
    formula = lp_div_exact(num, _ONE_MINUS_T2) * even_factor
    rank_plus = -d - j - 1
    rank_minus = d + g + 2 * j + 1
    bundle = (proj_space_poincare(rank_plus - 1) - proj_space_poincare(rank_minus - 1)) * even_factor
    if formula != bundle:
        raise NotDivisible(
            f"flip difference routes disagree at j={j}, d={d}, g={g}: "
            f"formula={formula}, bundle={bundle}"
        )
    return formula


@lru_cache(maxsize=None)
def terminal_poincare(d: int, g: int) -> LaurentPoly:
    """Last chamber: a projective bundle of fiber dimension -d + g - 2 over
    the g-dimensional torus, so (1+t)^(2g) (1 - t^(-2d+2g-2)) / (1 - t^2)."""
    if d >= 0 or g < 2:
        raise PreconditionFailed(f"need d < 0 and g >= 2, got d={d}, g={g}")
    num = LaurentPoly({0: 1}) - _T(-2 * d + 2 * g - 2)
    return _one_plus_t_pow(2 * g) * lp_div_exact(num, _ONE_MINUS_T2)


@lru_cache(maxsize=None)
def fm_poincare_recursive(i: int, d: int, g: int) -> LaurentPoly:
    """Chamber polynomial as the signed telescoping sum of flip differences;
    the top term reproduces the terminal chamber with its sign."""
    lo, hi = fm_index_range(d)
    if not (lo <= i <= hi):
        raise OutOfRange(f"chamber index {i} outside [{lo}, {hi}] for d={d}")
    total = LaurentPoly.zero()
    for j in range(i, hi + 1):
        total = total + flip_difference(j, d, g)
    result = -total
    if not result.is_polynomial():
        raise NegativeExponentSurvived(f"recursive route at i={i}, d={d}, g={g}: {result}")
    return result


@lru_cache(maxsize=None)
def _macdonald_coeff(k: int, g: int) -> LaurentPoly:
    """x^k coefficient f_k of (1+xt)^(2g) / ((1-x)(1-x t^2)), Macdonald's
    series for the symmetric products of the curve, from the recurrence its
    denominator 1 - (1+t^2)x + t^2 x^2 gives:
    f_k = C(2g, k) t^k + (1+t^2) f_(k-1) - t^2 f_(k-2), and f_k = 0 for k < 0.
    Call it with k rising, so that f_(k-1) and f_(k-2) are already cached."""
    if k < 0:
        return LaurentPoly.zero()
    return _T(k, comb(2 * g, k)) + _ONE_PLUS_T2 * _macdonald_coeff(k - 1, g) - _T(2) * _macdonald_coeff(k - 2, g)


@lru_cache(maxsize=None)
def fm_poincare_closed(i: int, d: int, g: int) -> LaurentPoly:
    """Chamber polynomial by closed-form coefficient extraction.

    -(1+t)^(2g)/(1-t^2) times the x^n coefficient, n = -d-i-1, of
    (t^(2d+2g+4i+2)/(1-x t^4) - t^(-2d-2i)/(t^2-x)) (1+xt)^(2g) / ((1-x)(1-x t^2)).
    Both kernels are geometric series of monomials, so that coefficient is
    the sum over m of (t^(2d+2g+4i+2+4m) - t^(-2d-2i-2-2m)) f_(n-m).
    """
    lo, hi = fm_index_range(d)
    if not (lo <= i <= hi):
        raise OutOfRange(f"chamber index {i} outside [{lo}, {hi}] for d={d}")
    n = -d - i - 1
    f = [_macdonald_coeff(k, g) for k in range(n + 1)]  # bottom-up, so no deep recursion
    acc: Dict[int, int] = {}
    for m in range(n + 1):
        up, down = 2 * d + 2 * g + 4 * i + 2 + 4 * m, -2 * d - 2 * i - 2 - 2 * m
        for e, c in f[n - m].items():
            acc[e + up] = acc.get(e + up, 0) + c
            acc[e + down] = acc.get(e + down, 0) - c
    result = lp_div_exact(-(_one_plus_t_pow(2 * g)) * LaurentPoly(acc), _ONE_MINUS_T2)
    if not result.is_polynomial():
        raise NegativeExponentSurvived(f"closed route at i={i}, d={d}, g={g}: {result}")
    return result


@lru_cache(maxsize=None)
def u2d_poincare(g: int) -> LaurentPoly:
    """Poincare polynomial of the rank-2 odd-degree bundle moduli space:
    (1+t)^(2g) ((1+t^3)^(2g) - t^(2g) (1+t)^(2g)) / ((1-t^2)(1-t^4))."""
    if g < 2:
        raise PreconditionFailed(f"need g >= 2, got g={g}")
    num = _one_plus_t_pow(2 * g) * (
        LaurentPoly({0: 1, 3: 1}) ** (2 * g) - _T(2 * g) * _one_plus_t_pow(2 * g)
    )
    den = _ONE_MINUS_T2 * LaurentPoly({0: 1, 4: -1})
    return lp_div_exact(num, den)


def u2d_from_bundle(g: int, d: int) -> LaurentPoly:
    """Second route to the bundle moduli space, for odd d with -d > 4g - 4:
    the lowest chamber fibers over it in projective spaces of dimension
    -d - 2g + 1, so divide out that projective-space factor exactly."""
    if d >= 0 or d % 2 == 0:
        raise PreconditionFailed(f"need odd negative d, got {d}")
    if -d <= 4 * g - 4:
        raise PreconditionFailed(f"need -d > 4g - 4, got d={d}, g={g}")
    lo, _ = fm_index_range(d)
    fm = fm_poincare_closed(lo, d, g)
    fiber_exp = 2 * (-d - 2 * g + 2)
    return lp_div_exact(fm * _ONE_MINUS_T2, LaurentPoly({0: 1, fiber_exp: -1}))


@lru_cache(maxsize=None)
def mcon_poincare(g: int) -> LaurentPoly:
    """(1+t)^(2g) ((1+t^3)^(2g) - t^(2g)(1+t)^(2g)) / (1-t^2)^2, and it must
    factor as the bundle moduli polynomial times 1 + t^2, the shadow of a
    line of endomorphism directions over each stable point."""
    if g < 2:
        raise PreconditionFailed(f"need g >= 2, got g={g}")
    num = _one_plus_t_pow(2 * g) * (
        LaurentPoly({0: 1, 3: 1}) ** (2 * g) - _T(2 * g) * _one_plus_t_pow(2 * g)
    )
    result = lp_div_exact(num, _ONE_MINUS_T2 * _ONE_MINUS_T2)
    expected = u2d_poincare(g) * LaurentPoly({0: 1, 2: 1})
    if result != expected:
        raise NotDivisible(f"constrained moduli polynomial fails the fiber identity at g={g}")
    return result


def blowup_delta(d: int, g: int) -> LaurentPoly:
    """Difference between the next-to-last chamber polynomial and the blow-up
    prediction: terminal + (Pic x curve) * (proj space of the codimension
    minus one, less a point).  Zero when the identity holds."""
    if d > -3:
        raise PreconditionFailed(f"the terminal flip needs d <= -3, got {d}")
    c = -d + g - 3
    center = _one_plus_t_pow(2 * g) * LaurentPoly({0: 1, 1: 2 * g, 2: 1})
    predicted = terminal_poincare(d, g) + center * (proj_space_poincare(c - 1) - LaurentPoly.one())
    return fm_poincare_recursive(-d - 2, d, g) - predicted


def blowup_consistency(d: int, g: int) -> bool:
    return blowup_delta(d, g).is_zero()


# ---------------------------------------------------------------------------
# full per-degree report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChamberBetti:
    i: int
    p_recursive: LaurentPoly
    p_closed: LaurentPoly
    agree: bool
    degree: int
    palindromic: bool
    nonneg: bool
    constant_term: int


@dataclass(frozen=True)
class U2dReport:
    closed: LaurentPoly
    via_bundle: Optional[LaurentPoly]
    agree: Optional[bool]


@dataclass(frozen=True)
class BettiReport:
    d: int
    g: int
    moduli_dim: int
    chambers: Tuple[ChamberBetti, ...]
    u2d: U2dReport
    mcon: LaurentPoly
    terminal: LaurentPoly
    blowup_check: Optional[bool]

    @cached_property
    def telescoped_at_one(self) -> Dict[int, int]:
        """Minus the sum of the flip differences at t = 1 from j up to the
        top, for every j from the report's lowest chamber: one suffix sum."""
        total, sums = 0, {}
        for j in range(-self.d - 1, min(ch.i for ch in self.chambers) - 1, -1):
            total -= _flip_difference_at_one(j, self.d, self.g)
            sums[j] = total
        return sums

    def failures(self) -> Iterator[str]:
        """One line per failed invariant, naming it and its indices."""
        for ch in self.chambers:
            for name, holds in CHAMBER_INVARIANTS:
                if not holds(self, ch):
                    yield f"{name} fails at (i={ch.i}, d={self.d}, g={self.g})"
        for name, holds in REPORT_INVARIANTS:
            if not holds(self):
                yield f"{name} fails at (d={self.d}, g={self.g})"

    @property
    def ok(self) -> bool:
        return next(self.failures(), None) is None


def _flip_difference_at_one(j: int, d: int, g: int) -> int:
    """The flip difference above chamber j at t = 1, in closed form:
    rank W+ - rank W- (the limit of the t-power quotient) times 2^(2g) times
    the total Betti number of Sym^n of the curve, n = -d - j - 1, which is
    the x^n coefficient of (1+x)^(2g) / (1-x)^2."""
    n = -d - j - 1
    sym_at_one = sum(comb(2 * g, k) * (n - k + 1) for k in range(min(n, 2 * g) + 1))
    rank_plus, rank_minus = -d - j - 1, d + g + 2 * j + 1
    return (rank_plus - rank_minus) * 4 ** g * sym_at_one


#: Named invariants of a Betti report.  A chamber invariant is a predicate on
#: (report, chamber) and fails at (i, d, g); a report invariant is a predicate
#: on the report and fails at (d, g).  Both read only the report's fields, so
#: a report read back from JSON is checked the same way.
CHAMBER_INVARIANTS = (
    ("two routes agree", lambda r, ch: ch.agree),
    ("degree = 2 dim", lambda r, ch: ch.degree == 2 * r.moduli_dim),
    ("palindromic", lambda r, ch: ch.palindromic),
    ("nonnegative", lambda r, ch: ch.nonneg),
    ("constant term 1", lambda r, ch: ch.constant_term == 1),
    ("t=1 telescoping", lambda r, ch: ch.p_recursive(1) == r.telescoped_at_one[ch.i]),
)
REPORT_INVARIANTS = (
    ("bundle route", lambda r: r.u2d.agree is not False),
    ("terminal blow-up identity", lambda r: r.blowup_check is not False),
)


def build_betti_report(d: int, g: int, only_chamber: Optional[int] = None) -> BettiReport:
    dim = moduli_dim(d, g)  # rejects (d, g) before either route runs
    lo, hi = fm_index_range(d)
    indices = range(lo, hi + 1) if only_chamber is None else [only_chamber]
    chambers: List[ChamberBetti] = []
    for i in indices:
        p_rec = fm_poincare_recursive(i, d, g)
        p_clo = fm_poincare_closed(i, d, g)
        chambers.append(
            ChamberBetti(
                i=i,
                p_recursive=p_rec,
                p_closed=p_clo,
                agree=p_rec == p_clo,
                degree=p_rec.degree(),
                palindromic=p_rec.is_palindromic(),
                nonneg=p_rec.has_nonneg_coeffs(),
                constant_term=p_rec.coeff(0),
            )
        )
    via = None
    agree = None
    if d % 2 != 0 and -d > 4 * g - 4:
        via = u2d_from_bundle(g, d)
        agree = via == u2d_poincare(g)
    return BettiReport(
        d=d,
        g=g,
        moduli_dim=dim,
        chambers=tuple(chambers),
        u2d=U2dReport(closed=u2d_poincare(g), via_bundle=via, agree=agree),
        mcon=mcon_poincare(g),
        terminal=terminal_poincare(d, g),
        blowup_check=blowup_consistency(d, g) if d <= -3 else None,
    )


def report_to_json_obj(r: BettiReport) -> dict:
    return {
        "d": r.d,
        "g": r.g,
        "moduli_dim": r.moduli_dim,
        "chambers": [
            {
                "i": ch.i,
                "p_recursive": ch.p_recursive.to_json_obj(),
                "p_closed": ch.p_closed.to_json_obj(),
                "agree": ch.agree,
                "degree": ch.degree,
                "palindromic": ch.palindromic,
                "nonneg": ch.nonneg,
                "constant_term": ch.constant_term,
            }
            for ch in r.chambers
        ],
        "u2d": {
            "closed": r.u2d.closed.to_json_obj(),
            "via_bundle": None if r.u2d.via_bundle is None else r.u2d.via_bundle.to_json_obj(),
            "agree": r.u2d.agree,
        },
        "mcon": r.mcon.to_json_obj(),
        "terminal": r.terminal.to_json_obj(),
        "blowup_check": r.blowup_check,
    }


def _poly(value, path: str) -> LaurentPoly:
    """A Laurent polynomial in the written form {"terms": [[exponent,
    "coefficient"], ...]}: integer exponents and decimal-string coefficients."""
    terms = _fields(value, path, {"terms": (list, _REQUIRED)})["terms"]
    for k, term in enumerate(terms):
        at = f"{path}.terms[{k}]"
        if not (isinstance(term, list) and len(term) == 2):
            raise InvalidInput(f'{at}: expected [exponent, "coefficient"], got {term!r}')
        _checked(term[0], int, f"{at}[0]")
        if not (isinstance(term[1], str) and re.fullmatch("-?[0-9]+", term[1])):
            raise InvalidInput(f"{at}[1]: expected a decimal string, got {term[1]!r}")
    return LaurentPoly.from_json_obj(value)


#: Each JSON object's fields: key -> (kind, default); see chambers._fields.
_REPORT_FIELDS = {"d": (int, _REQUIRED), "g": (int, _REQUIRED), "moduli_dim": (int, _REQUIRED),
                  "chambers": (list, _REQUIRED), "u2d": (dict, _REQUIRED), "mcon": (_poly, _REQUIRED),
                  "terminal": (_poly, _REQUIRED), "blowup_check": (bool, None)}
_CHAMBER_FIELDS = {"i": (int, _REQUIRED), "p_recursive": (_poly, _REQUIRED), "p_closed": (_poly, _REQUIRED),
                   "agree": (bool, _REQUIRED), "degree": (int, _REQUIRED), "palindromic": (bool, _REQUIRED),
                   "nonneg": (bool, _REQUIRED), "constant_term": (int, _REQUIRED)}
_U2D_FIELDS = {"closed": (_poly, _REQUIRED), "via_bundle": (_poly, None), "agree": (bool, None)}


def report_from_json_obj(obj) -> BettiReport:
    """Strict reader of report_to_json_obj's output: integers that are not
    bools, real bools, null only where the writer emits it and polynomial
    terms of [int, "decimal string"], with InvalidInput naming the field
    path (e.g. chambers[0].agree) otherwise."""
    _checked(obj, dict, "report")
    top = _fields(obj, "", _REPORT_FIELDS)
    chambers = tuple(ChamberBetti(**_fields(ch, f"chambers[{k}]", _CHAMBER_FIELDS)) for k, ch in enumerate(top["chambers"]))
    u2d = U2dReport(**_fields(top["u2d"], "u2d", _U2D_FIELDS))
    return BettiReport(**{**top, "chambers": chambers, "u2d": u2d})
