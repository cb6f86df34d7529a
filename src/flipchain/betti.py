"""Exact Poincare polynomials along the chain of rank-2 flips.

Every quantity is computed by at least two independent routes and compared
exactly.  The per-chamber polynomial comes once from a telescoping sum of
flip differences and once from a closed-form coefficient extraction that
sums shifted coefficients of the symmetric-product recurrence; the flip
differences themselves are checked against a direct projective-bundle
computation, once per distinct fiber identity in each process.  All
divisions are exact divisions that fail loudly, never series inversions:
a flip product or a closed chamber is divided by 1 - t^2 in one prefix pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from operator import eq, sub
from typing import Dict, Iterator, List, Optional, Tuple

from .chambers import InvalidInput, _checked, fm_index_range, moduli_dim
from .chambers import _chamber_index_range, _require_equal, _require_genus, _require_int, _to_json
from .exactpoly import ConsistencyFailure, LaurentPoly, NotDivisible, lp_div_exact

_T = LaurentPoly.monomial
_ONE_MINUS_T2 = LaurentPoly({0: 1, 2: -1})


def _one_plus_t_pow(n: int, step: int = 1) -> LaurentPoly:
    """(1 + t^step)^n as its binomial row, C(n, k) at exponent step * k."""
    row = [0] * (step * n + 1)
    row[::step] = [comb(n, k) for k in range(n + 1)]
    return LaurentPoly._from_coeffs(0, row)


def proj_space_poincare(n: int) -> LaurentPoly:
    """1 + t^2 + ... + t^(2n) for projective n-space; zero for n = -1."""
    if _require_int(n, "n") < -1:
        raise InvalidInput(f"n: projective dimension must be at least -1, got {n}")
    return LaurentPoly._from_coeffs(0, ([1, 0] * (n + 1))[:-1])


def sym_product_poincare(n: int, g: int) -> LaurentPoly:
    """Poincare polynomial of the n-th symmetric product of a genus-g curve,
    by Macdonald's explicit sum over k <= min(n, 2g) of C(2g, k) t^k times
    the Poincare polynomial of projective (n - k)-space (Macdonald,
    "Symmetric products of an algebraic curve", Topology 1, 1962)."""
    if min(_require_int(n, "n"), _require_int(g, "g")) < 0:
        raise InvalidInput(f"{'n' if n < 0 else 'g'}: must be nonnegative, got n={n}, g={g}")
    coeffs = [0] * (2 * n + 1)  # C(2g, k) t^k (1 + t^2 + ... + t^(2n-2k)) added in place
    for k in range(min(n, 2 * g) + 1):
        c = comb(2 * g, k)
        for e in range(k, 2 * n - k + 1, 2):
            coeffs[e] += c
    return LaurentPoly._from_coeffs(0, coeffs)


@lru_cache(maxsize=None)
def _shared_factor(n: int, g: int) -> LaurentPoly:
    """E(n, g) = (1+t)^(2g) times the symmetric-product polynomial of
    Sym^n; it does not depend on the degree d."""
    return _one_plus_t_pow(2 * g) * sym_product_poincare(n, g)


def _fiber_factors(up: int, down: int, rank_plus: int, rank_minus: int) -> Tuple[LaurentPoly, LaurentPoly]:
    """Formula route's fiber factor, (t^up - t^down)/(1-t^2) by exact division, and bundle
    route's, P^(rank W+ - 1) - P^(rank W- - 1) for the projective fibers of the two flip loci."""
    formula = lp_div_exact(_T(up) - _T(down), _ONE_MINUS_T2)
    return formula, proj_space_poincare(rank_plus - 1) - proj_space_poincare(rank_minus - 1)


@lru_cache(maxsize=None)
def _fiber_identity_holds(up: int, down: int, rank_plus: int, rank_minus: int) -> bool:
    """Only the verdict is kept, keyed on all four ints: a wrong exponent still makes a new key
    that the bundle route checks.  An exception from the division is not cached."""
    return eq(*_fiber_factors(up, down, rank_plus, rank_minus))


def flip_difference(j: int, d: int, g: int) -> LaurentPoly:
    """Betti change across the wall above chamber j, by two routes: each a fiber factor
    (_fiber_factors) times the shared factor E(n, g), n = rank W+ = -d-j-1.  The fiber factors
    are compared first, once per distinct key of _fiber_identity_holds in each process: Z[t, 1/t]
    has no zero divisors and E(n, g) is nonzero, so the products agree exactly when the fiber
    factors do.  A mismatch raises NotDivisible.  The product itself is
    (E t^up - E t^down) / (1-t^2), up = 2d+2g+4j+2 and down = -2d-2j-2: two shifted copies of
    E's coefficient list in one list, divided by one prefix pass whose top two entries must be 0.
    """
    _require_genus(g)
    _chamber_index_range(j, d, "j")
    rank_plus, rank_minus = -d - j - 1, d + g + 2 * j + 1
    even_factor = _shared_factor(rank_plus, g)
    up, down = 2 * d + 2 * g + 4 * j + 2, -2 * d - 2 * j - 2
    if not _fiber_identity_holds(up, down, rank_plus, rank_minus):
        formula, bundle = _fiber_factors(up, down, rank_plus, rank_minus)
        raise NotDivisible(f"flip difference routes disagree at j={j}, d={d}, g={g}: "
                           f"formula={formula * even_factor}, bundle={bundle * even_factor}")
    ef, lo = even_factor._coeffs, min(up, down)  # t^up E - t^down E as one list
    n = len(ef)
    terms = [0] * (abs(up - down) + n)
    terms[up - lo:up - lo + n] = ef
    terms[down - lo:down - lo + n] = map(sub, terms[down - lo:down - lo + n], ef)
    for e in range(2, len(terms)):  # divided by 1 - t^2 in place
        terms[e] += terms[e - 2]
    if terms[-1] or terms[-2]:
        raise NotDivisible(f"nonzero remainder in the recursive route at (j={j}, d={d}, g={g})")
    return LaurentPoly._from_coeffs(lo + even_factor._val, terms)  # its top two entries are the zeros just checked


def terminal_poincare(d: int, g: int) -> LaurentPoly:
    """Last chamber: a projective bundle with fiber P^(-d+g-2) over the
    degree-0 Picard torus, so (1+t)^(2g) times proj_space_poincare(-d+g-2)."""
    moduli_dim(d, g)  # rejects (d, g)
    return _one_plus_t_pow(2 * g) * proj_space_poincare(-d + g - 2)


def _recursive_chain(i: int, d: int, g: int) -> Dict[int, LaurentPoly]:
    """Chamber polynomials for k from the top chamber hi = -d-1 down to i,
    each the chamber above minus the flip difference at k: one top-down pass
    of the telescoping sum, whose top term reproduces the terminal chamber
    with its sign."""
    _require_genus(g)
    _, hi = _chamber_index_range(i, d)
    chain, above = {}, LaurentPoly.zero()
    for k in range(hi, i - 1, -1):
        above = chain[k] = above - flip_difference(k, d, g)
        if not above.is_polynomial():
            raise ConsistencyFailure(f"negative exponent in the recursive route at (i={k}, d={d}, g={g}): {above}")
    return chain


def fm_poincare_recursive(i: int, d: int, g: int) -> LaurentPoly:
    """Chamber polynomial as the signed telescoping sum of flip differences."""
    return _recursive_chain(i, d, g)[i]


def _e_times_f(k: int, g: int) -> List[int]:
    """(1+t)^(2g) f_k as a coefficient list from t^0, read off the cached B
    lists: t^(2k) times it is (1+t)^(2g) (B_k - B_(k-1))."""
    if k < 0:
        return []
    b, below = _closed_lists(k, g)[1], _closed_lists(k - 1, g)[1] if k else []
    return [c - below[e] if e < len(below) else c for e, c in enumerate(b[2 * k:], 2 * k)]


@lru_cache(maxsize=None)
def _closed_lists(n: int, g: int) -> Tuple[List[int], List[int]]:
    """(1+t)^(2g) A_n and (1+t)^(2g) B_n as coefficient lists from t^0,
    both of length 4n + 2g + 1, where
    A_n = f_n + t^4 A_(n-1) and B_n = B_(n-1) + t^(2n) f_n
    and f_k is the x^k coefficient of Macdonald's series
    (1+xt)^(2g) / ((1-x)(1-x t^2)) for the symmetric products, from the
    recurrence its denominator gives:
    f_k = C(2g, k) t^k + (1+t^2) f_(k-1) - t^2 f_(k-2), and f_k = 0 for k < 0.
    Nothing else is kept: f is read back off the B lists.  Call it with n
    rising, so that the entries at n-1, n-2 and n-3 are already cached."""
    top = 4 * n + 2 * g + 1
    ef = [0] * (2 * n + 2 * g + 1)  # (1+t)^(2g) f_n
    for e in range(2 * g + 1):
        ef[n + e] = comb(2 * g, n) * comb(2 * g, e)
    for e, x in enumerate(_e_times_f(n - 1, g)):
        ef[e] += x
        ef[e + 2] += x
    for e, x in enumerate(_e_times_f(n - 2, g)):
        ef[e + 2] -= x
    a_below, b_below = _closed_lists(n - 1, g) if n else ([], [])
    a = ef + [0] * (top - len(ef))
    for e, x in enumerate(a_below):
        a[e + 4] += x
    b = b_below + [0] * (top - len(b_below))
    for e, x in enumerate(ef, 2 * n):
        b[e] += x
    return a, b


def fm_poincare_closed(i: int, d: int, g: int) -> LaurentPoly:
    """Chamber polynomial by closed-form coefficient extraction.

    -(1+t)^(2g)/(1-t^2) times the x^n coefficient, n = -d-i-1, of
    (t^(2d+2g+4i+2)/(1-x t^4) - t^(-2d-2i)/(t^2-x)) (1+xt)^(2g) / ((1-x)(1-x t^2)).
    Both kernels are geometric series of monomials, so with f_k the x^k
    coefficient of Macdonald's series that coefficient is t^s A_n - B_n,
    s = 2d+2g+4i+2, for A_n = sum over m of t^(4m) f_(n-m) and
    B_n = sum over k of t^(2k) f_k (see _closed_lists).  With
    (1+t)^(2g) A_n and (1+t)^(2g) B_n cached as integer lists by (n, g), the
    chamber is one shifted subtraction and one prefix-sum division by
    1 - t^2, in plain integers: this route shares no polynomial arithmetic
    with the recursive one.  A negative shift raises ConsistencyFailure and
    a nonzero remainder NotDivisible, both naming (i, d, g).
    """
    _require_genus(g)
    _chamber_index_range(i, d)
    n, shift = -d - i - 1, 2 * d + 2 * g + 4 * i + 2
    if shift < 0:  # a negative list index would wrap around silently
        raise ConsistencyFailure(f"negative shift t^{shift} in the closed route at (i={i}, d={d}, g={g})")
    for k in range(n):  # bottom-up, so no deep recursion
        _closed_lists(k, g)
    a, b = _closed_lists(n, g)
    q = b + [0] * shift  # (1+t)^(2g) (B_n - t^shift A_n), then divided by 1 - t^2
    for e, x in enumerate(a, shift):
        q[e] -= x
    for e in range(2, len(q)):
        q[e] += q[e - 2]
    if q[-1] or q[-2]:
        raise NotDivisible(f"nonzero remainder in the closed route at (i={i}, d={d}, g={g})")
    return LaurentPoly._from_coeffs(0, q)  # its top two entries are the zeros just checked


@lru_cache(maxsize=None)
def _bundle_numerator(g: int) -> LaurentPoly:
    """(1+t)^(2g) ((1+t^3)^(2g) - t^(2g) (1+t)^(2g)), the numerator of
    u2d_poincare and mcon_poincare; g is checked by its callers."""
    e = _one_plus_t_pow(2 * g)
    return e * (_one_plus_t_pow(2 * g, 3) - _T(2 * g) * e)


@lru_cache(maxsize=None)
def u2d_poincare(g: int) -> LaurentPoly:
    """Poincare polynomial of the rank-2 odd-degree bundle moduli space:
    (1+t)^(2g) ((1+t^3)^(2g) - t^(2g) (1+t)^(2g)) / ((1-t^2)(1-t^4))."""
    _require_genus(g)
    return lp_div_exact(_bundle_numerator(g), _ONE_MINUS_T2 * LaurentPoly({0: 1, 4: -1}))


def u2d_from_bundle(g: int, d: int) -> LaurentPoly:
    """Second route to the bundle moduli space, for odd d with -d > 4g - 4:
    the lowest chamber fibers over it in projective spaces of dimension
    -d - 2g + 1, so divide out that projective-space factor exactly."""
    lo, _ = fm_index_range(d)
    if d % 2 == 0 or -d <= 4 * g - 4:
        raise InvalidInput(f"d: the bundle route needs odd d with -d > 4g - 4, got d={d}, g={g}")
    fm = fm_poincare_closed(lo, d, g)
    fiber_exp = 2 * (-d - 2 * g + 2)
    return lp_div_exact(fm * _ONE_MINUS_T2, LaurentPoly({0: 1, fiber_exp: -1}))


@lru_cache(maxsize=None)
def mcon_poincare(g: int) -> LaurentPoly:
    """(1+t)^(2g) ((1+t^3)^(2g) - t^(2g)(1+t)^(2g)) / (1-t^2)^2, and it must
    factor as the bundle moduli polynomial times 1 + t^2, the shadow of a
    line of endomorphism directions over each stable point."""
    _require_genus(g)
    result = lp_div_exact(_bundle_numerator(g), _ONE_MINUS_T2 * _ONE_MINUS_T2)
    expected = u2d_poincare(g) * LaurentPoly({0: 1, 2: 1})
    if result != expected:
        raise NotDivisible(f"constrained moduli polynomial fails the fiber identity at g={g}")
    return result


def _blowup_delta(next_to_last: LaurentPoly, terminal: LaurentPoly, d: int, g: int) -> LaurentPoly:
    """Difference between the next-to-last chamber polynomial and the blow-up
    prediction: terminal + (Pic x curve) * (proj space of the codimension
    minus one, less a point).  Zero when the identity holds."""
    c = -d + g - 3
    center = _one_plus_t_pow(2 * g) * LaurentPoly({0: 1, 1: 2 * g, 2: 1})
    return next_to_last - terminal - center * (proj_space_poincare(c - 1) - LaurentPoly.one())


def blowup_delta(d: int, g: int) -> LaurentPoly:
    """The blow-up identity's difference at (d, g), zero when it holds; d <= -3."""
    if d > -3:
        raise InvalidInput(f"d: the terminal flip needs d <= -3, got {d}")
    return _blowup_delta(fm_poincare_recursive(-d - 2, d, g), terminal_poincare(d, g), d, g)


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
    ("terminal chamber", lambda r: all(ch.p_recursive == r.terminal for ch in r.chambers if ch.i == -r.d - 1)),
)


def _chamber_betti(i: int, p_rec: LaurentPoly, p_clo: LaurentPoly) -> ChamberBetti:
    """A chamber's record, every flag read off its two polynomials."""
    return ChamberBetti(i=i, p_recursive=p_rec, p_closed=p_clo, agree=p_rec == p_clo, degree=p_rec.degree(),
                        palindromic=p_rec.is_palindromic(), nonneg=p_rec.has_nonneg_coeffs(),
                        constant_term=p_rec.coeff(0))


def build_betti_report(d: int, g: int, only_chamber: Optional[int] = None) -> BettiReport:
    dim = moduli_dim(d, g)  # rejects (d, g) and the chamber before either route runs
    lo, hi = fm_index_range(d)
    if only_chamber is not None:
        _chamber_index_range(only_chamber, d, "chamber")
        lo = hi = only_chamber
    terminal = terminal_poincare(d, g)
    chain = _recursive_chain(min(lo, -d - 2) if d <= -3 else lo, d, g)  # the blow-up check reads -d-2
    chambers = tuple(_chamber_betti(i, chain[i], fm_poincare_closed(i, d, g)) for i in range(lo, hi + 1))
    via = None
    agree = None
    if d % 2 != 0 and -d > 4 * g - 4:
        via = u2d_from_bundle(g, d)
        agree = via == u2d_poincare(g)
    return BettiReport(
        d=d,
        g=g,
        moduli_dim=dim,
        chambers=chambers,
        u2d=U2dReport(closed=u2d_poincare(g), via_bundle=via, agree=agree),
        mcon=mcon_poincare(g),
        terminal=terminal,
        blowup_check=_blowup_delta(chain[-d - 2], terminal, d, g).is_zero() if d <= -3 else None,
    )


def report_to_json_obj(r: BettiReport) -> dict:
    return _to_json(r)


def report_from_json_obj(obj) -> BettiReport:
    """Strict reader of report_to_json_obj's output: the report must be
    exactly what betti --json writes for its own integer d and g and its
    chamber set, every chamber or the one chamber --chamber asks for, with
    InvalidInput naming the deepest field path that differs (e.g.
    chambers[0].agree or mcon.terms[0][1]) otherwise."""
    _checked(obj, dict, "report")
    d, g = (_checked(obj.get(key), int, key) for key in ("d", "g"))
    listed, only_chamber = obj.get("chambers"), None
    if type(listed) is list and len(listed) == 1:  # as --chamber writes it
        only_chamber = _checked(listed[0], dict, "chambers[0]").get("i")
        _chamber_index_range(only_chamber, d, "chambers[0].i")
    report = build_betti_report(d, g, only_chamber)
    _require_equal(obj, report_to_json_obj(report), "", f"for d={d}, g={g}")
    return report
