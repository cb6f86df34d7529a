"""Exact Poincare polynomials along the chain of rank-2 flips.

Every quantity is computed by at least two independent routes and compared
exactly.  The per-chamber polynomial comes once from a telescoping sum of
flip differences and once from a closed-form coefficient extraction that
sums shifted coefficients of the symmetric-product recurrence; the flip
differences themselves are checked against a direct projective-bundle
computation, once per distinct fiber identity in each process.  Every
divisor is a geometric kernel 1 - t^k, every division an exact prefix pass
that fails loudly; the recursive route caches lists divided once per (n, g),
the closed route one table of them per genus, grown under a lock.
What no report keeps runs on integer lists from t^0: each flip is subtracted
straight into the chain's running list, its two exponents (twice a
flip-locus rank) checked up front, and the fiber verdicts, the blow-up
difference, the bundle moduli numerator and quotient, and the flips' shared
factor E(n, g) = (1+t)^(2g) Sym^n, read off Macdonald's sum as one binomial
row less its shifted reverse over 1 - t^2 at every n, are list passes.  No
route does LaurentPoly ring arithmetic: a LaurentPoly is built from a list
only for a value a report keeps or prints, or for an error message.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb
from operator import add, sub
from threading import Lock
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .chambers import InvalidInput, _checked, _Record, fm_index_range, moduli_dim
from .chambers import _chamber_index_range, _json_text, _require_equal, _require_genus, _require_int
from .exactpoly import ConsistencyFailure, LaurentPoly, NotDivisible, _as_text, _div_one_minus_t_pow


def _one_plus_t_pow(n: int) -> List[int]:
    """(1 + t)^n as its binomial row from t^0, C(n, k) at exponent k."""
    return [comb(n, k) for k in range(n + 1)]


def _proj_space(m: int) -> List[int]:
    """1 + t^2 + ... + t^(2m) for m >= -1 as its list from t^0, empty for m = -1."""
    return ([1, 0] * (m + 1))[:-1]


def proj_space_poincare(n: int) -> LaurentPoly:
    """1 + t^2 + ... + t^(2n) for projective n-space; zero for n = -1."""
    if _require_int(n, "n") < -1:
        raise InvalidInput(f"n: projective dimension must be at least -1, got {_as_text(n)}")
    return LaurentPoly._from_coeffs(0, _proj_space(n))


def _times_proj_space(p: Sequence[int], m: int) -> List[int]:
    """p (1 + t^2 + ... + t^(2m)) for a list p from t^0 and m >= 0, of length len(p) + 2m, in one
    step-2 sliding sum: out[e] = out[e-2] + p[e] - p[e-2m-2]."""
    out = [*p, *[0] * (2 * m + 2)]
    out[2 * m + 2:] = map(sub, out[2 * m + 2:], p)  # p - t^(2m+2) p
    for r in (0, 1):
        out[r::2] = accumulate(out[r::2])
    return out[:-2]  # the top two entries are zero


def sym_product_poincare(n: int, g: int) -> LaurentPoly:
    """Poincare polynomial of the n-th symmetric product of a genus-g curve,
    by Macdonald's explicit sum over k <= min(n, 2g) of C(2g, k) t^k times
    the Poincare polynomial of projective (n - k)-space (Macdonald,
    "Symmetric products of an algebraic curve", Topology 1, 1962)."""
    if min(_require_int(n, "n"), _require_int(g, "g")) < 0:
        raise InvalidInput(f"{'n' if n < 0 else 'g'}: must be nonnegative, got n={_as_text(n)}, g={_as_text(g)}")
    coeffs = [0] * (2 * n + 1)  # C(2g, k) t^k (1 + t^2 + ... + t^(2n-2k)) added in place
    for k in range(min(n, 2 * g) + 1):
        c = comb(2 * g, k)
        for e in range(k, 2 * n - k + 1, 2):
            coeffs[e] += c
    return LaurentPoly._from_coeffs(0, coeffs)


@lru_cache(maxsize=None)
def _divided_shared_factor(n: int, g: int) -> List[int]:
    """E(n, g) / (1 - t^2) from t^0, E = (1+t)^(2g) times Sym^n's polynomial, which does not depend
    on d, truncated at E's length 2n + 2g + 1: past it the series repeats its last two entries.
    Macdonald's sum with each P^(n-k) written as (1 - t^(2n-2k+2)) / (1 - t^2) gives, for
    m = min(n, 2g) and A = (1+t)^(2g) times the sum of C(2g, k) t^k over k <= m,
    E (1 - t^2) = A - t^(2n+2-m) reverse(A), A's list read backwards, as (1+t)^(2g) is palindromic.
    A, of degree 2g + m, is the binomial row of (1+t)^(4g) less (1+t)^(2g) times that of (1+t)^(2g)
    past t^m; for n >= 2g nothing is past t^m, and this is the Abel-Jacobi form.  E is then two
    step-2 prefix passes away, the first exact."""
    m, e = min(n, 2 * g), _one_plus_t_pow(2 * g)
    a = _one_plus_t_pow(4 * g)
    for k in range(m + 1, 2 * g + 1):  # less C(2g, k) t^k (1+t)^(2g)
        a[k:k + 2 * g + 1] = map(sub, a[k:k + 2 * g + 1], map(e[k].__mul__, e))
    del a[2 * g + m + 1:]  # A's degree is 2g + m; the entries past it are now zero
    shift = 2 * n + 2 - m
    q = a + [0] * shift
    q[shift:] = map(sub, q[shift:], reversed(a))  # E (1 - t^2)
    for r in (0, 1):
        q[r::2] = accumulate(q[r::2])
    del q[-2:]  # E, less the zero remainder
    for r in (0, 1):
        q[r::2] = accumulate(q[r::2])
    return q


def _fiber_factors(up: int, down: int, rank_plus: int, rank_minus: int) -> Tuple[List[int], List[int]]:
    """Formula route's fiber factor, (t^up - t^down)/(1-t^2) by exact division, and bundle route's,
    P^(rank W+ - 1) - P^(rank W- - 1) for the projective fibers of the two flip loci, as (formula,
    bundle): two integer lists of one length from t^0.  The caller has checked up, down >= 0."""
    plus, minus = _proj_space(rank_plus - 1), _proj_space(rank_minus - 1)
    width = max(up - 1, down - 1, len(plus), len(minus))
    numerator = [0] * (width + 2)  # zeros past t^up and t^down leave the quotient's top zero
    numerator[up] += 1
    numerator[down] -= 1
    plus += [0] * (width - len(plus))
    plus[:len(minus)] = map(sub, plus, minus)
    return _div_one_minus_t_pow(0, numerator, 2), plus


@lru_cache(maxsize=None)
def _fiber_identity_holds(up: int, down: int, rank_plus: int, rank_minus: int) -> bool:
    """Only the verdict is kept, keyed on all four ints: a wrong exponent still makes a new key
    that the bundle route checks.  An exception from the division is not cached."""
    formula, bundle = _fiber_factors(up, down, rank_plus, rank_minus)
    return formula == bundle


def _subtract_flip(acc: List[int], j: int, d: int, g: int) -> None:
    """Subtract flip_difference(j, d, g) in place from acc, a polynomial's coefficients from t^0.
    The flip is t^up Q - t^down Q for the cached Q = E / (1-t^2), up = 2d+2g+4j+2 = 2 rank W- and
    down = -2d-2j-2 = 2 rank W+, checked up front: a negative one raises ConsistencyFailure before
    the fiber verdict.  Two shifted copies of Q, the lower carried past Q's end by Q's last two
    entries (up - down is even), so the flip's top two entries are zero.  (j, d, g) must be checked."""
    rank_plus, rank_minus = -d - j - 1, d + g + 2 * j + 1
    up, down = 2 * d + 2 * g + 4 * j + 2, -2 * d - 2 * j - 2
    lo, s = min(up, down), abs(up - down)
    if lo < 0:  # a negative list index would wrap around silently
        raise ConsistencyFailure(f"negative exponent t^{lo} in the recursive route at (j={j}, d={d}, g={g})")
    if not _fiber_identity_holds(up, down, rank_plus, rank_minus):
        formula, bundle = (LaurentPoly._from_coeffs(0, f) for f in _fiber_factors(up, down, rank_plus, rank_minus))
        raise NotDivisible(f"flip difference routes disagree at j={j}, d={d}, g={g}: formula={formula}, bundle={bundle}")
    q = _divided_shared_factor(rank_plus, g)
    top = lo + s + len(q)
    acc += [0] * (top - len(acc))
    lower, higher = (add, sub) if down < up else (sub, add)  # acc + t^down Q - t^up Q
    acc[lo:top] = map(lower, acc[lo:top], q + q[-2:] * (s // 2))
    acc[lo + s:top] = map(higher, acc[lo + s:top], q)


def flip_difference(j: int, d: int, g: int) -> LaurentPoly:
    """Betti change across the wall above chamber j, by two routes: each a fiber factor
    (_fiber_factors) times the shared factor E(n, g), n = rank W+ = -d-j-1.  The fiber factors
    are compared first, once per distinct key of _fiber_identity_holds in each process: Z[t, 1/t]
    has no zero divisors and E(n, g) is nonzero, so the products agree exactly when the fiber
    factors do.  A mismatch raises NotDivisible.  The product is subtracted from an empty list
    from t^0 by _subtract_flip, which first checks that both exponents, twice a flip-locus rank, are >= 0."""
    _require_genus(g)
    _chamber_index_range(j, d, "j")
    acc = []
    _subtract_flip(acc, j, d, g)
    return LaurentPoly._from_coeffs(0, [-c for c in acc])


def terminal_poincare(d: int, g: int) -> LaurentPoly:
    """Last chamber: a projective bundle with fiber P^(-d+g-2) over the
    degree-0 Picard torus, so (1+t)^(2g) times 1 + t^2 + ... + t^(2(-d+g-2))."""
    moduli_dim(d, g)  # rejects (d, g)
    return LaurentPoly._from_coeffs(0, _times_proj_space(_one_plus_t_pow(2 * g), -d + g - 2))


def _recursive_chain(i: int, d: int, g: int) -> Dict[int, LaurentPoly]:
    """Chamber polynomials for k from the top chamber hi = -d-1 down to i, each the chamber above
    minus the flip difference at k: one top-down pass of the telescoping sum, whose top term
    reproduces the terminal chamber with its sign, each flip subtracted into one running list from
    t^0 by _subtract_flip, which first checks that its exponents, twice a flip-locus rank, are >= 0."""
    _require_genus(g)
    _, hi = _chamber_index_range(i, d)
    chain, above = {}, []
    for k in range(hi, i - 1, -1):
        _subtract_flip(above, k, d, g)
        chain[k] = LaurentPoly._from_coeffs(0, above)
    return chain


def fm_poincare_recursive(i: int, d: int, g: int) -> LaurentPoly:
    """Chamber polynomial as the signed telescoping sum of flip differences."""
    return _recursive_chain(i, d, g)[i]


@lru_cache(maxsize=None)
def _closed_table(g: int) -> Tuple[List[Tuple[List[int], List[int]]], List[List[int]], Lock]:
    """Genus g's rows (A'_n, B'_n) of _closed_lists from n = 0, F_(n-1) and F_n for its last row n,
    and the lock they grow under: at first row 0 = (F_0, F_0), F_0 = (1+t)^(2g) / (1 - t^2), F_(-1) = 0."""
    f0 = [comb(2 * g, e) for e in range(2 * g + 1)]  # not _one_plus_t_pow, which the recursive route runs
    for r in (0, 1):
        f0[r::2] = accumulate(f0[r::2])
    return [(f0, f0)], [[0] * len(f0), f0], Lock()


def _closed_lists(n: int, g: int) -> Tuple[List[int], List[int]]:
    """(1+t)^(2g) A_n / (1 - t^2) and (1+t)^(2g) B_n / (1 - t^2) as power
    series from t^0, truncated at their numerators' 4n + 2g + 1 terms (past
    that each repeats its last two entries), where
    A_n = f_n + t^4 A_(n-1) and B_n = B_(n-1) + t^(2n) f_n
    and f_k is the x^k coefficient of Macdonald's series
    (1+xt)^(2g) / ((1-x)(1-x t^2)) for the symmetric products, from the
    recurrence its denominator gives:
    f_k = C(2g, k) t^k + (1+t^2) f_(k-1) - t^2 f_(k-2), and f_k = 0 for k < 0.
    Row k is built from F_k = (1+t)^(2g) f_k / (1 - t^2) on its numerator's 2k + 2g + 1 terms,
    F_k = F_(k-1) + t^2 (F_(k-1) - F_(k-2)) + C(2g, k) t^k F_0; _closed_table(g) keeps the rows and
    the last two F lists, and this grows them up to row n in one loop under the table's lock."""
    rows, fs, lock = _closed_table(g)
    with lock:
        for k in range(len(rows), n + 1):
            f2, f1 = fs
            f = f1 + [0, *f1][-2:]  # F_(k-1) on F_k's 2k + 2g + 1 terms
            f[2:] = map(add, f[2:], map(sub, f1, f2 + [0, *f2][-2:]))  # each carried on, a zero before a lone entry
            c = comb(2 * g, k)
            if c:  # row 0's A list is F_0
                f[k:] = map(add, f[k:], map(c.__mul__, rows[0][0] + rows[0][0][-2:] * k))
            a_below, b_below = rows[-1]
            a = f + f[-2:] * k  # carried on to 4k + 2g + 1 terms
            a[4:] = map(add, a[4:], a_below)
            b = b_below + [0, *b_below][-2:] * 2
            b[2 * k:] = map(add, b[2 * k:], f)
            rows.append((a, b))
            fs[:] = f1, f
        return rows[n]


def fm_poincare_closed(i: int, d: int, g: int) -> LaurentPoly:
    """Chamber polynomial by closed-form coefficient extraction.

    -(1+t)^(2g)/(1-t^2) times the x^n coefficient, n = -d-i-1, of
    (t^(2d+2g+4i+2)/(1-x t^4) - t^(-2d-2i)/(t^2-x)) (1+xt)^(2g) / ((1-x)(1-x t^2)).
    Both kernels are geometric series of monomials, so with f_k the x^k
    coefficient of Macdonald's series that coefficient is t^s A_n - B_n,
    s = 2d+2g+4i+2, for A_n = sum over m of t^(4m) f_(n-m) and
    B_n = sum over k of t^(2k) f_k (see _closed_lists).  With
    (1+t)^(2g) A_n and (1+t)^(2g) B_n over 1 - t^2 kept per genus as integer
    lists, the chamber is one shifted subtraction, B's list carried on by its
    last two entries: this route shares no polynomial arithmetic with the
    recursive one.  A negative shift raises ConsistencyFailure and a nonzero
    remainder, the top two entries, NotDivisible, both naming (i, d, g).
    """
    _require_genus(g)
    _chamber_index_range(i, d)
    return _closed_chamber(i, d, g)


def _closed_chamber(i: int, d: int, g: int) -> LaurentPoly:
    """fm_poincare_closed for a checked (i, d, g)."""
    n, shift = -d - i - 1, 2 * d + 2 * g + 4 * i + 2
    if shift < 0:  # a negative list index would wrap around silently
        raise ConsistencyFailure(f"negative shift t^{shift} in the closed route at (i={i}, d={d}, g={g})")
    a, b = _closed_lists(n, g)
    q = b + (b[-2:] * (shift // 2 + 1))[:shift]  # (1+t)^(2g) (B_n - t^shift A_n) / (1 - t^2)
    q[shift:] = map(sub, q[shift:], a)
    if q[-1] or q[-2]:
        raise NotDivisible(f"nonzero remainder in the closed route at (i={i}, d={d}, g={g})")
    return LaurentPoly._from_coeffs(0, q)  # its top two entries are the zeros just checked


@lru_cache(maxsize=None)
def _bundle_numerator(g: int) -> List[int]:
    """(1+t)^(2g) ((1+t^3)^(2g) - t^(2g) (1+t)^(2g)), the numerator of u2d_poincare and
    mcon_poincare, from t^0: one shifted add of (1+t)^(2g) per term C(2g, k) t^(3k), less
    t^(2g) (1+t)^(4g); g is checked by its callers."""
    e = _one_plus_t_pow(2 * g)
    out = [0] * (8 * g + 1)
    for k in range(2 * g + 1):
        out[3 * k:3 * k + 2 * g + 1] = map(add, out[3 * k:3 * k + 2 * g + 1], map(comb(2 * g, k).__mul__, e))
    out[2 * g:6 * g + 1] = map(sub, out[2 * g:6 * g + 1], _one_plus_t_pow(4 * g))
    return out


def _u2d_closed(g: int) -> LaurentPoly:
    """(1+t)^(2g) ((1+t^3)^(2g) - t^(2g) (1+t)^(2g)) / ((1-t^2)(1-t^4)) for a checked g."""
    return LaurentPoly._from_coeffs(0, _div_one_minus_t_pow(0, _div_one_minus_t_pow(0, _bundle_numerator(g), 2), 4))


@lru_cache(maxsize=None)
def u2d_poincare(g: int) -> LaurentPoly:
    """Poincare polynomial of the rank-2 odd-degree bundle moduli space: _u2d_closed, checked once per g
    against u2d_from_bundle at d = 3 - 4g, the smallest |d| it takes, raising ConsistencyFailure naming g."""
    _require_genus(g)
    closed = _u2d_closed(g)
    if u2d_from_bundle(g, 3 - 4 * g) != closed:
        raise ConsistencyFailure(f"bundle moduli polynomial differs from the lowest chamber's quotient at g={g}")
    return closed


def u2d_from_bundle(g: int, d: int) -> LaurentPoly:
    """Second route to the bundle moduli space, for odd d with -d > 4g - 4:
    the lowest chamber fibers over it in projective spaces of dimension
    -d - 2g + 1 (Thaddeus, Invent. Math. 117, 1994), so divide out that factor exactly."""
    lo, _ = fm_index_range(d)
    _require_genus(g)
    if d % 2 == 0 or -d <= 4 * g - 4:
        raise InvalidInput(f"d: the bundle route needs odd d with -d > 4g - 4, got d={_as_text(d)}, g={_as_text(g)}")
    return _bundle_quotient(fm_poincare_closed(lo, d, g), d, g)


def _bundle_quotient(lowest: LaurentPoly, d: int, g: int) -> LaurentPoly:
    """The lowest chamber's polynomial over P^(-d-2g+1) (u2d_from_bundle checks d, g): times 1 - t^2
    by one shifted subtraction, then over 1 - t^(2(-d-2g+2)) by an exact prefix pass."""
    v, c = lowest._val, lowest._coeffs
    num = [*c, 0, 0]
    num[2:] = map(sub, num[2:], c)
    return LaurentPoly._from_coeffs(v, _div_one_minus_t_pow(v, num, 2 * (-d - 2 * g + 2)))


@lru_cache(maxsize=None)
def mcon_poincare(g: int) -> LaurentPoly:
    """(1+t)^(2g) ((1+t^3)^(2g) - t^(2g)(1+t)^(2g)) / (1-t^2)^2, and it must
    factor as the bundle moduli polynomial times 1 + t^2, the shadow of a
    line of endomorphism directions over each stable point."""
    _require_genus(g)
    result = _div_one_minus_t_pow(0, _div_one_minus_t_pow(0, _bundle_numerator(g), 2), 2)
    u = u2d_poincare(g)._coeffs  # its valuation is 0
    expected = [*u, 0, 0]
    expected[2:] = map(add, expected[2:], u)
    if result != expected:
        raise NotDivisible(f"constrained moduli polynomial fails the fiber identity at g={g}")
    return LaurentPoly._from_coeffs(0, result)


def _blowup_delta(next_to_last: LaurentPoly, terminal: LaurentPoly, d: int, g: int) -> LaurentPoly:
    """Difference between the next-to-last chamber polynomial and the blow-up
    prediction: terminal + (Pic x curve) * (proj space of the codimension
    minus one, less a point).  Zero when the identity holds.  With
    c = -d+g-3 >= 2 for d <= -3, that last factor P^(c-1) - 1 is t^2 P^(c-2).
    The three terms are added into one integer list."""
    e = _one_plus_t_pow(2 * g)
    center = [*e, 0, 0]  # (1+t)^(2g) (1 + 2g t + t^2), by shifted adds
    center[1:len(e) + 1] = map(add, center[1:len(e) + 1], [2 * g * c for c in e])
    center[2:] = map(add, center[2:], e)
    terms = ((next_to_last._val, next_to_last._coeffs, add), (terminal._val, terminal._coeffs, sub),
             (2, _times_proj_space(center, -d + g - 5), sub))
    lo = min(v for v, _, _ in terms)
    out = [0] * (max(v + len(cs) for v, cs, _ in terms) - lo)
    for v, cs, op in terms:
        out[v - lo:v - lo + len(cs)] = map(op, out[v - lo:v - lo + len(cs)], cs)
    return LaurentPoly._from_coeffs(lo, out)


def blowup_delta(d: int, g: int) -> LaurentPoly:
    """The blow-up identity's difference at (d, g), zero when it holds; d <= -3."""
    if _require_int(d, "d") > -3:
        raise InvalidInput(f"d: the terminal flip needs d <= -3, got {_as_text(d)}")
    return _blowup_delta(fm_poincare_recursive(-d - 2, d, g), terminal_poincare(d, g), d, g)


def blowup_consistency(d: int, g: int) -> bool:
    return blowup_delta(d, g).is_zero()


# ---------------------------------------------------------------------------
# full per-degree report
# ---------------------------------------------------------------------------


class ChamberBetti(NamedTuple):
    i: int
    p_recursive: LaurentPoly
    p_closed: LaurentPoly
    agree: bool
    degree: int
    palindromic: bool
    nonneg: bool
    constant_term: int


class U2dReport(NamedTuple):
    closed: LaurentPoly
    via_bundle: Optional[LaurentPoly]
    agree: Optional[bool]


class BettiReport(_Record):
    def __init__(self, d: int, g: int, moduli_dim: int, chambers: Tuple[ChamberBetti, ...], u2d: U2dReport,
                 mcon: LaurentPoly, terminal: LaurentPoly, blowup_check: Optional[bool]):
        vars(self).update(d=d, g=g, moduli_dim=moduli_dim, chambers=chambers, u2d=u2d, mcon=mcon, terminal=terminal,
                          blowup_check=blowup_check)

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
    the x^n coefficient of (1+x)^(2g) / (1-x)^2.  For n >= 2g the sum runs
    over every k, and (n+1) 4^g - sum_k k C(2g, k) = 4^g (n + 1 - g)."""
    n = -d - j - 1
    sym_at_one = 4 ** g * (n + 1 - g) if n >= 2 * g else sum(comb(2 * g, k) * (n - k + 1) for k in range(n + 1))
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
    """A chamber's record, its flags read off its polynomials, one kept for both when they agree."""
    agree = p_rec == p_clo
    return ChamberBetti(i, p_rec, p_rec if agree else p_clo, agree, p_rec.degree(), p_rec.is_palindromic(),
                        p_rec.has_nonneg_coeffs(), p_rec.coeff(0))


def build_betti_report(d: int, g: int, only_chamber: Optional[int] = None) -> BettiReport:
    dim = moduli_dim(d, g)  # rejects (d, g) and the chamber before either route runs
    lo, hi = fm_index_range(d)
    if only_chamber is not None:
        _chamber_index_range(only_chamber, d, "chamber")
        lo = hi = only_chamber
    terminal = terminal_poincare(d, g)
    chain = _recursive_chain(min(lo, -d - 2) if d <= -3 else lo, d, g)  # the blow-up check reads -d-2
    chambers = tuple(_chamber_betti(i, chain[i], _closed_chamber(i, d, g)) for i in range(lo, hi + 1))
    via = agree = None
    if d % 2 != 0 and -d > 4 * g - 4:  # the report's own lowest chamber, if it holds it
        via = _bundle_quotient(chambers[0].p_closed, d, g) if lo == fm_index_range(d)[0] else u2d_from_bundle(g, d)
        agree = via == u2d_poincare(g)
    return BettiReport(d=d, g=g, moduli_dim=dim, chambers=chambers, terminal=terminal, mcon=mcon_poincare(g),
                       u2d=U2dReport(closed=u2d_poincare(g), via_bundle=via, agree=agree),
                       blowup_check=_blowup_delta(chain[-d - 2], terminal, d, g).is_zero() if d <= -3 else None)


def report_to_json_obj(r: BettiReport) -> dict:
    """The parse of the text betti --json prints for r."""
    return json.loads(_json_text(r))


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
