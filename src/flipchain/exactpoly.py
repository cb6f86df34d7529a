"""Exact arithmetic for integer Laurent polynomials and x-truncated series.

A Laurent polynomial in t is stored sparsely as a map from integer
exponents (negative allowed) to nonzero arbitrary-precision integer
coefficients.  A truncated bivariate series is a power series in a second
variable x, cut off inclusively at a fixed order, whose coefficients are
Laurent polynomials in t.  Values are immutable, operations are pure, and
nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

class NotDivisible(ArithmeticError):
    """No exact quotient exists; a formula was transcribed wrongly."""


class OrderExceeded(ValueError):
    """A series coefficient beyond the truncation order was requested."""


TermsLike = Union[Mapping[int, int], Iterable[Tuple[int, int]]]


class LaurentPoly:
    """Immutable integer Laurent polynomial in one variable t.

    >>> p = LaurentPoly({0: 1, 1: 1})
    >>> print(p * p)
    1 + 2*t + t^2
    >>> print(LaurentPoly.monomial(-2) * LaurentPoly.monomial(5))
    t^3
    >>> (p ** 4).coeff(2)
    6
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: Dict[int, int] = {}
        for e, c in items:
            if c:
                e = int(e)
                s = acc.get(e, 0) + int(c)
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        object.__setattr__(self, "_terms", acc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * t**exponent; exponent may be negative."""
        return cls({exponent: coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[Tuple[int, int]]:
        return sorted(self._terms.items())

    def coeff(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_polynomial(self) -> bool:
        """True iff every stored exponent is nonnegative."""
        return all(e >= 0 for e in self._terms)

    def degree(self) -> int:
        """Largest exponent; undefined for the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        """Smallest exponent; undefined for the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def is_palindromic(self) -> bool:
        """Coefficient list reads the same from both ends."""
        if not self._terms:
            return True
        lo, hi = self.valuation(), self.degree()
        return all(c == self._terms.get(lo + hi - e, 0) for e, c in self._terms.items())

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self._terms.values())

    def __call__(self, x):
        """Evaluate at x (int or Fraction); x must be nonzero if any exponent is negative."""
        total = 0
        for e, c in self._terms.items():
            total += c * (x ** e if e >= 0 else Fraction(1, x ** (-e)) if isinstance(x, int) else x ** e)
        return total

    # -- ring structure ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        out = LaurentPoly()
        object.__setattr__(out, "_terms", acc)
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: Dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        out = LaurentPoly()
        object.__setattr__(out, "_terms", acc)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined; use lp_div_exact")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- formatting and serialization ---------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.sorted_items())!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.sorted_items():
            if e == 0:
                term = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json_obj(self) -> dict:
        """{"terms": [[exponent, "coefficient"], ...]} sorted by exponent.

        Coefficients are decimal strings so arbitrary precision survives any
        JSON reader.
        """
        return {"terms": [[e, str(c)] for e, c in self.sorted_items()]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "LaurentPoly":
        return cls((int(e), int(c)) for e, c in obj["terms"])


def lp_div_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent polynomial ring over the integers.

    Integer long division from the top degree down: each quotient
    coefficient is a divmod by the divisor's leading coefficient.  A nonzero
    remainder there, or anything left below the divisor's degree, raises
    NotDivisible.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    nv, dv = num.valuation(), den.valuation()
    ddeg = den.degree() - dv
    dlead = den.coeff(den.degree())
    lower = [(e - dv, c) for e, c in den.items() if e - dv != ddeg]
    rem: Dict[int, int] = {e - nv: c for e, c in num.items()}
    q: Dict[int, int] = {}
    for k in range(max(rem) - ddeg, -1, -1):
        c, r = divmod(rem.pop(k + ddeg, 0), dlead)
        if r:
            raise NotDivisible(f"({num}) is not divisible by ({den})")
        if c:
            q[k + nv - dv] = c
            for e, dc in lower:
                rem[e + k] = rem.get(e + k, 0) - c * dc
    if any(rem.values()):
        raise NotDivisible(f"({num}) is not divisible by ({den})")
    return LaurentPoly(q)


class TruncatedBiSeries:
    """Power series in x, truncated inclusively at a fixed order.

    The coefficient of x^k sits at index k and is a LaurentPoly in t.
    Multiplication convolves coefficients and drops everything above the
    shared order, so products are exact up to that order.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, coeffs: Sequence[LaurentPoly], order: int | None = None):
        if order is None:
            if not coeffs:
                raise ValueError("need an explicit order for an empty coefficient list")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        coeffs = list(coeffs[: order + 1])  # anything above x^order is cut
        padded = coeffs + [LaurentPoly.zero()] * (order + 1 - len(coeffs))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_coeffs", tuple(padded))

    @property
    def order(self) -> int:
        return self._order

    def coeff_x(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n > self._order:
            raise OrderExceeded(f"coefficient of x^{n} beyond truncation order {self._order}")
        return self._coeffs[n]

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedBiSeries):
            return self._order == other._order and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __mul__(self, other) -> "TruncatedBiSeries":
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        if other._order != self._order:
            raise ValueError("truncation orders differ")
        n = self._order
        out = []
        for k in range(n + 1):
            acc: Dict[int, int] = {}
            for a in range(k + 1):
                pa = self._coeffs[a]
                pb = other._coeffs[k - a]
                if pa.is_zero() or pb.is_zero():
                    continue
                for e1, c1 in pa.items():
                    for e2, c2 in pb.items():
                        e = e1 + e2
                        s = acc.get(e, 0) + c1 * c2
                        if s:
                            acc[e] = s
                        elif e in acc:
                            del acc[e]
            out.append(LaurentPoly(acc))
        return TruncatedBiSeries(out, n)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self._coeffs)
        return f"TruncatedBiSeries(order={self._order}, [{inner}])"


def geom_kernel(order: int, k: int = 0) -> TruncatedBiSeries:
    """1/(1 - x*t^k) = sum_n x^n t^(k*n), truncated at order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return TruncatedBiSeries([LaurentPoly.monomial(k * n) for n in range(order + 1)], order)


def one_plus_xt_power(m: int, order: int) -> TruncatedBiSeries:
    """(1 + x*t)^m truncated in x; the x^n coefficient is binom(m, n) t^n."""
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    coeffs = [LaurentPoly.monomial(n, comb(m, n)) for n in range(min(m, order) + 1)]
    return TruncatedBiSeries(coeffs, order)
