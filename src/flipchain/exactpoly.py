"""Exact arithmetic for integer Laurent polynomials and x-truncated series.

A Laurent polynomial in t is stored densely as its valuation (the
smallest exponent, negative allowed) and the tuple of arbitrary-precision
integer coefficients from there up, trimmed of zeros at both ends; zero is
(0, ()).  A truncated bivariate series is a power series in a second
variable x, cut off inclusively at a fixed order, whose coefficients are
Laurent polynomials in t; neither Betti route uses it, and it stays as the
tests' reference for Macdonald's generating function.  Values are
immutable, operations are pure, and nothing here ever touches floating
point.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate
from operator import add, sub
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union


class ConsistencyFailure(ArithmeticError):
    """An internal invariant failed on valid input; the message names the
    invariant and its indices.  The CLI exits 1 on it."""


class NotDivisible(ConsistencyFailure):
    """No exact quotient exists; a formula was transcribed wrongly."""


TermsLike = Union[Mapping[int, int], Iterable[Tuple[int, int]]]


def _shown(value) -> str:
    """At most 60 characters of value as JSON, or of its repr when JSON
    cannot hold it (a Fraction from a Python caller, say), or a fixed text
    when neither can (an int past the 4,300-digit limit of int-to-str)."""
    try:
        return json.dumps(value)[:60]
    except (TypeError, ValueError):
        try:
            return repr(value)[:60]
        except ValueError:
            return f"<int of {value.bit_length()} bits>" if type(value) is int else f"<{type(value).__name__}>"


def _as_text(value, form=str) -> str:
    """form(value), str or repr, or _shown's fixed text when int-to-str refuses it (an int, or a
    Fraction's numerator or denominator, past its 4,300-digit limit)."""
    try:
        return form(value)
    except ValueError:
        return _shown(value)


def _trimmed(valuation: int, coeffs: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """(valuation, coefficients) with the zeros at both ends of coeffs cut
    and the valuation moved past those at the low end; zero is (0, ())."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not coeffs[lo]:
        lo += 1
    return (valuation + lo if hi else 0), tuple(coeffs[lo:hi])


class LaurentPoly:
    """Immutable integer Laurent polynomial in one variable t.

    Storage is dense, the coefficients from the valuation to the degree, so
    it grows with that span: LaurentPoly({0: 1, 10**6: 1}) holds a million
    coefficients and takes about 25 ms and 23 MB (tracemalloc peak) to
    build.  No CLI input reaches such a span; the Betti spans are about 4|d|.

    >>> p = LaurentPoly({0: 1, 1: 1})
    >>> print(p * p)
    1 + 2*t + t^2
    >>> print(LaurentPoly.monomial(-2) * LaurentPoly.monomial(5))
    t^3
    >>> (p ** 4).coeff(2)
    6
    """

    __slots__ = ("_val", "_coeffs")

    def __init__(self, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: Dict[int, int] = {}
        for e, c in items:
            if type(e) is not int or type(c) is not int:
                raise TypeError("exponents and coefficients must be integers, "
                                f"got {_as_text(e, repr)}: {_as_text(c, repr)}")
            if c:
                acc[e] = acc.get(e, 0) + c
        lo = min(acc, default=0)
        coeffs = [0] * (max(acc) - lo + 1) if acc else []
        for e, c in acc.items():
            coeffs[e - lo] = c
        self._val, self._coeffs = _trimmed(lo, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_coeffs(cls, valuation: int, coeffs: Sequence[int]) -> "LaurentPoly":
        """Sum of coeffs[k] t^(valuation + k) over k, with no type checks:
        the coefficients must be ints.  Zeros at either end are trimmed."""
        out = object.__new__(cls)
        out._val, out._coeffs = _trimmed(valuation, coeffs)
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * t**exponent; exponent may be negative."""
        if type(exponent) is not int or type(coeff) is not int:
            raise TypeError("exponents and coefficients must be integers, "
                            f"got {_as_text(exponent, repr)}: {_as_text(coeff, repr)}")
        return cls._from_coeffs(exponent, [coeff])

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, int]]:
        """The nonzero terms (exponent, coefficient), exponents rising."""
        return ((e, c) for e, c in enumerate(self._coeffs, self._val) if c)

    def sorted_items(self) -> list[Tuple[int, int]]:
        return list(self.items())

    def coeff(self, exponent: int) -> int:
        k = exponent - self._val
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_polynomial(self) -> bool:
        """True iff every exponent with a nonzero coefficient is nonnegative."""
        return self._val >= 0

    def degree(self) -> int:
        """Largest exponent; undefined for the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return self._val + len(self._coeffs) - 1

    def valuation(self) -> int:
        """Smallest exponent; undefined for the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no valuation")
        return self._val

    def is_palindromic(self) -> bool:
        """Coefficient list reads the same from both ends."""
        return self._coeffs == self._coeffs[::-1]

    def has_nonneg_coeffs(self) -> bool:
        return min(self._coeffs, default=0) >= 0

    def __call__(self, x):
        """Evaluate at x (int or Fraction) by Horner's rule; x must be
        nonzero if any exponent is negative, and the result is a Fraction
        then even for an int x.  At x = 1 it is the sum of the coefficients.
        Any other x, a bool or a float included, raises TypeError."""
        if type(x) is int and x == 1:
            total = sum(self._coeffs)
            return Fraction(total) if self._val < 0 else total
        if type(x) is not int and not isinstance(x, Fraction):
            raise TypeError(f"evaluation point must be an int or a Fraction, got {_as_text(x, repr)}")
        total = 0
        for c in reversed(self._coeffs):
            total = total * x + c
        e = self._val
        if e > 0:
            total *= x ** e
        elif e < 0:
            total *= Fraction(1, x ** -e) if isinstance(x, int) else x ** e
        return total

    # -- ring structure ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._val == other._val and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._val, self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_coeffs(self._val, [-c for c in self._coeffs])

    def _combine(self, other, op) -> "LaurentPoly":
        """self op other, op being operator.add or operator.sub."""
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        va = self._val if a else other._val
        vb = other._val if b else va
        lo = min(va, vb)
        out = [0] * (max(va + len(a), vb + len(b)) - lo)
        out[va - lo:va - lo + len(a)] = a
        j = vb - lo
        out[j:j + len(b)] = map(op, out[j:j + len(b)], b)
        return LaurentPoly._from_coeffs(lo, out)

    def __add__(self, other) -> "LaurentPoly":
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self._combine(other, sub)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if type(other) is int:  # a bool is no coefficient, as in the constructor
            return LaurentPoly._from_coeffs(self._val, [c * other for c in self._coeffs])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1) if b else []
        for i, c in enumerate(b):  # the shorter operand
            if c:
                for k, x in enumerate(a, i):
                    out[k] += c * x
        return LaurentPoly._from_coeffs(self._val + other._val, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if type(n) is not int:
            raise TypeError(f"exponent must be an int, got {_as_text(n, repr)}")
        if n < 0:
            raise ValueError("negative powers are not defined; use lp_div_one_minus_t_pow")
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
        if not self._coeffs:
            return "0"
        text = "".join([(f" + {c}*t^{e}" if c > 1 else f" - {-c}*t^{e}" if c < -1 else f" + t^{e}" if c == 1 else f" - t^{e}")
                        if e != 0 and e != 1 else  # t^0 and t^1 print as a bare number and t
                        (" - " if c < 0 else " + ") + (str(abs(c)) if not e else "t" if c in (1, -1) else f"{abs(c)}*t")
                        for e, c in enumerate(self._coeffs, self._val) if c])
        return text[3:] if text[1] == "+" else "-" + text[3:]  # the first term's sign takes no spaces

    def json_text(self, indent: str = "\n") -> str:
        """{"terms": [[exponent, "coefficient"], ...]} sorted by exponent, the
        coefficients as decimal strings so arbitrary precision survives any
        JSON reader, indented as json.dumps(..., indent=2) indents it, with one
        format per nonzero term; indent is the newline and indentation of the
        object's own line.  json.loads of it is the polynomial's object form."""
        inner = indent + "  "
        if not self._coeffs:
            return "{" + inner + '"terms": []' + indent + "}"
        row = inner + "  "
        term = "[" + row + "  %d," + row + '  "%d"' + row + "]"
        terms = [term % ec for ec in self.items()]
        return "{" + inner + '"terms": [' + row + ("," + row).join(terms) + inner + "]" + indent + "}"


def lp_div_one_minus_t_pow(num: LaurentPoly, k: int) -> LaurentPoly:
    """Exact quotient num / (1 - t^k) for an int k >= 1, the kernel of every
    divisor the Betti routes use, at num's valuation (see _div_one_minus_t_pow)."""
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive int, got {_as_text(k, repr)}")
    return LaurentPoly._from_coeffs(num._val, _div_one_minus_t_pow(num._val, num._coeffs, k))


def _div_one_minus_t_pow(valuation: int, coeffs: Sequence[int], k: int) -> List[int]:
    """The quotient's list for the numerator sum of coeffs[e] t^(valuation + e), k >= 1: one
    step-k prefix pass, q[e] = coeffs[e] + q[e-k], run as one running sum per residue class of
    the exponent mod k.  Its top k entries are the remainder and must be zero, or NotDivisible
    is raised naming the numerator; the entries below them are returned, from t^valuation."""
    q = list(coeffs)
    for r in range(min(k, len(q))):
        q[r::k] = accumulate(q[r::k])
    if any(q[-k:]):
        numerator = LaurentPoly._from_coeffs(valuation, coeffs)
        raise NotDivisible(f"({numerator}) is not divisible by ({LaurentPoly({0: 1, k: -1})})")
    del q[-k:]
    return q


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
            raise ValueError(f"coefficient of x^{n} beyond truncation order {self._order}")
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
