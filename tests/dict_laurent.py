"""The sparse, dict-backed Laurent polynomial that flipchain.exactpoly
used before its dense storage, kept as the differential oracle for
LaurentPoly and its division by 1 - t^k (see test_laurent_oracle.py).  It
raises the library's own NotDivisible, so the two can be compared
exception for exception."""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterator, Tuple

from flipchain.exactpoly import NotDivisible, TermsLike


class DictLaurentPoly:
    """Immutable integer Laurent polynomial in one variable t, stored
    sparsely as a map from exponents to nonzero coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: Dict[int, int] = {}
        for e, c in items:
            if type(e) is not int or type(c) is not int:
                raise TypeError(f"exponents and coefficients must be integers, got {e!r}: {c!r}")
            if c:
                s = acc.get(e, 0) + c
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        object.__setattr__(self, "_terms", acc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DictLaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "DictLaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "DictLaurentPoly":
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
        if isinstance(other, DictLaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __neg__(self) -> "DictLaurentPoly":
        return DictLaurentPoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "DictLaurentPoly":
        if isinstance(other, int):
            other = DictLaurentPoly({0: other})
        if not isinstance(other, DictLaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        out = DictLaurentPoly()
        object.__setattr__(out, "_terms", acc)
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "DictLaurentPoly":
        if isinstance(other, int):
            other = DictLaurentPoly({0: other})
        if not isinstance(other, DictLaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "DictLaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "DictLaurentPoly":
        if type(other) is int:
            return DictLaurentPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, DictLaurentPoly):
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
        out = DictLaurentPoly()
        object.__setattr__(out, "_terms", acc)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DictLaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined; use lp_div_one_minus_t_pow")
        result = DictLaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- formatting and serialization ---------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.sorted_items())!r})"  # the layout under test

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


def dict_div_exact(num: DictLaurentPoly, den: DictLaurentPoly) -> DictLaurentPoly:
    """Exact division in the Laurent polynomial ring over the integers.

    Integer long division from the top degree down: each quotient
    coefficient is a divmod by the divisor's leading coefficient.  A nonzero
    remainder there, or anything left below the divisor's degree, raises
    NotDivisible.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return DictLaurentPoly.zero()
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
    return DictLaurentPoly(q)
