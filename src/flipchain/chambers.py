"""Wall-and-chamber structure for rank-2 framed moduli with trivial framing target.

For degree d < 0 and genus g >= 2 the stability parameter sigma ranges over
(0, -d]; beyond -d the moduli space is empty.  Walls are the values
eta_i = max{0, 2i + d} for i running over a fixed index window, and the
open intervals between consecutive walls are the chambers.  Crossing a
wall replaces a projectivized flip locus PW- by PW+ over a common base
Pic^(i+1) x Sym^(-d-i-1) of the curve.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .exactpoly import LaurentPoly, _as_text, _shown


class InvalidInput(ValueError):
    """Parameters outside the rank-2, negative-degree regime, or a JSON
    document that does not have the written form.  The message starts with
    the field path (d, g, sigma, subs[0].rank, ...); the CLI exits 2 on it."""


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", bool: "true or false", str: "a string", list: "a list", dict: "an object"}


def _checked(value, kind: type, path: str):
    """The value when it is of the JSON kind int, bool, str, list or dict (a
    bool is not an integer); InvalidInput naming the field path otherwise."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise InvalidInput(f"{path or 'model'}: expected {_KIND_NAMES[kind]}, got {_shown(value)}")


def _fields(obj, path: str, spec: dict, retired: Iterable[str] = ()) -> dict:
    """The checked fields of one JSON object.  spec maps each key to (kind,
    default), kind a JSON kind of _checked; the default _REQUIRED makes the
    key required, and a None default lets it be null.  Keys outside spec
    and retired are rejected; retired keys are ignored."""
    _checked(obj, dict, path)
    at = f"{path}." if path else ""
    unknown = sorted(obj.keys() - spec.keys() - set(retired), key=str)
    if unknown:
        raise InvalidInput(f"{at}{unknown[0]}: unknown field")
    fields = {}
    for key, (kind, default) in spec.items():
        if key not in obj or (obj[key] is None and default is None):
            if default is _REQUIRED:
                raise InvalidInput(f"{at}{key}: missing")
            fields[key] = default
        else:  # a value of exactly its kind needs no check and no path
            value = obj[key]
            fields[key] = value if type(value) is kind else _checked(value, kind, at + key)
    return fields


class _Record:
    """A frozen record whose fields are its __init__'s parameters, in order.
    A subclass's __init__ checks its arguments and stores them, and any
    derived state, with one vars(self).update(...).  Equality and hash read
    the tuple of fields, repr writes Kind(field=value, ...), and _replace
    builds a copy through __init__, so the copy is checked again."""

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values())) | changes)


_json_str = json.encoder.encode_basestring_ascii  # the C escaper json.dumps itself uses


def _json_text(value, indent: str = "\n") -> str:
    """The JSON text of a report or model value, indented by 2 as json.dumps
    indents, and the one JSON writer: every object form is json.loads of this
    text.  A record is an object of its _fields in order: a named tuple (a
    report row, which neither checks its inputs nor holds derived state) or
    a _Record (a record that does either, its fields its __init__'s).  Any
    other tuple is an array, a frozenset a sorted array, a Fraction its quoted
    string and a LaurentPoly its json_text; dicts, lists, str, int, bool and
    None are written as json.dumps writes them, in one walk of value with no
    object form in between (CPython's json runs its C encoder only without an
    indent).  indent is the newline and indentation of value's own line.  A
    field whose value is the very object of the field before it reuses that
    field's text, as a chamber's agreeing p_closed does.  Any other leaf, such
    as a float, is json.dumps(value); a non-str key or a set raises TypeError."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is Fraction:
        return '"%s"' % value
    if kind is LaurentPoly:
        return value.json_text(indent)
    inner = indent + "  "
    names = getattr(kind, "_fields", None)  # a named tuple or a _Record is an object, any other tuple an array
    if names is not None:
        pairs = zip(names, value if isinstance(value, tuple) else value._values())
    else:
        pairs = value.items() if isinstance(value, dict) else None
    if pairs is not None:
        items, last, text = [], object(), ""
        for k, v in pairs:
            if v is not last:  # a field holding the very object of the field before it reuses its text
                last, text = v, _json_text(v, inner)
            items.append(_json_str(k) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple, frozenset)):
        items = [_json_text(v, inner) for v in (sorted(value) if isinstance(value, frozenset) else value)]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return json.dumps(value)


def _require_equal(got, want, path: str, where: str) -> None:
    """Nothing when the JSON value got is want, the parse of the text the CLI
    prints (json.loads(_json_text(report))); InvalidInput naming the deepest
    path that differs otherwise.  Types compare exactly (a bool is
    not an integer, 1.0 is not 1), objects key by key in any order, lists
    item by item over their common length and then by length."""
    if type(got) is dict and type(want) is dict:
        at = f"{path}." if path else ""
        unknown = sorted(got.keys() - want.keys(), key=str)
        if unknown:
            raise InvalidInput(f"{at}{unknown[0]}: unknown field")
        for key, value in want.items():
            if key not in got:
                raise InvalidInput(f"{at}{key}: missing")
            _require_equal(got[key], value, at + key, where)
        return
    if type(got) is list and type(want) is list:
        for k, (item, value) in enumerate(zip(got, want)):
            _require_equal(item, value, f"{path}[{k}]", where)
    if type(got) is not type(want) or got != want:
        raise InvalidInput(f"{path}: expected {_shown(want)} {where}, got {_shown(got)}")


def eta(i: int, d: int) -> int:
    """Destabilizing parameter max{0, 2i + d}."""
    return max(0, 2 * i + d)


def _require_int(value, path: str) -> int:
    """value itself when its type is int (not a bool or a float);
    InvalidInput naming path otherwise."""
    if type(value) is not int:
        raise InvalidInput(f"{path}: expected an integer, got {_as_text(value, repr)}")
    return value


def fm_index_range(d: int, path: str = "d") -> Tuple[int, int]:
    """Inclusive window [lo, hi] of chamber indices for degree d < 0, the
    one home of that rule; InvalidInput naming path otherwise.

    lo = floor(-d/2 - 1) + 1 and hi = -d - 1; chamber i corresponds to
    sigma in (eta_i, eta_(i+1)).
    """
    if _require_int(d, path) >= 0:
        raise InvalidInput(f"{path}: degree must be negative, got {_as_text(d)}")
    return (-d) // 2, -d - 1


def _require_genus(g: int, path: str = "g") -> None:
    """The one home of the rule genus >= 2; InvalidInput naming path otherwise."""
    if _require_int(g, path) < 2:
        raise InvalidInput(f"{path}: genus must be at least 2, got {_as_text(g)}")


def _chamber_index_range(i: int, d: int, path: str = "i") -> Tuple[int, int]:
    """fm_index_range(d) when it holds the index i; InvalidInput naming path otherwise."""
    lo, hi = fm_index_range(d)
    if not lo <= _require_int(i, path) <= hi:
        i, lo, hi, d = map(_as_text, (i, lo, hi, d))
        raise InvalidInput(f"{path}: index {i} outside [{lo}, {hi}] for d={d}")
    return lo, hi


def _require_sigma(sigma):
    """sigma itself when it is a positive int (not a bool) or Fraction;
    InvalidInput naming sigma otherwise.  Nothing is converted."""
    if type(sigma) is not Fraction and type(sigma) is not int:
        raise InvalidInput(f"sigma: expected an int or a Fraction, got {_as_text(sigma, repr)}")
    if sigma.numerator <= 0:  # the denominator of a Fraction is positive
        raise InvalidInput(f"sigma: must be positive, got {_as_text(sigma)}")
    return sigma


def moduli_dim(d: int, g: int) -> int:
    """Dimension -d + 2g - 2 of each chamber's moduli space."""
    fm_index_range(d)
    _require_genus(g)
    return -d + 2 * g - 2


class Chamber(NamedTuple):
    """One open interval between walls, with a canonical rational point.

    `index` is the position j of the interval I_j counting from 0 at the
    smallest sigma; `fm_index` is the corresponding chamber index i in the
    window of fm_index_range.  The last chamber is closed on the right at
    sigma = -d, where the moduli space is still nonempty.
    """

    index: int
    fm_index: int
    lower: Fraction
    upper: Fraction
    closed_upper: bool
    representative: Fraction


class FlipLocusData(NamedTuple):
    """Ranks and dimensions of the two flip loci at the wall above chamber i."""

    i: int
    rank_minus: int
    rank_plus: int
    dim_p_minus: int
    dim_p_plus: int
    codim_minus: int
    codim_plus: int


class ChamberData(NamedTuple):
    """The chambers report: its fields, in order, are what chambers --json
    writes.  flip_loci holds the flip at each wall, from the lowest."""

    d: int
    g: int
    moduli_dim: int
    walls: Tuple[int, ...]
    chambers: Tuple[Chamber, ...]
    flip_loci: Tuple[FlipLocusData, ...]

    @property
    def representatives(self) -> Tuple[Fraction, ...]:
        return tuple(c.representative for c in self.chambers)


class ChamberLocation(NamedTuple):
    """Where a sigma value sits: a chamber, a wall, or the empty region."""

    kind: str  # "chamber" | "wall" | "empty"
    index: Optional[int] = None
    wall: Optional[int] = None


def chamber_bounds(d: int, path: str = "d") -> Tuple[int, ...]:
    """The chamber ends (0, *walls, -d) for degree d < 0, as ints; InvalidInput
    naming path otherwise.  The wall set is {eta_i : lo+1 <= i <= hi}, empty
    for d in {-1, -2}; every wall list is read from here."""
    lo, hi = fm_index_range(d, path)
    return (0, *(eta(i, d) for i in range(lo + 1, hi + 1)), -d)


def _midpoints(bounds: Tuple[int, ...]) -> List[Fraction]:
    """Each chamber's representative, the exact midpoint of its two ends."""
    return [Fraction(a + b, 2) for a, b in zip(bounds, bounds[1:])]


def build_chambers(d: int, g: int) -> ChamberData:
    """Walls, chambers covering (0, -d] and flip loci for degree d < 0: one
    Fraction per end in chamber_bounds(d), shared by the chambers on either
    side of it, and for each chamber i < hi the flip locus of the wall above."""
    dim = moduli_dim(d, g)  # rejects (d, g)
    lo, hi = fm_index_range(d)
    bounds = chamber_bounds(d)
    ends, last = [Fraction(b) for b in bounds], len(bounds) - 2
    chambers = tuple(Chamber(j, lo + j, ends[j], ends[j + 1], j == last, rep)
                     for j, rep in enumerate(_midpoints(bounds)))
    flips = tuple(_flip_row(i, d, g, dim) for i in range(lo, hi))
    return ChamberData(d, g, dim, bounds[1:-1], chambers, flips)


def chamber_of(sigma: Fraction, cd: ChamberData) -> ChamberLocation:
    """Locate a positive sigma; Empty when sigma exceeds -d."""
    if _require_sigma(sigma) > -cd.d:
        return ChamberLocation("empty")
    k = bisect_left(cd.walls, sigma)  # the walls rise: k lie below sigma, so it is wall k + 1 or in chamber k
    if k < len(cd.walls) and cd.walls[k] == sigma:
        return ChamberLocation("wall", index=k + 1, wall=cd.walls[k])
    return ChamberLocation("chamber", index=k)


def flip_locus(i: int, d: int, g: int) -> FlipLocusData:
    """Flip-locus ranks and dimensions at the wall eta_(i+1) above chamber i.

    rank W- = d + g + 2i + 1 and rank W+ = -d - i - 1; both loci are
    projective bundles over a base of dimension g + (-d - i - 1).
    """
    total = moduli_dim(d, g)
    lo, hi = fm_index_range(d)
    if not lo <= _require_int(i, "i") < hi:  # the last chamber has no wall above it
        i, lo, hi, d = map(_as_text, (i, lo, hi - 1, d))
        raise InvalidInput(f"i: flip index {i} outside [{lo}, {hi}] for d={d}")
    return _flip_row(i, d, g, total)


def _flip_row(i: int, d: int, g: int, total: int) -> FlipLocusData:
    """flip_locus(i, d, g) for arguments already checked, with total =
    moduli_dim(d, g)."""
    rank_minus = d + g + 2 * i + 1
    rank_plus = -d - i - 1
    base_dim = g + (-d - i - 1)
    dim_minus = base_dim + rank_minus - 1
    dim_plus = base_dim + rank_plus - 1
    return FlipLocusData(i, rank_minus, rank_plus, dim_minus, dim_plus, total - dim_minus, total - dim_plus)


#: Named invariants of the flip at the wall above chamber i, as predicates
#: on (flip locus, d, g).  The last flip, i = -d - 2, is the terminal one.
FLIP_INVARIANTS = (
    ("flip rank sum", lambda fl, d, g: fl.rank_minus + fl.rank_plus == g + fl.i),
    ("interior codimension >= 2", lambda fl, d, g: fl.i == -d - 2 or min(fl.codim_minus, fl.codim_plus) >= 2),
    ("terminal codimension", lambda fl, d, g: fl.i != -d - 2 or fl.codim_minus == 1),
    ("terminal dimension", lambda fl, d, g: fl.i != -d - 2 or fl.dim_p_minus == -d + 2 * g - 3),
)


def _wall_endpoints_hold(d: int, walls: Tuple[int, ...]) -> bool:
    """No walls for d in {-1, -2}; otherwise the first wall is 1 or 2 by the
    parity of d and the last is -d - 2."""
    if d >= -2:
        return not walls
    return bool(walls) and walls[0] == (1 if d % 2 else 2) and walls[-1] == -d - 2


def structure_failures(d: int, g: int) -> List[str]:
    """One line per failed wall or flip-locus invariant at (d, g), naming the
    invariant and its indices; empty when the structure is consistent.  It
    reads the walls and flip rows build_chambers is made of, not its report."""
    dim = moduli_dim(d, g)  # rejects (d, g)
    lo, hi = fm_index_range(d)
    walls = chamber_bounds(d)[1:-1]
    failures = [] if _wall_endpoints_hold(d, walls) else [f"wall endpoints fail at (d={d}, g={g}): {walls}"]
    for i in range(lo, hi):
        fl = _flip_row(i, d, g, dim)
        failures += [f"{name} fails at (i={fl.i}, d={d}, g={g})" for name, holds in FLIP_INVARIANTS if not holds(fl, d, g)]
    return failures
