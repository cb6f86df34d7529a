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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple


class InvalidInput(ValueError):
    """Parameters outside the rank-2, negative-degree regime, or a JSON
    document that does not have the written form."""


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", bool: "true or false", str: "a string", list: "a list", dict: "an object"}


def _checked(value, kind, path: str):
    """The value when it is of the JSON kind (a bool is not an integer), or
    what the reader kind(value, path) makes of it; InvalidInput naming the
    field path otherwise."""
    if not isinstance(kind, type):
        return kind(value, path)
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise InvalidInput(f"{path or 'model'}: expected {_KIND_NAMES[kind]}, got {json.dumps(value)[:60]}")


def _fields(obj, path: str, spec: dict, retired: Iterable[str] = ()) -> dict:
    """The checked fields of one JSON object.  spec maps each key to (kind,
    default); the default _REQUIRED makes the key required, and a None
    default lets it be null.  Keys outside spec and retired are rejected;
    retired keys are ignored."""
    _checked(obj, dict, path)
    at = f"{path}." if path else ""
    unknown = sorted(obj.keys() - spec.keys() - set(retired))
    if unknown:
        raise InvalidInput(f"{at}{unknown[0]}: unknown field")
    fields = {}
    for key, (kind, default) in spec.items():
        if key not in obj or (obj[key] is None and default is None):
            if default is _REQUIRED:
                raise InvalidInput(f"{at}{key}: missing")
            fields[key] = default
        else:
            fields[key] = _checked(obj[key], kind, at + key)
    return fields


class OutOfRange(ValueError):
    """A chamber or flip index outside the valid window."""


def eta(i: int, d: int) -> int:
    """Destabilizing parameter max{0, 2i + d}."""
    return max(0, 2 * i + d)


def fm_index_range(d: int) -> Tuple[int, int]:
    """Inclusive window [lo, hi] of chamber indices for degree d < 0.

    lo = floor(-d/2 - 1) + 1 and hi = -d - 1; chamber i corresponds to
    sigma in (eta_i, eta_(i+1)).
    """
    if d >= 0:
        raise InvalidInput(f"degree must be negative, got {d}")
    return (-d) // 2, -d - 1


def moduli_dim(d: int, g: int) -> int:
    """Dimension -d + 2g - 2 of each chamber's moduli space."""
    if d >= 0:
        raise InvalidInput(f"degree must be negative, got {d}")
    if g < 2:
        raise InvalidInput(f"genus must be at least 2, got {g}")
    return -d + 2 * g - 2


@dataclass(frozen=True)
class Chamber:
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


@dataclass(frozen=True)
class FlipLocusData:
    """Ranks and dimensions of the two flip loci at the wall above chamber i."""

    i: int
    rank_minus: int
    rank_plus: int
    dim_p_minus: int
    dim_p_plus: int
    codim_minus: int
    codim_plus: int


@dataclass(frozen=True)
class ChamberData:
    d: int
    g: int
    walls: Tuple[int, ...]
    chambers: Tuple[Chamber, ...]
    index_lo: int
    index_hi: int

    @property
    def representatives(self) -> Tuple[Fraction, ...]:
        return tuple(c.representative for c in self.chambers)


@dataclass(frozen=True)
class ChamberLocation:
    """Where a sigma value sits: a chamber, a wall, or the empty region."""

    kind: str  # "chamber" | "wall" | "empty"
    index: Optional[int] = None
    wall: Optional[int] = None

    @classmethod
    def chamber(cls, index: int) -> "ChamberLocation":
        return cls("chamber", index=index)

    @classmethod
    def at_wall(cls, value: int, index: int) -> "ChamberLocation":
        return cls("wall", index=index, wall=value)

    @classmethod
    def empty(cls) -> "ChamberLocation":
        return cls("empty")


def build_chambers(d: int, g: int) -> ChamberData:
    """Walls and chambers covering (0, -d] for degree d < 0.

    The wall set is {eta_i : lo+1 <= i <= hi}; it is empty for d in
    {-1, -2}.  Each chamber's representative is its midpoint, taken as an
    exact rational.
    """
    if d >= 0:
        raise InvalidInput(f"degree must be negative, got {d}")
    if g < 2:
        raise InvalidInput(f"genus must be at least 2, got {g}")
    lo, hi = fm_index_range(d)
    walls = tuple(eta(i, d) for i in range(lo + 1, hi + 1))
    bounds = [Fraction(0)] + [Fraction(w) for w in walls] + [Fraction(-d)]
    chambers = []
    for j in range(len(bounds) - 1):
        lo_b, hi_b = bounds[j], bounds[j + 1]
        chambers.append(
            Chamber(
                index=j,
                fm_index=lo + j,
                lower=lo_b,
                upper=hi_b,
                closed_upper=(j == len(bounds) - 2),
                representative=(lo_b + hi_b) / 2,
            )
        )
    return ChamberData(d=d, g=g, walls=walls, chambers=tuple(chambers), index_lo=lo, index_hi=hi)


def chamber_of(sigma: Fraction, cd: ChamberData) -> ChamberLocation:
    """Locate a positive sigma; Empty when sigma exceeds -d."""
    sigma = Fraction(sigma)
    if sigma <= 0:
        raise InvalidInput(f"sigma must be positive, got {sigma}")
    if sigma > -cd.d:
        return ChamberLocation.empty()
    for j, w in enumerate(cd.walls, start=1):
        if sigma == w:
            return ChamberLocation.at_wall(w, j)
    for ch in cd.chambers:
        if ch.lower < sigma < ch.upper or (ch.closed_upper and sigma == ch.upper):
            return ChamberLocation.chamber(ch.index)
    raise AssertionError("unreachable: chambers cover (0, -d] minus walls")


def flip_locus(i: int, d: int, g: int) -> FlipLocusData:
    """Flip-locus ranks and dimensions at the wall eta_(i+1) above chamber i.

    rank W- = d + g + 2i + 1 and rank W+ = -d - i - 1; both loci are
    projective bundles over a base of dimension g + (-d - i - 1).
    """
    if g < 2:
        raise OutOfRange(f"genus must be at least 2, got {g}")
    lo, hi = fm_index_range(d)
    if not (lo <= i <= hi - 1):
        raise OutOfRange(f"flip index {i} outside [{lo}, {hi - 1}] for d={d}")
    rank_minus = d + g + 2 * i + 1
    rank_plus = -d - i - 1
    base_dim = g + (-d - i - 1)
    dim_minus = base_dim + rank_minus - 1
    dim_plus = base_dim + rank_plus - 1
    total = moduli_dim(d, g)
    return FlipLocusData(
        i=i,
        rank_minus=rank_minus,
        rank_plus=rank_plus,
        dim_p_minus=dim_minus,
        dim_p_plus=dim_plus,
        codim_minus=total - dim_minus,
        codim_plus=total - dim_plus,
    )


#: Named invariants of the flip at the wall above chamber i, as predicates
#: on (flip locus, d, g).  The last flip, i = -d - 2, is the terminal one.
FLIP_INVARIANTS = (
    ("flip rank sum", lambda fl, d, g: fl.rank_minus + fl.rank_plus == g + fl.i),
    ("interior codimension >= 2", lambda fl, d, g: fl.i == -d - 2 or min(fl.codim_minus, fl.codim_plus) >= 2),
    ("terminal codimension", lambda fl, d, g: fl.i != -d - 2 or fl.codim_minus == 1),
    ("terminal dimension", lambda fl, d, g: fl.i != -d - 2 or fl.dim_p_minus == -d + 2 * g - 3),
)


def _wall_endpoints_hold(cd: ChamberData) -> bool:
    """No walls for d in {-1, -2}; otherwise the first wall is 1 or 2 by the
    parity of d and the last is -d - 2."""
    if cd.d >= -2:
        return not cd.walls
    return bool(cd.walls) and cd.walls[0] == (1 if cd.d % 2 else 2) and cd.walls[-1] == -cd.d - 2


def structure_failures(d: int, g: int) -> List[str]:
    """One line per failed wall or flip-locus invariant at (d, g), naming the
    invariant and its indices; empty when the structure is consistent."""
    cd = build_chambers(d, g)
    failures = [] if _wall_endpoints_hold(cd) else [f"wall endpoints fail at (d={d}, g={g}): {cd.walls}"]
    for i in range(cd.index_lo, cd.index_hi):
        fl = flip_locus(i, d, g)
        failures += [f"{name} fails at (i={i}, d={d}, g={g})" for name, holds in FLIP_INVARIANTS if not holds(fl, d, g)]
    return failures
