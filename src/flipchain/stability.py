"""Slope-stability engine for framed modules, Hitchin-type pairs and their
oriented variants, evaluated on finite subobject-lattice models.

Conventions baked into every check (curve with a degree-1 polarization):

* Hilbert polynomials are P(m) = deg + rank*(m + 1 - g), so every reduced
  comparison collapses to the exact rational framed slope
  (deg - delta*sigma)/rank with delta in {0, 1}.
* A subobject with fr = False models one contained in the kernel of the
  framing; consequently fr is monotone under containment (a subobject of
  a kernel subobject is again in the kernel).
* Quotient framing: if a Harder-Narasimhan step has fr = True the quotient
  framing vanishes; otherwise each quotient inherits the containing
  subobject's flag.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Collection
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .chambers import (_REQUIRED, InvalidInput, _checked, _fields, _require_genus, _require_int, _require_sigma,
                       _json_text, _midpoints, chamber_bounds)
from .exactpoly import ConsistencyFailure


class AmbiguousModel(ConsistencyFailure):
    """Two incomparable subobjects tie at maximal slope and maximal rank.

    A lattice coming from an actual sheaf cannot do this; the maximal
    destabilizer is unique up to containment.
    """


class AxiomViolated(ConsistencyFailure):
    """The constraint-closure precondition fails on this model."""


@dataclass(frozen=True)
class CurveContext:
    """Genus of the base curve and degree of the framing target bundle."""

    genus: int
    frame_degree: int = 0

    def __post_init__(self):
        _require_genus(self.genus, "genus")
        _require_int(self.frame_degree, "frame_degree")


@dataclass(frozen=True)
class FramedType:
    """Global numerical type of the framed object."""

    rank: int
    degree: int
    framing_nonzero: bool
    delta_iso: bool = False

    def __post_init__(self):
        if _require_int(self.rank, "type.rank") < 1:
            raise InvalidInput(f"type.rank: rank must be positive, got {self.rank}")
        _require_int(self.degree, "type.degree")
        _checked(self.framing_nonzero, bool, "type.framing_nonzero")
        _checked(self.delta_iso, bool, "type.delta_iso")


@dataclass(frozen=True)
class SubobjectData:
    """Numerical data of one proper nonzero subobject.

    fr is True when the restricted framing is nonzero; phi_invariant marks
    invariance under the endomorphism-valued field of the pair; parents
    holds ids of subobjects strictly containing this one.  A field of the
    wrong kind, or a parent listed twice, raises InvalidInput naming
    subs[*].<field>: a subobject does not know its index.
    """

    id: str
    rank: int
    degree: int
    fr: bool
    phi_invariant: bool = True
    parents: FrozenSet[str] = frozenset()

    def __post_init__(self):
        _checked(self.id, str, "subs[*].id")
        _checked(self.fr, bool, "subs[*].fr")
        _checked(self.phi_invariant, bool, "subs[*].phi_invariant")
        parents = self.parents  # a frozenset, as every generator passes, skips the ABC test
        if type(parents) is not frozenset and (isinstance(parents, str) or not isinstance(parents, Collection)):
            _checked(parents, list, "subs[*].parents")  # raises: a string is one id, not a collection of ids
        for p in parents:
            _checked(p, str, "subs[*].parents")
        if type(parents) is not frozenset:
            object.__setattr__(self, "parents", frozenset(parents))
            if len(self.parents) < len(parents):  # a parent listed twice
                dup = next(p for p in parents if list(parents).count(p) > 1)
                raise InvalidInput(f"subs[*].parents: duplicate parent {dup!r}")


@dataclass(frozen=True)
class SplitDescriptor:
    """Direct-sum decomposition E = K + E' used by the oriented split case.

    kmax_id names the kernel-side summand (fr = False), other_id the
    complementary summand carrying the full framing.
    """

    kmax_id: str
    other_id: str

    def __post_init__(self):
        _checked(self.kmax_id, str, "split.kmax_id")
        _checked(self.other_id, str, "split.other_id")


@dataclass(frozen=True)
class FramedModel:
    """A framed object and the finite lattice of its proper nonzero subobjects.
    ancestors holds each subobject's strict containers, so memory is quadratic
    in chain length: a 2,000-link rank-1 chain takes up to 1 s and 83 MB of peak
    RSS to build (CPython 3.11.7)."""

    ctx: CurveContext
    typ: FramedType
    subs: Tuple[SubobjectData, ...]
    split: Optional[SplitDescriptor] = None

    def __post_init__(self):
        object.__setattr__(self, "subs", tuple(self.subs))
        by_id: Dict[str, SubobjectData] = {}
        for k, s in enumerate(self.subs):
            if s.id in by_id:
                raise InvalidInput(f"subs[{k}].id: duplicate subobject id {s.id!r}")
            # the paths are formatted only for a value that fails
            if type(s.rank) is not int or not 0 < s.rank < self.typ.rank:
                _require_int(s.rank, f"subs[{k}].rank")
                raise InvalidInput(f"subs[{k}].rank: rank {s.rank} not strictly between 0 and {self.typ.rank}")
            if type(s.degree) is not int:
                _require_int(s.degree, f"subs[{k}].degree")
            if s.fr and not self.typ.framing_nonzero:
                raise InvalidInput(f"subs[{k}].fr: fr=True but the ambient framing is zero")
            by_id[s.id] = s
        for k, s in enumerate(self.subs):
            for p in s.parents:
                if p not in by_id:
                    raise InvalidInput(f"subs[{k}].parents: unknown parent {p!r}")
                if p == s.id:
                    raise InvalidInput(f"subs[{k}].parents: subobject {s.id!r} contains itself")
                if s.rank > by_id[p].rank:
                    raise InvalidInput(f"subs[{k}].parents: containment {s.id!r} < {p!r} inconsistent with ranks")
                if s.fr and not by_id[p].fr:
                    raise InvalidInput(f"subs[{k}].fr: fr=True inside {p!r} with fr=False; "
                                       "kernel membership is monotone under containment")
        # ancestors: the transitive closure of the containment order (strict containers)
        anc = self._ancestor_map(by_id)
        for k, s in enumerate(self.subs):
            if s.id in anc[s.id]:
                raise InvalidInput(f"subs[{k}].parents: containment cycle through {s.id!r}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "ancestors", anc)
        n = math.lcm(self.typ.rank, *(s.rank for s in self.subs))
        object.__setattr__(self, "_rank_lcm", n)
        # _slopes reads each slope times q*n at sigma = p/q as a*q - b*p from
        # these (a, b): the ambient's, then each subobject's in subs order
        t, w = self.typ, n // self.typ.rank
        subs_ab = tuple((s.degree * (n // s.rank), n // s.rank if s.fr else 0) for s in self.subs)
        object.__setattr__(self, "_linear", ((t.degree * w, w if t.framing_nonzero else 0), subs_ab))
        if self.split is not None:
            if self.split.kmax_id == self.split.other_id:
                raise InvalidInput(f"split: kmax_id and other_id both name {self.split.kmax_id!r}; the summands must differ")
            k, o = by_id.get(self.split.kmax_id), by_id.get(self.split.other_id)
            if k is None or k.fr:
                raise InvalidInput(f"split.kmax_id: {self.split.kmax_id!r} is not a subobject with fr=False")
            if o is None or o.fr != self.typ.framing_nonzero:
                raise InvalidInput(f"split.other_id: {self.split.other_id!r} is not a subobject carrying the framing")
            if k.rank + o.rank != self.typ.rank or k.degree + o.degree != self.typ.degree:
                raise InvalidInput("split: summands must add up to the ambient type")

    @staticmethod
    def _ancestor_map(by_id: Dict[str, SubobjectData]) -> Dict[str, FrozenSet[str]]:
        """Each id's strict containers (its own too on a containment cycle), from a
        worklist per subobject, so a long chain needs no deep recursion."""
        anc: Dict[str, FrozenSet[str]] = {}
        for sid, s in by_id.items():
            ups, todo = set(), list(s.parents)
            while todo:
                p = todo.pop()
                if p not in ups:
                    ups.add(p)
                    if p in anc:
                        ups |= anc[p]
                    else:
                        todo.extend(by_id[p].parents)
            anc[sid] = frozenset(ups)
        return anc

    def sub(self, sid: str) -> SubobjectData:
        return self._by_id[sid]

    def contains(self, outer_id: str, inner_id: str) -> bool:
        """True when the subobject outer strictly contains inner."""
        return outer_id in self.ancestors[inner_id]

    @cached_property
    def _oriented(self) -> Tuple[Tuple[bool, bool], Tuple[bool, bool]]:
        """(oriented semistable, oriented stable) for modules, then for pairs.
        They are taken at sigma_max, so each model computes them once."""
        return _oriented_verdicts(self, False), _oriented_verdicts(self, True)

    @cached_property
    def _canonical(self) -> Optional[Tuple[Fraction, Union[SubobjectData, AmbiguousModel, None]]]:
        """sigma_max and what _max_destabilizer finds on its pass when sigma_max
        is nonnegative, else None: the canonical half of constraint closure,
        which _closed and the rank-2 equivalence precondition both read."""
        s_star = sigma_max(self, use_phi=False)
        if s_star is None or s_star < 0:
            return None
        return s_star, _max_destabilizer(self, *_slopes(self, s_star))


class HNFiltration(NamedTuple):
    """Steps (ids of the original model, innermost first) and the graded
    pieces (rank, degree, framing flag) of the successive quotients."""

    steps: Tuple[str, ...]
    graded: Tuple[Tuple[int, int, bool], ...]

    def graded_slopes(self, sigma: Fraction) -> Tuple[Fraction, ...]:
        sigma = _require_sigma(sigma)
        return tuple(reduced_framed_slope(rank, deg, fr, sigma, True) for rank, deg, fr in self.graded)


# ---------------------------------------------------------------------------
# slopes and the basic (semi)stability checks
# ---------------------------------------------------------------------------


def reduced_framed_slope(rank: int, degree: int, fr: bool, sigma: Fraction,
                         framing_ambient_nonzero: bool) -> Fraction:
    """(degree - delta*sigma)/rank with delta = 1 iff the framing is nonzero.

    On a curve the rank-normalized Hilbert polynomials all share the
    m-coefficient 1, so this constant term carries the whole comparison.
    The verdicts are decided by _slopes in integers; the suite checks them
    against this value's terms, _framed_slope_terms.
    """
    return Fraction(*_framed_slope_terms(rank, degree, fr, sigma, framing_ambient_nonzero))


def _framed_slope_terms(rank: int, degree: int, fr: bool, sigma: Fraction,
                        framing_ambient_nonzero: bool) -> Tuple[int, int]:
    """reduced_framed_slope as (numerator, positive denominator): the suite's exact
    oracle, which cross-multiplies these and never reads a model's _linear."""
    if fr and framing_ambient_nonzero:
        q = sigma.denominator  # sigma = p/q
        return degree * q - sigma.numerator, rank * q
    return degree, rank


def _slopes(m: FramedModel, sigma: Fraction) -> Tuple[int, List[int]]:
    """The ambient framed slope and each subobject's (in m.subs order), times
    q*n for sigma = p/q in lowest terms and n the lcm of the model's ranks:
    integers in the same order as the slopes.

    delta is 1 for framed objects under a nonzero ambient framing.  Each
    value is linear in sigma, from coefficients stored with the model.
    """
    p, q = sigma.numerator, sigma.denominator
    (a, b), subs = m._linear
    return a * q - b * p, [a * q - b * p for a, b in subs]


def _verdicts(m: FramedModel, amb: int, slopes: List[int]) -> Tuple[bool, bool, bool, bool]:
    """(fm semistable, fm stable, pair semistable, pair stable) from one
    _slopes pass (amb, slopes); the pair verdicts quantify over phi-invariant
    subobjects."""
    top = top_phi = amb - 1  # the maxima over no subobjects break no inequality
    for s, sl in zip(m.subs, slopes):
        if sl > top:
            top = sl
        if sl > top_phi and s.phi_invariant:
            top_phi = sl
    return top <= amb, top < amb, top_phi <= amb, top_phi < amb


def is_fm_semistable(m: FramedModel, sigma: Fraction) -> bool:
    """Every subobject's framed slope is at most the ambient framed slope."""
    return _verdicts(m, *_slopes(m, _require_sigma(sigma)))[0]


def is_fm_stable(m: FramedModel, sigma: Fraction) -> bool:
    return _verdicts(m, *_slopes(m, _require_sigma(sigma)))[1]


def is_pair_semistable(m: FramedModel, sigma: Fraction) -> bool:
    """Same inequality quantified only over phi-invariant subobjects."""
    return _verdicts(m, *_slopes(m, _require_sigma(sigma)))[2]


def is_pair_stable(m: FramedModel, sigma: Fraction) -> bool:
    return _verdicts(m, *_slopes(m, _require_sigma(sigma)))[3]


# ---------------------------------------------------------------------------
# maximal destabilizer and the Harder-Narasimhan greedy construction
# ---------------------------------------------------------------------------


def _tie_break(m: FramedModel, cands: List[SubobjectData]) -> SubobjectData:
    """The candidate of maximal rank among those tied at maximal slope, then
    the one containing all the others; AmbiguousModel when none does."""
    if len(cands) > 1:
        max_rank = max(s.rank for s in cands)
        cands = [s for s in cands if s.rank == max_rank]
    if len(cands) == 1:
        return cands[0]
    for c in cands:
        if all(o.id == c.id or m.contains(c.id, o.id) for o in cands):
            return c
    ids = ", ".join(sorted(s.id for s in cands))
    raise AmbiguousModel(f"incomparable subobjects tie at maximal slope and rank: {ids}")


def _max_destabilizer(m: FramedModel, amb: int, slopes: List[int]) -> Union[SubobjectData, AmbiguousModel, None]:
    """max_destabilizer from one _slopes pass (amb, slopes), with an incomparable
    tie's AmbiguousModel returned, not raised.  Tie order: slope, then rank,
    then containment; no positivity check."""
    top = max(slopes, default=amb - 1)
    if top < amb:
        return None
    try:
        return _tie_break(m, [s for s, sl in zip(m.subs, slopes) if sl == top])
    except AmbiguousModel as exc:
        return exc


def max_destabilizer(m: FramedModel, sigma: Fraction) -> Optional[SubobjectData]:
    """The subobject of maximal framed slope, or None when the ambient object
    strictly dominates every subobject.

    At a strict tie with the ambient slope the subobject is still returned:
    it is the maximal destabilizing subobject of a strictly semistable
    model.  Ties between incomparable subobjects raise AmbiguousModel.
    """
    found = _max_destabilizer(m, *_slopes(m, _require_sigma(sigma)))
    if isinstance(found, AmbiguousModel):
        raise found
    return found


def hn_filtration(m: FramedModel, sigma: Fraction) -> HNFiltration:
    """Greedy filtration by maximal destabilizers, on the model's own lattice.

    A semistable model yields the one-step filtration whose single graded
    piece is the ambient object; otherwise the first step is the maximal
    destabilizer B and the construction goes on in E/B.  Its subobjects are
    B's strict containers G of larger rank, and since rank times framed
    slope (deg - delta*sigma) is additive on exact sequences, G/B has slope
    (w_G - w_B)/(r_G - r_B) with w = rank * slope from one _slopes pass.
    The quotient's framing vanishes once a framed step is taken.
    """
    return _filtration(m, *_slopes(m, _require_sigma(sigma)))


def _filtration(m: FramedModel, amb: int, slopes: List[int]) -> HNFiltration:
    """hn_filtration from one _slopes pass (amb, slopes).  E's own slopes share
    one scale, so the first step is read straight off the pass; only the
    quotients E/B, which a rank-2 model never reaches, rescale theirs."""
    t = m.typ
    top = max(slopes, default=amb)
    if top <= amb:  # semistable: E is the one graded piece
        return HNFiltration((), ((t.rank, t.degree, t.framing_nonzero),))
    b = _tie_break(m, [s for s, sl in zip(m.subs, slopes) if sl == top])
    anc = m.ancestors[b.id]
    # E/B's subobjects are B's strict containers of larger rank, each with w = rank * slope
    w = {g.id: g.rank * sl for g, sl in zip(m.subs, slopes) if g.id in anc and g.rank > b.rank}
    cands = [m.sub(gid) for gid in w]  # in m.subs order
    steps, graded = [b.id], [(b.rank, b.degree, t.framing_nonzero and b.fr)]
    framed = t.framing_nonzero and not b.fr
    r_e, d_e, w_e = t.rank, t.degree, t.rank * amb
    r_b, d_b, w_b = b.rank, b.degree, b.rank * top  # the last step
    while cands:
        # each slope of E/B times the lcm of its ranks, in the order of the slopes
        n = math.lcm(r_e - r_b, *(g.rank - r_b for g in cands))
        top_amb = (w_e - w_b) * (n // (r_e - r_b))
        scaled = [(w[g.id] - w_b) * (n // (g.rank - r_b)) for g in cands]
        top = max(scaled)
        if top <= top_amb:
            break
        b = _tie_break(m, [g for g, sl in zip(cands, scaled) if sl == top])
        steps.append(b.id)
        graded.append((b.rank - r_b, b.degree - d_b, framed and b.fr))
        framed = framed and not b.fr
        r_b, d_b, w_b = b.rank, b.degree, w[b.id]
        cands = [g for g in cands if g.id in m.ancestors[b.id] and g.rank > r_b]
    graded.append((r_e - r_b, d_e - d_b, framed))
    return HNFiltration(tuple(steps), tuple(graded))


# ---------------------------------------------------------------------------
# kernel-side bounds and the final chamber
# ---------------------------------------------------------------------------


def sigma_upper_bound(m: FramedModel) -> Optional[Fraction]:
    """Upper bound deg E - (rank E / rank ker)(deg E - deg H) on parameters
    where the model can still be semistable; None without a kernel subobject.

    The kernel is modelled by the fr = False subobject of maximal rank.
    """
    if not m.typ.framing_nonzero:
        raise InvalidInput("type.framing_nonzero: the bound applies only to models with nonzero framing")
    kers = [s for s in m.subs if not s.fr]
    if not kers:
        return None
    k = max(s.rank for s in kers)
    d = m.typ.degree
    h = m.ctx.frame_degree
    return Fraction(d * k - m.typ.rank * (d - h), k)


def final_chamber_stable(m: FramedModel) -> bool:
    """Stable for every sufficiently large sigma iff the framing is injective,
    i.e. no subobject sits inside its kernel."""
    if not m.typ.framing_nonzero:
        raise InvalidInput("type.framing_nonzero: final-chamber stability applies only to nonzero framings")
    return all(s.fr for s in m.subs)


def sigma_max(m: FramedModel, use_phi: bool = False) -> Optional[Fraction]:
    """Canonical parameter deg E - (rank E / rank K) deg K built from the
    maximal destabilizing kernel subobject K; None when no fr = False
    (and phi-invariant, when requested) subobject exists.

    The m-coefficients of the two Hilbert polynomials cancel on a curve,
    so the parameter is a single exact rational.  Subobjects tied at the
    maximal (scaled slope, rank) have the same degree, so any of them gives it.
    """
    _checked(use_phi, bool, "use_phi")
    elig = [s for s in m.subs if not s.fr and (s.phi_invariant or not use_phi)]
    if not elig:
        return None
    n = m._rank_lcm
    _, rank, degree = max((s.degree * (n // s.rank), s.rank, s.degree) for s in elig)
    return Fraction(m.typ.degree * rank - m.typ.rank * degree, rank)


# ---------------------------------------------------------------------------
# oriented objects: stability at the canonical parameter
# ---------------------------------------------------------------------------


def _oriented_split_holds(m: FramedModel, s: Fraction) -> bool:
    if m.split is None:
        raise InvalidInput("split: split-case evaluation needs a split descriptor on the model")
    if not m.typ.framing_nonzero:
        return False
    k = m.sub(m.split.kmax_id)
    o = m.sub(m.split.other_id)
    return k.degree * o.rank * s.denominator == (o.degree * s.denominator - s.numerator) * k.rank


def oriented_split_case(m: FramedModel, pair: bool = False) -> bool:
    """Split alternative of oriented stability, checked through the declared
    direct-sum descriptor; InvalidInput when the model has none."""
    s = sigma_max(m, use_phi=_checked(pair, bool, "pair"))
    if s is None:
        return False
    return _oriented_split_holds(m, s)


def _oriented_verdicts(m: FramedModel, pair: bool) -> Tuple[bool, bool]:
    """(oriented semistable, oriented stable) at the canonical parameter; read
    through FramedModel._oriented, which stores them per model."""
    s = sigma_max(m, use_phi=pair)
    if s is None:
        return True, True  # injective framing (no phi-invariant kernel subobject, for pairs)
    if not m.typ.delta_iso or s < 0:
        return False, False
    # every object is charged s/rank whatever its framing flag: (deg*q - p)(n/rank) for s = p/q, as _slopes scales
    n, p, q = m._rank_lcm, s.numerator, s.denominator
    verdicts = _verdicts(m, (m.typ.degree * q - p) * (n // m.typ.rank),
                         [(t.degree * q - p) * (n // t.rank) for t in m.subs])
    ss, stable = verdicts[2:] if pair else verdicts[:2]
    return ss, s > 0 and (stable or m.split is not None and _oriented_split_holds(m, s))


def is_oriented_semistable(m: FramedModel, pair: bool = False) -> bool:
    """Oriented semistability at the canonical parameter.

    Either the framing is injective (for pairs: no phi-invariant subobject in
    the kernel), or the orientation is an isomorphism, the canonical
    parameter is nonnegative and the shifted slope inequality holds for all
    (phi-invariant, for pairs) subobjects.
    """
    return m._oriented[_checked(pair, bool, "pair")][0]


def is_oriented_stable(m: FramedModel, pair: bool = False) -> bool:
    """Strict variant; a declared direct-sum splitting can rescue stability
    when some subobject sits exactly on the shifted slope equality."""
    return m._oriented[_checked(pair, bool, "pair")][1]


# ---------------------------------------------------------------------------
# rank-2 equivalences between pair and plain framed stability
# ---------------------------------------------------------------------------


class EquivalenceReport(NamedTuple):
    """Each verdict pair that disagrees, with a witnessing subobject id for
    the plain (non-oriented) verdicts where one exists."""

    mismatches: Tuple[Tuple[str, Optional[str]], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_rank2_equivalences(m: FramedModel, sigma: Fraction) -> EquivalenceReport:
    """Check that pair and framed-module verdicts agree on a rank-2 model.

    Precondition (constraint closure): every fr = False subobject is
    phi-invariant, and the maximal destabilizer is phi-invariant both at the
    given sigma and at the canonical parameter used by the oriented checks.
    AxiomViolated reports the witnessing subobject when the closure fails.
    """
    if m.typ.rank != 2:
        raise InvalidInput(f"type.rank: equivalence verification is specific to rank 2, got {m.typ.rank}")
    sigma = _require_sigma(sigma)
    amb, slopes = _slopes(m, sigma)
    return _equivalences(m, sigma, amb, slopes, _max_destabilizer(m, amb, slopes))


def _equivalences(m: FramedModel, sigma: Fraction, amb: int, slopes: List[int],
                  found: Union[SubobjectData, AmbiguousModel, None]) -> EquivalenceReport:
    """verify_rank2_equivalences from one _slopes pass (amb, slopes) at sigma
    and found, _max_destabilizer's result on that pass."""
    for s in m.subs:  # a non-invariant kernel subobject, else the destabilizer, witnesses it
        if not s.fr and not s.phi_invariant:
            raise AxiomViolated(f"subobject {s.id!r} breaks constraint closure at sigma={sigma}")
    if isinstance(found, AmbiguousModel):
        raise found
    if found is not None and not found.phi_invariant:
        raise AxiomViolated(f"subobject {found.id!r} breaks constraint closure at sigma={sigma}")
    canonical = m._canonical
    if canonical is not None:
        s_star, found = canonical
        if isinstance(found, AmbiguousModel):  # stored on the model: each raise starts a fresh traceback
            raise found.with_traceback(None)
        if found is not None and not found.phi_invariant:
            raise AxiomViolated(f"subobject {found.id!r} breaks constraint closure at the canonical parameter {s_star}")

    mismatches: List[Tuple[str, Optional[str]]] = []
    fm_ss, fm_stable, pair_ss, pair_stable = _verdicts(m, amb, slopes)
    for kind, agree, strict in (("semistable", fm_ss == pair_ss, False), ("stable", fm_stable == pair_stable, True)):
        if not agree:  # a non-invariant subobject at or above the ambient slope witnesses it
            witness = next((s.id for s, sl in zip(m.subs, slopes)
                            if not s.phi_invariant and (sl >= amb if strict else sl > amb)), None)
            mismatches.append((kind, witness))
    (fm_oss, fm_ostable), (pair_oss, pair_ostable) = m._oriented
    if fm_oss != pair_oss:
        mismatches.append(("oriented_semistable", None))
    if fm_ostable != pair_ostable:
        mismatches.append(("oriented_stable", None))
    return EquivalenceReport(tuple(mismatches))


def rank2_threshold_holds(sub: SubobjectData, typ: FramedType, sigma: Fraction, strict: bool = False) -> bool:
    """Closed-form half-line on which a rank-2 subobject satisfies its
    inequality: sigma >= 2 deg F - d when fr, sigma <= d - 2 deg F when not.
    Compared in integers: p against bound * q for sigma = p/q."""
    _checked(strict, bool, "strict")
    if typ.rank != 2:
        raise InvalidInput(f"type.rank: the threshold formulas are specific to rank 2, got {typ.rank}")
    d = typ.degree
    s = _require_sigma(sigma)
    p, q = s.numerator, s.denominator
    if sub.fr and typ.framing_nonzero:
        bound = (2 * sub.degree - d) * q
        return p > bound if strict else p >= bound
    bound = (d - 2 * sub.degree) * q
    return p < bound if strict else p <= bound


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def model_to_json_obj(m: FramedModel) -> dict:
    ctx, typ, subs, split = json.loads(_json_text((m.ctx, m.typ, m.subs, m.split)))
    obj = {**ctx, "type": typ, "subs": subs}
    if split is not None:
        obj["split"] = split
    return obj


#: The keys of a report_obj entry's four verdicts, in _verdicts' order.
VERDICT_KEYS = ("fm_semistable", "fm_stable", "pair_semistable", "pair_stable")


def _ratio_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, by one gcd and no Fraction."""
    k = math.gcd(p, q)
    return str(p // k) if k == q else f"{p // k}/{q // k}"


def report_obj(m: FramedModel) -> dict:
    """The stability-check report of m, JSON-ready: bounds and oriented verdicts,
    then per sigma (each chamber representative, after its lower end when that is a
    wall) what one _slopes pass gives.  InvalidInput naming type.degree unless d < 0."""
    bounds, points = chamber_bounds(m.typ.degree, "type.degree"), []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):  # sigma and its text, from the ends
        if k:
            points.append(("wall", Fraction(lo), str(lo)))
        points.append(("chamber", Fraction(lo + hi, 2), _ratio_text(lo + hi, 2)))
    entries = []
    for kind, sigma, sigma_text in points:
        amb, slopes = _slopes(m, sigma)
        entry = {"sigma": sigma_text, "kind": kind, **dict(zip(VERDICT_KEYS, _verdicts(m, amb, slopes)))}
        try:
            hn = _filtration(m, amb, slopes)  # json.loads(_json_text(hn)) and hn.graded_slopes(sigma), from hn's tuples
            entry["hn"] = {"steps": list(hn.steps), "graded": [list(piece) for piece in hn.graded],
                           "slopes": [_ratio_text(*_framed_slope_terms(*piece, sigma, True)) for piece in hn.graded]}
        except AmbiguousModel as exc:
            entry["hn"] = {"error": str(exc)}
        if m.typ.rank == 2:
            try:
                rep = _equivalences(m, sigma, amb, slopes, _max_destabilizer(m, amb, slopes))
                entry["equivalences"] = {"ok": rep.ok, "mismatches": [list(pair) for pair in rep.mismatches]}
            except AxiomViolated as exc:
                entry["equivalences"] = {"axiom_violated": str(exc)}
            except AmbiguousModel as exc:
                entry["equivalences"] = {"ambiguous": str(exc)}
        entries.append(entry)
    nz = m.typ.framing_nonzero
    bound, top = (sigma_upper_bound(m) if nz else None), sigma_max(m)
    return {
        "d": m.typ.degree,
        "g": m.ctx.genus,
        "rank": m.typ.rank,
        "sigma_upper_bound": None if bound is None else str(bound),
        "final_chamber_stable": final_chamber_stable(m) if nz else None,
        "sigma_max": None if top is None else str(top),
        "oriented": dict(zip(("module_semistable", "module_stable", "pair_semistable", "pair_stable"),
                             m._oriented[0] + m._oriented[1])),
        "verdicts": entries,
    }


#: Each JSON object's fields: key -> (kind, default); see _fields.
_MODEL_FIELDS = {"genus": (int, _REQUIRED), "frame_degree": (int, 0), "type": (dict, _REQUIRED),
                 "subs": (list, _REQUIRED), "split": (dict, None)}
_TYPE_FIELDS = {"rank": (int, _REQUIRED), "degree": (int, _REQUIRED), "framing_nonzero": (bool, _REQUIRED),
                "delta_iso": (bool, False)}
_SUB_FIELDS = {"id": (str, _REQUIRED), "rank": (int, _REQUIRED), "degree": (int, _REQUIRED), "fr": (bool, _REQUIRED),
               "phi_invariant": (bool, True), "parents": (list, ())}
_SPLIT_FIELDS = {"kmax_id": (str, _REQUIRED), "other_id": (str, _REQUIRED)}


def model_from_json_obj(obj) -> FramedModel:
    """Strict reader of the wire format: integers that are not bools, real
    bools, string ids, a list of distinct string parents and no unknown
    fields, with InvalidInput naming the field path otherwise.  The retired
    type.epsilon_nonzero is accepted and ignored."""
    top = _fields(obj, "", _MODEL_FIELDS)
    typ = _fields(top["type"], "type", _TYPE_FIELDS, retired=("epsilon_nonzero",))
    subs = []
    for k, raw in enumerate(top["subs"]):
        sub = _fields(raw, f"subs[{k}]", _SUB_FIELDS)
        seen = set()
        for n, parent in enumerate(sub["parents"]):
            if _checked(parent, str, f"subs[{k}].parents[{n}]") in seen:
                raise InvalidInput(f"subs[{k}].parents[{n}]: duplicate parent {parent!r}")
            seen.add(parent)
        sub["parents"] = frozenset(seen)  # checked here, so SubobjectData skips the collection test
        subs.append(SubobjectData(**sub))
    split = None if top["split"] is None else SplitDescriptor(**_fields(top["split"], "split", _SPLIT_FIELDS))
    return FramedModel(CurveContext(top["genus"], top["frame_degree"]), FramedType(**typ), tuple(subs), split)


# ---------------------------------------------------------------------------
# randomized models and the seeded property suite
# ---------------------------------------------------------------------------


def random_rank2_model(rng: random.Random) -> FramedModel:
    """Random rank-2 model over a trivial-degree framing target.

    Kernel subobjects get degrees at least d (the image of the framing has
    nonpositive degree), degrees are distinct within each framing class,
    and occasional containments and split descriptors are thrown in.
    """
    d = rng.randint(-9, -1)
    g = rng.randint(2, 3)
    subs: List[SubobjectData] = []
    used = {True: set(), False: set()}
    split = None

    if rng.random() < 0.15:
        kappa = rng.randint(d, 0)
        subs.append(SubobjectData("K", 1, kappa, fr=False, phi_invariant=rng.random() < 0.5))
        subs.append(SubobjectData("C", 1, d - kappa, fr=True, phi_invariant=rng.random() < 0.5))
        used[False].add(kappa)
        used[True].add(d - kappa)
        split = SplitDescriptor(kmax_id="K", other_id="C")

    for k in range(rng.randint(0, 4)):
        fr = rng.random() < 0.5
        pool = [x for x in (range(d - 2, 3) if fr else range(d, 1)) if x not in used[fr]]
        if not pool:
            continue
        deg = rng.choice(pool)
        used[fr].add(deg)
        subs.append(SubobjectData(f"F{k}", 1, deg, fr=fr, phi_invariant=rng.random() < 0.5))

    # occasional containment between rank-1 subobjects; the lower-degree one
    # nests inside the other, and kernel membership stays monotone
    if len(subs) >= 2 and rng.random() < 0.3:
        a, b = rng.sample(range(len(subs)), 2)
        child, parent = subs[a], subs[b]
        if child.degree > parent.degree:
            child, parent = parent, child
        if not (child.fr and not parent.fr):
            idx = next(i for i, s in enumerate(subs) if s.id == child.id)
            subs[idx] = replace(child, parents=child.parents | {parent.id})

    rng.random()  # the draw of a retired flag, kept so seeded streams stay the same
    typ = FramedType(rank=2, degree=d, framing_nonzero=True, delta_iso=rng.random() < 0.7)
    return FramedModel(ctx=CurveContext(g), typ=typ, subs=tuple(subs), split=split)


def random_chain_model(rng: random.Random) -> FramedModel:
    """Random rank-3 or rank-4 model holding a containment chain, for
    exercising multi-step filtrations."""
    r = rng.choice([3, 4])
    d = rng.randint(-12, -1)
    g = rng.randint(2, 3)
    length = rng.randint(1, r - 1)
    ranks = sorted(rng.sample(range(1, r), length))
    cut = rng.randint(0, length)  # chain members below the cut sit in the kernel
    subs: List[SubobjectData] = []
    prev_deg = None
    for idx, rk in enumerate(ranks):
        fr = idx >= cut
        lo = d - 6 if fr else d  # kernel-side degrees stay at least d
        hi = (prev_deg + 4) if prev_deg is not None else 2
        deg = rng.randint(min(lo, hi), hi) if prev_deg is not None else rng.randint(lo, 2)
        if prev_deg is not None and deg < prev_deg:
            deg = prev_deg  # containment only raises degree along the chain
        sub = SubobjectData(f"C{idx}", rk, deg, fr=fr, phi_invariant=rng.random() < 0.5)
        if subs:
            # the chain is increasing, so the previous member gains a parent
            subs[-1] = replace(subs[-1], parents=subs[-1].parents | {sub.id})
        subs.append(sub)
        prev_deg = deg
    if rng.random() < 0.4:
        fr = rng.random() < 0.5
        deg = rng.randint(d if not fr else d - 4, 2)
        subs.append(SubobjectData("X", rng.randint(1, r - 1), deg, fr=fr, phi_invariant=rng.random() < 0.5))
    typ = FramedType(rank=r, degree=d, framing_nonzero=True)
    return FramedModel(ctx=CurveContext(g), typ=typ, subs=tuple(subs))


def close_constraints(m: FramedModel, sigmas: Iterable[Fraction]) -> FramedModel:
    """Force the constraint-closure axiom: mark every fr = False subobject
    and every maximal destabilizer at the given parameters (plus the
    canonical parameter) as phi-invariant.  A model that already carries
    every such flag is returned as it is."""
    return _closed(m, [_max_destabilizer(m, *_slopes(m, _require_sigma(s))) for s in sigmas])


def _closed(m: FramedModel, found: Iterable[Union[SubobjectData, AmbiguousModel, None]]) -> FramedModel:
    """close_constraints given what _max_destabilizer found at each of its
    parameters; the canonical parameter's search is m._canonical."""
    if m._canonical is not None:
        found = [*found, m._canonical[1]]
    need = {s.id for s in m.subs if not s.fr} | {md.id for md in found if isinstance(md, SubobjectData)}
    if all(m.sub(sid).phi_invariant for sid in need):
        return m
    return replace(m, subs=tuple(replace(s, phi_invariant=True) if s.id in need else s for s in m.subs))


#: Named checks of the stability suite, each with its failure template, whose
#: positional fields _suite_check fills only when the check fails.  "closure
#: after closing" is counted only where it fails: a closed model that meets
#: the precondition is counted once, by "equivalences".
SUITE_INVARIANTS = (
    ("final chamber", "{}: final-chamber verdict disagrees with stability at sigma={}"),
    ("threshold", "{}: threshold formula mismatch for {} at sigma={}"),
    ("strict threshold", "{}: strict threshold formula mismatch for {} at sigma={}"),
    ("stable => semistable", "{}: stable without semistable at sigma={}"),
    ("kernel bound", "{}: semistable at sigma={} above the kernel bound {}"),
    ("rank-2 graded slopes", "{}: graded slopes not strictly decreasing at sigma={}"),
    ("rank-2 first step", "{}: first filtration step differs from the maximal destabilizer at sigma={}"),
    ("destabilizer maximal", "{}: maximal destabilizer not maximal at sigma={}"),
    ("closure after closing", "{}: closure still violated after closing: {}"),
    ("equivalences", "{}: equivalences failed at sigma={}: {}"),
    ("chain graded slopes", "chain[{}]: graded slopes not strictly decreasing at sigma={}"),
    ("chain first step", "chain[{}]: first step is not the maximal destabilizer at sigma={}"),
    ("wall strictly semistable", "wall model d={} fr={}: not strictly semistable at wall {}"),
    ("off-wall", "wall model d={} fr={}: strictly semistable off the wall at {}"),
    ("tie container", "tie containment: container not preferred"),
    ("tie raises", "tie containment: incomparable tie did not raise"),
)
_SUITE_TEMPLATES = dict(SUITE_INVARIANTS)


@dataclass
class SuiteResult:
    """Models run, ties skipped and failure texts, with the checks made and
    failed per name of SUITE_INVARIANTS."""

    models: int = 0
    ambiguous_skips: int = 0
    failures: List[str] = field(default_factory=list)
    check_counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(_SUITE_TEMPLATES, 0))
    failure_counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(_SUITE_TEMPLATES, 0))

    @property
    def checks(self) -> int:
        return sum(self.check_counts.values())

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_check(res: SuiteResult, name: str, cond: bool, *fields) -> None:
    """Count one check of the named invariant; its failure text is formatted
    from fields only when cond fails."""
    res.check_counts[name] += 1
    if not cond:
        res.failure_counts[name] += 1
        res.failures.append(_SUITE_TEMPLATES[name].format(*fields))


def _graded_slopes_decrease(hn: HNFiltration, sigma: Fraction) -> bool:
    """hn's graded slopes at sigma strictly decrease, compared in integers."""
    terms = [_framed_slope_terms(rank, deg, fr, sigma, True) for rank, deg, fr in hn.graded]
    return all(a * d > c * b for (a, b), (c, d) in zip(terms, terms[1:]))


def _suite_passes(m: FramedModel, sigmas: Sequence[Fraction]) -> Tuple[FramedModel, List[tuple]]:
    """The constraint-closed model, then per sigma: sigma, m's one _slopes
    pass, the maximal destabilizer (or the AmbiguousModel) read off it, and
    the closed model's pass.  The closed model shares m's passes and searches
    only when it is m; one whose flags changed takes its own, so each model's
    checks read its own slopes even where a faulty _slopes reads the flags."""
    passes = [_slopes(m, sigma) for sigma in sigmas]
    found = [_max_destabilizer(m, *p) for p in passes]
    closed = _closed(m, found)
    closed_passes = passes if closed is m else [_slopes(closed, sigma) for sigma in sigmas]
    return closed, list(zip(sigmas, passes, found, closed_passes))


def _suite_rank2(res: SuiteResult, m: FramedModel, sigmas: Sequence[Fraction], tag: str) -> None:
    closed, rows = _suite_passes(m, sigmas)
    nz = m.typ.framing_nonzero
    bound = sigma_upper_bound(m) if nz else None
    has_kernel = any(not s.fr for s in m.subs)

    # final-chamber criterion against direct evaluation far beyond every wall
    if nz:
        far = max(
            [m.typ.degree - 2 * s.degree for s in m.subs if not s.fr]
            + [2 * s.degree - m.typ.degree for s in m.subs if s.fr]
            + [0]
        ) + 1
        _suite_check(res, "final chamber", final_chamber_stable(m) == is_fm_stable(m, far), tag, far)

    for sigma, (amb, slopes), found, closed_pass in rows:
        for s, sl in zip(m.subs, slopes):
            _suite_check(res, "threshold", (sl <= amb) == rank2_threshold_holds(s, m.typ, sigma), tag, s.id, sigma)
            _suite_check(res, "strict threshold", (sl < amb) == rank2_threshold_holds(s, m.typ, sigma, strict=True),
                         tag, s.id, sigma)

        ss, stable = _verdicts(m, amb, slopes)[:2]
        _suite_check(res, "stable => semistable", not stable or ss, tag, sigma)
        if ss and nz and has_kernel:
            _suite_check(res, "kernel bound", sigma <= bound, tag, sigma, bound)

        md = None if isinstance(found, AmbiguousModel) else found
        if md is not found:
            res.ambiguous_skips += 1
        try:
            hn = _filtration(m, amb, slopes)
        except AmbiguousModel:
            res.ambiguous_skips += 1
            hn = None
        if hn is not None:
            _suite_check(res, "rank-2 graded slopes", _graded_slopes_decrease(hn, sigma), tag, sigma)
            if not ss:
                _suite_check(res, "rank-2 first step", md is not None and hn.steps and hn.steps[0] == md.id,
                             tag, sigma)

        if md is not None:
            # every c/d <= a/b on the exact slope terms, independent of _slopes
            a, b = _framed_slope_terms(md.rank, md.degree, md.fr, sigma, nz)
            terms = (_framed_slope_terms(s.rank, s.degree, s.fr, sigma, nz) for s in m.subs)
            _suite_check(res, "destabilizer maximal", all(c * b <= a * d for c, d in terms), tag, sigma)

        try:  # a closed model that is m reuses m's search on this pass; a rebuilt one searches its own
            report = _equivalences(closed, sigma, *closed_pass,
                                   found if closed is m else _max_destabilizer(closed, *closed_pass))
        except AmbiguousModel:
            res.ambiguous_skips += 1
            continue
        except AxiomViolated as exc:
            _suite_check(res, "closure after closing", False, tag, exc)
            continue
        _suite_check(res, "equivalences", report.ok, tag, sigma, report.mismatches)


def require_suite_args(seed: int, n_models: int) -> None:
    """InvalidInput naming seed or models unless both are ints and n_models >= 0."""
    _require_int(seed, "seed")
    if _require_int(n_models, "models") < 0:
        raise InvalidInput(f"models: must be nonnegative, got {n_models}")


def run_stability_suite(seed: int, n_models: int = 10000) -> SuiteResult:
    """Seeded randomized property run over n_models rank-2 models and 400
    chain models.

    Covers filtration monotonicity, destabilizer maximality and tie
    containment, the kernel-degree bound, final-chamber stability, the
    per-subobject rank-2 thresholds, strictly-semistable walls, and the
    pair/module equivalences on constraint-closed models.
    """
    require_suite_args(seed, n_models)
    rng = random.Random(seed)
    res = SuiteResult()

    sigma_lists: Dict[int, List[Fraction]] = {}  # walls, then chamber representatives, per degree
    for n in range(n_models):
        m = random_rank2_model(rng)
        d = m.typ.degree
        if d not in sigma_lists:
            bounds = chamber_bounds(d)
            sigma_lists[d] = [Fraction(w) for w in bounds[1:-1]] + _midpoints(bounds)
        _suite_rank2(res, m, sigma_lists[d], tag=f"rank2[{n}] d={d} g={m.ctx.genus}")
        res.models += 1

    for n in range(400):
        m = random_chain_model(rng)
        sigmas = [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(-m.typ.degree) + 2]
        for sigma in sigmas:
            amb, slopes = _slopes(m, sigma)
            try:
                hn = _filtration(m, amb, slopes)
            except AmbiguousModel:
                res.ambiguous_skips += 1
                continue
            _suite_check(res, "chain graded slopes", _graded_slopes_decrease(hn, sigma), n, sigma)
            if not _verdicts(m, amb, slopes)[0]:  # _filtration broke this pass's top tie, so md is no AmbiguousModel
                md = _max_destabilizer(m, amb, slopes)
                _suite_check(res, "chain first step", md is not None and hn.steps[0] == md.id, n, sigma)
        res.models += 1

    # strictly semistable exactly on walls: single-subobject models per wall
    for d in range(-15, -2):
        bounds = chamber_bounds(d)
        for w in bounds[1:-1]:
            for fr in (True, False):
                deg = (w + d) // 2 if fr else (d - w) // 2
                sub = SubobjectData("F", 1, deg, fr=fr)
                m = FramedModel(
                    ctx=CurveContext(2),
                    typ=FramedType(2, d, framing_nonzero=True),
                    subs=(sub,),
                )
                _suite_check(res, "wall strictly semistable",
                             is_fm_semistable(m, Fraction(w)) and not is_fm_stable(m, Fraction(w)), d, fr, w)
                for rep in _midpoints(bounds):
                    _suite_check(res, "off-wall", is_fm_semistable(m, rep) == is_fm_stable(m, rep), d, fr, rep)

    # tie containment: a contained subobject loses to its container
    inner = SubobjectData("inner", 1, -2, fr=False, parents=frozenset({"outer"}))
    outer = SubobjectData("outer", 1, -2, fr=False)
    m = FramedModel(CurveContext(2), FramedType(2, -5, True), (inner, outer))
    _suite_check(res, "tie container", max_destabilizer(m, Fraction(1)).id == "outer")
    loose = FramedModel(
        CurveContext(2),
        FramedType(2, -5, True),
        (replace(inner, parents=frozenset()), outer),
    )
    found = _max_destabilizer(loose, *_slopes(loose, Fraction(1)))
    _suite_check(res, "tie raises", isinstance(found, AmbiguousModel))

    return res
