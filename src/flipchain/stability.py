"""Slope-stability engine for framed modules, Hitchin-type pairs and their
oriented variants, evaluated on finite subobject-lattice models.

Conventions baked into every check (curve with a degree-1 polarization):

* Hilbert polynomials are P(m) = deg + rank*(m + 1 - g), so every reduced
  comparison collapses to the exact rational framed slope
  (deg - delta*sigma)/rank with delta in {0, 1}.
* A subobject with fr = False models one contained in the kernel of the
  framing; consequently fr is monotone under containment (a subobject of
  a kernel subobject is again in the kernel).
* Quotient framing: if the chosen step has fr = True the quotient framing
  vanishes; otherwise each quotient inherits the containing subobject's
  flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .chambers import _REQUIRED, InvalidInput, _checked, _fields, build_chambers


class AmbiguousModel(ValueError):
    """Two incomparable subobjects tie at maximal slope and maximal rank.

    A lattice coming from an actual sheaf cannot do this; the maximal
    destabilizer is unique up to containment.
    """


class AxiomViolated(ValueError):
    """The constraint-closure precondition fails on this model."""


class MissingSplitData(ValueError):
    """Split-case evaluation was requested but the model carries no split."""


@dataclass(frozen=True)
class CurveContext:
    """Genus of the base curve and degree of the framing target bundle."""

    genus: int
    frame_degree: int = 0

    def __post_init__(self):
        if self.genus < 2:
            raise InvalidInput(f"genus must be at least 2, got {self.genus}")


@dataclass(frozen=True)
class FramedType:
    """Global numerical type of the framed object."""

    rank: int
    degree: int
    framing_nonzero: bool
    delta_iso: bool = False

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidInput(f"rank must be positive, got {self.rank}")


@dataclass(frozen=True)
class SubobjectData:
    """Numerical data of one proper nonzero subobject.

    fr is True when the restricted framing is nonzero; phi_invariant marks
    invariance under the endomorphism-valued field of the pair; parents
    holds ids of subobjects strictly containing this one.
    """

    id: str
    rank: int
    degree: int
    fr: bool
    phi_invariant: bool = True
    parents: FrozenSet[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "parents", frozenset(self.parents))


@dataclass(frozen=True)
class SplitDescriptor:
    """Direct-sum decomposition E = K + E' used by the oriented split case.

    kmax_id names the kernel-side summand (fr = False), other_id the
    complementary summand carrying the full framing.
    """

    kmax_id: str
    other_id: str


@dataclass(frozen=True)
class FramedModel:
    ctx: CurveContext
    typ: FramedType
    subs: Tuple[SubobjectData, ...]
    split: Optional[SplitDescriptor] = None

    def __post_init__(self):
        object.__setattr__(self, "subs", tuple(self.subs))
        by_id: Dict[str, SubobjectData] = {}
        for s in self.subs:
            if s.id in by_id:
                raise InvalidInput(f"duplicate subobject id {s.id!r}")
            if not (0 < s.rank < self.typ.rank):
                raise InvalidInput(f"subobject {s.id!r} rank {s.rank} not strictly between 0 and {self.typ.rank}")
            if s.fr and not self.typ.framing_nonzero:
                raise InvalidInput(f"subobject {s.id!r} has fr=True but the ambient framing is zero")
            by_id[s.id] = s
        for s in self.subs:
            for p in s.parents:
                if p not in by_id:
                    raise InvalidInput(f"subobject {s.id!r} names unknown parent {p!r}")
                if p == s.id:
                    raise InvalidInput(f"subobject {s.id!r} contains itself")
                if s.rank > by_id[p].rank:
                    raise InvalidInput(f"containment {s.id!r} < {p!r} inconsistent with ranks")
                if s.fr and not by_id[p].fr:
                    raise InvalidInput(
                        f"subobject {s.id!r} has fr=True inside {p!r} with fr=False; "
                        "kernel membership is monotone under containment"
                    )
        # reject containment cycles
        anc = self._ancestor_map(by_id)
        for sid, ups in anc.items():
            if sid in ups:
                raise InvalidInput(f"containment cycle through {sid!r}")
        if self.split is not None:
            k = by_id.get(self.split.kmax_id)
            o = by_id.get(self.split.other_id)
            if k is None or o is None:
                raise InvalidInput("split descriptor names unknown subobjects")
            if k.fr:
                raise InvalidInput("split kernel summand must have fr=False")
            if o.fr != self.typ.framing_nonzero:
                raise InvalidInput("split complement must carry the full framing flag")
            if k.rank + o.rank != self.typ.rank or k.degree + o.degree != self.typ.degree:
                raise InvalidInput("split summands must add up to the ambient type")

    @staticmethod
    def _ancestor_map(by_id: Dict[str, SubobjectData]) -> Dict[str, FrozenSet[str]]:
        memo: Dict[str, FrozenSet[str]] = {}

        def visit(sid: str, stack: tuple) -> FrozenSet[str]:
            if sid in memo:
                return memo[sid]
            if sid in stack:
                return frozenset(stack[stack.index(sid):])  # cycle; caught by caller
            ups = set()
            for p in by_id[sid].parents:
                ups.add(p)
                ups |= visit(p, stack + (sid,))
            memo[sid] = frozenset(ups)
            return memo[sid]

        return {sid: visit(sid, ()) for sid in by_id}

    @cached_property
    def _by_id(self) -> Dict[str, SubobjectData]:
        return {s.id: s for s in self.subs}

    @cached_property
    def ancestors(self) -> Dict[str, FrozenSet[str]]:
        """Transitive closure of the containment order (strict containers)."""
        return self._ancestor_map(self._by_id)

    def sub(self, sid: str) -> SubobjectData:
        return self._by_id[sid]

    def contains(self, outer_id: str, inner_id: str) -> bool:
        """True when the subobject outer strictly contains inner."""
        return outer_id in self.ancestors[inner_id]


@dataclass(frozen=True)
class HNFiltration:
    """Steps (ids of the original model, innermost first) and the graded
    pieces (rank, degree, framing flag) of the successive quotients."""

    steps: Tuple[str, ...]
    graded: Tuple[Tuple[int, int, bool], ...]

    def graded_slopes(self, sigma: Fraction) -> Tuple[Fraction, ...]:
        return tuple(
            (Fraction(deg) - (sigma if fr else 0)) / rank for rank, deg, fr in self.graded
        )


# ---------------------------------------------------------------------------
# slopes and the basic (semi)stability checks
# ---------------------------------------------------------------------------


def reduced_framed_slope(
    rank: int,
    degree: int,
    fr: bool,
    sigma: Fraction,
    framing_ambient_nonzero: bool,
) -> Fraction:
    """(degree - delta*sigma)/rank with delta = 1 iff the framing is nonzero.

    On a curve the rank-normalized Hilbert polynomials all share the
    m-coefficient 1, so this constant term carries the whole comparison.
    """
    if fr and framing_ambient_nonzero:
        return Fraction(degree - Fraction(sigma), rank)
    return Fraction(degree, rank)


def _require_positive(sigma: Fraction) -> Fraction:
    sigma = Fraction(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma


def _sub_slope(sub: SubobjectData, sigma: Fraction, ambient_nonzero: bool) -> Fraction:
    return reduced_framed_slope(sub.rank, sub.degree, sub.fr, sigma, ambient_nonzero)


def _ambient_slope(m: FramedModel, sigma: Fraction) -> Fraction:
    t = m.typ
    return reduced_framed_slope(t.rank, t.degree, t.framing_nonzero, sigma, t.framing_nonzero)


def _fm_ok(m: FramedModel, sigma: Fraction, strict: bool, phi_only: bool) -> bool:
    amb = _ambient_slope(m, sigma)
    nz = m.typ.framing_nonzero
    for s in m.subs:
        if phi_only and not s.phi_invariant:
            continue
        sl = _sub_slope(s, sigma, nz)
        if sl > amb or (strict and sl == amb):
            return False
    return True


def is_fm_semistable(m: FramedModel, sigma: Fraction) -> bool:
    """Every subobject's framed slope is at most the ambient framed slope."""
    return _fm_ok(m, _require_positive(sigma), strict=False, phi_only=False)


def is_fm_stable(m: FramedModel, sigma: Fraction) -> bool:
    return _fm_ok(m, _require_positive(sigma), strict=True, phi_only=False)


def is_pair_semistable(m: FramedModel, sigma: Fraction) -> bool:
    """Same inequality quantified only over phi-invariant subobjects."""
    return _fm_ok(m, _require_positive(sigma), strict=False, phi_only=True)


def is_pair_stable(m: FramedModel, sigma: Fraction) -> bool:
    return _fm_ok(m, _require_positive(sigma), strict=True, phi_only=True)


# ---------------------------------------------------------------------------
# maximal destabilizer and the Harder-Narasimhan greedy construction
# ---------------------------------------------------------------------------


def _max_destabilizer(m: FramedModel, sigma: Fraction) -> Optional[SubobjectData]:
    """Tie order: slope, then rank, then containment; no positivity check."""
    if not m.subs:
        return None
    nz = m.typ.framing_nonzero
    slopes = {s.id: _sub_slope(s, sigma, nz) for s in m.subs}
    top = max(slopes.values())
    if top < _ambient_slope(m, sigma):
        return None
    cands = [s for s in m.subs if slopes[s.id] == top]
    max_rank = max(s.rank for s in cands)
    cands = [s for s in cands if s.rank == max_rank]
    if len(cands) == 1:
        return cands[0]
    for c in cands:
        if all(o.id == c.id or m.contains(c.id, o.id) for o in cands):
            return c
    raise AmbiguousModel(
        "incomparable subobjects tie at maximal slope and rank: "
        + ", ".join(sorted(s.id for s in cands))
    )


def max_destabilizer(m: FramedModel, sigma: Fraction) -> Optional[SubobjectData]:
    """The subobject of maximal framed slope, or None when the ambient object
    strictly dominates every subobject.

    At a strict tie with the ambient slope the subobject is still returned:
    it is the maximal destabilizing subobject of a strictly semistable
    model.  Ties between incomparable subobjects raise AmbiguousModel.
    """
    return _max_destabilizer(m, _require_positive(sigma))


def _quotient_model(m: FramedModel, step: SubobjectData) -> FramedModel:
    t = m.typ
    q_framing = t.framing_nonzero and not step.fr
    kept = [
        g
        for g in m.subs
        if m.contains(g.id, step.id) and g.rank > step.rank
    ]
    kept_ids = {g.id for g in kept}
    q_subs = []
    for g in kept:
        q_subs.append(
            SubobjectData(
                id=g.id,
                rank=g.rank - step.rank,
                degree=g.degree - step.degree,
                fr=False if step.fr else g.fr,
                phi_invariant=g.phi_invariant,
                parents=frozenset(m.ancestors[g.id] & kept_ids),
            )
        )
    q_typ = FramedType(
        rank=t.rank - step.rank,
        degree=t.degree - step.degree,
        framing_nonzero=q_framing,
        delta_iso=t.delta_iso,
    )
    return FramedModel(ctx=m.ctx, typ=q_typ, subs=tuple(q_subs))


def hn_filtration(m: FramedModel, sigma: Fraction) -> HNFiltration:
    """Greedy filtration by maximal destabilizers.

    A semistable model yields the one-step filtration whose single graded
    piece is the ambient object; otherwise the first step is the maximal
    destabilizer and the construction recurses on the quotient model.
    """
    sigma = _require_positive(sigma)
    steps: List[str] = []
    graded: List[Tuple[int, int, bool]] = []
    current = m
    while True:
        if _fm_ok(current, sigma, strict=False, phi_only=False):
            t = current.typ
            graded.append((t.rank, t.degree, t.framing_nonzero))
            return HNFiltration(steps=tuple(steps), graded=tuple(graded))
        step = _max_destabilizer(current, sigma)
        assert step is not None  # unstable models always expose one
        steps.append(step.id)
        graded.append((step.rank, step.degree, step.fr))
        current = _quotient_model(current, step)


# ---------------------------------------------------------------------------
# kernel-side bounds and the final chamber
# ---------------------------------------------------------------------------


def sigma_upper_bound(m: FramedModel) -> Optional[Fraction]:
    """Upper bound deg E - (rank E / rank ker)(deg E - deg H) on parameters
    where the model can still be semistable; None without a kernel subobject.

    The kernel is modelled by the fr = False subobject of maximal rank.
    """
    if not m.typ.framing_nonzero:
        raise ValueError("the bound applies only to models with nonzero framing")
    kers = [s for s in m.subs if not s.fr]
    if not kers:
        return None
    k = max(s.rank for s in kers)
    d = m.typ.degree
    h = m.ctx.frame_degree
    return Fraction(d) - Fraction(m.typ.rank, k) * (d - h)


def final_chamber_stable(m: FramedModel) -> bool:
    """Stable for every sufficiently large sigma iff the framing is injective,
    i.e. no subobject sits inside its kernel."""
    if not m.typ.framing_nonzero:
        raise ValueError("final-chamber stability applies only to nonzero framings")
    return all(s.fr for s in m.subs)


def _kmax(m: FramedModel, use_phi: bool) -> Optional[SubobjectData]:
    elig = [s for s in m.subs if not s.fr and (s.phi_invariant or not use_phi)]
    if not elig:
        return None
    best = max(elig, key=lambda s: (Fraction(s.degree, s.rank), s.rank))
    top = (Fraction(best.degree, best.rank), best.rank)
    tied = [s for s in elig if (Fraction(s.degree, s.rank), s.rank) == top]
    for c in tied:
        if all(o.id == c.id or m.contains(c.id, o.id) for o in tied):
            return c
    return min(tied, key=lambda s: s.id)  # same slope and rank, value unaffected


def sigma_max(m: FramedModel, use_phi: bool = False) -> Optional[Fraction]:
    """Canonical parameter deg E - (rank E / rank K) deg K built from the
    maximal destabilizing kernel subobject K; None when no fr = False
    (and phi-invariant, when requested) subobject exists.

    The m-coefficients of the two Hilbert polynomials cancel on a curve,
    so the parameter is a single exact rational.
    """
    k = _kmax(m, use_phi)
    if k is None:
        return None
    return Fraction(m.typ.degree) - Fraction(m.typ.rank, k.rank) * k.degree


# ---------------------------------------------------------------------------
# oriented objects: stability at the canonical parameter
# ---------------------------------------------------------------------------


def _charged_slope(rank: int, degree: int, s: Fraction) -> Fraction:
    # Both sides of the oriented inequality subtract s/rank regardless of
    # framing flags.
    return (Fraction(degree) - s) / rank


def _oriented_split_holds(m: FramedModel, s: Fraction) -> bool:
    if m.split is None:
        raise MissingSplitData("split-case evaluation needs a split descriptor on the model")
    if not m.typ.framing_nonzero:
        return False
    k = m.sub(m.split.kmax_id)
    o = m.sub(m.split.other_id)
    return Fraction(k.degree, k.rank) == Fraction(o.degree - s, o.rank)


def oriented_split_case(m: FramedModel, pair: bool = False) -> bool:
    """Split alternative of oriented stability, checked through the declared
    direct-sum descriptor; MissingSplitData when the model has none."""
    s = sigma_max(m, use_phi=pair)
    if s is None:
        return False
    return _oriented_split_holds(m, s)


def _oriented_ok(m: FramedModel, pair: bool, strict: bool) -> bool:
    kernel_subs = [s for s in m.subs if not s.fr and (s.phi_invariant or not pair)]
    if not kernel_subs:
        return True  # injective framing (no phi-invariant kernel subobject, for pairs)
    if not m.typ.delta_iso:
        return False
    s = sigma_max(m, use_phi=pair)
    assert s is not None
    if strict:
        if s <= 0:
            return False
    elif s < 0:
        return False
    amb = _charged_slope(m.typ.rank, m.typ.degree, s)
    pointwise = True
    for sub in m.subs:
        if pair and not sub.phi_invariant:
            continue
        sl = _charged_slope(sub.rank, sub.degree, s)
        if sl > amb or (strict and sl == amb):
            pointwise = False
            break
    if pointwise:
        return True
    if strict and m.split is not None:
        return _oriented_split_holds(m, s)
    return False


def is_oriented_semistable(m: FramedModel, pair: bool = False) -> bool:
    """Oriented semistability at the canonical parameter.

    Either the framing is injective (for pairs: no phi-invariant subobject in
    the kernel), or the orientation is an isomorphism, the canonical
    parameter is nonnegative and the shifted slope inequality holds for all
    (phi-invariant, for pairs) subobjects.
    """
    return _oriented_ok(m, pair, strict=False)


def is_oriented_stable(m: FramedModel, pair: bool = False) -> bool:
    """Strict variant; a declared direct-sum splitting can rescue stability
    when some subobject sits exactly on the shifted slope equality."""
    return _oriented_ok(m, pair, strict=True)


# ---------------------------------------------------------------------------
# rank-2 equivalences between pair and plain framed stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    sigma: Fraction
    fm_semistable: bool
    pair_semistable: bool
    fm_stable: bool
    pair_stable: bool
    oriented_module_semistable: bool
    oriented_pair_semistable: bool
    oriented_module_stable: bool
    oriented_pair_stable: bool
    mismatches: Tuple[Tuple[str, Optional[str]], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _closure_witness(m: FramedModel, sigma: Fraction) -> Optional[str]:
    for s in m.subs:
        if not s.fr and not s.phi_invariant:
            return s.id
    md = _max_destabilizer(m, sigma)
    if md is not None and not md.phi_invariant:
        return md.id
    return None


def verify_rank2_equivalences(m: FramedModel, sigma: Fraction) -> EquivalenceReport:
    """Check that pair and framed-module verdicts agree on a rank-2 model.

    Precondition (constraint closure): every fr = False subobject is
    phi-invariant, and the maximal destabilizer is phi-invariant both at the
    given sigma and at the canonical parameter used by the oriented checks.
    AxiomViolated reports the witnessing subobject when the closure fails.
    """
    if m.typ.rank != 2:
        raise ValueError("equivalence verification is specific to rank 2")
    sigma = _require_positive(sigma)
    w = _closure_witness(m, sigma)
    if w is not None:
        raise AxiomViolated(f"subobject {w!r} breaks constraint closure at sigma={sigma}")
    s_star = sigma_max(m, use_phi=False)
    if s_star is not None and s_star >= 0:
        w = _closure_witness(m, s_star)
        if w is not None:
            raise AxiomViolated(
                f"subobject {w!r} breaks constraint closure at the canonical parameter {s_star}"
            )

    fm_ss = is_fm_semistable(m, sigma)
    pair_ss = is_pair_semistable(m, sigma)
    fm_st = is_fm_stable(m, sigma)
    pair_st = is_pair_stable(m, sigma)
    om_ss = is_oriented_semistable(m, pair=False)
    op_ss = is_oriented_semistable(m, pair=True)
    om_st = is_oriented_stable(m, pair=False)
    op_st = is_oriented_stable(m, pair=True)

    mismatches: List[Tuple[str, Optional[str]]] = []
    nz = m.typ.framing_nonzero
    if fm_ss != pair_ss:
        amb = _ambient_slope(m, sigma)
        witness = next(
            (s.id for s in m.subs if not s.phi_invariant and _sub_slope(s, sigma, nz) > amb),
            None,
        )
        mismatches.append(("semistable", witness))
    if fm_st != pair_st:
        amb = _ambient_slope(m, sigma)
        witness = next(
            (s.id for s in m.subs if not s.phi_invariant and _sub_slope(s, sigma, nz) >= amb),
            None,
        )
        mismatches.append(("stable", witness))
    if om_ss != op_ss:
        mismatches.append(("oriented_semistable", None))
    if om_st != op_st:
        mismatches.append(("oriented_stable", None))

    return EquivalenceReport(
        sigma=sigma,
        fm_semistable=fm_ss,
        pair_semistable=pair_ss,
        fm_stable=fm_st,
        pair_stable=pair_st,
        oriented_module_semistable=om_ss,
        oriented_pair_semistable=op_ss,
        oriented_module_stable=om_st,
        oriented_pair_stable=op_st,
        mismatches=tuple(mismatches),
    )


def rank2_threshold_holds(sub: SubobjectData, typ: FramedType, sigma: Fraction, strict: bool = False) -> bool:
    """Closed-form half-line on which a rank-2 subobject satisfies its
    inequality: sigma >= 2 deg F - d when fr, sigma <= d - 2 deg F when not."""
    d = typ.degree
    s = Fraction(sigma)
    if sub.fr and typ.framing_nonzero:
        bound = 2 * sub.degree - d
        return s > bound if strict else s >= bound
    bound = d - 2 * sub.degree
    return s < bound if strict else s <= bound


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def model_to_json_obj(m: FramedModel) -> dict:
    obj = {
        "genus": m.ctx.genus,
        "frame_degree": m.ctx.frame_degree,
        "type": {
            "rank": m.typ.rank,
            "degree": m.typ.degree,
            "framing_nonzero": m.typ.framing_nonzero,
            "delta_iso": m.typ.delta_iso,
        },
        "subs": [
            {
                "id": s.id,
                "rank": s.rank,
                "degree": s.degree,
                "fr": s.fr,
                "phi_invariant": s.phi_invariant,
                "parents": sorted(s.parents),
            }
            for s in m.subs
        ],
    }
    if m.split is not None:
        obj["split"] = {"kmax_id": m.split.kmax_id, "other_id": m.split.other_id}
    return obj


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
    bools, string ids, a list of string parents and no unknown fields, with
    InvalidInput naming the field path otherwise.  The retired
    type.epsilon_nonzero is accepted and ignored."""
    top = _fields(obj, "", _MODEL_FIELDS)
    typ = _fields(top["type"], "type", _TYPE_FIELDS, retired=("epsilon_nonzero",))
    subs = []
    for k, raw in enumerate(top["subs"]):
        sub = _fields(raw, f"subs[{k}]", _SUB_FIELDS)
        for n, parent in enumerate(sub["parents"]):
            _checked(parent, str, f"subs[{k}].parents[{n}]")
        subs.append(SubobjectData(**sub))
    split = None if top["split"] is None else SplitDescriptor(**_fields(top["split"], "split", _SPLIT_FIELDS))
    return FramedModel(CurveContext(top["genus"], top["frame_degree"]), FramedType(**typ), tuple(subs), split)


# ---------------------------------------------------------------------------
# randomized models and the seeded property suite
# ---------------------------------------------------------------------------


def random_rank2_model(
    rng: random.Random,
    d_min: int = -9,
    d_max: int = -1,
    g_min: int = 2,
    g_max: int = 3,
) -> FramedModel:
    """Random rank-2 model over a trivial-degree framing target.

    Kernel subobjects get degrees at least d (the image of the framing has
    nonpositive degree), degrees are distinct within each framing class,
    and occasional containments and split descriptors are thrown in.
    """
    d = rng.randint(d_min, d_max)
    g = rng.randint(g_min, g_max)
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


def random_chain_model(
    rng: random.Random,
    d_min: int = -12,
    d_max: int = -1,
    g_min: int = 2,
    g_max: int = 3,
) -> FramedModel:
    """Random rank-3 or rank-4 model holding a containment chain, for
    exercising multi-step filtrations."""
    r = rng.choice([3, 4])
    d = rng.randint(d_min, d_max)
    g = rng.randint(g_min, g_max)
    length = rng.randint(1, r - 1)
    ranks = sorted(rng.sample(range(1, r), length))
    cut = rng.randint(0, length)  # chain members below the cut sit in the kernel
    subs: List[SubobjectData] = []
    prev_deg = None
    prev_id = None
    for idx, rk in enumerate(ranks):
        fr = idx >= cut
        lo = d - 6 if fr else d  # kernel-side degrees stay at least d
        hi = (prev_deg + 4) if prev_deg is not None else 2
        deg = rng.randint(min(lo, hi), hi) if prev_deg is not None else rng.randint(lo, 2)
        if prev_deg is not None and deg < prev_deg:
            deg = prev_deg  # containment only raises degree along the chain
        parents = frozenset()
        sub = SubobjectData(f"C{idx}", rk, deg, fr=fr, phi_invariant=rng.random() < 0.5, parents=parents)
        if prev_id is not None:
            # the chain is increasing, so the previous member gains a parent
            subs[-1] = replace(subs[-1], parents=subs[-1].parents | {sub.id})
        subs.append(sub)
        prev_deg = deg
        prev_id = sub.id
    if rng.random() < 0.4:
        fr = rng.random() < 0.5
        deg = rng.randint(d if not fr else d - 4, 2)
        subs.append(SubobjectData("X", rng.randint(1, r - 1), deg, fr=fr, phi_invariant=rng.random() < 0.5))
    typ = FramedType(rank=r, degree=d, framing_nonzero=True)
    try:
        return FramedModel(ctx=CurveContext(g), typ=typ, subs=tuple(subs))
    except InvalidInput:
        # rare degenerate draw (kernel flag above a framed chain member); retry
        return random_chain_model(rng, d_min, d_max, g_min, g_max)


def close_constraints(m: FramedModel, sigmas: Iterable[Fraction]) -> FramedModel:
    """Force the constraint-closure axiom: mark every fr = False subobject
    and every maximal destabilizer at the given parameters (plus the
    canonical parameter) as phi-invariant."""
    need = {s.id for s in m.subs if not s.fr}
    targets = [Fraction(s) for s in sigmas]
    s_star = sigma_max(m, use_phi=False)
    if s_star is not None and s_star >= 0:
        targets.append(s_star)
    for sigma in targets:
        try:
            md = _max_destabilizer(m, sigma)
        except AmbiguousModel:
            continue
        if md is not None:
            need.add(md.id)
    subs = tuple(replace(s, phi_invariant=True) if s.id in need else s for s in m.subs)
    return replace(m, subs=subs)


@dataclass
class SuiteResult:
    models: int = 0
    checks: int = 0
    ambiguous_skips: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_check(res: SuiteResult, cond: bool, message: str) -> None:
    res.checks += 1
    if not cond:
        res.failures.append(message)


def _suite_rank2(res: SuiteResult, m: FramedModel, sigmas: Sequence[Fraction], tag: str) -> None:
    closed = close_constraints(m, sigmas)
    nz = m.typ.framing_nonzero
    bound = sigma_upper_bound(m) if nz else None
    has_kernel = any(not s.fr for s in m.subs)

    # final-chamber criterion against direct evaluation far beyond every wall
    if nz:
        far = max(
            [Fraction(m.typ.degree - 2 * s.degree) for s in m.subs if not s.fr]
            + [Fraction(2 * s.degree - m.typ.degree) for s in m.subs if s.fr]
            + [Fraction(0)]
        ) + 1
        _suite_check(
            res,
            final_chamber_stable(m) == is_fm_stable(m, far),
            f"{tag}: final-chamber verdict disagrees with stability at sigma={far}",
        )

    for sigma in sigmas:
        amb = _ambient_slope(m, sigma)
        for s in m.subs:
            holds = _sub_slope(s, sigma, nz) <= amb
            _suite_check(
                res,
                holds == rank2_threshold_holds(s, m.typ, sigma),
                f"{tag}: threshold formula mismatch for {s.id} at sigma={sigma}",
            )
            holds_strict = _sub_slope(s, sigma, nz) < amb
            _suite_check(
                res,
                holds_strict == rank2_threshold_holds(s, m.typ, sigma, strict=True),
                f"{tag}: strict threshold formula mismatch for {s.id} at sigma={sigma}",
            )

        ss = is_fm_semistable(m, sigma)
        _suite_check(
            res,
            not is_fm_stable(m, sigma) or ss,
            f"{tag}: stable without semistable at sigma={sigma}",
        )
        if ss and nz and has_kernel:
            _suite_check(
                res,
                sigma <= bound,
                f"{tag}: semistable at sigma={sigma} above the kernel bound {bound}",
            )

        try:
            hn = hn_filtration(m, sigma)
        except AmbiguousModel:
            res.ambiguous_skips += 1
            hn = None
        if hn is not None:
            slopes = hn.graded_slopes(sigma)
            _suite_check(
                res,
                all(a > b for a, b in zip(slopes, slopes[1:])),
                f"{tag}: graded slopes not strictly decreasing at sigma={sigma}",
            )
            if not ss:
                md = _max_destabilizer(m, sigma)
                _suite_check(
                    res,
                    md is not None and hn.steps and hn.steps[0] == md.id,
                    f"{tag}: first filtration step differs from the maximal destabilizer at sigma={sigma}",
                )

        try:
            md = _max_destabilizer(m, sigma)
        except AmbiguousModel:
            res.ambiguous_skips += 1
            md = None
        if md is not None:
            top = _sub_slope(md, sigma, nz)
            _suite_check(
                res,
                all(_sub_slope(s, sigma, nz) <= top for s in m.subs),
                f"{tag}: maximal destabilizer not maximal at sigma={sigma}",
            )

        try:
            report = verify_rank2_equivalences(closed, sigma)
        except AmbiguousModel:
            res.ambiguous_skips += 1
            continue
        except AxiomViolated as exc:
            res.failures.append(f"{tag}: closure still violated after closing: {exc}")
            continue
        _suite_check(
            res,
            report.ok,
            f"{tag}: equivalences failed at sigma={sigma}: {report.mismatches}",
        )


def run_stability_suite(
    seed: int,
    n_models: int = 10000,
    d_min: int = -9,
    chain_models: int = 400,
) -> SuiteResult:
    """Seeded randomized property run over rank-2 and chain models.

    Covers filtration monotonicity, destabilizer maximality and tie
    containment, the kernel-degree bound, final-chamber stability, the
    per-subobject rank-2 thresholds, strictly-semistable walls, and the
    pair/module equivalences on constraint-closed models.
    """
    rng = random.Random(seed)
    res = SuiteResult()

    for n in range(n_models):
        m = random_rank2_model(rng, d_min=d_min)
        cd = build_chambers(m.typ.degree, m.ctx.genus)
        sigmas = [Fraction(w) for w in cd.walls] + list(cd.representatives)
        _suite_rank2(res, m, sigmas, tag=f"rank2[{n}] d={m.typ.degree} g={m.ctx.genus}")
        res.models += 1

    for n in range(chain_models):
        m = random_chain_model(rng)
        sigmas = [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(-m.typ.degree) + 2]
        for sigma in sigmas:
            try:
                hn = hn_filtration(m, sigma)
            except AmbiguousModel:
                res.ambiguous_skips += 1
                continue
            slopes = hn.graded_slopes(sigma)
            _suite_check(
                res,
                all(a > b for a, b in zip(slopes, slopes[1:])),
                f"chain[{n}]: graded slopes not strictly decreasing at sigma={sigma}",
            )
            if not is_fm_semistable(m, sigma):
                md = _max_destabilizer(m, sigma)
                _suite_check(
                    res,
                    md is not None and hn.steps[0] == md.id,
                    f"chain[{n}]: first step is not the maximal destabilizer at sigma={sigma}",
                )
        res.models += 1

    # strictly semistable exactly on walls: single-subobject models per wall
    for d in range(-15, -2):
        cd = build_chambers(d, 2)
        for w in cd.walls:
            for fr in (True, False):
                deg = (w + d) // 2 if fr else (d - w) // 2
                sub = SubobjectData("F", 1, deg, fr=fr)
                m = FramedModel(
                    ctx=CurveContext(2),
                    typ=FramedType(2, d, framing_nonzero=True),
                    subs=(sub,),
                )
                _suite_check(
                    res,
                    is_fm_semistable(m, Fraction(w)) and not is_fm_stable(m, Fraction(w)),
                    f"wall model d={d} fr={fr}: not strictly semistable at wall {w}",
                )
                for rep in cd.representatives:
                    _suite_check(
                        res,
                        is_fm_semistable(m, rep) == is_fm_stable(m, rep),
                        f"wall model d={d} fr={fr}: strictly semistable off the wall at {rep}",
                    )

    # tie containment: a contained subobject loses to its container
    inner = SubobjectData("inner", 1, -2, fr=False, parents=frozenset({"outer"}))
    outer = SubobjectData("outer", 1, -2, fr=False)
    m = FramedModel(CurveContext(2), FramedType(2, -5, True), (inner, outer))
    _suite_check(
        res,
        max_destabilizer(m, Fraction(1)).id == "outer",
        "tie containment: container not preferred",
    )
    loose = FramedModel(
        CurveContext(2),
        FramedType(2, -5, True),
        (replace(inner, parents=frozenset()), outer),
    )
    try:
        max_destabilizer(loose, Fraction(1))
        res.failures.append("tie containment: incomparable tie did not raise")
    except AmbiguousModel:
        res.checks += 1

    return res
