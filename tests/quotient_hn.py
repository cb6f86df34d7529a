"""The Harder-Narasimhan construction that flipchain.stability used before
it worked on the model's own lattice, kept as the differential oracle for
hn_filtration (see test_hn_oracle.py).  It builds and validates a
FramedModel for every quotient and searches each one for its maximal
destabilizer with its own copy of the tie order, so it shares no step
choice with the code under test; it raises the library's own
AmbiguousModel, so the two can be compared exception for exception."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from flipchain.stability import (AmbiguousModel, FramedModel, FramedType, HNFiltration, SubobjectData, _slopes,
                                 _verdicts)


def quotient_max_destabilizer(m: FramedModel, sigma: Fraction) -> Optional[SubobjectData]:
    """Tie order: slope, then rank, then containment; no positivity check."""
    if not m.subs:
        return None
    amb, slopes = _slopes(m, sigma)
    top = max(slopes)
    if top < amb:
        return None
    cands = [s for s, sl in zip(m.subs, slopes) if sl == top]
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


def quotient_model(m: FramedModel, step: SubobjectData) -> FramedModel:
    """E/step: the strict containers of step of larger rank, each less step,
    with the framing gone once a framed step is taken."""
    t = m.typ
    kept = [g for g in m.subs if m.contains(g.id, step.id) and g.rank > step.rank]
    kept_ids = {g.id for g in kept}
    q_subs = [
        SubobjectData(
            id=g.id,
            rank=g.rank - step.rank,
            degree=g.degree - step.degree,
            fr=False if step.fr else g.fr,
            phi_invariant=g.phi_invariant,
            parents=frozenset(m.ancestors[g.id] & kept_ids),
        )
        for g in kept
    ]
    q_typ = FramedType(
        rank=t.rank - step.rank,
        degree=t.degree - step.degree,
        framing_nonzero=t.framing_nonzero and not step.fr,
        delta_iso=t.delta_iso,
    )
    return FramedModel(ctx=m.ctx, typ=q_typ, subs=tuple(q_subs))


def quotient_hn_filtration(m: FramedModel, sigma: Fraction) -> HNFiltration:
    """Greedy filtration by maximal destabilizers, recursing on quotient models."""
    steps: List[str] = []
    graded: List[Tuple[int, int, bool]] = []
    current = m
    while True:
        if _verdicts(current, *_slopes(current, sigma))[0]:
            t = current.typ
            graded.append((t.rank, t.degree, t.framing_nonzero))
            return HNFiltration(steps=tuple(steps), graded=tuple(graded))
        step = quotient_max_destabilizer(current, sigma)
        assert step is not None  # unstable models always expose one
        steps.append(step.id)
        graded.append((step.rank, step.degree, step.fr))
        current = quotient_model(current, step)
