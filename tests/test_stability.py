"""Framed slope checks, filtrations, bounds, oriented verdicts and the
pair/module equivalences, on hand-built and randomized lattice models."""

import copy
import inspect
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from flipchain import betti, stability
from flipchain.chambers import InvalidInput, _json_text, build_chambers, chamber_of
from flipchain.stability import (
    AmbiguousModel,
    AxiomViolated,
    CurveContext,
    FramedModel,
    FramedType,
    SplitDescriptor,
    SubobjectData,
    close_constraints,
    final_chamber_stable,
    hn_filtration,
    is_fm_semistable,
    is_fm_stable,
    is_oriented_semistable,
    is_oriented_stable,
    is_pair_semistable,
    is_pair_stable,
    max_destabilizer,
    model_from_json_obj,
    model_to_json_obj,
    oriented_split_case,
    random_rank2_model,
    rank2_threshold_holds,
    reduced_framed_slope,
    run_stability_suite,
    sigma_max,
    sigma_upper_bound,
    verify_rank2_equivalences,
)

CTX = CurveContext(2)


def rank2(d, subs, framing=True, delta_iso=False, split=None):
    return FramedModel(CTX, FramedType(2, d, framing, delta_iso=delta_iso), tuple(subs), split)


def sub(sid, rank, deg, fr, phi=True, parents=()):
    return SubobjectData(sid, rank, deg, fr, phi_invariant=phi, parents=frozenset(parents))


# -- slopes -------------------------------------------------------------------


def test_reduced_framed_slope():
    assert reduced_framed_slope(1, -3, False, F(1), True) == -3
    assert reduced_framed_slope(2, -5, True, F(1), True) == -3
    assert reduced_framed_slope(1, -1, True, F(3), True) == -4
    # the ambient framing gates the charge
    assert reduced_framed_slope(1, -1, True, F(3), False) == -1


def test_reduced_framed_slope_is_the_fraction_formula():
    """The two-int construction equals (degree - sigma)/rank for a charged
    object and degree/rank otherwise, for int and non-integral sigma."""
    rng = random.Random(16)
    for _ in range(500):
        rank, degree = rng.randint(1, 4), rng.randint(-20, 5)
        fr, amb = rng.random() < 0.5, rng.random() < 0.5
        for sigma in (rng.randint(1, 30), F(rng.randint(1, 60), rng.randint(2, 7))):
            want = F(degree - sigma, rank) if fr and amb else F(degree, rank)
            got = reduced_framed_slope(rank, degree, fr, sigma, amb)
            assert type(got) is F and got == want


def test_slope_terms_order_as_the_fraction_oracle():
    """Cross-multiplied terms, as the suite compares them, give the order of the
    reduced_framed_slope Fractions, and each pair of terms is that Fraction."""
    rng = random.Random(24)

    def draw():
        sigma = F(rng.randint(-30, 60), rng.randint(1, 7))
        return rng.randint(1, 4), rng.randint(-20, 5), rng.random() < 0.5, sigma, rng.random() < 0.5

    seen = set()
    for _ in range(10000):
        x, y = draw(), draw()
        (a, b), (c, d) = stability._framed_slope_terms(*x), stability._framed_slope_terms(*y)
        assert b > 0 and d > 0
        fx, fy = reduced_framed_slope(*x), reduced_framed_slope(*y)
        assert F(a, b) == fx and F(c, d) == fy
        order = (a * d > c * b) - (a * d < c * b)
        assert order == (fx > fy) - (fx < fy)
        seen.add(order)
    assert seen == {-1, 0, 1}


def test_ratio_text_is_the_printed_fraction():
    # the hn slopes and sigma values of stability-check, printed with one gcd and no Fraction
    for p in range(-60, 61):
        for q in range(1, 25):
            assert stability._ratio_text(p, q) == str(F(p, q)), (p, q)
    assert stability._ratio_text(-(10 ** 40) * 6, 4) == str(F(-(10 ** 40) * 6, 4))


# -- framed module (semi)stability ---------------------------------------------


def test_fm_semistable_at_wall():
    m = rank2(-5, [sub("L", 1, -3, fr=False)])
    assert is_fm_semistable(m, F(1)) and not is_fm_stable(m, F(1))
    assert not is_fm_semistable(m, F(2))


def test_empty_model_is_stable_everywhere():
    m = rank2(-5, [])
    for s in (F(1, 2), F(1), F(7)):
        assert is_fm_stable(m, s)


def test_sigma_must_be_positive():
    m = rank2(-5, [])
    with pytest.raises(InvalidInput, match="^sigma: "):
        is_fm_semistable(m, F(0))


def test_sigma_is_an_int_or_a_fraction_and_is_never_converted():
    m = rank2(-5, [sub("L", 1, -3, fr=False)])  # a wall at sigma = 1
    assert is_fm_semistable(m, 1) and is_fm_semistable(m, F(1))
    for bad in (1.0000000000000002, 1.0, 0.5, "1", True, None):
        for check in (
            lambda s: is_fm_semistable(m, s),
            lambda s: hn_filtration(m, s),
            lambda s: hn_filtration(m, F(1)).graded_slopes(s),
            lambda s: close_constraints(m, [s]),
            lambda s: rank2_threshold_holds(m.subs[0], m.typ, s),
            lambda s: chamber_of(s, build_chambers(-5, 2)),
        ):
            with pytest.raises(InvalidInput, match="^sigma: expected an int or a Fraction"):
                check(bad)
    with pytest.raises(InvalidInput, match="^sigma: must be positive, got -1$"):
        hn_filtration(m, F(1)).graded_slopes(F(-1))


def test_pair_quantifier_restriction():
    m = rank2(-5, [sub("L", 1, -3, fr=False, phi=False)])
    assert is_pair_semistable(m, F(2)) and not is_fm_semistable(m, F(2))
    m2 = rank2(-5, [sub("L", 1, -3, fr=False, phi=True)])
    assert not is_pair_semistable(m2, F(2))


def test_pair_equals_fm_when_everything_invariant():
    rng = random.Random(3)
    for _ in range(50):
        m = random_rank2_model(rng)
        m = FramedModel(
            m.ctx,
            m.typ,
            tuple(SubobjectData(s.id, s.rank, s.degree, s.fr, True, s.parents) for s in m.subs),
            m.split,
        )
        for s in (F(1, 2), F(1), F(3)):
            assert is_pair_semistable(m, s) == is_fm_semistable(m, s)
            assert is_pair_stable(m, s) == is_fm_stable(m, s)


# -- maximal destabilizer -------------------------------------------------------


def test_max_destabilizer_basic():
    m = rank2(-5, [sub("L", 1, -1, fr=True)])
    assert max_destabilizer(m, F(2)).id == "L"


def test_max_destabilizer_returns_sub_at_strict_equality():
    m = rank2(-5, [sub("L", 1, -3, fr=False)])
    assert max_destabilizer(m, F(1)).id == "L"


def test_max_destabilizer_none_cases():
    assert max_destabilizer(rank2(-5, []), F(1)) is None
    m = rank2(-5, [sub("L", 1, -4, fr=False)])  # slope -4 < -11/4
    assert max_destabilizer(m, F(1, 2)) is None


def test_max_destabilizer_rank_then_containment():
    ctx = CurveContext(2)
    inner = sub("inner", 1, -2, fr=False, parents={"outer"})
    outer = sub("outer", 2, -4, fr=False)  # same slope, larger rank
    m = FramedModel(ctx, FramedType(3, -9, True), (inner, outer))
    assert max_destabilizer(m, F(1)).id == "outer"


def test_max_destabilizer_containment_tie():
    inner = sub("inner", 1, -2, fr=False, parents={"outer"})
    outer = sub("outer", 1, -2, fr=False)
    m = rank2(-5, [inner, outer])
    assert max_destabilizer(m, F(1)).id == "outer"


def test_max_destabilizer_ambiguous():
    m = rank2(-5, [sub("a", 1, -2, fr=False), sub("b", 1, -2, fr=False)])
    with pytest.raises(AmbiguousModel):
        max_destabilizer(m, F(1))


def test_the_one_pass_search_returns_the_tie_that_the_public_search_raises():
    # the suite's "tie raises" model: two incomparable kernel lines of one slope and rank
    loose = rank2(-5, [sub("inner", 1, -2, fr=False), sub("outer", 1, -2, fr=False)])
    found = stability._max_destabilizer(loose, *stability._slopes(loose, F(1)))
    assert isinstance(found, AmbiguousModel)
    with pytest.raises(AmbiguousModel) as exc:
        max_destabilizer(loose, F(1))
    assert str(found) == str(exc.value) == "incomparable subobjects tie at maximal slope and rank: inner, outer"


# -- Harder-Narasimhan filtration ------------------------------------------------


def test_hn_two_step():
    m = rank2(-5, [sub("L", 1, -1, fr=True)])
    hn = hn_filtration(m, F(2))
    assert hn.steps == ("L",)
    assert hn.graded == ((1, -1, True), (1, -4, False))
    assert hn.graded_slopes(F(2)) == (F(-3), F(-4))


def test_hn_semistable_single_piece():
    m = rank2(-5, [sub("L", 1, -3, fr=False)])
    hn = hn_filtration(m, F(1))
    assert hn.steps == () and hn.graded == ((2, -5, True),)


def test_hn_three_step_chain():
    # nested destabilizers force a three-piece filtration
    f1 = sub("F1", 1, 2, fr=False, parents={"F2"})
    f2 = sub("F2", 2, 1, fr=False)
    m = FramedModel(CTX, FramedType(3, -6, True), (f1, f2))
    hn = hn_filtration(m, F(1))
    assert hn.steps == ("F1", "F2")
    assert hn.graded == ((1, 2, False), (1, -1, False), (1, -7, True))
    slopes = hn.graded_slopes(F(1))
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_hn_first_step_is_max_destabilizer():
    rng = random.Random(11)
    for _ in range(200):
        m = random_rank2_model(rng)
        for s in (F(1, 2), F(2), F(9, 2)):
            try:
                hn = hn_filtration(m, s)
            except AmbiguousModel:
                continue
            if not is_fm_semistable(m, s):
                assert hn.steps[0] == max_destabilizer(m, s).id
            slopes = hn.graded_slopes(s)
            assert all(a > b for a, b in zip(slopes, slopes[1:]))


# -- kernel bound and final chamber ----------------------------------------------


def test_sigma_upper_bound():
    assert sigma_upper_bound(rank2(-5, [sub("K", 1, -3, fr=False)])) == 5
    assert sigma_upper_bound(rank2(-6, [sub("K", 1, -4, fr=False)])) == 6
    assert sigma_upper_bound(rank2(-5, [sub("F", 1, -1, fr=True)])) is None


def test_sigma_upper_bound_with_frame_degree():
    ctx = CurveContext(2, frame_degree=3)
    m = FramedModel(ctx, FramedType(2, -5, True), (sub("K", 1, -3, fr=False),))
    assert sigma_upper_bound(m) == -5 - 2 * (-5 - 3)  # 11


def test_final_chamber_stable():
    assert final_chamber_stable(rank2(-5, [sub("F", 1, -1, fr=True)]))
    assert not final_chamber_stable(rank2(-5, [sub("K", 1, -3, fr=False)]))
    # and it matches direct evaluation past every wall
    m = rank2(-5, [sub("K", 1, -3, fr=False)])
    assert not is_fm_stable(m, F(6))


def test_final_chamber_matches_large_sigma():
    rng = random.Random(5)
    for _ in range(200):
        m = random_rank2_model(rng)
        d = m.typ.degree
        far = max(
            [F(d - 2 * s.degree) for s in m.subs if not s.fr]
            + [F(2 * s.degree - d) for s in m.subs if s.fr]
            + [F(0)]
        ) + 1
        assert final_chamber_stable(m) == is_fm_stable(m, far)


def test_sigma_max():
    assert sigma_max(rank2(-5, [sub("K", 1, -3, fr=False)])) == 1
    assert sigma_max(rank2(-6, [sub("K", 1, -4, fr=False)])) == 2
    assert sigma_max(rank2(-5, [sub("F", 1, -1, fr=True)])) is None


def test_sigma_max_phi_filter():
    m = rank2(-5, [sub("K", 1, -3, fr=False, phi=False), sub("K2", 1, -4, fr=False, phi=True)])
    assert sigma_max(m, use_phi=False) == 1
    assert sigma_max(m, use_phi=True) == 3


# -- oriented objects --------------------------------------------------------------


def test_oriented_first_disjunct():
    m = rank2(-5, [sub("F", 1, -2, fr=True)], delta_iso=False)
    assert is_oriented_semistable(m) and is_oriented_stable(m)


def test_oriented_needs_delta_iso():
    m = rank2(-5, [sub("L", 1, -3, fr=False)], delta_iso=False)
    assert not is_oriented_semistable(m)


def test_oriented_kernel_sub_charged_inequality():
    # At the canonical parameter 1 the kernel subobject satisfies the shifted
    # inequality strictly (-4 < -3), so the object is stable outright.
    m = rank2(-5, [sub("L", 1, -3, fr=False)], delta_iso=True)
    assert sigma_max(m) == 1
    assert is_oriented_semistable(m) and is_oriented_stable(m)


def test_oriented_negative_parameter_fails():
    m = rank2(-5, [sub("K", 1, -1, fr=False)], delta_iso=True)  # parameter -3
    assert sigma_max(m) == -3
    assert not is_oriented_semistable(m)


def test_oriented_equality_needs_split():
    # the complement summand sits exactly on the shifted equality
    k = sub("K", 1, -3, fr=False)
    c = sub("C", 1, -2, fr=True)
    plain = rank2(-5, [k, c], delta_iso=True)
    assert is_oriented_semistable(plain) and not is_oriented_stable(plain)
    split = rank2(-5, [k, c], delta_iso=True, split=SplitDescriptor("K", "C"))
    assert is_oriented_stable(split)
    with pytest.raises(InvalidInput, match="^split: "):
        oriented_split_case(plain)
    assert oriented_split_case(split)


def test_oriented_pair_filter():
    k = sub("K", 1, -3, fr=False, phi=True)
    bad = sub("B", 1, 0, fr=True, phi=False)  # violates the module-side inequality
    m = rank2(-5, [k, bad], delta_iso=True)
    assert not is_oriented_semistable(m, pair=False)
    assert is_oriented_semistable(m, pair=True)


# -- rank-2 equivalences -------------------------------------------------------------


def test_equivalences_hold_on_closed_model():
    m = rank2(-5, [sub("L", 1, -3, fr=False)], delta_iso=True)
    closed = close_constraints(m, [F(1, 2), F(1), F(2), F(3), F(4)])
    for s in (F(1, 2), F(1), F(2), F(3), F(4)):
        assert verify_rank2_equivalences(closed, s).ok


def test_equivalences_hold_with_irrelevant_noninvariant_sub():
    # only a non-destabilizing subobject lacks invariance: still closed
    m = rank2(
        -5,
        [sub("K", 1, -3, fr=False, phi=True), sub("W", 1, -4, fr=True, phi=False)],
        delta_iso=True,
    )
    rep = verify_rank2_equivalences(m, F(1, 2))
    assert rep.ok


def test_equivalence_mismatch_names_a_non_invariant_witness(monkeypatch):
    m = rank2(-5, [sub("G", 1, 0, fr=True), sub("F", 1, -2, fr=True, phi=False), sub("K", 1, -3, fr=False)])
    real = stability._verdicts

    def pair_verdicts_flipped(m, amb, slopes):
        fm_ss, fm_stable, _, _ = real(m, amb, slopes)
        return fm_ss, fm_stable, not fm_ss, not fm_stable

    monkeypatch.setattr(stability, "_verdicts", pair_verdicts_flipped)
    assert verify_rank2_equivalences(m, F(1, 2)).mismatches == (("semistable", "F"), ("stable", "F"))


def test_axiom_violated_and_why_it_matters():
    m = rank2(-5, [sub("B", 1, -1, fr=True, phi=False)], delta_iso=True)
    with pytest.raises(AxiomViolated):
        verify_rank2_equivalences(m, F(2))
    assert is_pair_semistable(m, F(2)) != is_fm_semistable(m, F(2))


def test_axiom_checked_at_canonical_parameter():
    # closed at the probed sigma but the canonical-parameter destabilizer is
    # not invariant, which would break the oriented comparison
    k = sub("K", 1, -3, fr=False, phi=True)
    f = sub("F", 1, 0, fr=True, phi=False)
    m = rank2(-5, [k, f], delta_iso=True)
    with pytest.raises(AxiomViolated):
        verify_rank2_equivalences(m, F(4))


def test_canonical_closure_failure_is_found_once_and_raised_at_every_sigma(monkeypatch):
    # closed at each probed sigma; at the canonical parameter 1 the
    # non-invariant F is the maximal destabilizer
    m = rank2(-5, [sub("K", 1, -3, fr=False, phi=True), sub("F", 1, 0, fr=True, phi=False)], delta_iso=True)
    calls = []
    real = stability.sigma_max
    monkeypatch.setattr(stability, "sigma_max", lambda m, use_phi=False: calls.append(use_phi) or real(m, use_phi))
    for sigma in (F(7, 2), 4, F(5)):
        assert max_destabilizer(m, sigma).id == "K"
        with pytest.raises(AxiomViolated) as exc:
            verify_rank2_equivalences(m, sigma)
        assert str(exc.value) == "subobject 'F' breaks constraint closure at the canonical parameter 1"
    assert calls == [False]  # sigma_max once for the model, not once per sigma


def test_an_ambiguous_canonical_search_is_raised_afresh_at_every_sigma():
    # no destabilizer at sigma = 1/2; at the canonical parameter 1 the kernel
    # subobjects A and B tie, and that search is stored with the model
    m = rank2(-5, [sub("A", 1, -3, fr=False), sub("B", 1, -3, fr=False)])
    depths = []
    for _ in range(3):
        with pytest.raises(AmbiguousModel, match="A, B$") as exc:
            verify_rank2_equivalences(m, F(1, 2))
        depths.append(len(exc.traceback))
    assert depths[0] == depths[1] == depths[2]


def test_threshold_formulas_are_rank_2_only():
    f = sub("F", 1, -1, fr=True)
    typ = FramedType(3, -5, True)
    with pytest.raises(InvalidInput, match="^type.rank: .*rank 2, got 3$"):
        rank2_threshold_holds(f, typ, F(1))
    # direct evaluation: (-1 - 1)/1 <= (-5 - 1)/3 holds, which the rank-2 formula would deny
    assert is_fm_semistable(FramedModel(CTX, typ, (f,)), F(1))


def test_threshold_formulas():
    rng = random.Random(13)
    for _ in range(150):
        m = random_rank2_model(rng)
        amb_nz = m.typ.framing_nonzero
        for s in (F(1, 3), F(1), F(5, 2), F(4), F(13, 2)):
            amb = reduced_framed_slope(2, m.typ.degree, amb_nz, s, amb_nz)
            for so in m.subs:
                holds = reduced_framed_slope(so.rank, so.degree, so.fr, s, amb_nz) <= amb
                assert holds == rank2_threshold_holds(so, m.typ, s)
                strict = reduced_framed_slope(so.rank, so.degree, so.fr, s, amb_nz) < amb
                assert strict == rank2_threshold_holds(so, m.typ, s, strict=True)


# -- integer verdicts against the Fraction oracle ------------------------------------


def random_lattice_model(rng):
    """A rank 2..4 model with up to five subobjects, a zero framing one time
    in five, a nonzero frame degree most of the time and, in rank 2, an
    occasional split; None when the draw breaks a validation rule."""
    r, d, nz = rng.randint(2, 4), rng.randint(-12, 3), rng.random() < 0.8
    subs = [
        sub(f"S{k}", rng.randint(1, r - 1), rng.randint(d - 6, 3), fr=nz and rng.random() < 0.5, phi=rng.random() < 0.6)
        for k in range(rng.randint(0, 5))
    ]
    if len(subs) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(len(subs)), 2)
        subs[a] = sub(subs[a].id, subs[a].rank, subs[a].degree, subs[a].fr, subs[a].phi_invariant, {subs[b].id})
    split = None
    if r == 2 and nz and rng.random() < 0.3:
        kd = rng.randint(d - 3, 3)
        subs += [sub("K", 1, kd, fr=False), sub("C", 1, d - kd, fr=True)]
        split = SplitDescriptor("K", "C")
    ctx = CurveContext(rng.randint(2, 3), rng.randint(-3, 3))
    try:
        return FramedModel(ctx, FramedType(r, d, nz, delta_iso=rng.random() < 0.6), tuple(subs), split)
    except InvalidInput:
        return None


def oracle_verdict(m, sigma, strict, pair, charged=False):
    """Every (phi-invariant, for pairs) subobject's slope at most the
    ambient's (below it, when strict); charged subtracts sigma everywhere."""
    nz = charged or m.typ.framing_nonzero
    amb = reduced_framed_slope(m.typ.rank, m.typ.degree, True, sigma, nz)
    slopes = [reduced_framed_slope(s.rank, s.degree, charged or s.fr, sigma, nz) for s in m.subs if s.phi_invariant or not pair]
    return all(sl < amb if strict else sl <= amb for sl in slopes)


def oracle_destabilizer(m, sigma):
    nz = m.typ.framing_nonzero
    slope = {s.id: reduced_framed_slope(s.rank, s.degree, s.fr, sigma, nz) for s in m.subs}
    if not m.subs or max(slope.values()) < reduced_framed_slope(m.typ.rank, m.typ.degree, True, sigma, nz):
        return None
    top = max((slope[s.id], s.rank) for s in m.subs)
    cands = [s for s in m.subs if (slope[s.id], s.rank) == top]
    winners = [c for c in cands if all(o is c or c.id in m.ancestors[o.id] for o in cands)]
    return winners[0].id if winners else "ambiguous"


def oracle_oriented(m, pair, strict):
    kernel = [s for s in m.subs if not s.fr and (s.phi_invariant or not pair)]
    if not kernel:
        return True
    if not m.typ.delta_iso:
        return False
    mu = max(reduced_framed_slope(s.rank, s.degree, False, F(1), False) for s in kernel)
    s_star = m.typ.degree - m.typ.rank * mu
    if s_star < 0 or (strict and s_star == 0):
        return False
    if oracle_verdict(m, s_star, strict, pair, charged=True):
        return True
    if not (strict and m.split is not None):
        return False
    k, o = m.sub(m.split.kmax_id), m.sub(m.split.other_id)
    return reduced_framed_slope(k.rank, k.degree, False, s_star, True) == reduced_framed_slope(o.rank, o.degree, True, s_star, True)


def lattice_models():
    """The first 300 valid draws of random_lattice_model at seed 2024."""
    rng = random.Random(2024)
    return [m for m in (random_lattice_model(rng) for _ in range(400)) if m is not None][:300]


def test_integer_verdicts_match_the_fraction_oracle():
    models = lattice_models()
    assert len(models) == 300
    assert any(not m.typ.framing_nonzero for m in models) and any(m.ctx.frame_degree for m in models)
    assert {m.typ.rank for m in models} == {2, 3, 4} and any(m.split for m in models)
    for m in models:
        for pair in (False, True):
            assert is_oriented_semistable(m, pair) == oracle_oriented(m, pair, strict=False)
            assert is_oriented_stable(m, pair) == oracle_oriented(m, pair, strict=True)
        for sigma in (F(1, 3), F(1, 2), F(1), F(5, 2), F(13, 2), F(1000, 3)):
            assert is_fm_semistable(m, sigma) == oracle_verdict(m, sigma, strict=False, pair=False)
            assert is_fm_stable(m, sigma) == oracle_verdict(m, sigma, strict=True, pair=False)
            assert is_pair_semistable(m, sigma) == oracle_verdict(m, sigma, strict=False, pair=True)
            assert is_pair_stable(m, sigma) == oracle_verdict(m, sigma, strict=True, pair=True)
            want = oracle_destabilizer(m, sigma)
            if want == "ambiguous":
                with pytest.raises(AmbiguousModel):
                    max_destabilizer(m, sigma)
            else:
                got = max_destabilizer(m, sigma)
                assert (got and got.id) == want


# -- the stability-check report -------------------------------------------------------


def chamber_walk(d):
    """(kind, sigma) from build_chambers: chamber 0's representative, then each
    later chamber's lower wall and representative."""
    cd = build_chambers(d, 2)
    points = [("chamber", cd.chambers[0].representative)]
    for c in cd.chambers[1:]:
        points += [("wall", c.lower), ("chamber", c.representative)]
    return points


def test_report_sigma_points_are_the_chamber_walk(monkeypatch):
    """report_obj takes its sigma values from chamber_bounds, in the order,
    types and values of the chamber walk over build_chambers."""
    seen = []
    real = stability._equivalences  # called once per point of a rank-2 report, with its sigma
    monkeypatch.setattr(stability, "_equivalences", lambda m, sigma, *rest: seen.append(sigma) or real(m, sigma, *rest))
    for d in range(-1, -61, -1):
        seen.clear()
        entries = stability.report_obj(rank2(d, [sub("K", 1, d, fr=False)]))["verdicts"]
        want = chamber_walk(d)
        assert [(type(s), s) for s in seen] == [(type(s), s) for _, s in want]
        assert [(e["kind"], e["sigma"]) for e in entries] == [(k, str(s)) for k, s in want]


def test_suite_sigma_lists_are_walls_then_representatives(monkeypatch):
    for m, sigmas in suite_inputs(monkeypatch, 0, 300):
        cd = build_chambers(m.typ.degree, m.ctx.genus)
        want = [F(w) for w in cd.walls] + list(cd.representatives)
        assert [(type(s), s) for s in sigmas] == [(type(s), s) for s in want]


def test_report_hn_blocks_are_the_filtration_and_its_slopes():
    """Each hn block is {**hn's fields, "slopes": hn.graded_slopes(sigma)}, as json.loads reads their text,
    or the ambiguity hn_filtration raises, on the lattice models at every point;
    a model with d >= 0 has no report."""
    blocks = 0
    for m in lattice_models():
        if m.typ.degree >= 0:
            with pytest.raises(InvalidInput, match="^type.degree: degree must be negative"):
                stability.report_obj(m)
            continue
        for entry in stability.report_obj(m)["verdicts"]:
            sigma = F(entry["sigma"])
            try:
                hn = hn_filtration(m, sigma)
                want = {**json.loads(_json_text(hn)), "slopes": json.loads(_json_text(hn.graded_slopes(sigma)))}
                blocks += 1
            except AmbiguousModel as exc:
                want = {"error": str(exc)}
            assert entry["hn"] == want and json.dumps(entry["hn"]) == json.dumps(want)
    assert blocks > 1000


def test_report_equivalence_blocks_are_the_report_with_its_verdict(monkeypatch):
    """Each rank-2 equivalences block that holds a report is {"ok": rep.ok,
    **rep's fields} as json.loads reads their text, for the report of
    verify_rank2_equivalences on the lattice models at every point and for a
    doctored report with mismatches, so report_obj's own field list cannot
    drift from EquivalenceReport."""
    blocks = 0
    for m in lattice_models():
        if m.typ.rank != 2 or m.typ.degree >= 0:
            continue
        for entry in stability.report_obj(m)["verdicts"]:
            if "ok" in entry["equivalences"]:
                rep = verify_rank2_equivalences(m, F(entry["sigma"]))
                want = {"ok": rep.ok, **json.loads(_json_text(rep))}
                assert entry["equivalences"] == want and json.dumps(entry["equivalences"]) == json.dumps(want)
                blocks += 1
    assert blocks > 200
    rep = stability.EquivalenceReport((("fm_semistable", "L"), ("pair_stable", None)))
    monkeypatch.setattr(stability, "_equivalences", lambda *args: rep)
    entry = stability.report_obj(rank2(-5, [sub("L", 1, -3, fr=False)]))["verdicts"][0]
    assert entry["equivalences"] == {"ok": False, **json.loads(_json_text(rep))}
    assert entry["equivalences"]["mismatches"] == [["fm_semistable", "L"], ["pair_stable", None]]


def _body_lines(code):
    """Each line of a function's body that holds code, mapped to its text."""
    lines, first = inspect.getsourcelines(code)
    return {n: lines[n - first].strip() for _, _, n in code.co_lines() if n is not None and n != first}


def test_every_line_of_the_filtration_runs_on_valid_input():
    """The first step is read off the slope pass, so only models with a chain
    of containers reach the general loop; every line of _filtration runs on
    the lattice models and chain draws at five sigma values, and no line is
    exempt."""
    code = stability._filtration.__code__
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    rng = random.Random(33)
    models = lattice_models() + [stability.random_chain_model(rng) for _ in range(200)]
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for m in models:
            for sigma in (F(1, 2), F(1), F(3), F(13, 2), F(abs(m.typ.degree) + 2)):
                try:
                    hn_filtration(m, sigma)
                except AmbiguousModel:
                    pass
    finally:
        sys.settrace(previous)
    assert {text for n, text in _body_lines(code).items() if n not in ran} == set()


# -- model validation and serialization ------------------------------------------------


def test_validation_rejects_bad_models():
    with pytest.raises(InvalidInput, match=r"^subs\[1\]\.id: "):
        rank2(-5, [sub("a", 1, 0, fr=True), sub("a", 1, 1, fr=True)])  # duplicate id
    with pytest.raises(InvalidInput, match=r"^subs\[0\]\.rank: "):
        rank2(-5, [sub("a", 2, 0, fr=True)])  # rank not proper
    with pytest.raises(InvalidInput, match=r"^subs\[0\]\.fr: "):
        rank2(-5, [sub("a", 1, 0, fr=True)], framing=False)  # fr without framing
    with pytest.raises(InvalidInput, match=r"^subs\[0\]\.parents: "):
        rank2(-5, [sub("a", 1, 0, fr=True, parents={"missing"})])
    with pytest.raises(InvalidInput, match=r"^subs\[0\]\.fr: "):  # fr=True inside a kernel subobject
        FramedModel(
            CTX,
            FramedType(3, -6, True),
            (sub("in", 1, -3, fr=True, parents={"out"}), sub("out", 2, -4, fr=False)),
        )
    with pytest.raises(InvalidInput, match=r"^subs\[0\]\.parents: "):  # containment cycle
        rank2(-5, [sub("a", 1, 0, fr=True, parents={"b"}), sub("b", 1, 0, fr=True, parents={"a"})])
    with pytest.raises(InvalidInput, match="^split: "):  # split summands must add up
        rank2(
            -5,
            [sub("K", 1, -3, fr=False), sub("C", 1, -1, fr=True)],
            split=SplitDescriptor("K", "C"),
        )


def test_a_long_containment_chain_builds():
    """Each rank-1 subobject sits in the next: the ancestor map takes no
    recursion per link."""
    n = 2000
    subs = [sub(f"C{i}", 1, i - 2 * n, fr=True, parents={f"C{i + 1}"} if i + 1 < n else ()) for i in range(n)]
    m = rank2(-3, subs)
    assert m.contains(f"C{n - 1}", "C0") and not m.contains("C0", f"C{n - 1}")
    assert len(m.ancestors["C0"]) == n - 1 and m.ancestors[f"C{n - 1}"] == frozenset()


def test_the_ancestor_map_is_the_transitive_closure_in_any_listing_order():
    """On random containment graphs, cycles and nodes below them included, each
    id's set is every id reachable through parents, its own id only on a cycle."""
    rng = random.Random(5)
    cyclic = 0
    for _ in range(400):
        ids = [f"S{k}" for k in range(rng.randint(1, 8))]
        by_id = {i: sub(i, 1, 0, fr=True, parents={p for p in ids if p != i and rng.random() < 0.25}) for i in ids}
        by_id = dict(rng.sample(list(by_id.items()), len(by_id)))
        want = {}
        for i in ids:
            seen, todo = set(), list(by_id[i].parents)
            while todo:
                p = todo.pop()
                if p not in seen:
                    seen.add(p)
                    todo += by_id[p].parents
            want[i] = seen
        assert FramedModel._ancestor_map(by_id) == want
        cyclic += any(i in want[i] for i in ids)
    assert 50 < cyclic < 350


CYCLE_SCRIPT = """
from flipchain.stability import CurveContext, FramedModel, FramedType, InvalidInput, SubobjectData
parents = {"S5": "S0 S2", "S3": "S0 S4", "S2": "S0 S3 S4", "S0": "S4", "S1": "S2 S3 S4", "S4": "S2"}
subs = tuple(SubobjectData(k, 1, 0, True, parents=frozenset(v.split())) for k, v in parents.items())
try:
    FramedModel(CurveContext(2), FramedType(2, -3, True), subs)
except InvalidInput as exc:
    print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "4", "5"])
def test_a_containment_cycle_names_the_first_subobject_on_it(hash_seed):
    """S3 < S4 < S2 < S3 is a cycle and S3 comes first in subs order, whatever
    order the string hash gives the frozensets of parents."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stability.__file__)))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CYCLE_SCRIPT], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "subs[1].parents: containment cycle through 'S3'\n", proc.stderr


@pytest.mark.parametrize(
    "path, build",
    [
        ("frame_degree", lambda: CurveContext(2, frame_degree=1.5)),
        ("type.rank", lambda: FramedType(2.0, -5, True)),
        ("type.rank", lambda: FramedType(True, -5, True)),
        ("type.degree", lambda: FramedType(2, -5.0, True)),
        (r"subs\[0\]\.rank", lambda: rank2(-5, [sub("K", True, -3, fr=False)])),
        (r"subs\[1\]\.degree", lambda: rank2(-5, [sub("C", 1, -1, fr=True), sub("K", 1, -3.5, fr=False)])),
        ("n", lambda: betti.sym_product_poincare(True, 2)),
        ("n", lambda: betti.sym_product_poincare(1.0, 2)),
        ("g", lambda: betti.sym_product_poincare(1, 2.0)),
        ("n", lambda: betti.proj_space_poincare(2.0)),
        ("n", lambda: betti.proj_space_poincare(False)),
    ],
)
def test_non_integer_inputs_name_their_field(path, build):
    """A float or a bool where an integer belongs is rejected up front, not
    used as a number (a float bound) or left to fail later with TypeError."""
    with pytest.raises(InvalidInput, match=f"^{path}: expected an integer, got "):
        build()


@pytest.mark.parametrize(
    "message, build",
    [
        ("type.framing_nonzero: expected true or false, got 1", lambda: FramedType(2, -5, 1)),
        ("type.delta_iso: expected true or false, got null", lambda: FramedType(2, -5, True, delta_iso=None)),
        ("subs[*].fr: expected true or false, got 0", lambda: SubobjectData("K", 1, -3, 0, phi_invariant="no")),
        ('subs[*].phi_invariant: expected true or false, got "no"',
         lambda: SubobjectData("K", 1, -3, False, phi_invariant="no")),
        ("subs[*].id: expected a string, got 5", lambda: SubobjectData(5, 1, -3, False)),
        ("subs[*].parents: expected a string, got 7", lambda: SubobjectData("K", 1, -3, False, parents={7})),
        ('subs[*].parents: expected a list, got "K"', lambda: SubobjectData("F", 1, -2, False, parents="K")),
        ('subs[*].parents: expected a list, got "KC"', lambda: SubobjectData("F", 1, -2, False, parents="KC")),
        ("subs[*].parents: expected a list, got null", lambda: SubobjectData("F", 1, -2, False, parents=None)),
        ("subs[*].parents: expected a list, got 5", lambda: SubobjectData("F", 1, -2, False, parents=5)),
        ("subs[*].parents: duplicate parent 'K'", lambda: SubobjectData("F", 1, -2, False, parents=["K", "K"])),
        ("subs[*].parents: duplicate parent 'K'", lambda: SubobjectData("F", 1, -2, False, parents=("K", "C", "K"))),
        ("split.kmax_id: expected a string, got 0", lambda: SplitDescriptor(0, "C")),
        ("split.other_id: expected a string, got null", lambda: SplitDescriptor("K", None)),
    ],
)
def test_flags_and_ids_of_the_wrong_kind_name_their_field(message, build):
    """A library caller's flag or id is checked as the JSON reader checks it,
    so no model is built that model_to_json_obj would write and the reader
    then reject."""
    with pytest.raises(InvalidInput) as exc:
        build()
    assert str(exc.value) == message


_FLAG_CALLS = {
    "is_oriented_semistable": ("pair", lambda m, v: is_oriented_semistable(m, pair=v)),
    "is_oriented_stable": ("pair", lambda m, v: is_oriented_stable(m, pair=v)),
    "oriented_split_case": ("pair", lambda m, v: oriented_split_case(m, pair=v)),
    "sigma_max": ("use_phi", lambda m, v: sigma_max(m, use_phi=v)),
    "rank2_threshold_holds": ("strict", lambda m, v: rank2_threshold_holds(m.subs[1], m.typ, F(5), strict=v)),
}


@pytest.mark.parametrize("value, shown", [("no", '"no"'), (1, "1"), (0, "0"), (None, "null"), ("", '""')])
@pytest.mark.parametrize("function", sorted(_FLAG_CALLS))
def test_a_flag_that_is_not_a_bool_is_rejected_naming_it(function, value, shown):
    """A truthy or falsy stand-in for a flag is rejected, not read as the bool
    it coerces to: pair="no" would give the pair verdict and use_phi="no" None."""
    m = rank2(-5, [sub("K", 1, -4, fr=False, phi=False), sub("C", 1, 0, fr=True)], delta_iso=True)
    name, call = _FLAG_CALLS[function]
    with pytest.raises(InvalidInput) as exc:
        call(m, value)
    assert str(exc.value) == f"{name}: expected true or false, got {shown}"


def test_model_json_round_trip():
    m = rank2(
        -5,
        [sub("K", 1, -3, fr=False), sub("C", 1, -2, fr=True, parents=())],
        delta_iso=True,
        split=SplitDescriptor("K", "C"),
    )
    assert model_from_json_obj(model_to_json_obj(m)) == m


# -- the checked records ----------------------------------------------------------------


def split_model():
    return rank2(-5, [sub("K", 1, -3, fr=False, parents={"C"}), sub("C", 1, -2, fr=True)], delta_iso=True,
                 split=SplitDescriptor("K", "C"))


def test_a_replaced_record_is_checked_again():
    """_replace builds its copy through __init__, so the copy meets every check."""
    with pytest.raises(InvalidInput) as exc:
        SubobjectData("K", 1, -3, False)._replace(fr=1)
    assert str(exc.value) == "subs[*].fr: expected true or false, got 1"
    with pytest.raises(InvalidInput) as exc:
        split_model()._replace(split=SplitDescriptor("S", "S"))
    assert str(exc.value) == "split: kmax_id and other_id both name 'S'; the summands must differ"
    assert split_model()._replace(split=None).split is None


@pytest.mark.parametrize("change", [lambda r: setattr(r, "subs", ()), lambda r: delattr(r, "subs"),
                                    lambda r: delattr(r, "ancestors"), lambda r: setattr(r, "extra", 1),
                                    lambda r: setattr(r.typ, "rank", 3), lambda r: delattr(r.subs[0], "parents")])
def test_a_record_refuses_to_assign_or_delete_an_attribute(change):
    m = split_model()
    with pytest.raises(AttributeError):
        change(m)
    assert m == split_model() and m.typ.rank == 2 and m.ancestors == {"K": {"C"}, "C": frozenset()}


@pytest.mark.parametrize("copied", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
def test_a_model_and_a_betti_report_copy_to_equal_values_with_equal_hashes(copied):
    m, report = split_model(), betti.build_betti_report(-5, 2)
    is_oriented_stable(m), report.ok  # fill their cached properties, which travel with them
    for value in (m, report):
        twin = copied(value)
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert vars(twin).keys() == vars(value).keys()
    assert copied(m).ancestors == m.ancestors


def test_a_model_repr_names_every_field():
    assert repr(split_model()) == (
        "FramedModel(ctx=CurveContext(genus=2, frame_degree=0), "
        "typ=FramedType(rank=2, degree=-5, framing_nonzero=True, delta_iso=True), "
        "subs=(SubobjectData(id='K', rank=1, degree=-3, fr=False, phi_invariant=True, parents=frozenset({'C'})), "
        "SubobjectData(id='C', rank=1, degree=-2, fr=True, phi_invariant=True, parents=frozenset())), "
        "split=SplitDescriptor(kmax_id='K', other_id='C'))"
    )


# -- the seeded property suite ----------------------------------------------------------


def test_oriented_verdicts_are_computed_once_per_model(monkeypatch):
    m = rank2(-5, [sub("K", 1, -4, fr=False), sub("C", 1, 0, fr=True)], delta_iso=True)
    calls = []
    real = stability.sigma_max
    monkeypatch.setattr(stability, "sigma_max", lambda m, use_phi=False: calls.append(use_phi) or real(m, use_phi))
    verdicts = [f(m, pair) for f in (is_oriented_semistable, is_oriented_stable) for pair in (False, True)]
    for sigma in (F(1, 2), F(1), F(3)):
        verify_rank2_equivalences(m, sigma)
    assert verdicts == [f(m, pair) for f in (is_oriented_semistable, is_oriented_stable) for pair in (False, True)]
    assert calls.count(True) == 1  # the pair verdicts' sigma_max, taken once


def rebuilt_closure(m, sigmas):
    """close_constraints as a rebuilt model, whatever the flags: every kernel
    subobject and every maximal destabilizer at sigmas and at a nonnegative
    canonical parameter (which may be 0, so no public sigma) marked phi-invariant."""
    s_star = sigma_max(m)
    need = {s.id for s in m.subs if not s.fr}
    for sigma in [*sigmas, *([s_star] if s_star is not None and s_star >= 0 else [])]:
        md = stability._max_destabilizer(m, *stability._slopes(m, sigma))
        if isinstance(md, SubobjectData):
            need.add(md.id)
    return m._replace(subs=tuple(s._replace(phi_invariant=True) if s.id in need else s for s in m.subs))


def test_close_constraints_returns_a_closed_model_itself():
    sigmas = [F(1, 2), F(1), F(2), F(4)]
    m = rank2(-5, [sub("K", 1, -3, fr=False), sub("W", 1, -4, fr=True, phi=False)], delta_iso=True)
    assert close_constraints(m, sigmas) is m
    opened = rank2(-5, [sub("K", 1, -3, fr=False, phi=False), sub("B", 1, -1, fr=True, phi=False)])
    closed = close_constraints(opened, sigmas)
    assert closed is not opened and closed == rebuilt_closure(opened, sigmas)
    assert [s.phi_invariant for s in closed.subs] == [True, True]


def suite_inputs(monkeypatch, seed, n_models):
    """Each (model, sigma list) that run_stability_suite hands _suite_rank2."""
    seen = []
    real = stability._suite_rank2

    def record(res, m, sigmas, tag):
        seen.append((m, sigmas))
        real(res, m, sigmas, tag)

    monkeypatch.setattr(stability, "_suite_rank2", record)
    assert run_stability_suite(seed, n_models).ok
    monkeypatch.undo()
    return seen


def outcome(f, *args):
    """f's result, or the kind and message of the ConsistencyFailure it raised."""
    try:
        return f(*args)
    except (AmbiguousModel, AxiomViolated) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_pass_bodies_match_the_public_api(monkeypatch, seed):
    """The suite's per-sigma results, read off one slope pass of each model,
    equal what the public functions compute from their own passes."""
    public_verdicts = (is_fm_semistable, is_fm_stable, is_pair_semistable, is_pair_stable)
    seen = {"ambiguous": 0, "kept": 0, "rebuilt": 0}
    for m, sigmas in suite_inputs(monkeypatch, seed, 300):
        closed, rows = stability._suite_passes(m, sigmas)
        assert closed == close_constraints(m, sigmas) == rebuilt_closure(m, sigmas)
        assert (closed is m) == (closed == m)
        seen["kept" if closed is m else "rebuilt"] += 1
        assert [row[0] for row in rows] == list(sigmas)
        for sigma, (amb, slopes), found, closed_pass in rows:
            assert stability._verdicts(m, amb, slopes) == tuple(f(m, sigma) for f in public_verdicts)
            searched = found
            if isinstance(found, AmbiguousModel):
                seen["ambiguous"] += 1
                found = "AmbiguousModel", str(found)
            assert found == outcome(max_destabilizer, m, sigma)
            assert outcome(stability._filtration, m, amb, slopes) == outcome(hn_filtration, m, sigma)
            for model, (a, s) in ((m, (amb, slopes)), (closed, closed_pass)):
                if model is not m:
                    searched = stability._max_destabilizer(model, a, s)
                got = outcome(stability._equivalences, model, sigma, a, s, searched)
                assert got == outcome(verify_rank2_equivalences, model, sigma)
            # the closed model meets the precondition
            assert isinstance(got, stability.EquivalenceReport) or got[0] == "AmbiguousModel"
    assert seen["ambiguous"] and seen["kept"] and seen["rebuilt"], seen


def test_the_suite_takes_one_slope_pass_per_sigma(monkeypatch):
    """m's pass at each sigma feeds every check there; a closed model that is
    not m takes one pass of its own per sigma, and one that is m takes none."""
    sigmas = [F(1, 2), F(2), F(7, 2)]  # neither sigma_max (3) nor the final-chamber probe (6)
    real = stability._slopes
    for phi, rebuilt in ((True, False), (False, True)):
        m = rank2(-5, [sub("K", 1, -4, fr=False, phi=phi), sub("C", 1, 0, fr=True)], delta_iso=True)
        calls = []
        monkeypatch.setattr(stability, "_slopes", lambda x, sigma: calls.append((x is m, sigma)) or real(x, sigma))
        res = stability.SuiteResult()
        stability._suite_rank2(res, m, sigmas, "t")
        assert res.ok and res.checks
        per_sigma = [(own, sigma) for own, sigma in calls if sigma in sigmas]
        assert sorted(per_sigma) == sorted([(True, s) for s in sigmas] + [(False, s) for s in sigmas if rebuilt])


def test_the_suite_searches_each_maximal_destabilizer_once(monkeypatch):
    """A closed model that is m reuses m's search on the same pass; a rebuilt
    one searches its own, and verify_rank2_equivalences searches on its own."""
    calls = []
    real = stability._max_destabilizer
    monkeypatch.setattr(stability, "_max_destabilizer", lambda *args: calls.append(1) or real(*args))
    assert run_stability_suite(seed=0, n_models=300).ok
    assert len(calls) == 3333  # 3,386 when the canonical parameter was searched twice per kept model
    calls.clear()
    m = rank2(-5, [sub("K", 1, -4, fr=False), sub("B", 1, -2, fr=True)])
    assert verify_rank2_equivalences(m, F(1, 2)).ok
    assert calls


def test_a_kept_model_searches_its_canonical_parameter_once(monkeypatch):
    """On a model that closing leaves as it is, with sigma_max = 3 and one
    sigma, the suite searches that sigma's pass and the canonical one: the
    closure and the equivalence precondition share the canonical search."""
    m = rank2(-5, [sub("K", 1, -4, fr=False), sub("C", 1, 0, fr=True)])
    calls = []
    real = stability._max_destabilizer
    monkeypatch.setattr(stability, "_max_destabilizer", lambda *args: calls.append(1) or real(*args))
    res = stability.SuiteResult()
    stability._suite_rank2(res, m, [F(1, 2)], "t")
    assert res.ok and res.check_counts["equivalences"] == 1
    assert len(calls) == 2
    assert sigma_max(m) == 3 and close_constraints(m, [F(1, 2)]) is m


def _low_invariant_slopes(real):
    def doctored(m, sigma):
        amb, slopes = real(m, sigma)
        return amb, [sl - 1 if s.phi_invariant else sl for s, sl in zip(m.subs, slopes)]
    return doctored


#: (stability name, doctor of the real function, failure kinds, failure count, failures per
#: SUITE_INVARIANTS name and check total), the counts at seed 0 with 300 models
SUITE_DOCTORS = [
    pytest.param(
        "rank2_threshold_holds",
        lambda real: lambda f, typ, sigma, strict=False: real(f, typ, sigma + 1 if f.fr else sigma, strict),
        ("threshold formula mismatch",), 191, {"threshold": 103, "strict threshold": 88}, 15524,
        id="threshold-shifted-for-fr",
    ),
    pytest.param(
        "final_chamber_stable", lambda real: lambda m: not real(m),
        ("final-chamber verdict disagrees",), 300, {"final chamber": 300}, 15524, id="final-chamber-negated",
    ),
    pytest.param(
        "sigma_upper_bound", lambda real: lambda m: None if real(m) is None else real(m) - 1,
        ("above the kernel bound",), 3, {"kernel bound": 3}, 15524, id="kernel-bound-lowered",
    ),
    pytest.param(
        "_framed_slope_terms", lambda real: lambda rank, deg, fr, sigma, amb: real(rank, deg, fr, sigma, not amb),
        ("graded slopes not strictly decreasing", "maximal destabilizer not maximal"), 377,
        {"rank-2 graded slopes": 115, "destabilizer maximal": 107, "chain graded slopes": 155}, 15524,
        id="oracle-flag-flipped",
    ),
    pytest.param(
        "sigma_max",
        lambda real: lambda m, use_phi=False: (lambda s: s + 1 if use_phi and s is not None else s)(real(m, use_phi)),
        ("equivalences failed",), 19, {"equivalences": 19}, 15524, id="pair-canonical-parameter-raised",
    ),
    pytest.param(
        "_slopes", _low_invariant_slopes,
        ("threshold formula mismatch", "closure still violated", "graded slopes not strictly decreasing",
         "strictly semistable"), 397,
        {"threshold": 104, "strict threshold": 72, "closure after closing": 4, "chain graded slopes": 21,
         "wall strictly semistable": 98, "off-wall": 98}, 15579, id="invariant-slopes-lowered",
    ),
]


@pytest.mark.parametrize("name, doctor, kinds, count, failure_counts, checks", SUITE_DOCTORS)
def test_the_suite_catches_a_doctored_engine(monkeypatch, name, doctor, kinds, count, failure_counts, checks):
    monkeypatch.setattr(stability, name, doctor(getattr(stability, name)))
    res = run_stability_suite(seed=0, n_models=300)
    assert len(res.failures) == count
    assert all(any(kind in f for kind in kinds) for f in res.failures), res.failures[:3]
    assert all(any(kind in f for f in res.failures) for kind in kinds)
    assert {k: n for k, n in res.failure_counts.items() if n} == failure_counts
    assert res.checks == checks


@pytest.mark.parametrize(
    "seed, n_models, message",
    [(0, -5, "models: must be nonnegative, got -5"), (0, 2.5, "models: expected an integer, got 2.5"),
     (0, True, "models: expected an integer, got True"), (1.5, 10, "seed: expected an integer, got 1.5"),
     ("0", 10, "seed: expected an integer, got '0'")],
)
def test_suite_rejects_arguments_that_check_nothing(seed, n_models, message):
    with pytest.raises(InvalidInput) as exc:
        run_stability_suite(seed, n_models)
    assert str(exc.value) == message


#: Checks per SUITE_INVARIANTS name at seed 0 with 300 models, as counted per
#: call site before the names existed; "closure after closing" counts only failures.
SUITE_CHECKS_AT_300 = {
    "final chamber": 300, "threshold": 3018, "strict threshold": 3018, "stable => semistable": 1356,
    "kernel bound": 104, "rank-2 graded slopes": 1317, "rank-2 first step": 873, "destabilizer maximal": 910,
    "closure after closing": 0, "equivalences": 1274, "chain graded slopes": 1580, "chain first step": 1114,
    "wall strictly semistable": 98, "off-wall": 560, "tie container": 1, "tie raises": 1,
}


def test_suite_counts_each_named_check():
    names = [name for name, _ in stability.SUITE_INVARIANTS]
    assert len(set(names)) == len(names)
    res = run_stability_suite(seed=0, n_models=300)
    assert res.ok
    assert list(res.check_counts) == list(res.failure_counts) == names
    assert res.check_counts == SUITE_CHECKS_AT_300
    assert sum(res.check_counts.values()) == res.checks == 15524
    assert not any(res.failure_counts.values())


def test_a_failed_check_is_counted_under_its_name():
    res = stability.SuiteResult()
    stability._suite_check(res, "kernel bound", True, "t", F(2), F(1))
    stability._suite_check(res, "kernel bound", False, "t", F(3), F(1))
    stability._suite_check(res, "tie raises", False)
    assert res.failures == ["t: semistable at sigma=3 above the kernel bound 1",
                            "tie containment: incomparable tie did not raise"]
    assert res.checks == 3 and not res.ok
    assert {k: n for k, n in res.check_counts.items() if n} == {"kernel bound": 2, "tie raises": 1}
    assert {k: n for k, n in res.failure_counts.items() if n} == {"kernel bound": 1, "tie raises": 1}
    with pytest.raises(KeyError):
        stability._suite_check(res, "unnamed", True)


def test_suite_small_run_clean():
    res = run_stability_suite(seed=123, n_models=300)
    assert res.ok, res.failures[:5]
    assert res.models >= 350
    assert res.checks > 5000
