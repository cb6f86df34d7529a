"""Wall lists, chamber location and flip-locus numerics."""

from fractions import Fraction

import pytest

from flipchain import betti, chambers, cli
from flipchain.chambers import (
    InvalidInput,
    build_chambers,
    chamber_of,
    eta,
    flip_locus,
    fm_index_range,
    moduli_dim,
)
from flipchain.stability import CurveContext, FramedType, require_suite_args


def test_eta():
    assert eta(0, -5) == 0
    assert eta(3, -5) == 1
    assert eta(4, -5) == 3


def test_build_chambers_d_minus5():
    cd = build_chambers(-5, 2)
    assert cd.walls == (1, 3)
    assert [c.fm_index for c in cd.chambers] == [2, 3, 4]
    assert cd.representatives == (Fraction(1, 2), Fraction(2), Fraction(4))
    assert cd.chambers[-1].closed_upper and cd.chambers[-1].upper == 5


def test_build_chambers_d_minus6():
    assert build_chambers(-6, 2).walls == (2, 4)


def test_build_chambers_single_wall():
    assert build_chambers(-3, 2).walls == (1,)


def test_build_chambers_no_walls():
    for d in (-1, -2):
        cd = build_chambers(d, 2)
        assert cd.walls == ()
        assert len(cd.chambers) == 1
        assert cd.chambers[0].upper == -d


def test_build_chambers_rejects_bad_input():
    with pytest.raises(InvalidInput, match="^d: "):
        build_chambers(0, 2)
    with pytest.raises(InvalidInput, match="^g: "):
        build_chambers(-5, 1)


def test_wall_endpoints_and_parity_sweep():
    for d in range(-20, -2):
        cd = build_chambers(d, 2)
        assert cd.walls[0] == (1 if d % 2 else 2)
        assert cd.walls[-1] == -d - 2
        lo, hi = fm_index_range(d)
        assert cd.walls == tuple(eta(i, d) for i in range(lo + 1, hi + 1))


def test_chamber_of():
    cd = build_chambers(-5, 2)
    assert chamber_of(Fraction(1, 2), cd).index == 0
    loc = chamber_of(Fraction(1), cd)
    assert loc.kind == "wall" and loc.wall == 1
    assert chamber_of(Fraction(6), cd).kind == "empty"
    assert chamber_of(Fraction(5), cd).index == 2  # right endpoint is included
    assert chamber_of(Fraction(7, 2), cd).index == 2
    with pytest.raises(InvalidInput, match="^sigma: "):
        chamber_of(Fraction(0), cd)


def test_chambers_cover_everything():
    cd = build_chambers(-9, 3)
    probes = [Fraction(n, 7) for n in range(1, 64)]
    for s in probes:
        loc = chamber_of(s, cd)
        assert loc.kind in ("chamber", "wall", "empty")
        assert (loc.kind == "empty") == (s > 9)


def test_flip_locus_examples():
    fl = flip_locus(3, -5, 2)
    assert (fl.rank_minus, fl.rank_plus) == (4, 1)
    assert fl.dim_p_minus == 6 and fl.codim_minus == 1
    fl = flip_locus(2, -5, 2)
    assert (fl.rank_minus, fl.rank_plus) == (2, 2)
    assert fl.dim_p_minus == 5 and fl.codim_minus == 2


def test_flip_locus_range():
    with pytest.raises(InvalidInput, match="^i: "):
        flip_locus(4, -5, 2)  # the last chamber has no flip above it
    with pytest.raises(InvalidInput, match="^i: "):
        flip_locus(1, -5, 2)


@pytest.mark.parametrize("d, g", [(-3, 2), (-5, 2), (-10, 3), (-17, 4), (-60, 3), (-61, 6)])
def test_stored_flip_loci_are_the_public_flip_loci(d, g):
    lo, hi = fm_index_range(d)
    assert build_chambers(d, g).flip_loci == tuple(flip_locus(i, d, g) for i in range(lo, hi))


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: moduli_dim(-5, 2.5), "g"),
        (lambda: moduli_dim(-5.0, 2), "d"),
        (lambda: build_chambers(-5, 2.5), "g"),
        (lambda: fm_index_range(-5.0), "d"),
        (lambda: flip_locus(2.5, -5, 2), "i"),
        (lambda: flip_locus(True, -2, 2), "i"),
        (lambda: betti.fm_poincare_closed(True, -2, 2), "i"),
        (lambda: betti.fm_poincare_recursive(Fraction(2), -5, 2), "i"),
        (lambda: betti.flip_difference(3, -5, 2.0), "g"),
        (lambda: betti.build_betti_report(-5, 2, only_chamber=3.0), "chamber"),
        (lambda: cli.run_verify_all(2.0, -1, 0, 0, None), "grid"),
        (lambda: CurveContext(False), "genus"),
    ],
)
def test_index_rules_take_only_ints(call, field):
    with pytest.raises(InvalidInput, match=f"^{field}: expected an integer, got "):
        call()


HUGE = 10 ** 5000  # past the 4,300-digit limit of int-to-str


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: moduli_dim(HUGE, 2), "d: degree must be negative, got <int of 16610 bits>"),
        (lambda: moduli_dim(-5, -HUGE), "g: genus must be at least 2, got <int of 16610 bits>"),
        (lambda: flip_locus(HUGE, -5, 2), "i: flip index <int of 16610 bits> outside [2, 3] for d=-5"),
        (lambda: betti.build_betti_report(-5, 2, only_chamber=HUGE),
         "chamber: index <int of 16610 bits> outside [2, 4] for d=-5"),
        (lambda: betti.fm_poincare_closed(2, -HUGE, 2),
         "i: index 2 outside [<int of 16609 bits>, <int of 16610 bits>] for d=<int of 16610 bits>"),
        (lambda: chambers._require_sigma(Fraction(-HUGE, 3)), "sigma: must be positive, got <Fraction>"),
        (lambda: chambers._require_sigma(-HUGE), "sigma: must be positive, got <int of 16610 bits>"),
        (lambda: betti.proj_space_poincare(-HUGE),
         "n: projective dimension must be at least -1, got <int of 16610 bits>"),
        (lambda: betti.sym_product_poincare(-HUGE, 2), "n: must be nonnegative, got n=<int of 16610 bits>, g=2"),
        (lambda: betti.u2d_from_bundle(HUGE, -5),
         "d: the bundle route needs odd d with -d > 4g - 4, got d=-5, g=<int of 16610 bits>"),
        (lambda: betti.blowup_delta(HUGE, 2), "d: the terminal flip needs d <= -3, got <int of 16610 bits>"),
    ],
)
def test_an_int_too_long_to_print_is_invalid_input_naming_its_field(call, message):
    # the text is the one _shown gives; a value that prints is printed as before
    with pytest.raises(InvalidInput) as caught:
        call()
    assert str(caught.value) == message


class _Ratio(Fraction):
    """A Fraction that is not of type Fraction, which _require_sigma rejects."""


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: moduli_dim(Fraction(HUGE, 3), 2), "d: expected an integer, got <Fraction>"),
        (lambda: CurveContext(2, Fraction(HUGE, 3)), "frame_degree: expected an integer, got <Fraction>"),
        (lambda: FramedType(Fraction(HUGE, 3), -3, True), "type.rank: expected an integer, got <Fraction>"),
        (lambda: betti.proj_space_poincare(Fraction(HUGE, 3)), "n: expected an integer, got <Fraction>"),
        (lambda: betti.blowup_delta(Fraction(HUGE, 3), 2), "d: expected an integer, got <Fraction>"),
        (lambda: require_suite_args(Fraction(HUGE, 3), 1), "seed: expected an integer, got <Fraction>"),
        (lambda: chambers._require_sigma(_Ratio(HUGE, 3)), "sigma: expected an int or a Fraction, got <_Ratio>"),
    ],
)
def test_a_value_too_long_to_repr_is_invalid_input_naming_its_field(call, message):
    # repr when it works, so a value that prints is printed as before, and _shown's fixed text when not
    with pytest.raises(InvalidInput) as caught:
        call()
    assert str(caught.value) == message


def test_moduli_dim():
    assert moduli_dim(-5, 2) == 7
    assert moduli_dim(-1, 2) == 3
    assert moduli_dim(-5, 3) == 9


def test_single_subobject_walls_land_on_eta_values():
    # a single rank-1 subobject is strictly semistable exactly at |2 deg F - d|,
    # which is eta(deg F - d, d) for a framed subobject and eta(-deg F, d) for
    # a kernel one
    from flipchain.stability import CurveContext, FramedModel, FramedType, SubobjectData
    from flipchain.stability import is_fm_semistable, is_fm_stable

    for d in (-5, -6, -9):
        cd = build_chambers(d, 2)
        for deg, fr in ((d + 1, True), (0, True), ((d - 1) // 2, False), (d + 1, False)):
            sigma = 2 * deg - d if fr else d - 2 * deg
            if sigma <= 0:
                continue
            i = deg - d if fr else -deg
            assert sigma == eta(i, d)
            m = FramedModel(
                CurveContext(2),
                FramedType(2, d, True),
                (SubobjectData("F", 1, deg, fr),),
            )
            s = Fraction(sigma)
            if sigma <= -d:
                assert is_fm_semistable(m, s) and not is_fm_stable(m, s)
            if sigma <= -d - 2:
                assert sigma in cd.walls


def test_rank_sum_and_codim_sweep():
    for g in (2, 3, 4, 5):
        for d in range(-15, -2):
            lo, hi = fm_index_range(d)
            for i in range(lo, hi):
                fl = flip_locus(i, d, g)
                assert fl.rank_minus > 0 and fl.rank_plus > 0
                assert fl.rank_minus + fl.rank_plus == g + i
                if i < -d - 2:
                    assert fl.codim_minus >= 2 and fl.codim_plus >= 2
                else:
                    assert fl.codim_minus == 1
                    assert fl.dim_p_minus == -d + 2 * g - 3


# -- the structure invariant table ------------------------------------------------


def test_structure_holds_on_a_grid():
    for g in (2, 3, 4):
        for d in range(-20, 0):
            assert chambers.structure_failures(d, g) == []


#: One doctoring of the flip locus at (i, d=-6, g=2) per flip invariant; i = 4
#: is the terminal flip and i = 3 an interior one.
FLIP_DOCTORS = {
    "flip rank sum": (3, lambda fl: fl._replace(rank_plus=fl.rank_plus + 1)),
    "interior codimension >= 2": (3, lambda fl: fl._replace(codim_plus=1)),
    "terminal codimension": (4, lambda fl: fl._replace(codim_minus=2)),
    "terminal dimension": (4, lambda fl: fl._replace(dim_p_minus=fl.dim_p_minus + 1)),
}


def test_every_flip_invariant_is_doctored():
    assert [name for name, _ in chambers.FLIP_INVARIANTS] == list(FLIP_DOCTORS)


@pytest.mark.parametrize("name", FLIP_DOCTORS)
def test_doctored_flip_locus_names_its_invariant(monkeypatch, name):
    i, doctor = FLIP_DOCTORS[name]
    real = chambers._flip_row  # what build_chambers fills its flip loci from
    monkeypatch.setattr(chambers, "_flip_row", lambda j, *rest: doctor(real(j, *rest)) if j == i else real(j, *rest))
    assert chambers.structure_failures(-6, 2) == [f"{name} fails at (i={i}, d=-6, g=2)"]


def _doctor_flip_row(name):
    """A doctoring of the flip rows _flip_row returns, by FLIP_DOCTORS[name]."""
    i, doctor = FLIP_DOCTORS[name]
    return lambda fl: doctor(fl) if fl.i == i else fl


def _doctor_walls(*walls):
    """A doctoring of chamber_bounds that keeps its two ends around the given walls."""
    return lambda bounds: (bounds[0], *walls, bounds[-1])


@pytest.mark.parametrize(
    "d, target, doctor, failure",
    [
        (-6, "chamber_bounds", _doctor_walls(4), "wall endpoints fail at (d=-6, g=2): (4,)"),
        (-5, "chamber_bounds", _doctor_walls(2, 3), "wall endpoints fail at (d=-5, g=2): (2, 3)"),
        (-2, "chamber_bounds", _doctor_walls(1), "wall endpoints fail at (d=-2, g=2): (1,)"),
        # structure_failures checks the flip rows the chamber data is built from
        (-6, "_flip_row", _doctor_flip_row("flip rank sum"), "flip rank sum fails at (i=3, d=-6, g=2)"),
    ],
)
def test_doctored_chamber_data_names_its_invariant(monkeypatch, d, target, doctor, failure):
    real = getattr(chambers, target)
    monkeypatch.setattr(chambers, target, lambda *args: doctor(real(*args)))
    assert chambers.structure_failures(d, 2) == [failure]
