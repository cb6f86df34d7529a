"""Differential test of hn_filtration, which works on the model's own
lattice, against the quotient-model construction it replaced
(quotient_hn.py): same steps, same graded pieces and the same
AmbiguousModel message, on seeded random lattices of rank 2 to 5."""

import random
from fractions import Fraction

from quotient_hn import quotient_hn_filtration
from flipchain.stability import AmbiguousModel, CurveContext, FramedModel, FramedType, SubobjectData, hn_filtration


def random_lattice(rng: random.Random) -> FramedModel:
    """Up to seven subobjects of ranks 1..r-1 with few distinct degrees, so
    slopes tie often; each may lie in any later subobject of at least its
    rank (equal ranks included) whose framing flag is at least its own.
    The subobjects come in shuffled order."""
    r = rng.randint(2, 5)
    d = rng.randint(-8, 2)
    framing = rng.random() < 0.8
    specs = sorted((rng.randint(1, r - 1), rng.randint(d - 3, 3), framing and rng.random() < 0.5)
                   for _ in range(rng.randint(0, 7)))
    subs = []
    for k, (rank, deg, fr) in enumerate(specs):
        parents = {f"S{j}" for j in range(k + 1, len(specs)) if (specs[j][2] or not fr) and rng.random() < 0.4}
        subs.append(SubobjectData(f"S{k}", rank, deg, fr, parents=frozenset(parents)))
    rng.shuffle(subs)
    return FramedModel(CurveContext(2), FramedType(r, d, framing), tuple(subs))


def outcome(fn, m, sigma):
    try:
        hn = fn(m, sigma)
    except AmbiguousModel as exc:
        return "ambiguous", str(exc)
    return hn.steps, hn.graded


def test_hn_on_the_lattice_matches_the_quotient_models():
    rng = random.Random(17)
    multi_step = ambiguous = 0
    for _ in range(5000):
        m = random_lattice(rng)
        sigma = Fraction(rng.randint(1, 24), rng.randint(1, 4))
        got = outcome(hn_filtration, m, sigma)
        assert got == outcome(quotient_hn_filtration, m, sigma), (m, sigma)
        multi_step += got[0] != "ambiguous" and len(got[0]) >= 2
        ambiguous += got[0] == "ambiguous"
    assert multi_step >= 400 and ambiguous >= 150, (multi_step, ambiguous)
