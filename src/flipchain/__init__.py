"""Exact wall-and-chamber structure, slope stability and Poincare
polynomials for the chain of rank-2 framed moduli flips."""

from .exactpoly import (
    LaurentPoly,
    ConsistencyFailure,
    NotDivisible,
    lp_div_one_minus_t_pow,
)
from .chambers import (
    Chamber,
    ChamberData,
    ChamberLocation,
    FlipLocusData,
    InvalidInput,
    build_chambers,
    chamber_of,
    eta,
    flip_locus,
    fm_index_range,
    moduli_dim,
)
from .stability import (
    AmbiguousModel,
    AxiomViolated,
    CurveContext,
    EquivalenceReport,
    FramedModel,
    FramedType,
    HNFiltration,
    SplitDescriptor,
    SubobjectData,
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
    reduced_framed_slope,
    sigma_max,
    sigma_upper_bound,
    verify_rank2_equivalences,
)
from .betti import (
    BettiReport,
    blowup_consistency,
    build_betti_report,
    flip_difference,
    fm_poincare_closed,
    fm_poincare_recursive,
    mcon_poincare,
    sym_product_poincare,
    terminal_poincare,
    u2d_from_bundle,
    u2d_poincare,
)

__version__ = "0.1.0"
