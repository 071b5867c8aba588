"""Exact-arithmetic toolkit for GT-systems, GT-varieties and their semigroups."""

from .actions import (
    CyclicAction,
    ExponentVector,
    count_invariants,
    degree,
    egz_factor,
    format_monomial,
    invariant_monomials,
    is_invariant,
    mu_d,
)
from .exactalg import (
    InternalDiscrepancy,
    binomial,
    integer_rank,
)
from .hilbert import (
    HilbertData,
    SurfaceProfile,
    catalog_notes,
    catalog_theta,
    hf_by_counting,
    hf_closed_form,
    hf_reduced,
    hilbert_series,
    surface_profile,
)
from .resolution import (
    BettiTable,
    GeneratorCounts,
    RationalSeries,
    betti_table,
    generator_counts,
    series_from_betti,
)
from .semigroups import (
    AffineSemigroup,
    Membership,
    NormalityReport,
    TrungReport,
    UnsupportedSemigroupError,
    is_normal_up_to,
    lemma_two_zero_check,
    make_h3t,
    make_hk,
    member,
    semigroup_of_action,
    trung_cm_check,
)
from .togliatti import (
    GtClassification,
    WlpCheck,
    classify,
    generator_bound,
    wlp_fails_in_degree,
)
from .toricideal import (
    BinomialGeneratorSet,
    FiberPartition,
    fiber_partition,
    ideal_dimension,
    minimal_generators,
)

__version__ = "0.1.0"
