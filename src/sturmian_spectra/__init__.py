"""Exact repetition thresholds of Sturmian words.

Sturmian words are the codings of irrational circle rotations by a
two-interval partition.  This package computes, in exact quadratic-field
arithmetic throughout:

* continued fractions of quadratic irrationals: parsing, canonical form,
  convergents, Lagrange constants, equivalence (`cf`);
* the rotation-orbit interval geometry behind the codings, including the
  level-n families and the coarser families that classify factors up to
  k-abelian equivalence (`geometry`);
* the words themselves: prefixes, complete factor sets, occurrences, and
  a ternary morphic companion word (`words`);
* k-abelian equivalence, signatures and factor classification
  (`kabelian`);
* maximal k-abelian power exponents, critical exponents, spectra
  sampling, and a stagewise slope construction hitting rational targets
  (`spectra`);
* a deterministic command-line interface (`cli`).
"""

from .cf import (
    CFSyntaxError,
    ContinuedFraction,
    Convergent,
)
from .geometry import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    EndpointConvention,
    Interval,
    IntervalFamily,
    ikm_intervals,
    level_intervals,
)
from .kabelian import (
    FactorClass,
    KAbelianSignature,
    TernaryReport,
    classify_brute,
    classify_by_intervals,
    kab_equivalent,
    kab_equivalent_counts,
    prefix_suffix_sufficient,
    signature,
    verify_ternary_property,
)
from .quadreal import MixedRadicandError, QuadReal, dist_to_int, sqrt
from .spectra import (
    DEFAULT_ORACLE_CAP,
    BoundReport,
    ExponentRecord,
    LimsupEstimate,
    LinftyReport,
    LinftyStage,
    ResourceCapExceeded,
    SpectrumPoint,
    brute_kab_exponent,
    construct_linfty_slope,
    exponent_bound_check,
    max_integer_power_exponent,
    max_kab_exponent,
    preperiod_pool,
    sample_spectrum,
    theta_k,
    theta_limsup_estimate,
)
from .words import (
    SturmianSpec,
    factors_of_length,
    is_balanced_pair,
    occurrences,
    sigma_factors_of_length,
    sigma_image,
    sturmian_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "CFSyntaxError",
    "ContinuedFraction",
    "Convergent",
    "LEFT_CLOSED",
    "RIGHT_CLOSED",
    "EndpointConvention",
    "Interval",
    "IntervalFamily",
    "ikm_intervals",
    "level_intervals",
    "FactorClass",
    "KAbelianSignature",
    "TernaryReport",
    "classify_brute",
    "classify_by_intervals",
    "kab_equivalent",
    "kab_equivalent_counts",
    "prefix_suffix_sufficient",
    "signature",
    "verify_ternary_property",
    "MixedRadicandError",
    "QuadReal",
    "dist_to_int",
    "sqrt",
    "DEFAULT_ORACLE_CAP",
    "BoundReport",
    "ExponentRecord",
    "LimsupEstimate",
    "LinftyReport",
    "LinftyStage",
    "ResourceCapExceeded",
    "SpectrumPoint",
    "brute_kab_exponent",
    "construct_linfty_slope",
    "exponent_bound_check",
    "max_integer_power_exponent",
    "max_kab_exponent",
    "preperiod_pool",
    "sample_spectrum",
    "theta_k",
    "theta_limsup_estimate",
    "SturmianSpec",
    "factors_of_length",
    "is_balanced_pair",
    "occurrences",
    "sigma_factors_of_length",
    "sigma_image",
    "sturmian_prefix",
    "__version__",
]
