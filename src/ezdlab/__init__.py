"""Exact-arithmetic toolkit for standard graded algebras R = P/I.

Computes Hilbert functions, detects exact zero divisor pairs involving
general linear forms, and runs exhaustive scans over small ideal families
that verify the expected Hilbert-function behavior.
"""

from .exactmat import QMatrix, Rational, Subspace, kernel_basis, rank, rref, subspace_equal
from .polyring import (
    HomogPoly,
    IdealKind,
    IdealSpec,
    Monomial,
    NonHomogeneousError,
    ParseError,
    format_ideal,
    format_monomial,
    format_poly,
    in_monomial_ideal,
    linear_form,
    make_ideal,
    minimalize_monomial_gens,
    monomial_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
    variable,
)
from .gradedring import (
    GradedQuotient,
    HilbertFn,
    build_quotient,
    default_bound,
    is_artinian_within,
)
from .ezd import (
    DegreeRow,
    EzdReport,
    GenericDecision,
    GenericVerdict,
    PairVerdict,
    WlpReport,
    YoshinoReport,
    annihilator_degree,
    colon_identity_dims,
    degree2_generator_count,
    find_ezd_complement,
    generic_ezd_decision,
    generic_linear_form,
    is_ezd_pair,
    is_gorenstein,
    mult_map,
    principal_ideal_degree,
    socle_dims,
    wlp_check,
    yoshino_conditions,
)
from .lab import (
    BinomialInstance,
    MonomialInstance,
    PartnerSplit,
    ProbeReport,
    ScanConfig,
    ScanReport,
    check_split_support,
    check_support_multiples,
    decompose_partner,
    enumerate_monomial_ideals,
    generic_form_probe,
    power_ideal_example,
    scan_binomial,
    scan_monomial,
)

__version__ = "0.1.0"
