"""Exact-arithmetic toolkit for standard graded algebras R = P/I.

Computes Hilbert functions, detects exact zero divisor pairs involving
general linear forms, and runs exhaustive scans over small ideal families
that verify the expected Hilbert-function behavior.

The package root re-exports the names the demos and the benchmark use;
everything else is imported from its module (`ezdlab.exactmat`,
`ezdlab.polyring`, `ezdlab.gradedring`, `ezdlab.ezd`, `ezdlab.lab`).
"""

from .polyring import (
    HomogPoly,
    Monomial,
    format_ideal,
    format_monomial,
    format_poly,
    make_ideal,
    monomial_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
)
from .gradedring import build_quotient, default_bound
from .ezd import (
    degree2_generator_count,
    find_ezd_complement,
    generic_ezd_decision,
    generic_linear_form,
    is_ezd_pair,
    is_gorenstein,
    socle_dims,
    wlp_check,
    yoshino_conditions,
)
from .lab import (
    ScanConfig,
    decompose_partner,
    power_ideal_example,
    scan_binomial,
    scan_monomial,
)

__version__ = "0.1.0"
