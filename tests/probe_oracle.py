"""The sampled "one exact pair implies generic" probe for short rings: an
oracle for the tests, which the package itself never needs. The package
decides the generic question with `ezd.generic_ezd_decision`; this probe
asks it again with more, independently seeded forms."""

from dataclasses import dataclass

from ezdlab.ezd import derived_seed, find_ezd_complement, generic_linear_form
from ezdlab.gradedring import GradedQuotient
from ezdlab.polyring import format_poly


@dataclass(frozen=True)
class ProbeReport:
    """One exact pair implies generic forms are exact: sampled evidence."""

    base_form: str | None
    skipped_reason: str | None
    samples: int
    successes: int


def generic_form_probe(ring: GradedQuotient, samples: int = 20, seed: int = 0) -> ProbeReport:
    """For rings vanishing from degree 3 on: find one exact pair in at most
    `samples` sampled forms, then report how many of `samples` further
    sampled forms are exact (expected all)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if not (ring.complete and ring.top_degree < 3):
        raise ValueError("ring must vanish from degree 3 on")
    for i in range(samples):
        base = generic_linear_form(ring.nvars, derived_seed(seed, i))
        if find_ezd_complement(ring, base) is not None:
            break
    else:
        return ProbeReport(None, f"no exact pair found in {samples} sampled forms", samples, 0)
    successes = 0
    for j in range(samples):
        ell = generic_linear_form(ring.nvars, derived_seed(seed, samples + j))
        if find_ezd_complement(ring, ell) is not None:
            successes += 1
    return ProbeReport(format_poly(base), None, samples, successes)
