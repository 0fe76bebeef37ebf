"""Brute-force support oracle for kernel elements of monomial quotients,
shared by the lab tests and the acceptance gate."""

from ezdlab.gradedring import GradedQuotient
from ezdlab.polyring import (
    HomogPoly,
    Monomial,
    divides,
    minimalize_monomial_gens,
    monomials_of_degree,
)


def in_monomial_ideal(m: Monomial, gens) -> bool:
    """Membership in a monomial ideal: some generator divides `m`."""
    return any(divides(g, m) for g in gens)


def check_support_multiples(ring: GradedQuotient, ell: HomogPoly, q: HomogPoly) -> list[tuple[Monomial, Monomial]]:
    """Requires ell*q = 0 in the ring. Every monomial in the support of q,
    multiplied up to degree 2*deg(q)+1, must land in the ideal; offending
    (support monomial, multiple) pairs are returned and expected absent.
    """
    if ring.spec.others:
        raise ValueError("oracle applies to monomial ideals")
    if any(ring.normal_form(ell * q)):
        raise ValueError("precondition failed: ell*q is nonzero in the ring")
    t = q.degree
    gens = minimalize_monomial_gens(next(iter(g.coeffs)) for g in ring.spec.generators)
    support = [
        m for m, c in zip(ring.basis_monomials(t), ring.normal_form(q)) if c
    ]
    violations = []
    for mu in support:
        for big in monomials_of_degree(ring.nvars, 2 * t + 1):
            if divides(mu, big) and not in_monomial_ideal(big, gens):
                violations.append((mu, big))
    return violations
