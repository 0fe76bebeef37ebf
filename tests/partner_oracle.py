"""Slow oracles for the binomial scan's three checks: the degree-2 colon
identity read off a section ring, and the partner split and its support
check computed with `HomogPoly` products and `in_monomial_ideal`.

`ezd.colon_identity_dims`, `lab.decompose_partner` and
`lab.check_split_support` compute the same results from integer
coefficient vectors and J's exponent sets, with no ring built; the tests
compare the two on every trial of the n=3 family and a sample at n=4.
"""

from fractions import Fraction
from operator import add

from ezdlab.ezd import annihilator_degree
from ezdlab.gradedring import GradedQuotient, build_quotient
from ezdlab.lab import PartnerSplit
from ezdlab.polyring import (
    HomogPoly,
    IdealSpec,
    Monomial,
    divides,
    format_poly,
    linear_form,
    make_ideal,
    monomial_ideal,
    monomials_of_degree,
)
from support_oracle import in_monomial_ideal


def colon_identity_dims(ring: GradedQuotient, ell: HomogPoly) -> tuple[int, int]:
    """Both sides of dim (P/(I+(l)))_2 = dim R_2 - rank(l : R_1 -> R_2).

    The left side is computed directly from the extended ideal, the right
    side from the multiplication map; the two short exact sequences behind
    the identity make them agree for any linear form.
    """
    extended = make_ideal(ring.nvars, list(ring.spec.generators) + [ell])
    section = build_quotient(extended, 2)
    lhs = section.dim(2)
    rhs = ring.dim(2) - ring.map_rank(ell, 1)
    return lhs, rhs


def _drop_monomials(p: HomogPoly, gens: tuple[Monomial, ...]) -> HomogPoly:
    return HomogPoly(
        p.nvars, p.degree,
        [(m, c) for m, c in p.coeffs.items() if not in_monomial_ideal(m, gens)],
    )


def decompose_partner(spec: IdealSpec, ell: HomogPoly, q: HomogPoly) -> PartnerSplit | None:
    """Split a verified degree-1 partner across the two monomial halves.

    With ell*q = alpha*(f1 + f2) modulo J, solves ell*q1 in J + (f1) over
    linear forms, rescales a solution so that ell*q1 = alpha*f1 modulo J,
    and sets q2 = q - q1. Returns None only if no split exists, which would
    contradict the theory and is treated as a red flag by the scans.
    """
    j_monos, f1, f2 = spec.binomial_parts()
    if q.degree != 1:
        raise ValueError("partner must be a linear form")
    remainder = _drop_monomials(ell * q, j_monos)
    alpha = remainder.coefficient(f1)
    if remainder != HomogPoly(spec.nvars, 2, [(f1, alpha), (f2, alpha)]):
        raise ValueError("precondition failed: ell*q is not in the ideal")
    half1 = monomial_ideal(spec.nvars, j_monos + (f1,))
    ring1 = build_quotient(half1, 2)
    solutions = annihilator_degree(ring1, ell, 1)
    # No linear generators, so degree-1 coordinates are variable coefficients.
    for vec in solutions.basis:
        cand = linear_form(vec)
        a1 = _drop_monomials(ell * cand, j_monos).coefficient(f1)
        if a1:
            q1 = Fraction(alpha, a1) * cand
            q2 = q - q1
            tail = _drop_monomials(ell * q2, j_monos)
            if tail != HomogPoly(spec.nvars, 2, [(f2, alpha)]):
                return None
            return PartnerSplit(q1, q2, alpha)
    if alpha == 0:
        # ell*q already lies in J, so q itself works against either half.
        return PartnerSplit(q, HomogPoly.zero(spec.nvars, 1), alpha)
    return None


def check_split_support(
    spec: IdealSpec, ell: HomogPoly, q1: HomogPoly, q2: HomogPoly
) -> list[tuple[str, Monomial, Monomial]]:
    """Support facts for a partner split, checked by brute force.

    For every variable u in the support of q1 that does not divide f1 and
    every degree-2 monomial M other than f1, u*M must lie in J; same for
    q2 against f2. Violations are returned and expected absent.
    """
    j_monos, f1, f2 = spec.binomial_parts()
    n = spec.nvars
    for qq, f, label in ((q1, f1, "q1"), (q2, f2, "q2")):
        tail = _drop_monomials(ell * qq, j_monos)
        if any(m != f for m in tail.support()):
            raise ValueError(f"precondition failed: ell*{label} is not in J + ({format_poly(HomogPoly.from_monomial(f))})")
    violations = []
    vars_ = monomials_of_degree(n, 1)
    for part, qq, f in (("a", q1, f1), ("b", q2, f2)):
        for u in vars_:
            if not qq.coefficient(u) or divides(u, f):
                continue
            for big in monomials_of_degree(n, 2):
                if big == f:
                    continue
                if not in_monomial_ideal(tuple(map(add, u, big)), j_monos):
                    violations.append((part, u, big))
    return violations
