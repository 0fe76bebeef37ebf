"""The three shapes of an ideal the paper proves its conjecture on, as a
plain rule over the generators: an oracle for the tests. The package keeps
no shape; it reads `IdealSpec.others` and `IdealSpec.binomial_parts`."""

MONOMIAL, ONE_BINOMIAL, GENERAL = "monomial", "one binomial", "general"
SHAPES = (MONOMIAL, ONE_BINOMIAL, GENERAL)


def ideal_shape(generators) -> str:
    """MONOMIAL when no nonzero generator has two or more terms; ONE_BINOMIAL
    when exactly one has, it has exactly two with equal coefficients, and
    every nonzero generator has degree 2; GENERAL otherwise. Zero
    polynomials generate nothing and are skipped."""
    gens = [g for g in generators if g.coeffs]
    multi = [g for g in gens if len(g.coeffs) >= 2]
    if not multi:
        return MONOMIAL
    coeffs = list(multi[0].coeffs.values()) if len(multi) == 1 else []
    if len(coeffs) == 2 and coeffs[0] == coeffs[1] and all(g.degree == 2 for g in gens):
        return ONE_BINOMIAL
    return GENERAL
