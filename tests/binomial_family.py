"""The binomial scan's family, enumerated without `lab`: every J + (f1 + f2)
with J a set of degree-2 monomials and f1 < f2 two degree-2 monomials, in
the scan's index order. Each test module applies its own filter."""

from itertools import combinations

from ezdlab.polyring import HomogPoly, make_ideal, monomials_of_degree


def candidates(nvars):
    """(J exponents, f1, f2) of every candidate, in index order: J by the
    bitmask of its monomials, then the pairs f1 < f2."""
    deg2 = monomials_of_degree(nvars, 2)
    return [
        (tuple(e for i, e in enumerate(deg2) if mask >> i & 1), f1, f2)
        for mask in range(1 << len(deg2))
        for f1, f2 in combinations(deg2, 2)
    ]


def spec(nvars, j_exps, f1, f2):
    """The ideal J + (f1 + f2), the monomials of J first."""
    gens = [HomogPoly.from_monomial(e) for e in j_exps]
    gens.append(HomogPoly(nvars, 2, [(f1, 1), (f2, 1)]))
    return make_ideal(nvars, gens)
