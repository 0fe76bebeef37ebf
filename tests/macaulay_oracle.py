"""Graded quotients by from-scratch Macaulay elimination: an oracle for the
tests, which the package itself never needs.

Each degree d is eliminated on its own, with nothing read from degree d-1:
one row per product m*g of a generator g and a monomial m of degree
d - deg g, over every degree-d monomial, single-term generators included.
The elimination is `fraction_rref`'s Gauss-Jordan over Fractions, so the
oracle shares no elimination code with the build. The non-pivot columns of
the reduced echelon form are the quotient basis, and a pivot monomial's
normal form is minus the rest of its row. The table holds each normal form
times the lcm D of the rows' denominators, so a basis monomial's entry is D.
"""

from math import lcm
from operator import add

from ezdlab.exactmat import QMatrix
from ezdlab.gradedring import GradedQuotient, _DegreeComponent
from ezdlab.polyring import monomials_of_degree
from fraction_oracle import fraction_rref


def macaulay_component(spec, degree):
    """(basis, normal-form table, denominator) of R_degree, in the form
    `gradedring` stores them."""
    monos = monomials_of_degree(spec.nvars, degree)
    col = {m: k for k, m in enumerate(monos)}
    vectors = []
    for g in spec.generators:
        if g.degree <= degree:
            for m in monomials_of_degree(spec.nvars, degree - g.degree):
                v = [0] * len(monos)
                for gm, c in g.coeffs.items():
                    v[col[tuple(map(add, m, gm))]] = c
                vectors.append(v)
    red, pivots = fraction_rref(QMatrix(len(vectors), len(monos), [x for v in vectors for x in v]))
    free = [k for k in range(len(monos)) if k not in pivots]
    coord = {k: q for q, k in enumerate(free)}  # column -> quotient coordinate
    rows = [red.row(i) for i in range(len(pivots))]
    den = lcm(*(x.denominator for row in rows for x in row))
    normal_forms = dict.fromkeys(monos, ())
    for p, row in zip(pivots, rows):
        normal_forms[monos[p]] = tuple((coord[j], -x.numerator * (den // x.denominator)) for j, x in enumerate(row) if x and j != p)
    for q, k in enumerate(free):
        normal_forms[monos[k]] = ((q, den),)
    return tuple(monos[k] for k in free), normal_forms, den


def macaulay_components(spec, bound):
    """`macaulay_component` for every degree 0..bound."""
    return [macaulay_component(spec, d) for d in range(bound + 1)]


def macaulay_ring(spec, bound):
    """The GradedQuotient of `macaulay_components`, which derives its Hilbert
    function and top degree from them as it does for `build_quotient`."""
    components = tuple(_DegreeComponent(*c) for c in macaulay_components(spec, bound))
    return GradedQuotient(spec, bound, components)
