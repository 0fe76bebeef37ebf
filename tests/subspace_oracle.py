"""Membership in an `exactmat.Subspace` by reduction along its canonical
basis: an oracle for the tests, which the package itself never needs."""

from collections.abc import Sequence
from fractions import Fraction

from ezdlab.exactmat import Subspace


def reduce_vector(sub: Subspace, vector: Sequence) -> tuple:
    """Residue of `vector` after eliminating along the canonical basis.

    The residue is zero in every pivot column, and zero exactly when the
    vector lies in the subspace.
    """
    if len(vector) != sub.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    v = list(vector)
    for pivot, row in sub.rows:
        c = v[pivot]
        if c:
            pv = row[0][1]  # the row over its pivot entry is the reduced echelon row
            for j, x in row:
                v[j] -= Fraction(c * x, pv)
    return tuple(v)


def contains_vector(sub: Subspace, vector: Sequence) -> bool:
    return not any(reduce_vector(sub, vector))


def contains(sub: Subspace, other: Subspace) -> bool:
    if sub.ambient_dim != other.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return all(contains_vector(sub, b) for b in other.basis)
