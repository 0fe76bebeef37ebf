"""The exact partner of a form found by ranks alone, with no Hilbert series
test: an oracle for the tests, which the package itself never needs."""

from ezdlab.exactmat import kernel_basis, rank
from ezdlab.ezd import PairVerdict, is_ezd_pair, mult_map


def find_ezd_complement_by_ranks(ring, ell):
    """`find_ezd_complement` without its series test: the least degree t
    where Ann(ell) is nonzero must be one-dimensional, and its canonical
    generator must pass the full pair check."""
    top = ring.top_degree
    if ell.is_zero():
        return None
    for t in range(top + 1):
        m = mult_map(ring, ell, t)
        rows = [m.row(i) for i in range(m.rows)]
        nullity = m.cols - rank(rows)
        if nullity == 0:
            continue
        if nullity >= 2:
            return None
        q = ring.basis_poly(t, kernel_basis(m.cols, rows).basis[0])
        report = is_ezd_pair(ring, ell, q)
        if report.verdict is PairVerdict.EXACT_PAIR:
            return q, report
        return None
    return None
