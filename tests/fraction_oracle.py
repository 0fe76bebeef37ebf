"""Gauss-Jordan over Fractions with normalized pivots: the rref oracle for
the tests, sharing no elimination code with the package."""

from fractions import Fraction

from ezdlab.exactmat import QMatrix


def fraction_rref(m):
    """(reduced row echelon form, pivot columns) of the QMatrix `m`, by
    textbook Gauss-Jordan over Fractions."""
    a = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        p = None
        for i in range(r, m.rows):
            if a[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        pv = a[r][c]
        if pv != 1:
            inv = Fraction(1) / pv
            a[r] = [x * inv for x in a[r]]
        row_r = a[r]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], row_r)]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    flat = [x for row in a for x in row]
    return QMatrix(m.rows, m.cols, flat), tuple(pivots)
