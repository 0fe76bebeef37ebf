"""Exact linear algebra over the rationals.

Every stored rational has the one form `exact` gives it: an `int` when it
is integral, otherwise a `fractions.Fraction`. Matrix entries may mix the
two, so ranks, kernels and echelon forms are computed exactly.
Matrices in this package are small and dense (at most a few thousand
cells). Both eliminations run on integers: a row holding a Fraction is
first scaled by the lcm of its denominators, and an int row is used as it
is; the multiplication maps that `ezd` ranks arrive as int matrices. Both
start with the same fraction-free forward pass, in the manner of Bareiss
(1968), which clears below each pivot and keeps every row primitive by
dividing out the gcd of its entries. The rows below a pivot are zero left
of its column, so that pass combines only their tails from the pivot
column on. `rank` needs only the
pivot count, so it stops there: no elimination above the pivots, no
division by them and no Fraction matrix. `rref` keeps the pivot rows
alone, back-substitutes over them from the last pivot upward with the same
step, and only at the end divides each pivot row by its pivot; at full
column rank the reduced rows are the unit rows and neither step runs. The
result is the *unique* reduced row echelon form over the rationals, in the
form of `exact`. Downstream code relies on that uniqueness: two subspaces
are equal exactly when their canonical bases are identical.

`Subspace` is the one echelon-basis type. It keeps the nonzero rows of the
reduced echelon form sparsely, each as its pivot column and the other
nonzero entries, so reducing a vector touches only those entries; graded
quotients read each pivot monomial's normal form off these rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def exact(x) -> int | Fraction:
    """The rational `x` as an `int` when integral, else as a Fraction.

    Only an integer (a bool included) or a Fraction is accepted. A float,
    a string or a Decimal raises TypeError: converting it would store its
    binary value or a parse of its text as if it were the exact number.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"an exact rational must be an int or a Fraction, not {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class QMatrix:
    """Immutable dense matrix of rationals, stored row-major.

    `data` may be given as any iterable of numbers; it is stored as a tuple
    whose `int` and `Fraction` entries are kept as they are and whose other
    entries go through `exact`, so a float or a string raises TypeError;
    sums of products are not normalised. An int
    equals and hashes like the Fraction of the same value, so a matrix of
    ints equals its Fraction twin.
    """

    rows: int
    cols: int
    data: tuple[Fraction | int, ...]

    def __post_init__(self) -> None:
        data = tuple(self.data)
        if not set(map(type, data)) <= {int, Fraction}:
            data = tuple(x if type(x) in (int, Fraction) else exact(x) for x in data)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(data) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(data)}")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = [x for row in rows for x in row]
        return cls(nrows, ncols, flat)

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def entry(self, i: int, j: int) -> Fraction | int:
        return self.data[i * self.cols + j]

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def _integer_rows(m: QMatrix) -> list[list[int]]:
    """The rows of `m` as int lists; a row holding a Fraction is scaled by
    the lcm of its denominators, which keeps its span and zero pattern."""
    data, n = m.data, m.cols
    rows = [list(data[i * n : (i + 1) * n]) for i in range(m.rows)]
    if Fraction in set(map(type, data)):
        for i, row in enumerate(rows):
            if Fraction in set(map(type, row)):
                scale = lcm(*(x.denominator for x in row))
                rows[i] = [x.numerator * (scale // x.denominator) for x in row]
    return rows


def _eliminate(a: list[list[int]], ncols: int) -> list[int]:
    """Forward fraction-free elimination of the integer rows `a` in place; the pivot columns.

    Only the rows below each pivot are cleared (`_clear`), which leaves a
    row echelon form with the pivot rows first and zero rows after them.
    The rows from pivot row r on are zero left of its column c, so only
    their tails from column c are combined.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        p = None
        for i in range(r, len(a)):
            if a[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        _clear(a, r, c, range(r + 1, len(a)), c)
        pivots.append(c)
        r += 1
    return pivots


def _clear(a: list[list[int]], r: int, c: int, rows: range, lead: int = 0) -> None:
    """Clear column c of each of `rows` against the pivot a[r][c], in place.

    Row i becomes p*row_i - f*row_r, where p is the pivot and f the row's
    entry, divided by the gcd of its entries. Every step scales rows by
    nonzero factors or adds multiples of other rows, so the row space, the
    zero pattern and the pivots are those of the rational elimination.
    Row r and every row of `rows` must be zero left of column `lead`: only
    the tails from `lead` on are combined, and the zeros before it are kept.
    """
    tail_r = a[r][lead:]
    pv = a[r][c]
    zeros = a[r][:lead]
    for i in rows:
        row = a[i]
        f = row[c]
        if f:
            g = gcd(pv, f)
            s, t = pv // g, f // g
            tail = [s * x - t * y for x, y in zip(row[lead:], tail_r)]
            g = gcd(*tail)
            a[i] = zeros + ([x // g for x in tail] if g > 1 else tail)


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form of `m` and its pivot column indices.

    The result is the canonical rref in the form of `exact`: pivot entries
    are 1 with zeros above and below, so row-equivalent matrices produce
    equal output. The forward pass of `_eliminate` finds the pivot rows,
    back-substitution clears above their pivots, and each pivot row is
    divided by its pivot at the end. At full column rank the reduced rows
    are the unit rows, so neither of the last two steps runs.
    """
    a = _integer_rows(m)
    pivots = _eliminate(a, m.cols)
    r = len(pivots)
    if r == m.cols:
        flat = [int(i == j) for i in range(r) for j in range(r)]
    else:
        del a[r:]
        # from the last pivot upward: a pivot row has lost its entries in
        # every later pivot column by the time it clears the rows above it
        for k in range(r - 1, 0, -1):
            _clear(a, k, pivots[k], range(k))
        flat = []
        for row, p in zip(a, pivots):
            pv = row[p]
            flat.extend(x // pv if x % pv == 0 else Fraction(x, pv) for x in row)
    flat.extend([0] * ((m.rows - r) * m.cols))
    return QMatrix(m.rows, m.cols, flat), tuple(pivots)


def rank(m: QMatrix) -> int:
    """Number of pivots of rref(m); 0 for a matrix with no rows or no columns.

    It is the forward pass of `rref` alone: nothing above a pivot is
    cleared, nothing is divided and no Fraction is built.
    """
    if not (m.rows and m.cols):
        return 0
    return len(_eliminate([row for row in _integer_rows(m) if any(row)], m.cols))


EchelonRow = tuple[int, tuple[tuple[int, int | Fraction], ...]]  # pivot column, other nonzeros


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim in canonical (rref) form.

    `rows` holds the nonzero rows of the reduced echelon form of any
    spanning set, in pivot order, each as `(pivot, ((col, coeff), ...))`:
    the pivot entry is 1 and the pairs list the other nonzero entries by
    column. Equal subspaces therefore compare equal as values.
    """

    ambient_dim: int
    rows: tuple[EchelonRow, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        vecs = [v for v in vecs if any(v)]
        if not vecs:
            return cls(ambient_dim, ())
        red, pivots = rref(QMatrix.from_rows(vecs))
        rows = []
        for i, p in enumerate(pivots):
            row = red.row(i)
            rows.append((p, tuple((j, x) for j, x in enumerate(row) if x and j != p)))
        return cls(ambient_dim, tuple(rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The canonical basis as dense coordinate vectors."""
        dense = []
        for pivot, rest in self.rows:
            v = [0] * self.ambient_dim
            v[pivot] = 1
            for j, c in rest:
                v[j] = c
            dense.append(tuple(v))
        return tuple(dense)


def kernel_basis(m: QMatrix) -> Subspace:
    """Canonical basis of the right null space {v : m v = 0}."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vecs = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -red.entry(i, f)
        vecs.append(v)
    return Subspace.from_vectors(m.cols, vecs)


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Whether two canonical subspaces coincide; ambient dims must match."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return a.rows == b.rows
