"""Exact linear algebra over the rationals.

Every stored rational has the one form `exact` gives it: an `int` when it
is integral, otherwise a `fractions.Fraction`. Matrices in this package are
small and dense (at most a few thousand cells). Every elimination runs on
integers: a row holding a Fraction is first scaled by the lcm of its
denominators; the multiplication maps that `ezd` ranks arrive as int
rows. Each starts with one fraction-free forward pass, in the manner of
Bareiss (1968), which reads the rows in turn and clears each against the
pivot rows before it, combining only the rows' tails from the pivot column
on, and keeps every row primitive by dividing out the gcd of its entries.
It reads no row after those that span the whole space. `rank` ends with
that pass. `_echelon_rows` goes on to
back-substitute and gives each row a positive pivot: the row of the unique
reduced row echelon form over the rationals times the lcm of its
denominators. `Subspace`, the one echelon-basis type, stores these integer
rows sparsely, so two subspaces are equal exactly when their rows are;
graded quotients and kernels read them as they are. Its one constructor,
`Subspace.from_vectors`, is the only caller of `_echelon_rows`. Only the
public boundary divides by the pivots: `rref`, `Subspace.basis` and `ratio`.
Inside the package a matrix is a list of rows; `QMatrix`, the immutable
rational matrix, is only what `rref` reads and returns and what the public
`ezd.mult_map` returns.
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

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def _integer_row(row: Sequence) -> list[int]:
    """`row` as an int list: a row of any other entries goes through `exact`
    (a float raises TypeError) and is scaled by the lcm of its denominators."""
    if set(map(type, row)) <= {int}:
        return list(row)
    row = [exact(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def ratio(a: int, b: int) -> int | Fraction:
    """a / b for ints, b != 0, in the form of `exact`: no Fraction when b divides a."""
    return a // b if a % b == 0 else Fraction(a, b)


def _eliminate(a: list[list[int]], ncols: int) -> list[int]:
    """Forward fraction-free elimination of the integer rows `a` in place; the pivot columns.

    The rows are read in turn, and each is cleared (`_clear`), left to
    right, at every column where it has an entry and a pivot row exists,
    until it reaches a nonzero column with none: it becomes that column's
    pivot row. A row cleared to zero is in the span of the rows before it.
    The row and the pivot row are zero left of the column cleared, so only
    their tails are combined. Once every column has a pivot row the rows
    read span the whole space, and no later row is read. On return the
    pivot rows come first in `a`, in the order of their columns.
    """
    pivot_rows: dict[int, list[int]] = {}  # pivot column -> its row
    for row in a:
        for c in range(ncols):
            if row[c]:
                pivot = pivot_rows.get(c)
                if pivot is None:
                    pivot_rows[c] = row
                    break
                row = _clear(row, c, pivot, c)
        if len(pivot_rows) == ncols:
            break
    pivots = sorted(pivot_rows)
    a[: len(pivots)] = map(pivot_rows.get, pivots)
    return pivots


def _clear(row: list[int], c: int, pivot: list[int], lead: int = 0) -> list[int]:
    """`row` with column c cleared against `pivot`, as a new list.

    With p the pivot's entry in column c and f the row's, the row becomes
    p*row - f*pivot, divided by the gcd of its entries. Every step scales a
    row by a nonzero factor or adds a multiple of another row, so the row
    space, the zero pattern and the pivots are those of the rational
    elimination. Both rows must be zero left of column `lead`: only the
    tails from `lead` on are combined, and the zeros before it are kept.
    """
    f = row[c]
    if not f:
        return row
    pv = pivot[c]
    g = gcd(pv, f)
    s, t = pv // g, f // g
    tail = [s * x - t * y for x, y in zip(row[lead:], pivot[lead:])]
    g = gcd(*tail)
    return row[:lead] + ([x // g for x in tail] if g > 1 else tail)


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form of `m` and its pivot column indices.

    The result is the canonical rref in the form of `exact`: pivot entries
    are 1 with zeros above and below, so row-equivalent matrices produce
    equal output. Its nonzero rows are the `basis` of the row space's
    `Subspace`, followed by zero rows.
    """
    sub = Subspace.from_vectors(m.cols, map(m.row, range(m.rows)))
    flat = [x for v in sub.basis for x in v] + [0] * ((m.rows - sub.dim) * m.cols)
    return QMatrix(m.rows, m.cols, flat), tuple(p for p, _ in sub.rows)


def rank(rows: Iterable[Sequence]) -> int:
    """The rank of the matrix with these rows, 0 with no rows or no columns;
    a row of another length than the first raises ValueError.

    Each row is copied as an int row (`_integer_row`), so the caller's rows
    are left as they are. It is the forward pass of `rref` alone: nothing
    above a pivot is cleared, nothing is divided and no Fraction is built.
    """
    a = [_integer_row(row) for row in rows]
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("rows differ in length")
    return len(_eliminate([row for row in a if any(row)], ncols))


EchelonRow = tuple[int, tuple[tuple[int, int], ...]]  # pivot column, the row's nonzero entries


def _echelon_rows(a: list[list[int]], ncols: int) -> tuple[EchelonRow, ...]:
    """The canonical `Subspace` rows of the span of the integer rows `a`,
    which it reduces in place.

    After the forward pass of `_eliminate`, back-substitution clears above
    each pivot, from the last pivot upward: a pivot row has lost its entries
    in every later pivot column by the time it clears the rows above it.
    Each row is then made primitive with a positive pivot, which is the
    reduced rational row times the lcm of its denominators. At full column
    rank these are the unit rows, and neither step runs.
    """
    pivots = _eliminate(a, ncols)
    if len(pivots) == ncols:
        return tuple((p, ((p, 1),)) for p in pivots)
    for k in range(len(pivots) - 1, 0, -1):
        for i in range(k):
            a[i] = _clear(a[i], pivots[k], a[k])
    rows = []
    for row, p in zip(a, pivots):
        g = gcd(*row) if row[p] > 0 else -gcd(*row)
        rows.append((p, tuple((j, x // g) for j, x in enumerate(row) if x)))
    return tuple(rows)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim in canonical form.

    `rows` holds one row per basis vector, in pivot order, each as
    `(pivot, ((col, entry), ...))`: the pivot column and the row's nonzero
    int entries, the pivot's first. Each is the reduced echelon row times
    the lcm of its denominators, primitive with a positive pivot, so equal
    subspaces compare equal as values. `basis` divides by the pivots.
    Build one only with `from_vectors`, which puts its rows in this form.
    """

    ambient_dim: int
    rows: tuple[EchelonRow, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of `vectors` in Q^ambient_dim; no vectors give the zero subspace.

        This is the one way to build a Subspace. Each vector is copied as
        an int row (`_integer_row`: a float raises TypeError), so the
        caller's sequences are left as they are, and a vector whose length
        is not `ambient_dim` raises ValueError.
        """
        a = [_integer_row(v) for v in vectors]
        if any(len(v) != ambient_dim for v in a):
            raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, _echelon_rows(a, ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The reduced echelon basis as dense vectors in the form of `exact`."""
        dense = []
        for _, row in self.rows:
            entries = {j: ratio(x, row[0][1]) for j, x in row}
            dense.append(tuple(entries.get(j, 0) for j in range(self.ambient_dim)))
        return tuple(dense)


def kernel_basis(ncols: int, rows: Iterable[Sequence]) -> Subspace:
    """Canonical basis of {v in Q^ncols : row . v = 0 for every row}, all
    of Q^ncols with no rows. The rows are read by `Subspace.from_vectors`.

    A reduced row with pivot entry p_i at column c_i and entry a at a free
    column f puts -a*L/p_i at c_i in the kernel vector with L at f, for L
    the lcm of the p_i; these vectors, one per free column, span the kernel.
    """
    echelon = Subspace.from_vectors(ncols, rows).rows
    scale = lcm(*(row[0][1] for _, row in echelon))
    pivots = {p for p, _ in echelon}
    vecs = {f: [scale if j == f else 0 for j in range(ncols)] for f in range(ncols) if f not in pivots}
    for p, ((_, pv), *rest) in echelon:
        for f, a in rest:
            vecs[f][p] = -a * (scale // pv)
    return Subspace.from_vectors(ncols, vecs.values())


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Whether two canonical subspaces coincide; ambient dims must match."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return a.rows == b.rows
