"""Exact linear algebra: examples and algebraic invariants."""

import copy
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from ezdlab.exactmat import QMatrix, Subspace, exact, kernel_basis, rank, rref, subspace_equal
from ezdlab.polyring import linear_form, parse_poly
from fraction_oracle import fraction_rref
from one_form import in_one_form
from subspace_oracle import contains, contains_vector, reduce_vector

F = Fraction


def mat(rows):
    return QMatrix(len(rows), len(rows[0]) if rows else 0, [x for row in rows for x in row])


def rows_of(m):
    """The rows of the QMatrix `m`, as `rank` and `kernel_basis` read them."""
    return [m.row(i) for i in range(m.rows)]


def test_rref_identity():
    red, pivots = rref(mat([[1, 0], [0, 1]]))
    assert red == mat([[1, 0], [0, 1]])
    assert pivots == (0, 1)


def test_rref_rank_one():
    red, pivots = rref(mat([[1, 2], [2, 4]]))
    assert red == mat([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_permutation():
    red, pivots = rref(mat([[0, 1], [1, 0]]))
    assert red == mat([[1, 0], [0, 1]])
    assert pivots == (0, 1)


def test_rank_examples():
    assert rank([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 1]]) == 1
    # no rows or no columns
    assert rank([]) == 0
    assert rank([[], [], []]) == 0
    assert rank(iter(())) == 0


def test_kernel_line():
    ker = kernel_basis(2, [[1, 1]])
    assert ker.basis == ((F(1), F(-1)),)


def test_kernel_identity_is_zero():
    ker = kernel_basis(2, [[1, 0], [0, 1]])
    assert ker.dim == 0
    assert ker == Subspace.from_vectors(2, [])


def test_kernel_zero_row_is_everything():
    ker = kernel_basis(3, [[0, 0, 0]])
    assert ker.dim == 3
    assert ker == Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # a map with no rows, such as one into a zero space, kills its whole source
    assert kernel_basis(3, []) == ker


def test_subspace_equal_same_line():
    a = Subspace.from_vectors(2, [[1, -1]])
    b = Subspace.from_vectors(2, [[2, -2]])
    assert subspace_equal(a, b)


def test_subspace_equal_different_lines():
    a = Subspace.from_vectors(2, [[1, 0]])
    b = Subspace.from_vectors(2, [[0, 1]])
    assert not subspace_equal(a, b)


def test_subspace_equal_zero():
    assert subspace_equal(Subspace.from_vectors(3, []), Subspace.from_vectors(3, [[0, 0, 0]]))


def test_subspace_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_equal(Subspace.from_vectors(2, []), Subspace.from_vectors(3, []))


def test_subspace_contains():
    plane = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 0]])
    assert contains_vector(plane, [2, 3, 2])
    assert not contains_vector(plane, [1, 0, 0])
    line = Subspace.from_vectors(3, [[1, 1, 1]])
    assert contains(plane, line)


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def matrices(draw, max_dim=5):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(small_fracs, min_size=nrows * ncols, max_size=nrows * ncols))
    return QMatrix(nrows, ncols, entries)


oracle_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def oracle_matrices(draw, max_dim=7, entries=oracle_entries):
    """Any shape from 0x0 to max_dim x max_dim, with some rows and columns zeroed."""
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    zero_rows = draw(st.sets(st.integers(0, max_dim - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max_dim - 1), max_size=2))
    data = [
        0 if i in zero_rows or j in zero_cols else draw(entries)
        for i in range(nrows)
        for j in range(ncols)
    ]
    return QMatrix(nrows, ncols, data)


# Shapes `oracle_matrices` seldom draws, one per path of `rref`: tall and of
# full column rank (no back-substitution), a forward pass that must swap rows,
# tall and rank-deficient with zero rows between the others, and Fraction rows,
# dependent and of full column rank.
RREF_PATHS = (
    mat([[1, 2, 0, 1], [2, -1, 3, 0], [0, 1, 1, 1], [3, 1, 3, 1], [1, 0, 0, -2], [4, 3, 4, 2]]),
    mat([[0, 0, 2, 1], [0, 3, 1, 0], [5, 1, 0, 2]]),
    mat([[1, 2, 3], [0, 0, 0], [2, 4, 6], [0, 0, 0], [1, 0, 1], [0, 0, 0], [3, 2, 5]]),
    mat([[F(1, 2), F(1, 3), 1, 0], [F(2, 3), F(-1, 4), F(5, 6), F(1, 5)],
         [F(7, 6), F(1, 12), F(11, 6), F(1, 5)]]),
    mat([[F(1, 2), F(1, 3)], [F(2, 3), F(-1, 4)], [F(7, 6), F(1, 12)]]),
)


def rref_path_examples(test):
    for m in reversed(RREF_PATHS):
        test = example(m)(test)
    return test


@settings(deadline=None, max_examples=200)
@given(oracle_matrices())
@rref_path_examples
@example(QMatrix(0, 3, ()))
@example(QMatrix(3, 0, ()))
@example(QMatrix(0, 0, ()))
@example(mat([[F(1, 2), F(-1, 3)], [F(3, 4), F(5, 6)], [F(-7, 10), 0], [2, F(1, 9)]]))
@example(mat([[0, 0, 0], [0, F(2, 3), F(-4, 9)], [0, 0, 0], [0, F(-1, 5), F(2, 15)]]))
def test_rref_matches_fraction_gauss_jordan(m):
    red, pivots = rref(m)
    assert (red, pivots) == fraction_rref(m)
    assert all(map(in_one_form, red.data))


# int entries stay ints in a QMatrix, so these draw int-only, Fraction-only
# and mixed matrices; a zeroed row of a Fraction matrix is an int row.
typed_matrices = st.one_of(
    oracle_matrices(entries=st.integers(-9, 9)),
    oracle_matrices(entries=st.fractions(min_value=-20, max_value=20, max_denominator=12)),
    oracle_matrices(entries=st.integers(-40, 40).map(Fraction)),
    oracle_matrices(),
)


@settings(deadline=None, max_examples=200)
@given(typed_matrices)
@example(mat([[3, 6], [2, 4]]))
@example(mat([[2, 4, 1], [F(1, 2), 1, 0], [0, 0, F(3, 7)]]))
def test_rank_matches_fraction_gauss_jordan(m):
    """rank stops at a row echelon form; the Fraction elimination counts the same pivots."""
    assert rank(rows_of(m)) == len(fraction_rref(m)[1])


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_nullity(m):
    assert rank(rows_of(m)) + kernel_basis(m.cols, rows_of(m)).dim == m.cols


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m.cols, rows_of(m)).basis:
        for i in range(m.rows):
            assert sum(a * b for a, b in zip(m.row(i), v)) == 0


@st.composite
def int_rows_and_vector(draw, max_dim=5):
    ncols = draw(st.integers(1, max_dim))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=1, max_size=max_dim)), draw(row)


@settings(deadline=None, max_examples=80)
@given(int_rows_and_vector(), st.randoms(use_true_random=False))
@example(([[2, 4, 6], [0, 0, 0], [-3, 0, 9]], [1, 2, 3]), random.Random(0))
@example(([[0, -4, 6], [0, 2, -3]], [0, 1, 0]), random.Random(1))
def test_sparse_subspace_matches_dense_rref(data, rng):
    """Each stored row is a primitive int row with a positive pivot entry
    first, `basis` is the nonzero rows of the Fraction Gauss-Jordan, and a
    shuffled, rescaled spanning set gives an equal value."""
    rows, v = data
    sub = Subspace.from_vectors(len(v), rows)
    for pivot, row in sub.rows:
        assert row[0][0] == pivot and row[0][1] > 0
        assert all(type(x) is int and x for _, x in row)
        assert gcd(*(x for _, x in row)) == 1
    assert [p for p, _ in sub.rows] == sorted({p for p, _ in sub.rows})
    red, _ = fraction_rref(mat(rows))
    nonzero = tuple(r for r in (red.row(i) for i in range(red.rows)) if any(r))
    assert sub.basis == nonzero
    scales = [F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])) for _ in rows]
    spanning = [[c * x for x in r] for c, r in zip(scales, rows)]
    rng.shuffle(spanning)
    assert Subspace.from_vectors(len(v), spanning) == sub
    assert (not any(reduce_vector(sub, v))) == (rank(rows + [v]) == rank(rows))


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rref_idempotent(m):
    red, _ = rref(m)
    red2, _ = rref(red)
    assert red == red2


@settings(deadline=None, max_examples=40)
@given(matrices(max_dim=4), st.randoms(use_true_random=False))
def test_row_equivalent_same_rref(m, rng):
    rows = [list(m.row(i)) for i in range(m.rows)]
    # a few random row operations: swaps, scalings, additions
    for _ in range(6):
        op = rng.choice(["swap", "scale", "add"])
        i = rng.randrange(m.rows)
        j = rng.randrange(m.rows)
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "scale":
            c = F(rng.choice([1, 2, 3, -1, -2]))
            rows[i] = [c * x for x in rows[i]]
        elif i != j:
            c = F(rng.randint(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    red1, _ = rref(m)
    red2, _ = rref(mat(rows))
    assert red1 == red2


@settings(deadline=None, max_examples=40)
@given(matrices(max_dim=4), st.integers(1, 5), st.booleans())
def test_rank_scaling_invariance(m, c, col):
    scale = F(c)
    if col:
        j = 0
        entries = [
            e * scale if k % m.cols == j else e for k, e in enumerate(m.data)
        ]
    else:
        entries = [
            e * scale if k // m.cols == 0 else e for k, e in enumerate(m.data)
        ]
    assert rank(rows_of(QMatrix(m.rows, m.cols, entries))) == rank(rows_of(m))


@pytest.mark.parametrize("value, stored", [
    (3, 3),
    (-7, -7),
    (0, 0),
    (F(6, 3), 2),
    (F(-4, 2), -2),
    (F(0, 5), 0),
    (F(1, 2), F(1, 2)),
    (F(-3, 9), F(-1, 3)),
    (True, 1),
    (False, 0),
])
def test_exact_gives_the_one_form(value, stored):
    """An int when integral, bools included, else a Fraction whose denominator is not 1."""
    got = exact(value)
    assert got == stored and type(got) is type(stored)
    assert in_one_form(got)


@pytest.mark.parametrize("make, kind", [
    pytest.param(lambda: exact(0.5), "float", id="exact-0.5"),
    pytest.param(lambda: exact("3/6"), "str", id="exact-3/6"),
    pytest.param(lambda: exact("4/2"), "str", id="exact-4/2"),
    pytest.param(lambda: exact(Decimal("0.5")), "Decimal", id="exact-Decimal"),
    pytest.param(lambda: linear_form([0.1, 1]), "float", id="linear_form-0.1"),
    pytest.param(lambda: QMatrix(1, 2, [0.5, 1]), "float", id="QMatrix-0.5"),
    pytest.param(lambda: parse_poly("x1", 2) * 0.5, "float", id="scalar-0.5"),
    pytest.param(lambda: 0.5 * parse_poly("x1", 2), "float", id="rscalar-0.5"),
])
def test_exact_refuses_inexact_values(make, kind):
    """A float, a string or a Decimal is refused wherever an exact rational is
    stored, instead of being read as its binary value or parsed as text."""
    with pytest.raises(TypeError, match=f"int or a Fraction, not {kind}$"):
        make()


@settings(deadline=None, max_examples=200)
@given(typed_matrices)
@rref_path_examples
@example(mat([[2, 4], [F(1, 2), F(3, 2)]]))
@example(mat([[F(2), F(4)], [F(3), F(9)]]))
def test_echelon_rows_and_kernels_are_in_the_one_form(m):
    """The dense bases of a row space and of a kernel store every entry as
    `exact` would, integral Fractions in the input included; each is the
    Fraction Gauss-Jordan's reduced rows."""
    rows = rows_of(m)
    sub = Subspace.from_vectors(m.cols, rows)
    assert all(in_one_form(x) for v in sub.basis for x in v)
    red, _ = fraction_rref(m)
    assert sub.basis == tuple(r for r in (red.row(i) for i in range(m.rows)) if any(r))
    kernel = kernel_basis(m.cols, rows)
    assert all(in_one_form(x) for v in kernel.basis for x in v)


row_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def row_lists(draw, min_rows=0, max_dim=5):
    """A list of equal-length row lists, of ints, of Fractions or of both."""
    ncols = draw(st.integers(0, max_dim))
    entries = draw(st.sampled_from([st.integers(-9, 9), row_fracs, st.one_of(st.integers(-9, 9), row_fracs)]))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=min_rows, max_size=max_dim))


def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


@settings(deadline=None, max_examples=200)
@given(row_lists())
@example([[1, 1], [1, 2]])
@example([[0, 2, 4], [3, 1, 0], [6, 2, 0]])
@example([[F(1, 2), 1], [1, F(1, 3)]])
def test_eliminations_leave_the_callers_rows_as_they_are(rows):
    """rank, kernel_basis and Subspace.from_vectors eliminate copies: the
    list of rows and every row in it keep their entries and their types."""
    ncols = len(rows[0]) if rows else 0
    before = _typed(copy.deepcopy(rows))
    rank(rows)
    assert _typed(rows) == before
    kernel_basis(ncols, rows)
    assert _typed(rows) == before
    Subspace.from_vectors(ncols, rows)
    assert _typed(rows) == before


@st.composite
def ragged_row_lists(draw):
    """`row_lists` of two or more rows, one of them after the first a column
    longer or shorter."""
    rows = draw(row_lists(min_rows=2))
    i = draw(st.integers(1, len(rows) - 1))
    rows[i] = rows[i] + [1] if not rows[0] or draw(st.booleans()) else rows[i][:-1]
    return rows


@settings(deadline=None, max_examples=100)
@given(ragged_row_lists())
@example([[1, 2], [3]])
@example([[F(1, 2)], [1, 0], [0]])
def test_ragged_rows_are_refused(rows):
    """A row whose length differs from the first row's raises ValueError in
    rank, kernel_basis and Subspace.from_vectors."""
    ncols = len(rows[0])
    for eliminate in (rank, lambda r: kernel_basis(ncols, r), lambda r: Subspace.from_vectors(ncols, r)):
        with pytest.raises(ValueError):
            eliminate(rows)
