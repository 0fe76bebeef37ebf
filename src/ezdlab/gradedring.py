"""Graded quotients R = P/I built degree by degree up to a bound.

The single-term generators form a monomial ideal M, whose standard
monomials (those outside M) come from those one degree down by an
order-ideal closure; M_d is zero in R. Each degree stores one table, from
every monomial to its normal form as sparse (quotient coordinate,
coefficient) pairs, read off the reduced echelon basis of I_d on the
standard columns: the quotient basis is the set of non-pivot standard
monomials. The table holds integers: each normal form times the degree's
one denominator D_d, the lcm of the denominators of all its normal forms,
so equal rings store equal tables and a basis monomial's entry is D_d.
Only the ring reads the table: `GradedQuotient.integer_map` builds each
multiplication map from it as int rows over one denominator, `map_rank`
remembers each map's rank, and `normal_form` divides p's map from
R_0 = span(1). The ring derives H and its top degree once.

Degree d is built from degree d-1's table, as F4 reuses reduced rows
(Faugere 1999): I_d is spanned by x_i times each relation D_{d-1}*m_p
- sum num*b of a pivot m_p of degree d-1, and by the generators of degree
d. Only the standard monomials x_i*b with b in the basis of degree d-1,
the border, are eliminated, at most n*H(d-1) columns, as integer rows
(each generator scaled to integer coefficients) whose primitive echelon
rows `exactmat.Subspace` keeps; every other standard monomial has one of
those relations as its reducer. So a monomial ideal eliminates nothing,
nor does a degree after a vanished one. The elimination reads no border
row after those read span every border column: then the degree vanishes,
and its table is the empty basis with every normal form zero over D = 1.
There is one path: an ideal
without single-term generators has M = 0. Before building,
`build_quotient` prices eliminating each degree from scratch from counts
alone, and refuses a build past `MAX_ELIMINATION_COST`.

The Hilbert function of P/M needs no standard monomial set:
`monomial_hilbert` counts the degree-d monomials outside M as C(n+d-1, d)
minus the popcount of the OR of the generators' degree-d divisibility
bitmasks, each mask built once per process and shared across calls, so a
scan reads H off the generators' exponent vectors without building an
IdealSpec, a table or the closure. `socle_bound` reads the default degree
bound off the same vectors; `default_bound` applies that one rule to the
single-term generators of any ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Iterator

from .exactmat import Subspace, rank, ratio
from .polyring import (
    HomogPoly,
    IdealSpec,
    Monomial,
    divides,
    monomials_of_degree,
)

# Largest number of monomials of degree <= bound that build_quotient and
# monomial_hilbert accept.
# Larger builds are refused up front: they would run for a very long time
# while the unbounded monomial caches keep growing.
MAX_MONOMIALS = 100_000
# Largest number of exponents, the monomials of degree <= bound times the
# variables, that build_quotient and monomial_hilbert accept. A monomial is a
# tuple of one exponent per variable, so memory grows with this count: a CLI
# run peaks at 163 MB for 3000 variables to degree 1 (9,003,000 exponents) and
# at 211 MB just under the cap. The largest ring the tests build, 1000
# variables to degree 1, holds 1,001,000; every other ring that the tests,
# demos, README examples and benchmark inputs size holds 209,440 or fewer.
MAX_EXPONENTS = 12_000_000
# Largest elimination build_quotient runs, estimated before it starts as the
# sum over degrees of rows x standard columns^2, a bound on dense Gauss-Jordan
# work if each degree were eliminated from scratch. The build eliminates only
# the border, so the estimate overstates its work, more so as the degree
# grows. On "x1^2 + x2*x3, x2^2 + x1*x4" in 4 variables, the largest ring the
# tests build, the estimate is 2.2e8 to degree 12 and 2.9e9 to degree 16 (a
# CLI run of 0.24 s and 0.67 s on a 2-core x86-64 host); to degree 31 it is
# 1.3e12, refused, though the build takes about 9 s there. Every other ring of
# the tests, demos, README examples and benchmark inputs is estimated at
# 2.8e6 or less.
MAX_ELIMINATION_COST = 10_000_000_000


@dataclass(frozen=True)
class HilbertFn:
    """Hilbert function values H(0..D)."""

    values: tuple[int, ...]

    @property
    def artinian_within_bound(self) -> bool:
        """Whether the ring vanished within the bound."""
        return 0 in self.values


@dataclass(frozen=True)
class _DegreeComponent:
    basis: tuple[Monomial, ...]  # the quotient basis, in monomial order
    # every monomial -> its normal form times `denominator`, as
    # (quotient coordinate, integer numerator) pairs
    normal_forms: dict[Monomial, tuple[tuple[int, int], ...]]
    # the least positive integer that clears every normal form's denominators
    denominator: int


@dataclass(frozen=True, eq=False, repr=False)
class GradedQuotient:
    """Per-degree bases and normal-form operators for R = P/I, degrees 0..bound.

    `top_degree` is the last degree with a nonzero piece. It is known only
    when every degree past the bound is known to vanish (`complete`), and
    reading it on any other ring raises ValueError: every analysis reads it,
    so a ring that may not vanish is refused in this one place. The ring's
    value is frozen; the ranks `map_rank` remembers are derived from it.
    """

    spec: IdealSpec
    bound: int
    components: tuple[_DegreeComponent, ...]
    hilbert: HilbertFn = field(init=False)
    _top: int | None = field(init=False, repr=False)
    _ranks: dict = field(init=False, repr=False, default_factory=dict)  # (form, degree) -> rank

    def __post_init__(self) -> None:
        dims = tuple(len(c.basis) for c in self.components)
        top = dims.index(0) - 1 if 0 in dims else None
        if top is None:
            # Standard monomials die before the socle bound, so a bound reaching
            # the degree before it already shows every later degree is zero.
            socle = default_bound(self.spec)
            if socle is not None and socle - 1 <= self.bound:
                top = self.bound
        object.__setattr__(self, "hilbert", HilbertFn(dims))
        object.__setattr__(self, "_top", top)

    @property
    def nvars(self) -> int:
        return self.spec.nvars

    @property
    def complete(self) -> bool:
        """Whether every degree past the bound is known to vanish."""
        return self._top is not None

    @property
    def top_degree(self) -> int:
        """The last degree with a nonzero piece, -1 for the zero ring."""
        if self._top is None:
            raise ValueError("ring does not vanish within the degree bound; raise the bound")
        return self._top

    def dim(self, degree: int) -> int:
        return len(self.basis_monomials(degree))

    def basis_monomials(self, degree: int) -> tuple[Monomial, ...]:
        if not 0 <= degree <= self.bound:
            raise ValueError(f"degree {degree} outside bound {self.bound}")
        return self.components[degree].basis

    def normal_form(self, p: HomogPoly) -> tuple[int | Fraction, ...]:
        """Coordinates of p in the degree-deg(p) quotient basis, zero iff p is
        in I: the column of p's map from R_0, which 1 spans."""
        d = p.degree
        if not 0 <= d <= self.bound:
            raise ValueError(f"degree {d} outside bound {self.bound}")
        rows, den = self.integer_map(p, 0)
        return tuple(ratio(x, den) for x, in rows)

    def integer_map(self, f: HomogPoly, d: int) -> tuple[list[list[int]], int]:
        """The `int` rows of a matrix N and a positive int D such that N / D
        is the matrix of q -> f*q from R_d to R_{d+deg f} on the quotient
        bases: one fresh list per target basis monomial, none past the bound.

        The terms of f are scaled by the lcm s of its coefficients'
        denominators, and column j sums c*NF(g*b_j) over the scaled terms c*g,
        read from the target degree's table over its denominator D_t; so
        D = s * D_t. N has the rank, kernel, column space and zero pattern of
        N / D, and every internal rank, kernel and zero test reads it.
        """
        if f.nvars != self.nvars:
            raise ValueError("variable counts differ")
        source = self.basis_monomials(d)
        target_degree = d + f.degree
        ncols = len(source)
        if target_degree > self.bound:
            if self.complete:
                return [], 1
            raise ValueError(f"target degree {target_degree} outside bound {self.bound}")
        comp = self.components[target_degree]
        normal_forms = comp.normal_forms
        terms, scale = f.integer_coeffs()
        rows = [[0] * ncols for _ in comp.basis]
        for j, b in enumerate(source):
            for g, c in terms.items():
                # outside monomial rings two products can share a coordinate: entries add up
                for i, a in normal_forms[tuple(map(add, g, b))]:
                    rows[i][j] += c * a
        return rows, scale * comp.denominator

    def map_rank(self, f: HomogPoly, d: int) -> int:
        """The rank of `integer_map(f, d)`, computed once per form and degree;
        equal forms share an entry. A pair check after the search for a
        partner, and a Lefschetz check after a decision drawn from the same
        seed, ask for the same ranks."""
        r = self._ranks.get((f, d))
        if r is None:
            r = self._ranks[f, d] = rank(self.integer_map(f, d)[0])
        return r

    def ranked_map(self, f: HomogPoly, d: int) -> tuple[int, list[list[int]]]:
        """The rank of `integer_map(f, d)` and the map's rows, from one build;
        the rank is read from and written to `map_rank`'s memo. A caller that
        reads both the rank and the map, as the search for a partner does,
        builds it once."""
        rows = self.integer_map(f, d)[0]
        r = self._ranks.get((f, d))
        if r is None:
            r = self._ranks[f, d] = rank(rows)
        return r, rows

    def basis_poly(self, degree: int, coords) -> HomogPoly:
        """The polynomial with the given coordinates in the quotient basis."""
        basis = self.basis_monomials(degree)
        if len(coords) != len(basis):
            raise ValueError("coordinate length does not match quotient dimension")
        return HomogPoly(self.nvars, degree, list(zip(basis, coords)))


def _order_ideal(nvars: int, gens: set[Monomial], bound: int) -> Iterator[set[Monomial]]:
    """The standard monomials of M (those outside it) in degrees 0..bound, in turn.

    `gens` holds M's generators. A monomial lies in M exactly when it is a
    generator or some m/x_i does, since a generator dividing m properly
    divides m/x_i for a variable where the two differ.
    So the standard monomials of degree d are the monomials of degree d
    that are no generator and whose every m/x_j is standard of degree d-1:
    exactly those reached from a standard s*x_i once per variable they
    contain. No table is shared across calls: only `build_quotient` runs
    the closure, once per built ring, too rarely for a cache to pay for
    its code.
    """
    standard = {(0,) * nvars} - gens
    yield standard
    for _ in range(bound):
        reached: dict[Monomial, int] = {}
        for s in standard:
            for i in range(nvars):
                e = s[:i] + (s[i] + 1,) + s[i + 1 :]
                reached[e] = reached.get(e, 0) + 1
        standard = {e for e, k in reached.items() if k == nvars - e.count(0) and e not in gens}
        yield standard


def _component(
    nvars: int,
    degree: int,
    standard: set[Monomial],
    below: tuple[_DegreeComponent, set[Monomial]] | None,
    others: tuple[HomogPoly, ...],
) -> _DegreeComponent:
    """The degree-d component of P/I, given the standard monomials of M in
    degree d and, past degree 0, degree d-1's component and standard set.

    Modulo M_d, whose monomials are zero in R, I_d is spanned by the
    generators of degree d and by x_i*(D*m_p - sum num*b) for each pivot m_p
    of degree d-1 (a standard monomial outside the basis B_{d-1}), whose
    normal form is sum num*b over D = D_{d-1}. A standard monomial x_i*b
    with b in B_{d-1} is a border column; every other standard monomial is
    a lead x_i*m_p. The first row with a lead is its reducer, whose only
    entry off the border is that lead; it is subtracted from the other rows
    with the lead and clears the lead from each generator, which leaves
    rows on the border alone. Lex is a term order, so a reducer's first
    column is its lead: the pivots of I_d are the leads and the pivots of
    the border rows, and `_read_off` takes the unique reduced echelon form
    from both; once the border rows span every border column, the degree
    vanishes and no later row is eliminated. Past a vanished degree the
    border is empty and every monomial is zero; with no pivot below, every
    standard monomial is on the border.
    """
    monos = monomials_of_degree(nvars, degree)
    normal_forms = dict.fromkeys(monos, ())
    den = 1  # D_{d-1}, the denominator of the relations from below
    pivots_below: set[Monomial] = set()
    if below is not None:
        prev, prev_standard = below
        if not prev.basis:  # an empty border: every standard monomial is a lead, and zero
            return _DegreeComponent((), normal_forms, 1)
        den = prev.denominator
        pivots_below = prev_standard.difference(prev.basis)
    if pivots_below:
        up = [[b[:i] + (b[i] + 1,) + b[i + 1 :] for b in prev.basis] for i in range(nvars)]
        border = {e for ups in up for e in ups if e in standard}
    else:
        border = standard  # every standard monomial is x_i*b, or degree 0's 1
    cols = [m for m in monos if m in border]
    col = {m: k for k, m in enumerate(cols)}
    reducers: dict[Monomial, dict[int, int]] = {}  # lead -> its reducer's border entries
    rows: list[dict] = []  # border-only rows, as border column -> entry
    if pivots_below:
        up_col = [[col.get(e) for e in ups] for ups in up]  # x_i * b -> border column, or None in M_d
        for m in pivots_below:
            nf = prev.normal_forms[m]
            for i in range(nvars):
                tail = {k: -a for q, a in nf if (k := up_col[i][q]) is not None}
                head = m[:i] + (m[i] + 1,) + m[i + 1 :]
                if head in col:
                    tail[col[head]] = den
                elif head in standard:
                    reducer = reducers.setdefault(head, tail)
                    if reducer is tail:
                        continue
                    tail = {k: x for k in tail.keys() | reducer.keys() if (x := tail.get(k, 0) - reducer.get(k, 0))}
                if tail:
                    rows.append(tail)
    for g in others:
        if g.degree != degree:
            continue
        # den * g in integer coefficients minus c times the reducer of each lead c*L of g
        row: dict = {}
        for m, c in g.integer_coeffs()[0].items():
            if m in col:
                row[col[m]] = row.get(col[m], 0) + den * c
            elif m in reducers:
                for k, a in reducers[m].items():
                    row[k] = row.get(k, 0) - c * a
        row = {k: x for k, x in row.items() if x}
        if row:
            rows.append(row)
    # with no row and no lead, every border monomial is a basis monomial
    basis, den = _read_off(normal_forms, cols, rows, reducers, den) if rows or reducers else (cols, 1)
    for q, m in enumerate(basis):
        normal_forms[m] = ((q, den),)
    return _DegreeComponent(tuple(basis), normal_forms, den)


def _read_off(
    normal_forms: dict[Monomial, tuple[tuple[int, int], ...]],
    cols: list[Monomial],
    rows: list[dict],
    reducers: dict[Monomial, dict[int, int]],
    den: int,
) -> tuple[list[Monomial], int]:
    """Eliminate the border-only `rows`, integer {column: entry} dicts on
    the border columns `cols`, densified here for `Subspace.from_vectors`;
    enter the normal forms of the border pivots and of the leads of
    `reducers` into `normal_forms` times their least common denominator
    D_d; and return the quotient basis, the non-pivot border columns, and D_d.

    A border pivot's normal form is minus the rest of its echelon row over
    its pivot entry. A reducer is den times its lead L plus a tail on the
    border, so NF(L) is minus the tail reduced by the echelon rows, over den.
    """
    zeros = [0] * len(cols)
    dense = (list(map(r.get, range(len(cols)), zeros)) for r in rows)
    echelon = dict(Subspace.from_vectors(len(cols), dense).rows)  # border pivot -> its row
    free = [k for k in range(len(cols)) if k not in echelon]
    coord = {k: q for q, k in enumerate(free)}  # border column -> quotient coordinate
    # with scale the lcm of the pivot entries, each normal form is -a / (den * scale), a integral
    scale = lcm(*(row[0][1] for row in echelon.values()))
    integral = {p: [(coord[j], x * (scale // pv)) for j, x in rest] for p, ((_, pv), *rest) in echelon.items()}
    numerators = {cols[p]: [(q, den * a) for q, a in rest] for p, rest in integral.items()}
    for lead, tail in reducers.items():
        a_lead: dict[int, int] = {}
        for k, a in tail.items():
            if k in integral:
                for q, x in integral[k]:
                    a_lead[q] = a_lead.get(q, 0) - a * x
            else:
                a_lead[coord[k]] = a_lead.get(coord[k], 0) + scale * a
        numerators[lead] = sorted((q, a) for q, a in a_lead.items() if a)
    common = den * scale
    divisor = gcd(common, *(a for nf in numerators.values() for _, a in nf))
    for m, nf in numerators.items():
        normal_forms[m] = tuple((q, -a // divisor) for q, a in nf)
    return [cols[k] for k in free], common // divisor


def refuse_oversize(nvars: int, bound: int) -> None:
    """Raise ValueError when the monomials of degree <= bound number more than
    MAX_MONOMIALS, or hold more than MAX_EXPONENTS exponents."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    # C(n + bound, k) for k = min(n, bound) is at least 2^k, so past k = 64 it
    # is far over the cap and is neither computed nor printed.
    k = min(nvars, bound)
    size = comb(nvars + bound, k) if k <= 64 else None
    if size is None or size > MAX_MONOMIALS:
        count = "over 2^64" if size is None or size > 1 << 64 else size
        raise ValueError(
            f"{nvars} variables up to degree {bound} span {count} monomials, "
            f"more than the cap of {MAX_MONOMIALS}; lower the bound or the variable count"
        )
    if size * nvars > MAX_EXPONENTS:
        raise ValueError(
            f"{nvars} variables up to degree {bound} span {size} monomials of {nvars} "
            f"exponents each, more than the cap of {MAX_EXPONENTS:,} exponents; "
            f"lower the bound or the variable count"
        )


def _refuse_costly(nvars: int, gens: set[Monomial], others: tuple[HomogPoly, ...], bound: int) -> None:
    """Raise ValueError when eliminating the multiples of `others` on the
    standard columns of the monomial ideal generated by `gens`, degrees
    0..bound, is estimated to cost more than MAX_ELIMINATION_COST.

    The estimate is the sum over degrees of rows x columns^2: one row per
    multiple m*g of a generator in `others`, one column per standard
    monomial. It prices eliminating each degree from scratch, which
    overstates a build that eliminates only the border columns.
    """
    cost = 0
    for d, cols in enumerate(monomial_hilbert(nvars, gens, bound).values):
        rows = sum(comb(nvars + d - g.degree - 1, d - g.degree) for g in others if g.degree <= d)
        cost += rows * cols * cols
    if cost > MAX_ELIMINATION_COST:
        raise ValueError(
            f"eliminating up to degree {bound} is estimated at {cost:,} operations "
            f"(rows x standard columns^2 over the degrees), more than the cap of "
            f"{MAX_ELIMINATION_COST:,}; lower the bound"
        )


def build_quotient(spec: IdealSpec, bound: int) -> GradedQuotient:
    """Construct R = P/I with all per-degree data for degrees 0..bound.

    The single-term generators are closed combinatorially and only the
    others are eliminated, each degree on its border columns alone. Raises
    ValueError before building anything when the monomials of degree <=
    bound number more than MAX_MONOMIALS, or when the elimination's
    estimated cost exceeds MAX_ELIMINATION_COST.
    """
    refuse_oversize(spec.nvars, bound)
    gens, others = set(spec.monomials), spec.others  # M's generators, and the rest
    if others:
        _refuse_costly(spec.nvars, gens, others, bound)
    components: list[_DegreeComponent] = []
    below = None
    for d, standard in enumerate(_order_ideal(spec.nvars, gens, bound)):
        components.append(_component(spec.nvars, d, standard, below, others))
        below = components[-1], standard
    return GradedQuotient(spec, bound, tuple(components))


@lru_cache(maxsize=1 << 12)
def _divisible_mask(e: Monomial, degree: int) -> int:
    """Bit i set exactly when e divides the i-th monomial of the given degree."""
    mask = 0
    for i, m in enumerate(monomials_of_degree(len(e), degree)):
        if divides(e, m):
            mask |= 1 << i
    return mask


@lru_cache(maxsize=1 << 12)
def _divisible_masks(e: Monomial, bound: int) -> int:
    """The degree-d masks of e for d = 0..bound in one integer, degree d's at
    bit C(n+d-1, n), the number of monomials of lower degree."""
    n = len(e)
    out = 0
    for d in range(sum(e), bound + 1):  # e divides nothing of lower degree
        out |= _divisible_mask(e, d) << comb(n + d - 1, n)
    return out


def monomial_hilbert(nvars: int, gens: Iterable[Monomial], bound: int) -> HilbertFn:
    """The Hilbert function of P/M, degrees 0..bound, for the monomial ideal M
    generated by the monomials `gens`.

    H(d) is C(n+d-1, d) minus the degree-d monomials some generator divides,
    the popcount of the OR of their divisibility masks. It builds no
    IdealSpec, normal-form table or standard monomial set, and equals
    `build_quotient(monomial_ideal(...), bound).hilbert`, which counts the
    closure's standard monomials. Raises ValueError like `build_quotient` on
    a negative or oversized bound.
    """
    refuse_oversize(nvars, bound)
    covered = 0
    for e in gens:
        covered |= _divisible_masks(e, bound)
    dims = []
    for d in range(bound + 1):
        size = comb(nvars + d - 1, d)
        dims.append(size - (covered & ((1 << size) - 1)).bit_count())
        covered >>= size
    return HilbertFn(tuple(dims))


@lru_cache(maxsize=1 << 12)
def _pure_power(e: Monomial) -> tuple[int, int] | None:
    """(i, a) when e is x_i^a with a >= 1, (0, 0) when e is the constant 1,
    and None otherwise; a scan reads the same few tuples thousands of times."""
    support = [i for i, a in enumerate(e) if a]
    if not support:
        return 0, 0
    if len(support) == 1:
        return support[0], e[support[0]]
    return None


def socle_bound(nvars: int, gens: Iterable[Monomial]) -> int | None:
    """Degree bound sum(a_i - 1) + 1 when the monomials `gens` include a
    pure power of every variable, x_i^{a_i} the least; 0 when they include
    the constant 1, and None otherwise.

    In P/I for an ideal I holding those pure powers no monomial survives
    past degree sum(a_i - 1), so the bound always witnesses the vanishing
    degree. This one rule serves `default_bound` and the monomial scan,
    which reads it off exponent tuples without an IdealSpec.
    """
    least: dict[int, int] = {}
    for e in gens:
        power = _pure_power(e)
        if power is not None:
            i, a = power
            if not a:
                return 0
            if a < least.get(i, a + 1):
                least[i] = a
    if len(least) < nvars:
        return None
    return sum(a - 1 for a in least.values()) + 1


def default_bound(spec: IdealSpec) -> int | None:
    """The `socle_bound` of the single-term generators: sum(a_i - 1) + 1 when
    every variable has a pure power among them, 0 when one is a nonzero
    constant, else None.

    P/I is a quotient of P/M for the monomial ideal M those generators
    span, so the bound holds for every ideal I, monomial or not.
    """
    return socle_bound(spec.nvars, spec.monomials)
