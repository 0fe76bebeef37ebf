"""Graded quotients R = P/I built degree by degree up to a bound.

For each degree d the relation space I_d is spanned by the products m*g of
the generators by complementary-degree monomials. For monomial ideals that
span is a coordinate subspace, and the monomials outside it come from those
one degree down by an order-ideal closure; otherwise the product rows go
through one exact elimination per degree. Either way each degree stores
I_d as a sparse echelon `Subspace` of the monomial coefficient space, so
normal forms are one `Subspace.reduce` pass and the quotient basis is the
set of non-pivot monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add

from .exactmat import Subspace
from .polyring import (
    HomogPoly,
    IdealKind,
    IdealSpec,
    Monomial,
    monomials_of_degree,
)

ZERO = Fraction(0)
# Largest number of monomials of degree <= bound that build_quotient accepts.
# Larger builds are refused up front: they would run for a very long time
# while the unbounded monomial caches keep growing.
MAX_MONOMIALS = 100_000


@dataclass(frozen=True)
class HilbertFn:
    """Hilbert function values H(0..D) with the within-bound Artinian flag."""

    values: tuple[int, ...]
    artinian_within_bound: bool


@dataclass(frozen=True)
class _DegreeComponent:
    monomials: tuple[Monomial, ...]
    index: dict[Monomial, int]  # monomial -> position in `monomials`
    relations: Subspace  # I_d in the coefficient space of `monomials`
    quotient_cols: tuple[int, ...]
    coords: dict[tuple[int, ...], int]  # basis monomial's exponents -> quotient coordinate


@dataclass(frozen=True, eq=False, repr=False)
class GradedQuotient:
    """Per-degree bases and normal-form operators for R = P/I, degrees 0..bound.

    `top_degree` is the last degree with a nonzero piece when every degree
    past the bound is known to vanish, and None otherwise.
    """

    spec: IdealSpec
    bound: int
    components: tuple[_DegreeComponent, ...]
    hilbert: HilbertFn
    top_degree: int | None

    @property
    def nvars(self) -> int:
        return self.spec.nvars

    @property
    def artinian_within_bound(self) -> bool:
        return self.hilbert.artinian_within_bound

    @property
    def complete(self) -> bool:
        """Whether every degree past the bound is known to vanish."""
        return self.top_degree is not None

    def dim(self, degree: int) -> int:
        if not 0 <= degree <= self.bound:
            raise ValueError(f"degree {degree} outside bound {self.bound}")
        return len(self.components[degree].quotient_cols)

    def dim_extended(self, degree: int) -> int:
        """dim R_degree, extending past the bound when the ring has vanished."""
        if degree <= self.bound:
            return self.dim(degree)
        if self.complete:
            return 0
        raise ValueError(f"degree {degree} outside bound {self.bound}")

    def basis_monomials(self, degree: int) -> tuple[Monomial, ...]:
        if not 0 <= degree <= self.bound:
            raise ValueError(f"degree {degree} outside bound {self.bound}")
        comp = self.components[degree]
        return tuple(comp.monomials[j] for j in comp.quotient_cols)

    def relation_subspace(self, degree: int) -> Subspace:
        """I_d as a canonical subspace of the degree-d coefficient space."""
        return self.components[degree].relations

    def normal_form(self, p: HomogPoly) -> tuple[Fraction, ...]:
        """Coordinates of p in the degree-deg(p) quotient basis; zero iff p is in I."""
        if p.nvars != self.nvars:
            raise ValueError("variable counts differ")
        d = p.degree
        if not 0 <= d <= self.bound:
            raise ValueError(f"degree {d} outside bound {self.bound}")
        comp = self.components[d]
        index = comp.index
        v = [ZERO] * len(comp.monomials)
        for m, c in p.coeffs.items():
            v[index[m]] = c
        v = comp.relations.reduce(v)
        return tuple(v[j] for j in comp.quotient_cols)

    def product_normal_form(self, f: HomogPoly, m: Monomial) -> tuple[Fraction, ...]:
        """`normal_form(f * m)` for a monomial m.

        Modulo a monomial ideal every monomial is a basis monomial or zero,
        so there each term of f*m goes straight to its quotient coordinate,
        looked up by the sum of the exponent vectors, with no product
        polynomial and no reduction.
        """
        if self.spec.kind is not IdealKind.MONOMIAL:
            return self.normal_form(f * HomogPoly.from_monomial(m))
        if f.nvars != self.nvars or m.nvars != self.nvars:
            raise ValueError("variable counts differ")
        d = f.degree + m.degree
        if not 0 <= d <= self.bound:
            raise ValueError(f"degree {d} outside bound {self.bound}")
        coords = self.components[d].coords
        v = [ZERO] * len(coords)
        shift = m.exps
        for g, c in f.coeffs.items():
            # distinct terms of f give distinct products: each coordinate is set once
            i = coords.get(tuple(map(add, g.exps, shift)))
            if i is not None:
                v[i] = c
        return tuple(v)

    def basis_poly(self, degree: int, coords) -> HomogPoly:
        """The polynomial with the given coordinates in the quotient basis."""
        basis = self.basis_monomials(degree)
        if len(coords) != len(basis):
            raise ValueError("coordinate length does not match quotient dimension")
        return HomogPoly(self.nvars, degree, list(zip(basis, coords)))


def _component(
    monos: tuple[Monomial, ...], index: dict[Monomial, int], relations: Subspace
) -> _DegreeComponent:
    pivots = {p for p, _ in relations.rows}
    free = tuple(i for i in range(len(monos)) if i not in pivots)
    coords = {monos[j].exps: k for k, j in enumerate(free)}
    return _DegreeComponent(monos, index, relations, free, coords)


@lru_cache(maxsize=None)
def _monomial_index(nvars: int, degree: int) -> dict[Monomial, int]:
    """Position of each degree-d monomial in graded-lex order (shared; never mutated)."""
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, degree))}


def _component_combinatorial(
    nvars: int, degree: int, gens: set[tuple[int, ...]], below: set[tuple[int, ...]]
) -> tuple[_DegreeComponent, set[tuple[int, ...]]]:
    """The degree-d component of P/I for a monomial ideal I, and its standard monomials.

    `gens` holds the generators' exponent vectors and `below` those of the
    standard monomials (the monomials outside I) of degree d-1. A monomial
    lies in I exactly when it is a generator or some m/x_i does, since a
    generator dividing m properly divides m/x_i for a variable where the
    two differ. So the standard monomials of degree d are the products
    s*x_i of standard s that are no generator and whose every m/x_j is
    standard.
    """
    if degree == 0:
        candidates = {(0,) * nvars}
    else:
        candidates = {s[:i] + (s[i] + 1,) + s[i + 1 :] for s in below for i in range(nvars)}
    standard = {
        e for e in candidates
        if e not in gens
        and all(e[:j] + (e[j] - 1,) + e[j + 1 :] in below for j in range(nvars) if e[j])
    }
    monos = monomials_of_degree(nvars, degree)
    # I_d is spanned by the monomials it contains: one unit row each.
    rows = tuple((i, ()) for i, m in enumerate(monos) if m.exps not in standard)
    relations = Subspace(len(monos), rows)
    return _component(monos, _monomial_index(nvars, degree), relations), standard


def _component_elimination(spec: IdealSpec, degree: int) -> _DegreeComponent:
    monos = monomials_of_degree(spec.nvars, degree)
    index = _monomial_index(spec.nvars, degree)
    ncols = len(monos)
    rows: list[list[Fraction]] = []
    for g in spec.generators:
        if g.degree > degree:
            continue
        for m in monomials_of_degree(spec.nvars, degree - g.degree):
            row = [ZERO] * ncols
            for gm, c in g.coeffs.items():
                row[index[m * gm]] = c
            rows.append(row)
    return _component(monos, index, Subspace.from_vectors(ncols, rows))


def build_quotient(spec: IdealSpec, bound: int, *, force_elimination: bool = False) -> GradedQuotient:
    """Construct R = P/I with all per-degree data for degrees 0..bound.

    Monomial ideals go through the closure path unless
    `force_elimination` asks for the generic elimination path (used as a
    cross-check oracle in the tests). Raises ValueError before building
    anything when the monomials of degree <= bound number more than
    MAX_MONOMIALS.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    # C(n + bound, k) for k = min(n, bound) is at least 2^k, so past k = 64 it
    # is far over the cap and is neither computed nor printed.
    k = min(spec.nvars, bound)
    size = comb(spec.nvars + bound, k) if k <= 64 else None
    if size is None or size > MAX_MONOMIALS:
        count = "over 2^64" if size is None or size > 1 << 64 else size
        raise ValueError(
            f"{spec.nvars} variables up to degree {bound} span {count} monomials, "
            f"more than the cap of {MAX_MONOMIALS}; lower the bound or the variable count"
        )
    combinatorial = spec.kind is IdealKind.MONOMIAL and not force_elimination
    if combinatorial:
        gens = {g.exps for g in spec.monomial_generators()}
    standard: set[tuple[int, ...]] = set()  # standard monomials one degree down
    components = []
    prev_dim = None
    for d in range(bound + 1):
        if combinatorial:
            comp, standard = _component_combinatorial(spec.nvars, d, gens, standard)
        else:
            comp = _component_elimination(spec, d)
        dim = len(comp.quotient_cols)
        # The irrelevant ideal is generated in degree 1, so a vanished degree
        # can never be followed by a nonzero one.
        if prev_dim == 0 and dim != 0:
            raise RuntimeError(f"H({d}) = {dim} after H({d - 1}) = 0")
        prev_dim = dim
        components.append(comp)
    dims = tuple(len(c.quotient_cols) for c in components)
    hilbert = HilbertFn(dims, 0 in dims)
    top = dims.index(0) - 1 if 0 in dims else None
    if top is None:
        powers = pure_power_exponents(spec)
        # Standard monomials die after sum(a_i - 1), so a bound reaching
        # that degree already shows every later degree is zero.
        if powers is not None and sum(a - 1 for a in powers.values()) <= bound:
            top = bound
    return GradedQuotient(spec, bound, tuple(components), hilbert, top)


def pure_power_exponents(spec: IdealSpec) -> dict[int, int] | None:
    """For a monomial ideal: minimal pure-power exponent per variable.

    Returns None unless every variable has a pure power among the
    generators (the exact Artinian test for monomial ideals).
    """
    if spec.kind is not IdealKind.MONOMIAL:
        return None
    best: dict[int, int] = {}
    for m in spec.monomial_generators():
        nz = [(i, e) for i, e in enumerate(m.exps) if e]
        if len(nz) == 1:
            i, e = nz[0]
            if i not in best or e < best[i]:
                best[i] = e
    if len(best) != spec.nvars:
        return None
    return best


def is_artinian_within(ring: GradedQuotient) -> bool:
    """Whether the ring is Artinian; exact for monomial ideals, else within bound.

    A ring that vanished within the bound is Artinian whatever the ideal; a
    monomial ideal with a pure power of every variable is Artinian even when
    the bound stops short of the vanishing degree.
    """
    return ring.artinian_within_bound or pure_power_exponents(ring.spec) is not None


def default_bound(spec: IdealSpec) -> int | None:
    """Degree bound sum(a_i - 1) + 1 for Artinian monomial ideals, else None.

    With pure powers x_i^{a_i} among the generators no standard monomial
    survives past degree sum(a_i - 1), so this bound always witnesses the
    vanishing degree.
    """
    powers = pure_power_exponents(spec)
    if powers is None:
        return None
    return sum(a - 1 for a in powers.values()) + 1
