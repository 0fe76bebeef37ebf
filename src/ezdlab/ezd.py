"""Multiplication maps, annihilators, and exact zero divisor detection.

A pair (x, y) is a pair of exact zero divisors when x and y are nonzero
in R, Ann(x) = (y) and Ann(y) = (x). Everything here works degree by
degree on a built GradedQuotient, and a dimension is a rank: with r_f(d)
the rank of multiplication by f from R_d, dim Ann(f)_d = dim R_d - r_f(d)
and dim (f)_d = r_f(d - deg f). The ring builds every map from its
normal-form table in integers, as the `int` rows of a matrix N over one
denominator D (`GradedQuotient.integer_map`): each rank, kernel, column
space and zero test here reads those rows, as N has those of N / D, and
only the public `mult_map` divides them, into a `QMatrix`. Every r_f(d)
comes from the ring's rank memo, so the pair check, the search for a
partner, the Lefschetz check, the colon identity and the socle's
certificate rank each (form, degree) once. The decision, the Lefschetz
check and the socle's certificate take their linear forms from one place,
`decision_forms`, so the check reuses the decision's ranks. `map_rank` reads
and fills the memo; the search for a partner fills it through
`ranked_map`, which also returns the map it ranked, so the partner, a
kernel vector (`annihilator_degree`), comes from the same build. Only
`socle_dims`, in a degree the certificate leaves open, ranks a matrix of
its own; on a monomial ring it reads the socle off the quotient basis and
ranks nothing. No table is read here. The containment (y)_d in Ann(x)_d holds exactly when
xy*R_{d-deg y} = 0, and given it, equality is equality of dimensions. A subspace is built only where its
vectors are used, as for the kernel vector `find_ezd_complement` offers
as a partner. An element that is zero in R (the zero polynomial, one in
I, one past the top degree, any element of the zero ring) is never part
of a pair. Both directions are always checked even where Artinian-ness
makes one imply the other; the second check is cheap and catches
truncation mistakes.

The Hilbert series alone can prove that no linear form has a partner: a
pair (ell, y) with deg ell = 1 and deg y = t splits H_R as the Hilbert
function of R/(ell) times 1 + z + ... + z^t (`hilbert_admits_pair`), so
`find_ezd_complement` builds no map for a linear form in a ring where no
t allows that split. For a general linear form the quotient R/(ell) also
obeys Green's hyperplane restriction bound H_{R/(ell)}(d) <= H_R(d)_<d>
(`green_bound`), and `general_form_admits_pair` asks for a split whose
quotient does; a form that is given or sampled need not be general, so
only a caller that knows its form is general may use it. Both tests read
one cached list of the admissible quotients per Hilbert function.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from operator import add
from typing import Sequence

from .exactmat import QMatrix, Subspace, kernel_basis, rank, ratio
from .gradedring import GradedQuotient
from .polyring import (
    HomogPoly,
    IdealKind,
    format_ideal,
    format_poly,
    linear_form,
    monomials_of_degree,
    variable,
)

COEFF_RANGE = 10**6  # sampled coefficients are nonzero integers in [-10^6, 10^6]


def derived_seed(seed: int, index: int) -> int:
    """Stable child seed for independent sampling streams."""
    return seed * 1_000_003 + index + 1


def mult_map(ring: GradedQuotient, f: HomogPoly, d: int) -> QMatrix:
    """Matrix of q -> f*q from R_d to R_{d+deg f} on the quotient bases.

    Columns correspond to the degree-d basis monomials. When the target
    degree lies past the bound of an Artinian-within-bound ring the target
    space is zero and a matrix with no rows and dim R_d columns is returned. Entries are in the form
    of `exact`: the ring's `integer_map` over its denominator. On a
    monomial ring, where every normal form is a unit coordinate or zero,
    an integer form gives an `int` matrix.
    """
    rows, den = ring.integer_map(f, d)
    return QMatrix(len(rows), ring.dim(d), [ratio(x, den) for row in rows for x in row])


def annihilator_degree(
    ring: GradedQuotient, f: HomogPoly, d: int, rows: list[list[int]] | None = None
) -> Subspace:
    """Degree-d piece of Ann(f) as a subspace of R_d: the kernel of f's map,
    read from `rows` when the caller has built it (`ring.ranked_map`)."""
    if rows is None:
        rows = ring.integer_map(f, d)[0]
    return kernel_basis(ring.dim(d), rows)


def principal_ideal_degree(ring: GradedQuotient, y: HomogPoly, d: int) -> Subspace:
    """Degree-d piece of the principal ideal (y) as a subspace of R_d.

    (y)_d is y*R_{d-deg y}, the column space of mult_map(ring, y, d - deg y):
    a monomial outside the quotient basis is congruent mod I to a
    combination of basis monomials, so its product with y adds nothing.
    """
    dim_d = ring.dim(d)
    if y.is_zero() or d < y.degree:
        return Subspace.from_vectors(dim_d, ())
    return Subspace.from_vectors(dim_d, zip(*ring.integer_map(y, d - y.degree)[0]))


class PairVerdict(Enum):
    EXACT_PAIR = "exact_pair"
    NOT_PAIR = "not_pair"


@dataclass(frozen=True)
class DegreeRow:
    degree: int
    dim_ring: int
    dim_ann_x: int
    dim_ideal_y: int
    dim_ann_y: int
    dim_ideal_x: int
    equal_xy: bool
    equal_yx: bool


@dataclass(frozen=True)
class EzdReport:
    """Outcome of an exact-zero-divisor pair check, with the per-degree table."""

    ring: str
    x: HomogPoly
    y: HomogPoly
    product_zero: bool
    table: tuple[DegreeRow, ...]
    verdict: PairVerdict
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring,
            "x": format_poly(self.x),
            "y": format_poly(self.y),
            "product_zero": self.product_zero,
            "verdict": self.verdict.value,
            "reason": self.reason,
            "table": [asdict(r) for r in self.table],
        }


def is_ezd_pair(ring: GradedQuotient, x: HomogPoly, y: HomogPoly) -> EzdReport:
    """Check whether (x, y) is a pair of exact zero divisors in the ring.

    The table's dimensions come from the rank lists r_x and r_y. Since
    (xy)_{k+1} = R_1*(xy)_k, xy*R_s is nonzero exactly for s below some
    z, so (y)_d lies in Ann(x)_d exactly when d < deg y or d - deg y >= z.
    """
    ring_id = format_ideal(ring.spec)
    top = ring.top_degree
    r_x = [ring.map_rank(x, d) for d in range(top + 1)]
    r_y = [ring.map_rank(y, d) for d in range(top + 1)]
    # f is zero in R exactly when f*1 is, i.e. r_f(0) = 0; the zero ring
    # (top = -1) has no element other than zero.
    if top < 0 or not (r_x[0] and r_y[0]):
        return EzdReport(ring_id, x, y, True, (), PairVerdict.NOT_PAIR, "zero element")

    # x*y over the integers, up to a nonzero factor: only its zero maps are read
    (a, _), (b, _) = x.integer_coeffs(), y.integer_coeffs()
    xy = HomogPoly(x.nvars, x.degree, a) * HomogPoly(y.nvars, y.degree, b)
    z = 0
    while xy.degree + z <= top and any(map(any, ring.integer_map(xy, z)[0])):
        z += 1
    product_zero = z == 0

    rows = []
    all_equal = True
    reason = None
    for d in range(top + 1):
        dim_d = ring.dim(d)
        ann_x, ann_y = dim_d - r_x[d], dim_d - r_y[d]
        ideal_y = r_y[d - y.degree] if d >= y.degree else 0
        ideal_x = r_x[d - x.degree] if d >= x.degree else 0
        eq_xy = (d < y.degree or d - y.degree >= z) and ann_x == ideal_y
        eq_yx = (d < x.degree or d - x.degree >= z) and ann_y == ideal_x
        rows.append(DegreeRow(d, dim_d, ann_x, ideal_y, ann_y, ideal_x, eq_xy, eq_yx))
        if all_equal and not (eq_xy and eq_yx):
            all_equal = False
            side = "Ann(x) vs (y)" if not eq_xy else "Ann(y) vs (x)"
            reason = f"{side} differ in degree {d}"

    if not product_zero:
        verdict = PairVerdict.NOT_PAIR
        reason = "product x*y is nonzero"
    elif not all_equal:
        verdict = PairVerdict.NOT_PAIR
    else:
        verdict = PairVerdict.EXACT_PAIR
    return EzdReport(ring_id, x, y, product_zero, tuple(rows), verdict, reason)


@lru_cache(maxsize=1 << 12)
def _binomial_expansion(h: int, d: int) -> tuple[tuple[int, int], ...]:
    """The d-binomial expansion h = C(k_d, d) + C(k_{d-1}, d-1) + ... +
    C(k_j, j), k_d > k_{d-1} > ... > k_j >= j >= 1, taken greedily, as its
    pairs (k_i, i); none for h = 0. Each k_i is the largest k with
    C(k, i) <= what is left of h."""
    terms = []
    while h:
        k = d
        while comb(k + 1, d) <= h:
            k += 1
        h -= comb(k, d)
        terms.append((k, d))
        d -= 1
    return tuple(terms)


def macaulay_bound(h: int, d: int) -> int:
    """Macaulay's bound h^<d>, the largest H(d+1) of a standard graded
    algebra with H(d) = h, for d >= 1: C(k_d + 1, d + 1) + ... +
    C(k_j + 1, j + 1) over the d-binomial expansion of h
    (`_binomial_expansion`).
    """
    if d < 1 or h < 0:
        raise ValueError("need d >= 1 and h >= 0")
    return sum(comb(k + 1, i + 1) for k, i in _binomial_expansion(h, d))


def green_bound(h: int, d: int) -> int:
    """Green's bound h_<d> = C(k_d - 1, d) + ... + C(k_j - 1, j) over the
    d-binomial expansion of h, for d >= 1.

    Green's hyperplane restriction theorem (M. Green, "Restrictions of
    linear series to hyperplanes, and some results of Macaulay and
    Gotzmann", LNM 1389, 1989): for a general linear form ell of a standard
    graded algebra R, H_{R/(ell)}(d) <= H_R(d)_<d> for every d >= 1.
    """
    if d < 1 or h < 0:
        raise ValueError("need d >= 1 and h >= 0")
    return sum(comb(k - 1, i) for k, i in _binomial_expansion(h, d))


def hilbert_admits_pair(values: Sequence[int]) -> bool:
    """Whether a ring with Hilbert function `values` (H(0), H(1), ..., with
    any trailing zeros) can have a linear form in an exact pair.

    If (ell, y) is an exact pair with deg ell = 1 and deg y = t, then
    Ann(ell) = (y) gives 0 -> (R/(y))(-1) -> R -> R/(ell) -> 0 and
    Ann(y) = (ell) gives 0 -> (R/(ell))(-t) -> R -> R/(y) -> 0. Together
    they force H_R(z) = q(z)(1 + z + ... + z^t) with q the Hilbert function
    of the standard graded algebra R/(ell): q(0) = 1, q >= 0 and
    q(d+1) <= q(d)^<d>. As ell and y are nonzero, 1 <= t <= top; when no such t
    divides H_R with a quotient of that kind, no linear form has a partner.
    The quotients are computed once per Hilbert function (`_pair_quotients`):
    a scan's rings have few distinct ones.
    """
    return bool(_pair_quotients(tuple(values)))


def general_form_admits_pair(values: Sequence[int]) -> bool:
    """Whether a ring with Hilbert function `values` can have a general
    linear form in an exact pair: `hilbert_admits_pair`, with each quotient
    q = H_{R/(ell)} also held to Green's bound q(d) <= H(d)_<d>
    (`green_bound`) for d >= 1, which a general form's quotient obeys.

    A form that is given or sampled need not be general, so only a caller
    that knows its form lies in Green's open set may use this test in place
    of `hilbert_admits_pair`.
    """
    h = tuple(values)
    return any(
        all(q[d] <= green_bound(h[d], d) for d in range(1, len(q)))
        for q in _pair_quotients(h)
    )


@lru_cache(maxsize=1 << 12)
def _pair_quotients(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The quotients q, one per partner degree t, that split H_R as
    q(z)(1 + z + ... + z^t) and pass `hilbert_admits_pair`'s tests, without
    trailing zeros."""
    h = list(values)
    while h and not h[-1]:
        h.pop()
    top = len(h) - 1
    total = sum(h)
    found = []
    for t in range(1, top + 1):
        if total % (t + 1):  # at z = 1 the split reads sum H = (t + 1) * sum q
            continue
        # q(d) = H(d) - q(d-1) - ... - q(d-t); [t+1]_z divides H exactly
        # when the recurrence stops at degree top - t
        q: list[int] = []
        for d in range(top + 1):
            q.append(h[d] - sum(q[max(0, d - t) : d]))
        if any(q[top - t + 1 :]):
            continue
        q = q[: top - t + 1]
        if q[0] == 1 and min(q) >= 0 and all(
            q[d + 1] <= macaulay_bound(q[d], d) for d in range(1, len(q) - 1)
        ):
            found.append(tuple(q))
    return tuple(found)


def find_ezd_complement(ring: GradedQuotient, ell: HomogPoly) -> tuple[HomogPoly, EzdReport] | None:
    """Locate the canonical exact partner of `ell`, if one exists.

    Any homogeneous partner must live in the least degree where Ann(ell)
    is nonzero, and that piece must be one-dimensional to be principal.
    The candidate is the canonical generator of that piece (first nonzero
    coordinate scaled to 1); the full pair check then decides. Each degree
    builds ell's map once (`ring.ranked_map`): its rank, which the ring
    remembers for the pair check, and that piece are read from it. A linear
    form whose ring fails `hilbert_admits_pair` has no partner, and no
    map is built. None means no partner; a ring that may not vanish past
    its bound is refused with ValueError, as by every analysis, since a
    partner may lie past the bound.
    """
    top = ring.top_degree
    if ell.is_zero():
        return None
    if ell.degree == 1 and not hilbert_admits_pair(ring.hilbert.values):
        return None
    for t in range(top + 1):
        r, rows = ring.ranked_map(ell, t)
        nullity = ring.dim(t) - r
        if nullity == 0:
            continue
        if nullity >= 2:
            return None
        q = ring.basis_poly(t, annihilator_degree(ring, ell, t, rows).basis[0])
        report = is_ezd_pair(ring, ell, q)
        if report.verdict is PairVerdict.EXACT_PAIR:
            return q, report
        return None
    return None


def generic_linear_form(nvars: int, seed: int) -> HomogPoly:
    """Linear form with nonzero integer coefficients sampled from the seed."""
    rng = random.Random(seed)
    coeffs = []
    for _ in range(nvars):
        c = 0
        while c == 0:
            c = rng.randint(-COEFF_RANGE, COEFF_RANGE)
        coeffs.append(c)
    return linear_form(coeffs)


def decision_forms(ring: GradedQuotient, trials: int, seed: int) -> tuple[tuple[HomogPoly, ...], bool]:
    """The linear forms on which the ring's generic questions are decided,
    and whether they decide exactly.

    On a monomial ring rescaling the variables is an automorphism, so the
    all-ones form stands for every form with no zero coefficient (Migliore,
    Miro-Roig and Nagel, Trans. AMS 363, 2011, Prop. 2.2): it is the one
    form, and exact. Any other ring gets `trials` forms sampled from `seed`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if ring.spec.kind is IdealKind.MONOMIAL:
        return (linear_form([1] * ring.nvars),), True
    return tuple(generic_linear_form(ring.nvars, derived_seed(seed, t)) for t in range(trials)), False


class GenericDecision(Enum):
    GENERICALLY_YES = "generically_yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GenericVerdict:
    """Decision on whether generic linear forms are exact zero divisors."""

    decision: GenericDecision
    witness: HomogPoly | None
    trials: int
    seed: int
    exact: bool
    report: EzdReport | None
    forms: tuple[HomogPoly, ...]  # the forms tried, in trial order
    partners: tuple[HomogPoly | None, ...]  # each form's partner, or None

    def to_json_dict(self) -> dict:
        return {
            "decision": self.decision.value,
            "witness": format_poly(self.witness) if self.witness is not None else None,
            "trials": self.trials,
            "seed": self.seed,
            "exact": self.exact,
        }


def trial_decision(successes: int, trials: int) -> GenericDecision:
    """Yes when every trial found an exact pair, no when none did, and
    inconclusive otherwise: mixed outcomes are never resolved by majority."""
    if successes == trials:
        return GenericDecision.GENERICALLY_YES
    return GenericDecision.INCONCLUSIVE if successes else GenericDecision.NO


def generic_ezd_decision(ring: GradedQuotient, trials: int = 3, seed: int = 0) -> GenericVerdict:
    """Decide whether a generic linear form is part of an exact pair: search
    a partner of each of `decision_forms`' forms and combine the outcomes by
    `trial_decision`."""
    forms, exact = decision_forms(ring, trials, seed)
    pairs = [find_ezd_complement(ring, ell) for ell in forms]
    found = [pair for pair in pairs if pair is not None]
    witness, report = found[-1] if found else (None, None)
    decision = trial_decision(len(found), len(forms))
    partners = tuple(None if pair is None else pair[0] for pair in pairs)
    return GenericVerdict(decision, witness, len(forms), seed, exact, report, forms, partners)


@dataclass(frozen=True)
class WlpDegree:
    degree: int
    dim_source: int
    dim_target: int
    rank: int
    maximal: bool


@dataclass(frozen=True)
class WlpReport:
    degrees: tuple[WlpDegree, ...]
    holds: bool
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "trials": self.trials,
            "seed": self.seed,
            "degrees": [asdict(r) for r in self.degrees],
        }


def wlp_check(ring: GradedQuotient, trials: int = 3, seed: int = 0) -> WlpReport:
    """Weak Lefschetz check: multiplication by a general linear form must
    have maximal rank between every pair of consecutive degrees.

    Maximal rank is an open condition, so one witnessing form among
    `decision_forms`' suffices, and the check is exact where they are;
    per-degree rows report the best rank seen, from the rank memo that a
    decision on the same forms fills. A ring cut off at its bound is
    refused: the maps past the bound are unknown, so the property could
    fail there.
    """
    forms, _ = decision_forms(ring, trials, seed)
    degrees = range(1, ring.top_degree + 1)
    maximal = [min(ring.dim(i - 1), ring.dim(i)) for i in degrees]
    per_trial_ranks = [[ring.map_rank(ell, i - 1) for i in degrees] for ell in forms]
    rows = []
    for i, m, ranks in zip(degrees, maximal, zip(*per_trial_ranks)):
        best = max(ranks)
        rows.append(WlpDegree(i, ring.dim(i - 1), ring.dim(i), best, best == m))
    return WlpReport(tuple(rows), maximal in per_trial_ranks, trials, seed)


def socle_dims(ring: GradedQuotient) -> tuple[int, ...]:
    """Per-degree dimensions of {r : x_i * r = 0 for every variable x_i}.

    The top degree's socle is all of R_top, which every x_i maps to zero.
    Below it, on a monomial ring the socle is spanned by monomials, and it
    is read off the quotient basis: the basis monomials m of degree d with
    no x_i*m in the basis of degree d+1. On any other ring, the socle lies
    in the kernel of every linear form, so in a degree where the first of
    `decision_forms`' forms of seed 0 is injective it is zero, and the rank
    comes from `map_rank`. Every other degree ranks the variables' maps
    stacked.
    """
    top = ring.top_degree
    dims = []
    if ring.spec.kind is IdealKind.MONOMIAL:
        for d in range(top):
            above = set(ring.basis_monomials(d + 1))
            dims.append(sum(
                all(m[:i] + (m[i] + 1,) + m[i + 1 :] not in above for i in range(ring.nvars))
                for m in ring.basis_monomials(d)
            ))
    else:
        (ell,), _ = decision_forms(ring, 1, 0)
        for d in range(top):
            dim_d = ring.dim(d)
            if ring.map_rank(ell, d) == dim_d:
                dims.append(0)
                continue
            rows = []
            for i in range(ring.nvars):
                rows += ring.integer_map(variable(ring.nvars, i), d)[0]
            dims.append(dim_d - rank(rows))
    if top >= 0:  # the zero ring (top -1) has no degree
        dims.append(ring.dim(top))
    return tuple(dims)


def is_gorenstein(ring: GradedQuotient) -> bool:
    """Artinian Gorenstein means a one-dimensional socle."""
    return sum(socle_dims(ring)) == 1


@dataclass(frozen=True)
class YoshinoReport:
    """The two necessary conditions from Yoshino's theorem, plus Gorenstein-ness.

    For a non-Gorenstein ring vanishing from degree 3 on, exact zero
    divisors force c1 (dim R_2 = dim R_1 - 1) and c2 (generation in
    degree 2).
    """

    r1: int
    r2: int
    c1: bool
    c2: bool
    gorenstein: bool | None


def yoshino_conditions(ring: GradedQuotient) -> YoshinoReport:
    """Evaluate the Yoshino conditions on the ring."""
    if ring.bound < 2 and not ring.complete:
        raise ValueError("need the ring built to degree 2 at least")
    # a complete ring is zero past its bound
    r1, r2 = (ring.dim(d) if d <= ring.bound else 0 for d in (1, 2))
    c1 = r2 == r1 - 1
    c2 = all(g.degree == 2 for g in ring.spec.generators) and bool(ring.spec.generators)
    gor = is_gorenstein(ring) if ring.complete else None
    return YoshinoReport(r1, r2, c1, c2, gor)


def degree2_generator_count(nvars: int) -> int:
    """Generator count C(n+1, 2) - n + 1 forced by dim R_2 = dim R_1 - 1
    for ideals generated in degree 2."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    return nvars * (nvars + 1) // 2 - nvars + 1


def colon_identity_dims(ring: GradedQuotient, ell: HomogPoly) -> tuple[int, int]:
    """Both sides of dim (P/(I+(l)))_2 = dim R_2 - rank(l : R_1 -> R_2).

    The left side is C(n+1, 2) minus the rank of (I+(l))_2 in the
    coordinates of the degree-2 monomials of P, spanned by each generator
    of degree at most 2, and l, times each monomial that completes it to
    degree 2; every row is scaled to integers. It reads only the
    generators and l, never the ring's tables, and holds for any ideal.
    The right side comes from the multiplication map. The two short exact
    sequences behind the identity make them agree for any linear form.
    """
    n = ring.nvars
    column = {m: j for j, m in enumerate(monomials_of_degree(n, 2))}
    rows = []
    for g in (*ring.spec.generators, ell):
        if g.degree > 2:
            continue
        coeffs = g.integer_coeffs()[0]
        for m in monomials_of_degree(n, 2 - g.degree):
            row = [0] * len(column)
            for e, c in coeffs.items():
                row[column[tuple(map(add, e, m))]] = c
            rows.append(row)
    lhs = len(column) - rank(rows)
    rhs = ring.dim(2) - ring.map_rank(ell, 1)
    return lhs, rhs
