"""Multiplication maps, annihilators, pair detection, WLP, socle, conditions."""

import importlib.util
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from ezdlab import ezd, gradedring, lab
from ezdlab.exactmat import QMatrix, Subspace, kernel_basis, rank, subspace_equal
from ezdlab.ezd import (
    DegreeRow,
    GenericDecision,
    PairVerdict,
    annihilator_degree,
    colon_identity_dims,
    decision_forms,
    degree2_generator_count,
    derived_seed,
    find_ezd_complement,
    generic_ezd_decision,
    generic_linear_form,
    is_ezd_pair,
    is_gorenstein,
    mult_map,
    principal_ideal_degree,
    socle_dims,
    trial_decision,
    wlp_check,
    yoshino_conditions,
)
from ezdlab.gradedring import GradedQuotient, build_quotient, default_bound
from ezdlab.polyring import (
    HomogPoly,
    IdealKind,
    format_poly,
    linear_form,
    make_ideal,
    monomial_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
)
from ezdlab.lab import ScanConfig, enumerate_monomial_ideals
import binomial_family
from macaulay_oracle import macaulay_ring
from socle_oracle import socle_dims_by_stacked_rank
from subspace_oracle import contains

F = Fraction
REFUSED = "^ring does not vanish within the degree bound; raise the bound$"  # a ring that may not vanish


def ring_of(text, n, bound):
    return build_quotient(parse_ideal(text, n), bound)


def rows_of(m):
    """The rows of the QMatrix `m`, as `rank` reads them."""
    return [m.row(i) for i in range(m.rows)]


SQUARES = ring_of("x1^2, x2^2", 2, 3)
EXAMPLE3 = ring_of("x1^2, x2^2, x2*x3, x3^2", 3, 3)
DROP2 = ring_of("x1^2, x1*x3, x2^2, x2*x3, x3^2", 3, 3)  # only x1*x2 survives degree 2


def test_mult_map_squares():
    m = mult_map(SQUARES, parse_poly("x1 + x2", 2), 1)
    assert (m.rows, m.cols) == (1, 2)
    assert m.data == (F(1), F(1))


def test_mult_map_zero_form():
    m = mult_map(SQUARES, HomogPoly.zero(2, 1), 1)
    assert m.data == (F(0), F(0))


def test_mult_map_polynomial_ring_injective():
    free = ring_of("", 3, 3)
    m = mult_map(free, parse_poly("x1", 3), 1)
    assert rank(rows_of(m)) == 3


def _normal_form_mult_map(oracle, f, d):
    """One product and one normal form per column: the mult_map oracle.

    `oracle` is the ring of `macaulay_ring`, so the normal forms never come
    from the table of the ring under test.
    """
    source = oracle.basis_monomials(d)
    cols = [oracle.normal_form(f * HomogPoly.from_monomial(b)) for b in source]
    nrows = oracle.dim(d + f.degree)
    return QMatrix(nrows, len(source), [cols[j][i] for i in range(nrows) for j in range(len(source))])


def _normal_form_principal_ideal(oracle, y, d):
    """The principal_ideal_degree oracle, built from the oracle ring's normal forms."""
    if d < y.degree:
        return Subspace.from_vectors(oracle.dim(d), [])
    shifts = monomials_of_degree(oracle.nvars, d - y.degree)
    vectors = [oracle.normal_form(HomogPoly.from_monomial(m) * y) for m in shifts]
    return Subspace.from_vectors(oracle.dim(d), vectors)


def _rational_form(rng, nvars, degree, denominators):
    """A form of two or more terms; coefficients are ±a/b with a <= 9, b <= denominators."""
    all_monos = monomials_of_degree(nvars, degree)
    monos = rng.sample(all_monos, rng.randint(2, len(all_monos)))
    coeffs = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, denominators)) for _ in monos]
    return HomogPoly(nvars, degree, list(zip(monos, coeffs)))


def test_monomial_lookup_maps_match_normal_forms():
    """mult_map and principal_ideal_degree against normal forms of the
    eliminating build, on monomial, binomial, mixed and complete
    intersection rings, for integer and fractional forms. The integer map
    every internal rank reads, over its denominator, matches too."""
    rng = random.Random(4242)
    cases = []
    for trial in range(40):
        nvars = rng.randint(2, 3)
        if trial == 0:
            spec = monomial_ideal(nvars, [(0,) * nvars])  # the unit ideal
        else:
            pool = [m for d in range(1, 4) for m in monomials_of_degree(nvars, d)]
            spec = monomial_ideal(nvars, rng.sample(pool, rng.randint(1, 5)))
        cases.append((spec, rng.randint(2, 5)))
    # a sample of the n=3 binomial family J + (f1 + f2), J and f_i in degree 2
    quadrics = monomials_of_degree(3, 2)
    for _ in range(12):
        f1, f2 = rng.sample(quadrics, 2)
        j = [HomogPoly.from_monomial(m) for m in quadrics if m not in (f1, f2) and rng.random() < 0.5]
        cases.append((make_ideal(3, j + [HomogPoly(3, 2, [(f1, 1), (f2, 1)])]), rng.randint(3, 6)))
    # monomials of degree 1..3 mixed with forms of two or more terms
    for _ in range(10):
        nvars = rng.randint(3, 4)
        pool = [m for d in (1, 2, 3) for m in monomials_of_degree(nvars, d)]
        gens = [HomogPoly.from_monomial(m) for m in rng.sample(pool, rng.randint(0, 3))]
        gens.append(_rational_form(rng, nvars, rng.randint(1, 3), 4))
        cases.append((make_ideal(nvars, gens), rng.randint(2, 4)))
    # complete intersections with random integer coefficients in [-9, 9]
    for degs in ((2, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3)):
        gens = [HomogPoly(3, d, [(m, rng.randint(-9, 9)) for m in monomials_of_degree(3, d)]) for d in degs]
        cases.append((make_ideal(3, gens), sum(d - 1 for d in degs) + 1))
    assert sum(spec.kind is not IdealKind.MONOMIAL for spec, _ in cases) == 26
    shared_rows = 0
    above_one = set()  # whether D > 1, over every integer map
    for spec, bound in cases:
        ring = build_quotient(spec, bound)
        oracle = macaulay_ring(spec, bound)
        nvars = spec.nvars
        for deg in (1, 2):
            for denominators in (1, 6):  # integer forms, then fractional ones
                f = _rational_form(rng, nvars, deg, denominators)
                for d in range(bound - deg + 1):
                    got = mult_map(ring, f, d)
                    expected = _normal_form_mult_map(oracle, f, d)
                    assert got == expected
                    rows, den = ring.integer_map(f, d)
                    assert all(type(x) is int for row in rows for x in row) and type(den) is int and den >= 1
                    assert [len(row) for row in rows] == [expected.cols] * expected.rows
                    assert QMatrix(expected.rows, expected.cols, [F(x, den) for row in rows for x in row]) == expected
                    above_one.add(den > 1)
                    # rows fed by several columns: terms of different products
                    # landing on the same target coordinate
                    shared_rows += sum(1 for i in range(got.rows) if sum(1 for x in got.row(i) if x) > 1)
                for d in range(bound + 1):
                    assert principal_ideal_degree(ring, f, d) == _normal_form_principal_ideal(oracle, f, d)
    assert shared_rows > 0
    assert above_one == {False, True}


def test_integer_forms_give_int_maps_on_monomial_rings():
    """mult_map of an integer form on a monomial ring holds only ints and
    equals the normal-form map, whose entries are Fractions."""
    rng = random.Random(808)
    forms = 0
    for trial in range(25):
        nvars = rng.randint(2, 4)
        pool = [m for d in range(2, 4) for m in monomials_of_degree(nvars, d)]
        spec = monomial_ideal(nvars, rng.sample(pool, rng.randint(1, 6)))
        bound = rng.randint(2, 5)
        ring = build_quotient(spec, bound)
        oracle = macaulay_ring(spec, bound)
        quad_terms = rng.sample(monomials_of_degree(nvars, 2), rng.randint(1, 3))
        for f in (
            linear_form([1] * nvars),
            generic_linear_form(nvars, trial),
            HomogPoly(nvars, 2, [(m, rng.choice([-1, 1]) * rng.randint(1, 10**6)) for m in quad_terms]),
        ):
            forms += 1
            for d in range(bound - f.degree + 1):
                got = mult_map(ring, f, d)
                assert all(type(x) is int for x in got.data)
                assert got == _normal_form_mult_map(oracle, f, d)
    assert forms == 75


def test_annihilator_examples():
    ann = annihilator_degree(SQUARES, parse_poly("x1 + x2", 2), 1)
    assert ann.basis == ((F(1), F(-1)),)
    ann2 = annihilator_degree(SQUARES, parse_poly("x1 + x2", 2), 2)
    assert ann2.dim == SQUARES.dim(2)
    free = ring_of("", 2, 4)
    assert annihilator_degree(free, parse_poly("x1", 2), 2).dim == 0


def test_a_map_past_the_bound_keeps_its_source_width():
    """x1^2, x2^2 built to degree 2 is complete with top degree 2, so the map
    of x1 + x2 from R_2 = span(x1*x2) lands in the zero space R_3: it has no
    rows and one column, and its kernel is all of R_2."""
    ring = ring_of("x1^2, x2^2", 2, 2)
    assert ring.complete and ring.top_degree == 2 and ring.dim(2) == 1
    ell = parse_poly("x1 + x2", 2)
    m = mult_map(ring, ell, 2)
    assert (m.rows, m.cols) == (0, 1)
    assert annihilator_degree(ring, ell, 2).dim == 1
    assert principal_ideal_degree(ring, ell, 2) == Subspace.from_vectors(1, [[1]])


def test_principal_ideal_examples():
    sub = principal_ideal_degree(SQUARES, parse_poly("x1 - x2", 2), 2)
    assert sub.dim == 1 and sub.dim == SQUARES.dim(2)
    assert principal_ideal_degree(SQUARES, HomogPoly.zero(2, 1), 2).dim == 0
    sub1 = principal_ideal_degree(SQUARES, parse_poly("x1 - x2", 2), 1)
    assert sub1.basis == ((F(1), F(-1)),)


def test_is_ezd_pair_squares():
    rep = is_ezd_pair(SQUARES, parse_poly("x1 + x2", 2), parse_poly("x1 - x2", 2))
    assert rep.verdict is PairVerdict.EXACT_PAIR
    assert rep.product_zero
    assert [r.dim_ann_x for r in rep.table] == [0, 1, 1]
    assert all(r.equal_xy and r.equal_yx for r in rep.table)


def test_is_ezd_pair_not_pair():
    rep = is_ezd_pair(SQUARES, parse_poly("x1 + x2", 2), parse_poly("x1 + x2", 2))
    assert rep.verdict is PairVerdict.NOT_PAIR
    assert not rep.product_zero


def test_is_ezd_pair_power_example_ring():
    rep = is_ezd_pair(
        EXAMPLE3, parse_poly("x1 + x2 + x3", 3), parse_poly("x1 - x2 - x3", 3)
    )
    assert rep.verdict is PairVerdict.EXACT_PAIR


def test_is_ezd_pair_symmetric():
    for x_text, y_text in [("x1 + x2", "x1 - x2"), ("x1 + x2", "x1 + x2")]:
        x, y = parse_poly(x_text, 2), parse_poly(y_text, 2)
        assert is_ezd_pair(SQUARES, x, y).verdict == is_ezd_pair(SQUARES, y, x).verdict


def test_is_ezd_pair_truncated():
    free = ring_of("", 2, 3)
    with pytest.raises(ValueError, match=REFUSED):
        is_ezd_pair(free, parse_poly("x1", 2), parse_poly("x2", 2))


def _subspace_pair_table(ring, x, y):
    """The pair table from four canonical subspaces per degree: the oracle.

    Ann(x)_d and Ann(y)_d are kernels, (y)_d and (x)_d spans of shifted
    normal forms, and each side is compared as a canonical subspace.
    """
    if x.degree + y.degree <= ring.bound:
        product_zero = not any(ring.normal_form(x * y))
    else:
        product_zero = True
    rows = []
    for d in range(ring.top_degree + 1):
        ann_x = annihilator_degree(ring, x, d)
        ideal_y = principal_ideal_degree(ring, y, d)
        ann_y = annihilator_degree(ring, y, d)
        ideal_x = principal_ideal_degree(ring, x, d)
        rows.append(DegreeRow(
            d, ring.dim(d), ann_x.dim, ideal_y.dim, ann_y.dim, ideal_x.dim,
            subspace_equal(ann_x, ideal_y), subspace_equal(ann_y, ideal_x),
        ))
    return product_zero, tuple(rows)


def _random_form(rng, nvars, degree):
    monos = monomials_of_degree(nvars, degree)
    terms = rng.sample(monos, rng.randint(1, len(monos)))
    return HomogPoly(nvars, degree, [(m, F(rng.choice([-3, -2, -1, 1, 2, 3]))) for m in terms])


def _oracle_rings(rng):
    """Eight complete rings of each kind: monomial, one binomial, general."""
    rings = []
    for kind in IdealKind:
        built = 0
        while built < 8:
            n = rng.randint(2, 3)
            quadrics = monomials_of_degree(n, 2)
            if kind is IdealKind.MONOMIAL:
                powers = [tuple(rng.randint(2, 3) * (i == j) for i in range(n)) for j in range(n)]
                extra = rng.sample(quadrics + monomials_of_degree(n, 3), rng.randint(0, 2))
                spec = monomial_ideal(n, powers + extra)
                bound = default_bound(spec)
            elif kind is IdealKind.MONOMIAL_PLUS_ONE_BINOMIAL:
                squares = [tuple(2 * (i == j) for i in range(n)) for j in range(n)]
                m1, m2 = rng.sample(quadrics, 2)
                gens = squares + rng.sample(quadrics, rng.randint(0, 1))
                binomial = HomogPoly(n, 2, [(m1, F(1)), (m2, F(1))])
                spec = make_ideal(n, [HomogPoly.from_monomial(m) for m in gens] + [binomial])
                bound = n + 1
            else:
                spec = make_ideal(n, [_random_form(rng, n, 2) for _ in range(n)])
                bound = 2 * n
            ring = build_quotient(spec, bound)
            if spec.kind is kind and ring.complete and ring.top_degree >= 1:
                rings.append(ring)
                built += 1
    return rings


def test_rank_table_matches_subspace_oracle():
    """is_ezd_pair reads its table from ranks and one product scan; the
    four-subspace construction must give the same table on random pairs."""
    rng = random.Random(2024)
    pairs = nonzero_products = dims_agree_not_contained = exact = 0
    for ring in _oracle_rings(rng):
        n = ring.nvars
        for _ in range(16):
            x = _random_form(rng, n, rng.randint(0, min(3, ring.top_degree)))
            b = rng.randint(0, min(3, ring.top_degree))
            ann = annihilator_degree(ring, x, b) if rng.random() < 0.6 else None
            if ann is not None and ann.dim:
                # a partner from Ann(x): the product vanishes
                coeffs = [rng.randint(-2, 2) or 1 for _ in range(ann.dim)]
                vec = [sum(c * v[i] for c, v in zip(coeffs, ann.basis)) for i in range(ring.dim(b))]
                y = ring.basis_poly(b, vec)
            else:
                y = _random_form(rng, n, b)
            if not (any(ring.normal_form(x)) and any(ring.normal_form(y))):
                continue  # zero in R: test_zero_in_ring_is_never_a_pair
            report = is_ezd_pair(ring, x, y)
            product_zero, table = _subspace_pair_table(ring, x, y)
            assert (report.product_zero, report.table) == (product_zero, table), (ring.spec, x, y)
            assert (report.verdict is PairVerdict.EXACT_PAIR) == (
                product_zero and all(r.equal_xy and r.equal_yx for r in table)
            )
            pairs += 1
            nonzero_products += not product_zero
            exact += report.verdict is PairVerdict.EXACT_PAIR
            dims_agree_not_contained += sum(
                (r.dim_ann_x == r.dim_ideal_y and not r.equal_xy)
                + (r.dim_ann_y == r.dim_ideal_x and not r.equal_yx)
                for r in table
            )
    assert pairs >= 300
    assert nonzero_products > 0
    assert exact > 0
    assert dims_agree_not_contained > 0


@pytest.mark.parametrize(
    "ideal, n, bound, x, y",
    [
        ("x1^2, x2^2", 2, 3, "x1^2", "1"),  # x in I
        ("x1^2, x2^2", 2, 3, "3", "x1^2"),  # y in I
        ("x1^2, x2^2", 2, 3, "x1^3", "1"),  # past the top degree
        ("x1^2, x2^2", 2, 3, "x1^5", "x1 + x2"),  # past the bound
        ("x1^2, x2^2", 2, 3, "x1 + x2", "0"),  # the zero polynomial
        ("1", 2, 2, "x1", "x2"),  # the zero ring
    ],
)
def test_zero_in_ring_is_never_a_pair(ideal, n, bound, x, y):
    ring = ring_of(ideal, n, bound)
    for a, b in ((x, y), (y, x)):
        rep = is_ezd_pair(ring, parse_poly(a, n), parse_poly(b, n))
        assert rep.verdict is PairVerdict.NOT_PAIR
        assert rep.reason == "zero element"


def test_find_complement_squares():
    q, rep = find_ezd_complement(SQUARES, parse_poly("x1 + x2", 2))
    assert format_poly(q) == "x1 - x2"
    assert rep.verdict is PairVerdict.EXACT_PAIR


def test_find_complement_big_kernel():
    assert find_ezd_complement(DROP2, parse_poly("x1 + x2 + x3", 3)) is None
    assert annihilator_degree(DROP2, parse_poly("x1 + x2 + x3", 3), 1).dim >= 2


def test_find_complement_truncated_ring():
    with pytest.raises(ValueError, match=REFUSED):
        find_ezd_complement(ring_of("", 2, 3), parse_poly("x1 + x2", 2))


def test_a_ring_cut_off_at_its_bound_is_refused_by_every_analysis():
    """x1^2, x2^2 built to degree 1 may not vanish past its bound, and every
    analysis refuses it alike, the zero form's partner search included:
    built to degree 2, x1 + x2 has the partner x1 - x2, so no answer read
    off degrees 0..1 could stand."""
    cut = ring_of("x1^2, x2^2", 2, 1)
    ell, partner = parse_poly("x1 + x2", 2), parse_poly("x1 - x2", 2)
    assert not cut.complete
    for analysis in (
        lambda: cut.top_degree,
        lambda: is_ezd_pair(cut, ell, partner),
        lambda: find_ezd_complement(cut, ell),
        lambda: find_ezd_complement(cut, HomogPoly(2, 1, [])),
        lambda: generic_ezd_decision(cut),
        lambda: wlp_check(cut),
        lambda: socle_dims(cut),
    ):
        with pytest.raises(ValueError, match=REFUSED):
            analysis()
    q, report = find_ezd_complement(ring_of("x1^2, x2^2", 2, 2), ell)
    assert q == partner
    assert report.verdict is PairVerdict.EXACT_PAIR


@pytest.mark.parametrize("text, nvars, bound, extra", [
    ("x1^2, x2^2, x3^3", 3, 4, 2),  # complete at 4 with no zero in H
    ("x1^2, x2^3, x3^4", 3, 6, 2),
    ("x1^2, x2^2, x3^3, x4^3", 4, 6, 2),
    ("x1^2 + x2^2, x1*x2", 2, 3, 1),  # complete once H reaches 0
    ("x1^2 + x2*x3, x2^2 + x1*x3, x3^2 + x1*x2", 3, 4, 1),
])
def test_answers_on_a_complete_ring_do_not_depend_on_its_bound(text, nvars, bound, extra):
    """At the least bound where the ring is complete and `extra` degrees
    past it, every analysis gives the same answer. Where no degree in the
    bound is zero, the last degree's maps come from `integer_map`'s
    zero-target branch."""
    assert not ring_of(text, nvars, bound - 1).complete
    answers = []
    for b in (bound, bound + extra):
        ring = ring_of(text, nvars, b)
        found = find_ezd_complement(ring, linear_form([1] * nvars))
        answers.append((
            ring.top_degree,
            generic_ezd_decision(ring).to_json_dict(),
            wlp_check(ring).to_json_dict(),
            socle_dims(ring),
            found and (found[0], found[1].to_json_dict()),
        ))
    assert answers[0] == answers[1]


def test_generic_linear_form_contract():
    a = generic_linear_form(2, 123)
    b = generic_linear_form(2, 123)
    c = generic_linear_form(2, 124)
    assert a == b
    assert a != c
    for seed in range(30):
        form = generic_linear_form(3, seed)
        assert all(form.coefficient(m) != 0 for m in monomials_of_degree(3, 1))


def test_generic_decision_monomial_exact():
    v = generic_ezd_decision(SQUARES)
    assert v.decision is GenericDecision.GENERICALLY_YES
    assert v.exact
    assert format_poly(v.witness) == "x1 - x2"


def test_generic_decision_binomial_sampled():
    ring = ring_of("x1^2, x1*x2 + x2^2", 2, 3)
    v = generic_ezd_decision(ring, trials=5, seed=1)
    assert v.decision is GenericDecision.GENERICALLY_YES
    assert not v.exact
    assert v.witness is not None and v.witness.degree == 1


def test_generic_decision_no():
    v = generic_ezd_decision(DROP2)
    assert v.decision is GenericDecision.NO
    assert v.exact


@pytest.mark.parametrize(
    "successes, trials, decision",
    [(3, 3, "generically_yes"), (0, 3, "no"), (1, 3, "inconclusive"), (1, 1, "generically_yes")],
)
def test_trial_decision(successes, trials, decision):
    assert trial_decision(successes, trials) is GenericDecision(decision)


def test_generic_decision_requires_vanishing():
    with pytest.raises(ValueError):
        generic_ezd_decision(ring_of("", 2, 3))


def test_scaling_invariance():
    ell = parse_poly("x1 + x2", 2)
    scaled = parse_poly("5*x1 + 5*x2", 2)
    assert subspace_equal(
        annihilator_degree(SQUARES, ell, 1), annihilator_degree(SQUARES, scaled, 1)
    )
    q1, _ = find_ezd_complement(SQUARES, ell)
    q2, _ = find_ezd_complement(SQUARES, scaled)
    assert q1 == q2


def test_decision_forms():
    """A monomial ring is decided on the all-ones form alone, exactly; any
    other ring on `trials` forms sampled from the seed; no ring on none."""
    assert decision_forms(EXAMPLE3, 3, 7) == ((linear_form([1, 1, 1]),), True)
    ring = ring_of("x1^2 + x2*x3, x2^2, x3^2", 3, 4)
    forms, exact = decision_forms(ring, 3, 7)
    assert not exact
    assert forms == tuple(generic_linear_form(3, derived_seed(7, t)) for t in range(3))
    for r in (EXAMPLE3, ring):
        with pytest.raises(ValueError, match="need at least one trial"):
            decision_forms(r, 0, 7)


def test_wlp_ranks_one_form_on_a_monomial_ring(monkeypatch):
    """On a monomial ring the check ranks the all-ones form alone, whatever
    `trials` asks for; the report echoes `trials` and `seed`, and its rows
    are those of one trial."""
    ring = ring_of("x1^3, x2^3, x3^3, x1*x2*x3", 3, 6)
    asked = []
    map_rank = GradedQuotient.map_rank

    def recording(ring_, f, d):
        asked.append(f)
        return map_rank(ring_, f, d)

    monkeypatch.setattr(GradedQuotient, "map_rank", recording)
    rep = wlp_check(ring, 3, 7)
    assert set(asked) == {linear_form([1, 1, 1])} and len(asked) == ring.top_degree
    one = wlp_check(ring, 1)
    assert (rep.trials, rep.seed) == (3, 7)
    assert (rep.degrees, rep.holds) == (one.degrees, one.holds)


def test_wlp_examples():
    assert wlp_check(ring_of("x1^3, x2^3", 2, 5)).holds
    rep = wlp_check(SQUARES)
    assert rep.holds
    assert [r.rank for r in rep.degrees] == [1, 1]  # 1 -> 2 injective, 2 -> 1 surjective


def test_wlp_refuses_a_ring_cut_off_at_its_bound():
    """To degree 2 every map of x1^3, x2^3, x3^3, x1*x2*x3 has maximal rank,
    but the one into degree 3 does not: a check that stopped at the bound
    would claim the property."""
    text = "x1^3, x2^3, x3^3, x1*x2*x3"
    for bound in (2, 3):
        ring = ring_of(text, 3, bound)
        assert not ring.complete
        with pytest.raises(ValueError, match=REFUSED):
            wlp_check(ring)
    rep = wlp_check(ring_of(text, 3, 6))
    assert not rep.holds
    assert [r.maximal for r in rep.degrees[:2]] == [True, True]
    assert (rep.degrees[2].rank, rep.degrees[2].dim_source, rep.degrees[2].dim_target) == (5, 6, 6)


def test_socle_and_gorenstein():
    assert socle_dims(SQUARES) == (0, 0, 1)
    assert is_gorenstein(SQUARES)
    short = ring_of("x1^2, x1*x2, x2^2", 2, 2)
    assert socle_dims(short) == (0, 2)
    assert not is_gorenstein(short)


def test_socle_degree_of_power_quotients():
    # P/(x1^{a1+1},...,xn^{an+1}) has its socle exactly in degree sum(a_i)
    for exps in [(1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        n = len(exps)
        text = ", ".join(f"x{i + 1}^{a + 1}" for i, a in enumerate(exps))
        ring = ring_of(text, n, sum(exps) + 1)
        dims = socle_dims(ring)
        assert dims[-1] == 1
        assert ring.top_degree == sum(exps)
        assert all(v == 0 for v in dims[:-1])


def test_yoshino_conditions():
    rep = yoshino_conditions(SQUARES)
    assert rep.c1 and rep.c2 and rep.gorenstein
    rep3 = yoshino_conditions(EXAMPLE3)
    assert rep3.c1 and rep3.c2 and rep3.gorenstein is False
    cubic = yoshino_conditions(ring_of("x1^2, x2^3", 2, 4))
    assert not cubic.c2


def test_generator_count():
    assert degree2_generator_count(3) == 4
    assert degree2_generator_count(2) == 2
    assert degree2_generator_count(1) == 1


def test_rank_nullity_on_quotient():
    rng = random.Random(5)
    for ring in (SQUARES, EXAMPLE3, ring_of("x1^3, x2^3", 2, 5)):
        for _ in range(5):
            ell = generic_linear_form(ring.nvars, rng.randrange(10**6))
            for d in range(ring.top_degree + 1):
                m = mult_map(ring, ell, d)
                assert annihilator_degree(ring, ell, d).dim + rank(rows_of(m)) == ring.dim(d)


def test_ideal_contained_in_annihilator_when_product_vanishes():
    rng = random.Random(11)
    ring = ring_of("x1^3, x2^3", 2, 5)
    monos1 = monomials_of_degree(2, 1)
    for _ in range(40):
        x = HomogPoly(2, 1, [(m, F(rng.randint(-3, 3))) for m in monos1])
        y = HomogPoly(2, 2, [(m, F(rng.randint(-3, 3))) for m in monomials_of_degree(2, 2)])
        if x.is_zero() or y.is_zero():
            continue
        prod = x * y
        if any(ring.normal_form(prod)):
            continue
        for d in range(ring.top_degree + 1):
            ideal_x = principal_ideal_degree(ring, x, d)
            ann_y = annihilator_degree(ring, y, d)
            assert contains(ann_y, ideal_x)


def test_kernel_at_least_two_blocks_complements():
    # dim R_d <= dim R_{d-1} - 2 forces a >= 2-dimensional annihilator piece
    for seed in range(5):
        ell = generic_linear_form(3, seed)
        assert annihilator_degree(DROP2, ell, 1).dim >= 2
        found = find_ezd_complement(DROP2, ell)
        assert found is None or found[0].degree != 1


def test_colon_identity():
    rng = random.Random(3)
    for text, n in [
        ("x1^2, x1*x2 + x2^2", 2),
        ("x1^2, x2^2, x1*x2 + x3^2", 3),
        ("x1^2, x2^2", 2),
    ]:
        ring = ring_of(text, n, 3)
        for _ in range(4):
            ell = generic_linear_form(n, rng.randrange(10**6))
            lhs, rhs = colon_identity_dims(ring, ell)
            assert lhs == rhs


def _random_complete_intersection(seed):
    """Three generic forms of degrees 2, 2, 3 in three variables, built to
    their socle degree 4 plus one."""
    rng = random.Random(seed)
    gens = [
        HomogPoly(3, d, [(m, rng.randint(-9, 9)) for m in monomials_of_degree(3, d)])
        for d in (2, 2, 3)
    ]
    return build_quotient(make_ideal(3, gens), 5)


@pytest.fixture
def counted_ranks(monkeypatch):
    """Every matrix a ring's `map_rank` ranks, in call order."""
    ranked = []

    def counting(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(gradedring, "rank", counting)
    return ranked


@pytest.mark.parametrize("make_ring", [
    pytest.param(lambda: _random_complete_intersection(0), id="complete-intersection"),
    pytest.param(lambda: ring_of("x1^2, x2^2, x3^3", 3, 5), id="monomial"),
])
def test_map_rank_ranks_each_form_and_degree_once(monkeypatch, counted_ranks, make_ring):
    """A decision and a Lefschetz check of one ring with one seed rank each
    (form, degree) once, whether the rank is asked for alone (`map_rank`)
    or with its map (`ranked_map`, in the search for a partner), and every
    rank served is that of a fresh map. The Lefschetz check ranks nothing
    the decision has not: both take their forms from `decision_forms`.
    The ring is built under the counting fixture, so its build,
    which stops eliminating at a spanned border, takes no map rank."""
    ring = make_ring()
    assert not counted_ranks
    served = []
    map_rank = GradedQuotient.map_rank
    ranked_map = GradedQuotient.ranked_map

    def recording(ring_, f, d):
        r = map_rank(ring_, f, d)
        served.append((f, d, r))
        return r

    def recording_map(ring_, f, d):
        r, rows = ranked_map(ring_, f, d)
        served.append((f, d, r))
        return r, rows

    monkeypatch.setattr(GradedQuotient, "map_rank", recording)
    monkeypatch.setattr(GradedQuotient, "ranked_map", recording_map)
    assert generic_ezd_decision(ring, 3, 5).decision is GenericDecision.GENERICALLY_YES
    decided = len(counted_ranks)
    assert wlp_check(ring, 3, 5).holds
    assert len(counted_ranks) == decided  # the check reads the decision's ranks
    distinct = {(f, d) for f, d, _ in served}
    assert len(distinct) < len(served)  # the table served repeats
    assert len(counted_ranks) == len(distinct)
    for f, d, r in served:
        assert r == rank(rows_of(mult_map(ring, f, d)))


def test_map_rank_equal_forms_share_an_entry(counted_ranks):
    ring = ring_of("x1^2, x2^2, x3^3", 3, 5)
    f = linear_form([2, -3, 5])
    g = parse_poly("2*x1 - 3*x2 + 5*x3", 3)
    assert f is not g and f == g
    assert ring.map_rank(f, 1) == ring.map_rank(g, 1) == 3
    assert len(counted_ranks) == 1


def test_map_rank_rings_share_no_entries(counted_ranks):
    """The same ideal built to two bounds gives two rings, each with its own ranks."""
    spec = parse_ideal("x1^2, x2^2, x3^3", 3)
    low, high = build_quotient(spec, 4), build_quotient(spec, 6)
    f = linear_form([1, 1, 1])
    assert low.map_rank(f, 1) == high.map_rank(f, 1)
    assert len(counted_ranks) == 2
    assert low.map_rank(f, 1) == high.map_rank(f, 1)
    assert len(counted_ranks) == 2


def _artinian_binomial_rings(nvars):
    """Every Artinian J + (f1 + f2) of the binomial family, with J, f1 and f2
    in degree 2 and neither f_i in J, built to the bound the scan uses."""
    for j, f1, f2 in binomial_family.candidates(nvars):
        if f1 not in j and f2 not in j and lab._binomial_is_artinian(nvars, j, f1, f2):
            spec = binomial_family.spec(nvars, j, f1, f2)
            yield build_quotient(spec, max(lab.BINOMIAL_DEFAULT_BOUND, nvars + 1))


def _rational_ideal_ring(rng):
    """Two quadrics with fractional coefficients and the cubes of three
    variables, built to their default bound."""
    cubes = [HomogPoly.from_monomial(m) for m in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]]
    spec = make_ideal(3, [_rational_form(rng, 3, 2, 6) for _ in range(2)] + cubes)
    return build_quotient(spec, default_bound(spec))


def test_socle_dims_match_stacked_rank_monomial_scan_rings():
    """On every ring of the n = 3, max-degree 4 monomial scan, including
    those without the weak Lefschetz property, the socle read off the
    quotient basis equals the stacked-rank socle."""
    rings = wlp_failures = 0
    for gens in enumerate_monomial_ideals(ScanConfig(3, 4)):
        spec = monomial_ideal(3, gens)
        ring = build_quotient(spec, default_bound(spec))
        assert socle_dims(ring) == socle_dims_by_stacked_rank(ring), gens
        rings += 1
        # one trial: the all-ones form, exact on a monomial ring
        wlp_failures += not wlp_check(ring, 1).holds
    assert rings == 5693
    assert wlp_failures == 469


def _pool_complete_intersections():
    """The random complete intersections of the ring-analysis benchmark's
    pool, every draw of its four shapes, each built to its bound."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = [item for item in workloads.ring_pool_ids() if item.startswith("ci/")]
    return [build_quotient(*workloads.make_ring_input(item)[1]) for item in items]


def test_socle_dims_match_stacked_rank_binomial_and_complete_intersections():
    rings = list(_artinian_binomial_rings(3))
    assert len(rings) == 54
    rings += [_random_complete_intersection(seed) for seed in range(6)]
    pool = _pool_complete_intersections()
    assert len(pool) == 26
    rings += pool
    rng = random.Random(2323)
    rings += [_rational_ideal_ring(rng) for _ in range(4)]
    for ring in rings:
        assert socle_dims(ring) == socle_dims_by_stacked_rank(ring), ring.spec


def _power_ring(nvars, d):
    """k[x1..xn] / ((x1^d) + (x2..xn)^d), the ring of `lab.power_ideal_example`."""
    gens = [(d,) + (0,) * (nvars - 1)] + [(0,) + m for m in monomials_of_degree(nvars - 1, d)]
    spec = monomial_ideal(nvars, gens)
    return build_quotient(spec, default_bound(spec))


def _ring_analysis_monomial_rings():
    """The monomial complete intersections x_i^{a_i} (a_i in 2..4 for n = 3,
    2..3 for n = 4) and the power ideals (n = 3, 4; d = 3..5) that the
    ring-analysis benchmark draws, each built to its default bound."""
    for n, exponents in ((3, (2, 3, 4)), (4, (2, 3))):
        for a in combinations_with_replacement(exponents, n):
            spec = monomial_ideal(n, [tuple(a[i] if j == i else 0 for j in range(n)) for i in range(n)])
            yield build_quotient(spec, default_bound(spec))
    for n in (3, 4):
        for d in (3, 4, 5):
            yield _power_ring(n, d)


def test_socle_dims_match_stacked_rank_ring_analysis_monomial_rings():
    """The basis-read socle against the stacked-rank socle on the monomial
    rings of ring-analysis, which go past 3 variables: the monomial complete
    intersections and the power ideals."""
    rings = list(_ring_analysis_monomial_rings())
    assert len(rings) == 10 + 5 + 6
    for ring in rings:
        assert socle_dims(ring) == socle_dims_by_stacked_rank(ring), ring.spec


def test_socle_builds_no_map_from_the_top_degree(monkeypatch):
    """Every x_i maps R_top to zero, so the top degree's socle is R_top,
    with no map built there."""
    rng = random.Random(222)
    gens = [HomogPoly(3, 2, [(m, rng.randint(1, 9)) for m in monomials_of_degree(3, 2)]) for _ in range(3)]
    ring = build_quotient(make_ideal(3, gens), 4)
    assert ring.hilbert.values == (1, 3, 3, 1, 0)
    built = []
    integer_map = GradedQuotient.integer_map

    def recording(ring_, f, d):
        built.append(d)
        return integer_map(ring_, f, d)

    monkeypatch.setattr(GradedQuotient, "integer_map", recording)
    assert socle_dims(ring) == (0, 0, 0, 1)
    assert built and ring.top_degree not in built


def _seeded_linear_forms(rng, nvars):
    """The all-ones form, then three seeded linear forms: every coefficient
    a nonzero integer up to 10^6, some coefficients zero, and nonzero
    fractional coefficients."""
    nonzero = [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(nvars)]
    some_zero = [c if rng.random() < 0.5 else 0 for c in nonzero]
    some_zero[rng.randrange(nvars)] = 0
    fractional = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9)) for _ in range(nvars)]
    return [linear_form(c) for c in ([1] * nvars, nonzero, some_zero, fractional)]


@pytest.mark.parametrize("make_rings,count", [
    pytest.param(lambda: (
        build_quotient(spec, default_bound(spec))
        for spec in (monomial_ideal(3, gens) for gens in enumerate_monomial_ideals(ScanConfig(3, 3)))
    ), 103, id="monomial-scan"),
    pytest.param(_ring_analysis_monomial_rings, 10 + 5 + 6, id="ring-analysis-monomial"),
    pytest.param(lambda: _artinian_binomial_rings(3), 54, id="binomial"),
])
def test_map_rank_matches_a_fresh_rank_for_seeded_forms(make_rings, count):
    """At every degree, the rank the memo serves for a seeded linear form
    equals the rank of a fresh map of that form. A memo keyed by a form's
    support would serve the all-ones form's rank to the seeded forms with
    no zero coefficient. That is wrong on the binomial rings, where
    rescaling the variables is no automorphism and the all-ones form can
    be special."""
    rng = random.Random(39)
    rings = 0
    for ring in make_rings():
        rings += 1
        for f in _seeded_linear_forms(rng, ring.nvars):
            for d in range(ring.top_degree + 1):
                assert ring.map_rank(f, d) == rank(ring.integer_map(f, d)[0]), (ring.spec, f, d)
    assert rings == count


def test_internal_ranks_and_kernels_read_integer_maps(monkeypatch):
    """Every matrix `ezd` or the ring's `map_rank` ranks, or `ezd` takes the
    kernel of, during a decision, a Lefschetz check, a socle and a pair
    check of fractional forms holds only ints, on random complete
    intersections, ideals with fractional coefficients and n = 3 binomial
    rings."""
    seen = {"rank": [], "kernel": []}

    def ints(rows):
        rows = [list(row) for row in rows]
        return rows, all(type(x) is int for row in rows for x in row)

    def spy_rank(rows):
        rows, all_ints = ints(rows)
        seen["rank"].append(all_ints)
        return rank(rows)

    def spy_kernel(ncols, rows):
        rows, all_ints = ints(rows)
        seen["kernel"].append(all_ints)
        return kernel_basis(ncols, rows)

    rng = random.Random(23)
    rings = [_random_complete_intersection(seed) for seed in range(3)]
    rings += [_rational_ideal_ring(rng) for _ in range(3)]
    rings += list(_artinian_binomial_rings(3))[::6]
    assert any(c.denominator > 1 for ring in rings for c in ring.components)
    monkeypatch.setattr(ezd, "rank", spy_rank)
    monkeypatch.setattr(gradedring, "rank", spy_rank)
    monkeypatch.setattr(ezd, "kernel_basis", spy_kernel)
    for ring in rings:
        generic_ezd_decision(ring)
        wlp_check(ring)
        socle_dims(ring)
        is_ezd_pair(ring, _rational_form(rng, 3, 1, 6), _rational_form(rng, 3, 2, 6))
    assert seen["rank"] and seen["kernel"]
    assert all(seen["rank"]) and all(seen["kernel"])
