"""Quotient construction, Hilbert functions, normal forms, Artinian detection."""

import copy
import pickle
import random
from dataclasses import fields
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from ezdlab import exactmat, gradedring, lab
from ezdlab.exactmat import QMatrix, rank
from ezdlab.ezd import mult_map
from ezdlab.gradedring import (
    build_quotient,
    default_bound,
    monomial_hilbert,
    socle_bound,
)
from ezdlab.lab import ScanConfig, enumerate_monomial_ideals
from ezdlab.polyring import (
    HomogPoly,
    format_monomial,
    make_ideal,
    minimalize_monomial_gens,
    monomial_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
)
import binomial_family
from fraction_oracle import fraction_rref
from macaulay_oracle import macaulay_components, macaulay_ring
from one_form import in_one_form
from support_oracle import in_monomial_ideal


def test_build_squares_bases():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 3)
    assert [format_monomial(m) for m in ring.basis_monomials(0)] == ["1"]
    assert [format_monomial(m) for m in ring.basis_monomials(1)] == ["x1", "x2"]
    assert [format_monomial(m) for m in ring.basis_monomials(2)] == ["x1*x2"]
    assert ring.basis_monomials(3) == ()


def test_build_zero_ideal():
    ring = build_quotient(parse_ideal("", 2), 2)
    assert ring.hilbert.values == (1, 2, 3)
    assert not ring.hilbert.artinian_within_bound


def test_build_binomial_dims():
    # degree-3 relations span all of P_3, so the quotient dies there
    ring = build_quotient(parse_ideal("x1^2, x1*x2 + x2^2", 2), 3)
    assert ring.hilbert.values == (1, 2, 1, 0)


def test_hilbert_cubes():
    ring = build_quotient(parse_ideal("x1^3, x2^3", 2), 5)
    assert ring.hilbert.values == (1, 2, 3, 2, 1, 0)
    assert ring.top_degree == 4


def test_hilbert_three_vars():
    ring = build_quotient(parse_ideal("x1^2, x2^2, x2*x3, x3^2", 3), 3)
    assert ring.hilbert.values == (1, 3, 2, 0)


def test_hilbert_one_var_zero_ideal():
    ring = build_quotient(parse_ideal("", 1), 4)
    assert ring.hilbert.values == (1, 1, 1, 1, 1)


def test_normal_form_examples():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 3)
    assert ring.normal_form(parse_poly("x1^2 - x2^2", 2)) == (0,)
    assert ring.normal_form(parse_poly("x1*x2", 2)) == (1,)
    binom = build_quotient(parse_ideal("x1^2, x1*x2 + x2^2", 2), 3)
    assert binom.normal_form(parse_poly("x1*x2", 2)) == (-1,)


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def _fractional_ring_and_form(draw):
    """A ring of 3 variables with one or two fractional quadrics and the cubes
    of the variables, to degree 3, and a fractional form of some degree."""
    quadrics = [
        HomogPoly(3, 2, zip(monomials_of_degree(3, 2), draw(st.lists(_FRACTIONS, min_size=6, max_size=6))))
        for _ in range(draw(st.integers(1, 2)))
    ]
    cubes = [HomogPoly.from_monomial(m) for m in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]]
    degree = draw(st.integers(0, 3))
    monos = monomials_of_degree(3, degree)
    p = HomogPoly(3, degree, zip(monos, draw(st.lists(_FRACTIONS, min_size=len(monos), max_size=len(monos)))))
    return make_ideal(3, quadrics + cubes), p


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_fractional_ring_and_form())
@example((parse_ideal("x1^2 - x2^2, x3^3", 3), parse_poly("1/2*x1^2 + 1/2*x2^2", 3)))
@example((parse_ideal("2*x1^2 + 3*x2^2 - x3^2, 1/3*x1*x2 + x2*x3", 3), parse_poly("2/3*x1^2 - 1/4*x2*x3", 3)))
def test_normal_forms_are_in_the_one_form(case):
    """Every normal-form table entry and every `normal_form` coordinate is an
    int or a Fraction with denominator other than 1, and `normal_form` equals
    the all-Fraction sum over the table, each entry over its degree's
    denominator, and the one column of p's map from degree 0."""
    spec, p = case
    ring = build_quotient(spec, 3)
    for comp in ring.components:
        assert all(in_one_form(a) for nf in comp.normal_forms.values() for _, a in nf)
    coords = ring.normal_form(p)
    assert all(map(in_one_form, coords)), coords
    assert coords == mult_map(ring, p, 0).data
    expected = [Fraction(0)] * ring.dim(p.degree)
    comp = ring.components[p.degree]
    for m, c in p.coeffs.items():
        for k, a in comp.normal_forms[m]:
            expected[k] += Fraction(c) * Fraction(a, comp.denominator)
    assert coords == tuple(expected)


def test_relation_subspace():
    # every generator multiple of degree within the bound is zero in R
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ring = build_quotient(spec, 3)
    for d in range(4):
        for g in spec.generators:
            if g.degree > d:
                continue
            for m in monomials_of_degree(2, d - g.degree):
                assert not any(ring.normal_form(HomogPoly.from_monomial(m) * g))


def test_normal_form_out_of_bound():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 2)
    with pytest.raises(ValueError):
        ring.normal_form(parse_poly("x1^3", 2))


@pytest.mark.parametrize("degree", [-1, 3])
def test_dim_out_of_bound_is_refused_by_basis_monomials(degree):
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 2)
    message = f"^degree {degree} outside bound 2$"
    with pytest.raises(ValueError, match=message):
        ring.basis_monomials(degree)
    with pytest.raises(ValueError, match=message):
        ring.dim(degree)


def test_top_degree_without_a_zero_in_the_bound():
    # H = 1 2 1 stops at the bound, but the pure powers show R_3 = 0.
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 2)
    assert ring.hilbert.values == (1, 2, 1)
    assert not ring.hilbert.artinian_within_bound
    assert ring.top_degree == 2
    assert ring.complete
    assert not hasattr(ring.hilbert, "top_degree")


def test_size_cap_refuses_before_building(monkeypatch):
    monkeypatch.setattr(gradedring, "MAX_MONOMIALS", 10)
    spec = parse_ideal("x1^3, x2^3", 2)
    assert build_quotient(spec, 3).hilbert.values == (1, 2, 3, 2)  # 10 monomials
    with pytest.raises(ValueError, match="span 15 monomials, more than the cap of 10"):
        build_quotient(spec, 4)


def test_exponent_cap_refuses_many_variables(monkeypatch):
    """Past MAX_EXPONENTS exponents a ring is refused before any monomial is
    listed, after the monomial cap, whose message stays first."""
    monkeypatch.setattr(gradedring, "monomials_of_degree", lambda *a: pytest.fail("monomials listed"))
    with pytest.raises(ValueError, match=(
        r"^3464 variables up to degree 1 span 3465 monomials of 3464 exponents each, "
        r"more than the cap of 12,000,000 exponents; lower the bound or the variable count$"
    )):
        monomial_hilbert(3464, [], 1)
    with pytest.raises(ValueError, match="span 1 monomials of 12000001 exponents each, more than the cap"):
        monomial_hilbert(12_000_001, [], 0)
    with pytest.raises(ValueError, match="span 1000001 monomials, more than the cap of 100000"):
        monomial_hilbert(1_000_000, [], 1)
    monkeypatch.setattr(gradedring, "MAX_EXPONENTS", 3463 * 3464)
    gradedring.refuse_oversize(3463, 1)  # exactly at the cap


def test_elimination_cost_guard_refuses_before_eliminating(monkeypatch):
    """The guard reads the cost off counts: degree 12 builds, degree 31 (an
    estimated 1.3e12 operations) is refused before any degree is built."""
    spec = parse_ideal("x1^2 + x2*x3, x2^2 + x1*x4", 4)
    ring = build_quotient(spec, 12)
    assert ring.hilbert.values[:4] == (1, 4, 8, 12)
    monkeypatch.setattr(gradedring, "_component", lambda *a: pytest.fail("a degree was built"))
    with pytest.raises(ValueError, match=(
        r"^eliminating up to degree 31 is estimated at 1,332,438,594,960 operations "
        r"\(rows x standard columns\^2 over the degrees\), more than the cap of "
        r"10,000,000,000; lower the bound$"
    )):
        build_quotient(spec, 31)


def test_elimination_cost_counts_only_eliminated_generators(monkeypatch):
    """A monomial ideal eliminates nothing, so it never meets the guard; a
    single-term generator adds no row, and its multiples no column."""
    monkeypatch.setattr(gradedring, "MAX_ELIMINATION_COST", 26)
    assert build_quotient(parse_ideal("x1^3, x2^3", 2), 40).hilbert.values[:6] == (1, 2, 3, 2, 1, 0)
    spec = parse_ideal("x1^3, x2^3 + x1*x2^2", 2)
    with pytest.raises(ValueError, match="more than the cap of 26;"):
        build_quotient(spec, 4)
    # degree 3: the binomial against the 3 monomials outside (x1^3); degree 4:
    # its 2 multiples by a variable against 3 columns; 1 * 3^2 + 2 * 3^2 = 27
    monkeypatch.setattr(gradedring, "MAX_ELIMINATION_COST", 27)
    assert build_quotient(spec, 4).hilbert.values == (1, 2, 3, 2, 1)


def test_build_splits_generators_without_comparing_them(monkeypatch):
    """The single-term generators are told apart by their term count; a
    comparison of each generator with each single-term one is quadratic."""
    power = monomial_ideal(4, monomials_of_degree(4, 10))  # (x1, ..., x4)^10
    mixed = parse_ideal("x1^2, x2^2, x3^2, x1*x2 + x2*x3", 3)
    binomial = parse_ideal("x1^2 + x2*x3, x2^2 + x1*x3, x3^2 + x1*x2", 3)  # no single-term generator
    monkeypatch.setattr(HomogPoly, "__eq__", lambda *a: pytest.fail("generators compared"))
    assert build_quotient(power, 10).hilbert.values == (1, 4, 10, 20, 35, 56, 84, 120, 165, 220, 0)
    assert build_quotient(mixed, 3).hilbert.values == (1, 3, 2, 0)
    assert build_quotient(binomial, 4).hilbert.values == (1, 3, 3, 1, 0)


@pytest.mark.parametrize("nvars,max_degree", [(2, 5), (3, 3), (3, 4), (4, 3)])
def test_monomial_hilbert_matches_closure_on_scans(nvars, max_degree):
    """The bitmask Hilbert function against the order-ideal closure, on every
    ideal a monomial scan decides, at the socle bound it uses."""
    for gens in enumerate_monomial_ideals(ScanConfig(nvars, max_degree)):
        bound = socle_bound(nvars, gens)
        closure = tuple(map(len, gradedring._order_ideal(nvars, set(gens), bound)))
        assert monomial_hilbert(nvars, gens, bound).values == closure, gens


@st.composite
def _monomial_sets(draw):
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    return nvars, draw(st.lists(exps, max_size=6)), draw(st.integers(0, 9))


@given(_monomial_sets())
@example((3, [(0, 0, 0)], 3))  # the unit ideal
@example((2, [(1, 1), (2, 1), (1, 1)], 2))  # not minimal, with a repeat
@example((3, [(2, 2, 2)], 2))  # the bound below the generator's degree
@settings(max_examples=300, deadline=None)
def test_monomial_hilbert_matches_closure(case):
    """Any generator set, minimal or not, and any bound."""
    nvars, gens, bound = case
    closure = tuple(map(len, gradedring._order_ideal(nvars, set(gens), bound)))
    hf = monomial_hilbert(nvars, gens, bound)
    assert hf.values == closure
    assert hf.artinian_within_bound == (0 in closure)
    # the flag is read off the values, which are the only field
    assert [f.name for f in fields(gradedring.HilbertFn)] == ["values"]
    ring_hf = build_quotient(monomial_ideal(nvars, gens), bound).hilbert
    assert ring_hf == hf
    assert ring_hf.artinian_within_bound == (0 in ring_hf.values)


def test_default_bound():
    assert default_bound(parse_ideal("x1^2, x2^2", 2)) == 3
    assert default_bound(parse_ideal("x1^3, x2^3", 2)) == 5
    assert default_bound(parse_ideal("x1*x2", 2)) is None
    assert default_bound(parse_ideal("x1^2, x1*x2, x2^3", 2)) == 4
    # the exponent-level rule: least pure power per variable, constant 1 gives 0
    assert socle_bound(2, [(2, 0), (1, 1), (0, 3)]) == 4
    assert socle_bound(2, [(2, 0), (0, 2), (3, 0)]) == 3
    assert socle_bound(2, [(2, 0), (1, 1)]) is None
    assert socle_bound(3, [(2, 0, 0), (0, 0, 0)]) == 0
    assert socle_bound(2, []) is None
    # pure powers among the monomial generators of any ideal bound it too
    assert default_bound(parse_ideal("x1^2, x2^2, x3^2, x1*x2 + x2*x3", 3)) == 4
    assert default_bound(parse_ideal("x1^3, x2^2, x1^2 + 2*x1*x2", 2)) == 4
    assert default_bound(parse_ideal("x1^2, x1*x2 + x2^2", 2)) is None
    # a nonzero constant generator makes the ring zero from degree 0 on
    assert default_bound(parse_ideal("1", 2)) == 0
    assert default_bound(parse_ideal("x1*x2, -3", 2)) == 0


def _pure_power_bound(nvars, monos):
    """sum(a_i - 1) + 1 over the least pure power x_i^{a_i} of each variable, or None."""
    least = [min((sum(m) for m in monos if m[i] == sum(m)), default=None)
             for i in range(nvars)]
    return None if None in least else sum(a - 1 for a in least) + 1


@pytest.mark.parametrize("nvars,max_degree,count", [(3, 4, 5693), (4, 3, 8350)])
def test_socle_bound_matches_default_bound(nvars, max_degree, count):
    """On every ideal a monomial scan enumerates, the exponent-level bound
    it reads equals default_bound of the built IdealSpec and a count of
    pure powers, and the ring vanishes at that bound. Listing a higher power
    of each pure power after the generators leaves the bound as it is: the
    least pure power of a variable counts, not the last."""
    seen = 0
    for gens in enumerate_monomial_ideals(ScanConfig(nvars, max_degree)):
        bound = socle_bound(nvars, gens)
        assert bound == default_bound(monomial_ideal(nvars, gens)), gens
        assert bound == _pure_power_bound(nvars, gens), gens
        higher = tuple(tuple(a and a + 1 for a in e) for e in gens if e.count(0) == nvars - 1)
        assert socle_bound(nvars, gens + higher) == bound, gens
        assert monomial_hilbert(nvars, set(gens), bound).values[-1] == 0, gens
        seen += 1
    assert seen == count


def _random_monomial_spec(rng, nvars, max_degree):
    pool = [m for d in range(2, max_degree + 1) for m in monomials_of_degree(nvars, d)]
    count = rng.randint(1, min(5, len(pool)))
    gens = minimalize_monomial_gens(rng.sample(pool, count))
    return monomial_ideal(nvars, gens)


def test_monomial_oracle_equivalence_random():
    rng = random.Random(20260811)
    coeff_rng = random.Random(11)
    cases = []
    for _ in range(40):
        nvars = rng.randint(2, 3)
        cases.append((nvars, _random_monomial_spec(rng, nvars, 3), rng.randint(2, 5)))
    # the unit ideal, and generators of degree 1
    for text, nvars, bound in [
        ("1", 2, 3), ("1", 3, 2), ("x1", 2, 4), ("x2, x1^3", 2, 4),
        ("x1, x2, x3", 3, 2), ("x3, x1^2, x1*x2^2, x2^4", 3, 5), ("x1, x2*x3", 3, 4),
    ]:
        cases.append((nvars, parse_ideal(text, nvars), bound))
    for nvars, spec, bound in cases:
        fast = build_quotient(spec, bound)
        slow = macaulay_ring(spec, bound)
        assert fast.hilbert.values == slow.hilbert.values
        assert fast.complete == slow.complete
        if fast.complete:
            assert fast.top_degree == slow.top_degree
        for d in range(bound + 1):
            assert fast.basis_monomials(d) == slow.basis_monomials(d)
            monos = monomials_of_degree(nvars, d)
            p = HomogPoly(nvars, d, [(m, coeff_rng.randint(-3, 3)) for m in monos])
            assert fast.normal_form(p) == slow.normal_form(p)


def _reduced_normal_form(spec, p):
    """The normal-form oracle: p's coefficient vector reduced by the rows of
    `fraction_rref` of every generator multiple, on the non-pivot monomials,
    so no elimination code is shared with the build."""
    monos = monomials_of_degree(spec.nvars, p.degree)
    multiples = [
        HomogPoly.from_monomial(m) * g
        for g in spec.generators if g.degree <= p.degree
        for m in monomials_of_degree(spec.nvars, p.degree - g.degree)
    ]
    data = [q.coefficient(m) for q in multiples for m in monos]
    red, pivots = fraction_rref(QMatrix(len(multiples), len(monos), data))
    v = [Fraction(p.coefficient(m)) for m in monos]
    for i, pivot in enumerate(pivots):
        c = v[pivot]
        v = [x - c * y for x, y in zip(v, red.row(i))]
    free = [j for j in range(len(monos)) if j not in pivots]
    return tuple(monos[j] for j in free), tuple(v[j] for j in free)


def _assert_builds_agree(spec, bound, rng):
    """The single build path against eliminating every generator, and its
    normal forms against reduction by all generator multiples."""
    fast = build_quotient(spec, bound)
    slow = macaulay_ring(spec, bound)
    assert fast.hilbert == slow.hilbert
    if fast.complete:  # equal H, spec and bound: both or neither
        assert fast.top_degree == slow.top_degree
    for d in range(bound + 1):
        assert fast.components[d].basis == slow.components[d].basis
        assert fast.components[d].normal_forms == slow.components[d].normal_forms
        assert fast.components[d].denominator == slow.components[d].denominator
        monos = monomials_of_degree(spec.nvars, d)
        p = HomogPoly(spec.nvars, d, [(m, rng.randint(-3, 3)) for m in monos])
        assert fast.normal_form(p) == slow.normal_form(p)
        assert (fast.basis_monomials(d), fast.normal_form(p)) == _reduced_normal_form(spec, p)


def _assert_table_is_least_integer_scaling(spec, bound):
    """Each degree's table over its denominator D_d equals every monomial's
    normal form reduced by all generator multiples, D_d is the lcm of those
    normal forms' denominators, and the from-scratch `macaulay_ring` stores
    the same table over the same D_d."""
    fast = build_quotient(spec, bound)
    slow = macaulay_ring(spec, bound)
    for d in range(bound + 1):
        comp = fast.components[d]
        assert (slow.components[d].normal_forms, slow.components[d].denominator) == (
            comp.normal_forms, comp.denominator)
        assert type(comp.denominator) is int
        denominators = []
        for m, nf in comp.normal_forms.items():
            basis, coords = _reduced_normal_form(spec, HomogPoly.from_monomial(m))
            assert basis == comp.basis
            assert all(type(a) is int and a for _, a in nf)
            scaled = [Fraction(0)] * len(basis)
            for k, a in nf:
                scaled[k] += Fraction(a, comp.denominator)
            assert tuple(scaled) == coords, m
            denominators.extend(Fraction(c).denominator for c in coords)
        assert comp.denominator == lcm(*denominators)


def test_normal_form_tables_are_least_integer_scalings():
    rng = random.Random(2323)
    family = list(_binomial_family(3))
    cases = [(spec, 4) for spec in rng.sample(family, 10)]
    for _ in range(12):
        nvars = rng.randint(2, 3)
        gens = [_random_form(rng, nvars, rng.randint(1, 2), rng.randint(2, nvars)) for _ in range(2)]
        gens += [HomogPoly.from_monomial(m) for m in rng.sample(monomials_of_degree(nvars, 3), 2)]
        cases.append((make_ideal(nvars, gens), rng.randint(2, 4)))
    # a complete intersection with random integer coefficients
    gens = [HomogPoly(3, d, [(m, rng.randint(-9, 9)) for m in monomials_of_degree(3, d)]) for d in (2, 2, 3)]
    cases.append((make_ideal(3, gens), 5))
    assert any(build_quotient(spec, bound).components[-1].denominator > 1 for spec, bound in cases)
    for spec, bound in cases:
        _assert_table_is_least_integer_scaling(spec, bound)


def _binomial_family(nvars):
    """Every J + (f1 + f2) with J, f1, f2 in degree 2 and neither f_i in J."""
    for j, f1, f2 in binomial_family.candidates(nvars):
        if f1 not in j and f2 not in j:
            yield binomial_family.spec(nvars, j, f1, f2)


def test_binomial_family_builds_match_elimination():
    rng = random.Random(3)
    specs = list(_binomial_family(3))
    assert len(specs) == 240
    for spec in specs:
        _assert_builds_agree(spec, 6, rng)


def _random_form(rng, nvars, degree, terms):
    monos = rng.sample(monomials_of_degree(nvars, degree), terms)
    return HomogPoly(nvars, degree, [(m, rng.choice([-2, -1, 1, 3, Fraction(1, 2)])) for m in monos])


def test_mixed_ideal_builds_match_elimination():
    rng = random.Random(20261018)
    family = list(_binomial_family(3))
    cases = []
    # colon-shaped J + (f1 + f2) + (l), as colon_identity_dims builds them
    for spec in rng.sample(family, 12):
        ell = _random_form(rng, 3, 1, rng.randint(1, 3))
        cases.append((make_ideal(3, list(spec.generators) + [ell]), rng.randint(2, 4)))
    # monomials of degree 1..3 mixed with forms of two or more terms
    for _ in range(30):
        nvars = rng.randint(3, 4)
        pool = [m for d in (1, 2, 3) for m in monomials_of_degree(nvars, d)]
        gens = [HomogPoly.from_monomial(m) for m in rng.sample(pool, rng.randint(0, 4))]
        for _ in range(rng.randint(1, 2)):
            degree = rng.randint(1, 3)
            terms = rng.randint(2, min(4, len(monomials_of_degree(nvars, degree))))
            gens.append(_random_form(rng, nvars, degree, terms))
        cases.append((make_ideal(nvars, gens), rng.randint(2, 5 if nvars == 3 else 4)))
    assert any(len(g.coeffs) == 1 for spec, _ in cases for g in spec.generators)
    for spec, bound in cases:
        _assert_builds_agree(spec, bound, rng)


class _CountedRows(list):
    """A list of rows that counts the rows read from it in turn."""

    read = 0

    def __iter__(self):
        for row in super().__iter__():
            self.read += 1
            yield row


def _eliminations(monkeypatch, spec, bound):
    """The ring and, for each elimination its build runs, (columns, the rows
    given, the count of rows read, rank)."""
    seen = []
    eliminate = exactmat._eliminate

    def spy(a, ncols):
        given = [list(row) for row in a]
        rows = _CountedRows(a)
        pivots = eliminate(rows, ncols)
        a[:] = rows[:]
        seen.append((ncols, given, rows.read, len(pivots)))
        return pivots

    monkeypatch.setattr(exactmat, "_eliminate", spy)
    ring = build_quotient(spec, bound)
    monkeypatch.undo()
    return ring, seen


def _eliminated_widths(monkeypatch, spec, bound):
    """The ring and the column count of each elimination its build runs.

    Each elimination reads its rows in turn and stops at the first that
    makes them span every column: a degree whose border rows span its
    border vanishes. One that does not reads every row once."""
    ring, seen = _eliminations(monkeypatch, spec, bound)
    for ncols, given, read, r in seen:
        if r < ncols:
            assert read == len(given)
        else:
            assert _oracle_rank(given[:read], ncols) == ncols > _oracle_rank(given[: read - 1], ncols)
    return ring, [ncols for ncols, *_ in seen]


def _oracle_rank(rows, ncols):
    return len(fraction_rref(QMatrix(len(rows), ncols, [x for row in rows for x in row]))[1])


def _border_and_standard_counts(ring, squares):
    """Per degree d >= 1: the standard monomials x_i*b, b in the basis of
    degree d-1, and all standard monomials, of (x_i^2 : x_i^2 in squares)."""
    counts = []
    for d in range(1, ring.bound + 1):
        standard = {m for m in monomials_of_degree(ring.nvars, d) if not in_monomial_ideal(m, squares)}
        border = {
            b[:i] + (b[i] + 1,) + b[i + 1 :] for b in ring.basis_monomials(d - 1) for i in range(ring.nvars)
        }
        counts.append((len(border & standard), len(standard)))
    return counts


def test_only_standard_columns_are_eliminated(monkeypatch):
    """Each degree is eliminated on its border alone: the standard monomials
    x_i*b with b in the quotient basis one degree down, and no row past
    those that span the border of a vanishing degree. A degree past a
    vanished one, and every degree of a monomial ideal, eliminates nothing."""
    spec = parse_ideal("x1^2, x2^2, x3^2, x1*x2 + x2*x3", 3)
    squares = [m for m in monomials_of_degree(3, 2) if max(m) == 2]
    ring, widths = _eliminated_widths(monkeypatch, spec, 4)
    assert ring.hilbert.values == (1, 3, 2, 0, 0)
    # degrees 2 and 3; degree 4 follows the vanished degree 3
    assert widths == [3, 1]
    assert _border_and_standard_counts(ring, squares)[1:3] == [(3, 3), (1, 1)]
    # a complete intersection of degrees 2, 3, 3: its top degree 6 has 28
    # monomials, 3 of them on the border
    ci = parse_ideal("x1^2 + x2*x3 - x3^2, x2^3 - x1*x3^2 + 2*x1*x2*x3, x3^3 + x1*x2^2 - 3*x1^2*x3", 3)
    ring, widths = _eliminated_widths(monkeypatch, ci, 6)
    assert ring.hilbert.values == (1, 3, 5, 5, 3, 1, 0)
    assert widths == [6, 9, 10, 8, 3]
    counts = _border_and_standard_counts(ring, [])
    assert counts[1:] == [(6, 6), (9, 10), (10, 15), (8, 21), (3, 28)]
    # degree 6 vanishes: its elimination stops at the row that spans its 3
    # border columns and reads none of the rows after it
    _, seen = _eliminations(monkeypatch, ci, 6)
    ncols, given, read, r = seen[-1]
    assert (ncols, r) == (3, 3)
    assert read < len(given)
    # H grows, and the border with it
    grows = parse_ideal("x1^2 + x2*x3, x2^2 + x1*x4", 4)
    ring, widths = _eliminated_widths(monkeypatch, grows, 6)
    assert ring.hilbert.values == (1, 4, 8, 12, 16, 20, 24)
    assert widths == [10, 18, 27, 36, 45]
    assert [b for b, _ in _border_and_standard_counts(ring, [])[1:]] == [10, 18, 27, 36, 45]
    # nothing past the vanished degree 3, however far the bound
    ring, widths = _eliminated_widths(monkeypatch, parse_ideal("x1^2, x1*x2 + x2^2", 2), 6)
    assert ring.hilbert.values == (1, 2, 1, 0, 0, 0, 0)
    assert widths == [2, 2]
    # a monomial ideal has nothing to eliminate
    _, widths = _eliminated_widths(monkeypatch, parse_ideal("x1^2, x2^2, x1*x3, x3^3", 3), 5)
    assert widths == []


def _assert_matches_macaulay(spec, bound):
    """The build against from-scratch elimination of every degree: the same
    bases, tables, denominators and H."""
    oracle = macaulay_components(spec, bound)
    ring = build_quotient(spec, bound)
    assert [(c.basis, c.normal_forms, c.denominator) for c in ring.components] == oracle, spec
    assert ring.hilbert.values == tuple(len(basis) for basis, _, _ in oracle)


@pytest.mark.parametrize("nvars,degrees", [(3, (2, 2, 2)), (3, (2, 2, 3)), (3, (2, 3, 3)), (4, (2, 2, 2, 2))])
def test_complete_intersections_match_macaulay(nvars, degrees):
    """Random integer complete intersections of the shapes the benchmark
    analyses, to their socle degree plus one."""
    rng = random.Random(f"{nvars}/{degrees}")
    for _ in range(2):
        gens = [
            HomogPoly(nvars, d, [(m, rng.randint(-9, 9)) for m in monomials_of_degree(nvars, d)])
            for d in degrees
        ]
        _assert_matches_macaulay(make_ideal(nvars, gens), sum(d - 1 for d in degrees) + 1)


def test_artinian_binomial_rings_match_macaulay():
    """Every Artinian ring of the n = 3 binomial family, to the scan's bound."""
    seen = 0
    for spec in _binomial_family(3):
        *j, binomial = spec.generators
        if lab._binomial_is_artinian(3, tuple(m for g in j for m in g.coeffs), *binomial.coeffs):
            _assert_matches_macaulay(spec, max(lab.BINOMIAL_DEFAULT_BOUND, 4))
            seen += 1
    assert seen == 54


def test_wide_border_matches_macaulay():
    """H grows by 4 a degree, so the border widens to 81 columns by degree 9."""
    spec = parse_ideal("x1^2 + x2*x3, x2^2 + x1*x4", 4)
    _assert_matches_macaulay(spec, 9)
    assert build_quotient(spec, 9).hilbert.values == (1, 4, 8, 12, 16, 20, 24, 28, 32, 36)


@pytest.mark.parametrize("text,nvars,bound", [
    # fractional coefficients
    ("1/2*x1^2 - 3*x2*x3, 2/3*x2^2 + x1*x3 - 5/7*x3^2, x3^3", 3, 5),
    ("x1^2 - 1/3*x2^2, 3/2*x1*x2 + 1/5*x2^2", 2, 4),
    # mixed degrees, one of them linear
    ("x1 + 2*x2, x2^2 - x1*x3, x3^3, x1*x2*x3 + x2^3", 3, 5),
    # a constant generator: the ring is zero from degree 0 on
    ("x1*x2 + x2^2, 3", 2, 3),
    ("1/2, x1^2", 2, 2),
])
def test_special_ideals_match_macaulay(text, nvars, bound):
    _assert_matches_macaulay(parse_ideal(text, nvars), bound)


def test_redundant_generator_matches_macaulay():
    """Generators of degrees 2, 2, 3 and 4, the cubic x1*g1 - x2*g2 in the
    ideal of the first two: the ring is the one without it."""
    base = parse_ideal("x1^2 + x2*x3, x2^2 - x1*x3, x3^4 + x1*x2^3", 3)
    g1, g2, _ = base.generators
    cubic = parse_poly("x1", 3) * g1 - parse_poly("x2", 3) * g2
    spec = make_ideal(3, [g1, g2, cubic, base.generators[2]])
    _assert_matches_macaulay(spec, 7)
    assert build_quotient(spec, 7).components == build_quotient(base, 7).components


@st.composite
def _small_ideals(draw):
    """One to three generators of degree 0..3 in 1..3 variables, with
    integer or fractional coefficients on a random set of terms."""
    nvars = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(0, 3))
        monos = monomials_of_degree(nvars, degree)
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(_FRACTIONS.filter(bool), min_size=len(terms), max_size=len(terms)))
        gens.append(HomogPoly(nvars, degree, list(zip(terms, coeffs))))
    return make_ideal(nvars, gens), draw(st.integers(0, 5))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(_small_ideals())
@example((parse_ideal("x1^2 + x1*x2, x2^3", 2), 5))
@example((parse_ideal("x1*x2 - x2^2, x1^2", 2), 0))
def test_small_ideals_match_macaulay(case):
    _assert_matches_macaulay(*case)


def test_vanishing_persists():
    for text, n, bound in [("x1^2, x2^2", 2, 6), ("x1^2, x1*x2 + x2^2", 2, 6)]:
        ring = build_quotient(parse_ideal(text, n), bound)
        values = ring.hilbert.values
        seen_zero = False
        for v in values:
            if seen_zero:
                assert v == 0
            seen_zero = seen_zero or v == 0


def test_normal_form_well_defined_on_quotient():
    rng = random.Random(7)
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ring = build_quotient(spec, 4)
    ell = parse_poly("x1 + 3*x2", 2)
    monos2 = monomials_of_degree(2, 2)
    for _ in range(25):
        q = HomogPoly(2, 2, [(m, Fraction(rng.randint(-4, 4))) for m in monos2])
        # shift q by a random element of I_2 without changing its class
        g = spec.generators[rng.randrange(len(spec.generators))]
        shift = g * Fraction(rng.randint(-3, 3))
        q_shifted = q + shift
        assert ring.normal_form(q) == ring.normal_form(q_shifted)
        assert ring.normal_form(ell * q) == ring.normal_form(ell * q_shifted)


def test_h1_equals_nvars_without_linear_generators():
    for text, n in [("x1^2, x2^2", 2), ("x1^2, x2^2, x2*x3, x3^2", 3), ("x1^3, x2^2", 2)]:
        ring = build_quotient(parse_ideal(text, n), 3)
        assert ring.dim(1) == n


def test_power_quotient_midpoint_inequality():
    # For P/(x1^{a1+1},...,xn^{an+1}) with odd top degree 2d-1 = sum(a_i),
    # the Hilbert function does not drop from degree d-1 to degree d.
    cases = [(2, (1, 2)), (2, (2, 3)), (3, (1, 1, 1)), (3, (1, 2, 2)), (2, (1, 4))]
    for nvars, exps in cases:
        total = sum(exps)
        assert total % 2 == 1
        d = (total + 1) // 2
        spec = parse_ideal(
            ", ".join(f"x{i + 1}^{a + 1}" for i, a in enumerate(exps)), nvars
        )
        ring = build_quotient(spec, total + 1)
        assert ring.hilbert.values[total] == 1  # one-dimensional top
        assert ring.dim(d - 1) <= ring.dim(d)


ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
def test_values_and_rings_round_trip(round_trip):
    p = parse_poly("x1^2 - 3/2*x1*x2", 2)
    assert round_trip(p) == p
    assert hash(round_trip(p)) == hash(p)
    m = QMatrix(2, 2, [1, Fraction(1, 2), 0, -3])
    assert round_trip(m) == m
    # int entries are kept, and equal and hash like their Fraction twins
    ints = QMatrix(2, 2, [1, 0, 0, -3])
    twin = QMatrix(2, 2, [Fraction(1), Fraction(0), Fraction(0), Fraction(-3)])
    assert ints == twin and hash(ints) == hash(twin)
    for q in (ints, twin):
        copied = round_trip(q)
        assert copied == ints == twin and hash(copied) == hash(twin)
        assert [type(x) for x in copied.data] == [type(x) for x in q.data]
    assert {type(x) for x in ints.data} == {int}
    spec = parse_ideal("x1^2 + x2*x3, x2^2, x3^2, x1*x2", 3)
    assert round_trip(spec) == spec
    ring = build_quotient(spec, 5)
    assert not ring._ranks  # a fresh build remembers no rank
    forms = [parse_poly(text, 3) for text in ("x1 + 2*x2 - x3", "x1*x3 - 1/2*x2^2")]
    ranks = [ring.map_rank(f, d) for f in forms for d in range(3)]
    assert len(ring._ranks) == 6
    copied = round_trip(ring)
    assert copied.hilbert == ring.hilbert
    assert copied.top_degree == ring.top_degree
    for text in ("x1*x3 + 2*x2*x3", "x1^2*x3 - x3^3", "x1*x2*x3"):
        q = parse_poly(text, 3)
        assert copied.normal_form(q) == ring.normal_form(q)
    # the memo travels with the copy and serves the same ranks as fresh maps
    assert copied._ranks == ring._ranks
    assert [copied.map_rank(f, d) for f in forms for d in range(3)] == ranks
    assert ranks == [rank(ring.integer_map(f, d)[0]) for f in forms for d in range(3)]
    assert not build_quotient(spec, 5)._ranks


def test_value_types_are_frozen():
    values = [
        (parse_poly("x1 + x2", 2), "degree"),
        (QMatrix(1, 1, [1]), "data"),
        (build_quotient(parse_ideal("x1^2, x2^2", 2), 3), "bound"),
    ]
    for value, field_name in values:
        with pytest.raises(AttributeError):
            setattr(value, field_name, 0)
