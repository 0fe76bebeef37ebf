"""The Hilbert series test for linear exact pairs and the closure-only
Hilbert function of monomial ideals, each against a slower oracle."""

import random
from math import comb

import pytest

from ezdlab import lab
from ezdlab.ezd import (
    derived_seed,
    find_ezd_complement,
    general_form_admits_pair,
    generic_linear_form,
    green_bound,
    hilbert_admits_pair,
    macaulay_bound,
)
from ezdlab.gradedring import (
    MAX_MONOMIALS, build_quotient, default_bound, monomial_hilbert, socle_bound,
)
from ezdlab.lab import ScanConfig, enumerate_monomial_ideals, scan_binomial, scan_monomial
from ezdlab.polyring import (
    HomogPoly,
    linear_form,
    make_ideal,
    monomial_ideal,
    monomials_of_degree,
    parse_ideal,
    variable,
)
from ezd_oracle import find_ezd_complement_by_ranks
from macaulay_oracle import macaulay_ring


def lex_segment_growth(nvars: int, h: int, d: int) -> int:
    """dim (P/L)_{d+1} for L generated by all but the h lex-last monomials
    of degree d: the degree-(d+1) monomials whose every degree-d divisor is
    among those h."""
    monos = monomials_of_degree(nvars, d)  # in graded-lex order
    last = set(monos[len(monos) - h :])
    return sum(
        1 for m in monomials_of_degree(nvars, d + 1)
        if all(m[:i] + (e - 1,) + m[i + 1 :] in last for i, e in enumerate(m) if e)
    )


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_macaulay_bound_counts_lex_segments(nvars, d):
    for h in range(len(monomials_of_degree(nvars, d)) + 1):
        assert macaulay_bound(h, d) == lex_segment_growth(nvars, h, d), (h, d)


def test_macaulay_bound_named_values():
    # 4 = C(3,2) + C(1,1) -> C(4,3) + C(2,2); 10 = C(5,2) -> C(6,3)
    assert macaulay_bound(4, 2) == 5
    assert macaulay_bound(10, 2) == 20
    assert macaulay_bound(0, 3) == 0
    for bad in ((1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            macaulay_bound(*bad)


def lex_segment_restriction(nvars: int, h: int, d: int) -> int:
    """dim (P/(L + (x_n)))_d for L generated by all but the h lex-last
    monomials of degree d: those h that the last variable does not divide."""
    monos = monomials_of_degree(nvars, d)  # in graded-lex order
    return sum(1 for m in monos[len(monos) - h :] if not m[-1])


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_green_bound_counts_lex_segments(nvars, d):
    """Green's bound is attained by a lex segment cut by the last variable."""
    for h in range(len(monomials_of_degree(nvars, d)) + 1):
        assert green_bound(h, d) == lex_segment_restriction(nvars, h, d), (h, d)


def test_green_bound_named_values():
    # 3 = C(3,1) -> C(2,1); 3 = C(3,2) -> C(2,2); 5 = C(3,2) + C(2,1) -> C(2,2) + C(1,1)
    assert green_bound(3, 1) == 2
    assert green_bound(3, 2) == 1
    assert green_bound(5, 2) == 2
    assert green_bound(0, 3) == 0
    for n in range(1, 6):
        for d in range(1, 6):
            # all of P_d in n variables restricts to all of it in n - 1
            assert green_bound(comb(n + d - 1, d), d) == comb(n + d - 2, d), (n, d)
    for bad in ((1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            green_bound(*bad)


@pytest.mark.parametrize("values,admits", [
    ((1, 1), True),  # q = 1 <= 1_<1> = 0 is not asked: q has no degree 1
    ((1, 2, 1), True),  # (1 + z)(1 + z), and q(1) = 1 <= 2_<1> = 1
    ((1, 3, 3, 1), True),  # (1 + z)(1 + 2z + z^2): 2 <= 3_<1> = 2, 1 <= 3_<2> = 1
    ((1, 3, 5, 3), False),  # (1 + z)(1 + 2z + 3z^2), but 3 > 5_<2> = 2
    # t = 1 gives q(2) = 2 > 4_<2> = 1, but t = 2 gives q = 1 + 2z + z^2,
    # with 2 <= 3_<1> = 2 and 1 <= 4_<2> = 1: k[x1, x2, x3]/(x1^2, x2^2, x3^3)
    ((1, 3, 4, 3, 1), True),
    ((1, 3, 6, 4), False),  # no split passes even without Green's bound
    ((), False),
])
def test_general_form_admits_pair_named(values, admits):
    assert general_form_admits_pair(values) is admits
    if admits:
        assert hilbert_admits_pair(values)


@pytest.mark.parametrize("values,admits", [
    ((1, 1), True),  # k[x]/(x^2): x pairs with itself
    ((1, 2, 1, 0, 0), True),  # (1 + z)^2; trailing zeros are ignored
    ((1, 3, 1), False),  # sum 5 is divisible by neither 2 nor 3
    ((1, 2), False),  # 1 + 2z leaves a remainder for t = 1
    ((1, 3, 6, 4), False),  # (1 + z)(1 + 2z + 4z^2), but 4 > 2^<1> = 3
    ((1, 3, 5, 3), True),  # (1 + z)(1 + 2z + 3z^2)
    ((1, 4, 3, 5, 2, 3), False),  # (1 + z + z^2)(1 + 3z - z^2 + 3z^3)
    ((), False),  # the zero ring
    ((0, 0), False),
])
def test_hilbert_admits_pair_named(values, admits):
    assert hilbert_admits_pair(values) is admits


def _check_forms(ring, forms) -> int:
    """The series test rejects no form the rank loop pairs, and
    find_ezd_complement agrees with the loop on every form. Returns how
    many forms the series test rejected."""
    rejected = 0
    for ell in forms:
        expected = find_ezd_complement_by_ranks(ring, ell)
        assert find_ezd_complement(ring, ell) == expected, (ring.spec, ell)
        if not hilbert_admits_pair(ring.hilbert.values):
            assert expected is None, (ring.spec, ell)
            rejected += 1
    return rejected


def _monomial_rings(max_degree):
    for gens in enumerate_monomial_ideals(ScanConfig(3, max_degree)):
        spec = monomial_ideal(3, gens)
        yield build_quotient(spec, default_bound(spec))


def test_series_test_monomial_max_degree_3():
    forms = [linear_form([1, 1, 1]), variable(3, 0), generic_linear_form(3, 1)]
    rings = list(_monomial_rings(3))
    assert len(rings) == 103
    rejected = sum(_check_forms(ring, forms) for ring in rings)
    assert 0 < rejected < 3 * len(rings)


def test_series_test_monomial_max_degree_4():
    ones = linear_form([1, 1, 1])
    rejected = sum(_check_forms(ring, [ones]) for ring in _monomial_rings(4))
    assert rejected == 5693 - 470


def test_green_gate_on_monomial_max_degree_4():
    """On every ring of the n = 3, max-degree 4 monomial family that the
    series test admits, the all-ones form's H_{R/(ell)}, read from its
    ranks, obeys Green's bound, and every ring that the bound then rejects
    has no pair by the rank loop."""
    ones = linear_form([1, 1, 1])
    admitted = rejected = 0
    for gens in enumerate_monomial_ideals(ScanConfig(3, 4)):
        bound = socle_bound(3, gens)
        values = monomial_hilbert(3, gens, bound).values
        if not hilbert_admits_pair(values):
            continue
        admitted += 1
        ring = build_quotient(monomial_ideal(3, gens), bound)
        for d in range(1, ring.top_degree + 1):
            quotient = values[d] - ring.map_rank(ones, d - 1)
            assert quotient <= green_bound(values[d], d), (gens, d)
        if not general_form_admits_pair(values):
            rejected += 1
            assert find_ezd_complement_by_ranks(ring, ones) is None, gens
    assert (admitted, rejected) == (470, 470 - 169)


def test_series_test_binomial_family():
    cfg = ScanConfig(3)
    report = scan_binomial(cfg)
    assert report.examined == 54
    rejected = 0
    for rec in report.instances:
        ring = build_quotient(parse_ideal(rec.ideal, 3), lab.BINOMIAL_DEFAULT_BOUND)
        seed = derived_seed(cfg.seed, rec.index)
        forms = [generic_linear_form(3, derived_seed(seed, t)) for t in range(cfg.trials)]
        forms += [variable(3, i) for i in range(3)] + [linear_form([1, 1, 1])]
        rejected += _check_forms(ring, forms)
    assert rejected == 15 * 7


@pytest.mark.parametrize("nvars,degrees", [(3, (2, 2, 2)), (3, (2, 2, 3)), (3, (2, 3, 3)),
                                           (4, (2, 2, 2, 2))])
def test_series_test_random_complete_intersections(nvars, degrees):
    rng = random.Random(f"ci{nvars}{degrees}")
    for variant in range(3 if nvars == 3 else 1):
        gens = [
            HomogPoly(nvars, d, [(m, rng.randint(-9, 9)) for m in monomials_of_degree(nvars, d)])
            for d in degrees
        ]
        ring = build_quotient(make_ideal(nvars, gens), sum(d - 1 for d in degrees) + 1)
        assert ring.complete
        forms = [generic_linear_form(nvars, derived_seed(variant, t)) for t in range(3)]
        _check_forms(ring, forms + [variable(nvars, 0)])


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_series_test_power_ideals(nvars, d):
    gens = [(d,) + (0,) * (nvars - 1)]
    gens += [(0,) + m for m in monomials_of_degree(nvars - 1, d)]
    spec = monomial_ideal(nvars, gens)
    ring = build_quotient(spec, default_bound(spec))
    ones = linear_form([1] * nvars)
    # the all-ones form has the explicit partner of power_ideal_example
    assert find_ezd_complement(ring, ones) is not None
    _check_forms(ring, [ones, variable(nvars, 0), generic_linear_form(nvars, d)])


def _monomial_exps(spec) -> set:
    return {m for g in spec.generators for m in g.coeffs}


def test_monomial_hilbert_matches_builds():
    """The closure on exponent tuples alone gives build_quotient's Hilbert
    function, and both equal the elimination of every generator.
    Eliminating all 5,693 ideals of max-deg 4 takes minutes, so there only
    every 80th is eliminated."""
    for max_degree in (3, 4):
        ideals = list(enumerate_monomial_ideals(ScanConfig(3, max_degree)))
        for i, gens in enumerate(ideals):
            spec = monomial_ideal(3, gens)
            bound = default_bound(spec)
            hf = monomial_hilbert(3, set(gens), bound)
            assert hf == build_quotient(spec, bound).hilbert, gens
            if max_degree == 3 or i % 80 == 0:
                assert hf == macaulay_ring(spec, bound).hilbert, gens


@pytest.mark.parametrize("text,nvars,bound", [
    ("x1^2, x1*x2", 2, 5),  # not Artinian: x2^k survives
    ("1", 2, 3),  # the unit ideal
    ("x1*x2*x3", 3, 4),
    ("x1^3, x2^2, x1*x2", 2, 0),
])
def test_monomial_hilbert_named(text, nvars, bound):
    spec = parse_ideal(text, nvars)
    hf = monomial_hilbert(nvars, _monomial_exps(spec), bound)
    assert hf == build_quotient(spec, bound).hilbert
    assert hf == macaulay_ring(spec, bound).hilbert


def test_monomial_hilbert_refuses():
    with pytest.raises(ValueError, match="more than the cap"):
        monomial_hilbert(3, {(2, 0, 0)}, MAX_MONOMIALS)
    with pytest.raises(ValueError, match="non-negative"):
        monomial_hilbert(1, {(2,)}, -1)


def test_monomial_scan_builds_only_admitted_rings(monkeypatch):
    """A ring is built only when its series admits a general linear form in
    a pair, under Green's bound; a rejected ideal gets the record a built
    ring with no pair gets."""
    built = []

    def counting(spec, bound, **kw):
        built.append(spec)
        return build_quotient(spec, bound, **kw)

    monkeypatch.setattr(lab, "build_quotient", counting)
    report = scan_monomial(ScanConfig(3, 3))
    admitted = [r for r in report.instances if general_form_admits_pair(r.hilbert)]
    assert len(built) == len(admitted) == 18 < report.examined == 103
    for r in report.instances:
        if r not in admitted:
            assert (r.decision, r.exact, r.witness_degree, r.witness) == ("no", True, None, None)
            assert (r.dim_prev, r.dim_at, r.hilbert_drop_ok) == (None, None, None)
