"""Quotient construction, Hilbert functions, normal forms, Artinian detection."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from ezdlab import gradedring
from ezdlab.exactmat import QMatrix
from ezdlab.gradedring import (
    build_quotient,
    default_bound,
    is_artinian_within,
    pure_power_exponents,
)
from ezdlab.polyring import (
    HomogPoly,
    format_monomial,
    minimalize_monomial_gens,
    monomial_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
)


def test_build_squares_bases():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 3)
    assert [format_monomial(m) for m in ring.basis_monomials(0)] == ["1"]
    assert [format_monomial(m) for m in ring.basis_monomials(1)] == ["x1", "x2"]
    assert [format_monomial(m) for m in ring.basis_monomials(2)] == ["x1*x2"]
    assert ring.basis_monomials(3) == ()


def test_build_zero_ideal():
    ring = build_quotient(parse_ideal("", 2), 2)
    assert ring.hilbert.values == (1, 2, 3)
    assert not ring.artinian_within_bound


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


def test_relation_subspace():
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ring = build_quotient(spec, 3)
    for d in range(4):
        sub = ring.relation_subspace(d)
        assert sub.dim + ring.dim(d) == len(monomials_of_degree(2, d))
        # every generator multiple of matching degree lies in the span
        for g in spec.generators:
            if g.degree > d:
                continue
            for m in monomials_of_degree(2, d - g.degree):
                prod = HomogPoly.from_monomial(m) * g
                vec = [prod.coefficient(mm) for mm in monomials_of_degree(2, d)]
                assert sub.contains_vector(vec)


def test_normal_form_out_of_bound():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 2)
    with pytest.raises(ValueError):
        ring.normal_form(parse_poly("x1^3", 2))


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
    with pytest.raises(ValueError, match="cap of 10"):
        build_quotient(spec, 4, force_elimination=True)


def test_is_artinian_examples():
    assert is_artinian_within(build_quotient(parse_ideal("x1^2, x2^2", 2), 3))
    assert not is_artinian_within(build_quotient(parse_ideal("x1*x2", 2), 4))
    assert is_artinian_within(build_quotient(parse_ideal("x1^2, x1*x2 + x2^2", 2), 3))
    # the unit ideal: no pure powers, but the ring vanishes from degree 0
    assert is_artinian_within(build_quotient(parse_ideal("3", 2), 2))


def test_default_bound():
    assert default_bound(parse_ideal("x1^2, x2^2", 2)) == 3
    assert default_bound(parse_ideal("x1^3, x2^3", 2)) == 5
    assert default_bound(parse_ideal("x1*x2", 2)) is None
    assert pure_power_exponents(parse_ideal("x1^2, x1*x2, x2^3", 2)) == {0: 2, 1: 3}


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
        slow = build_quotient(spec, bound, force_elimination=True)
        assert fast.hilbert.values == slow.hilbert.values
        assert fast.top_degree == slow.top_degree
        assert fast.complete == slow.complete
        for d in range(bound + 1):
            assert fast.basis_monomials(d) == slow.basis_monomials(d)
            monos = monomials_of_degree(nvars, d)
            p = HomogPoly(nvars, d, [(m, coeff_rng.randint(-3, 3)) for m in monos])
            assert fast.normal_form(p) == slow.normal_form(p)


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
    m = QMatrix.from_rows([[1, Fraction(1, 2)], [0, -3]])
    assert round_trip(m) == m
    spec = parse_ideal("x1^2 + x2*x3, x2^2, x3^2, x1*x2", 3)
    assert round_trip(spec) == spec
    ring = build_quotient(spec, 5)
    copied = round_trip(ring)
    assert copied.hilbert == ring.hilbert
    assert copied.top_degree == ring.top_degree
    for text in ("x1*x3 + 2*x2*x3", "x1^2*x3 - x3^3", "x1*x2*x3"):
        q = parse_poly(text, 3)
        assert copied.normal_form(q) == ring.normal_form(q)


def test_value_types_are_frozen():
    values = [
        (parse_poly("x1 + x2", 2), "degree"),
        (QMatrix(1, 1, [1]), "data"),
        (build_quotient(parse_ideal("x1^2, x2^2", 2), 3), "bound"),
    ]
    for value, field_name in values:
        with pytest.raises(AttributeError):
            setattr(value, field_name, 0)
