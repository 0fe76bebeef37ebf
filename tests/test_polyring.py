"""Monomial order, polynomial arithmetic, the ideal grammar, and the split of
an ideal's generators."""

import copy
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from ezdlab.polyring import (
    HomogPoly,
    NonHomogeneousError,
    ParseError,
    divides,
    format_ideal,
    format_poly,
    make_ideal,
    minimalize_monomial_gens,
    monomial_ideal,
    monomial_key,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
)
from one_form import in_one_form
from shape_oracle import MONOMIAL, ONE_BINOMIAL, SHAPES, ideal_shape
from support_oracle import in_monomial_ideal


def test_divides_examples():
    assert divides((1, 0), (1, 1))
    assert not divides((2, 0), (1, 1))
    assert divides((0, 0), (3, 7))
    with pytest.raises(ValueError):
        divides((1, 0), (1, 1, 0))


def test_monomials_of_degree_order():
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(monomials_of_degree(3, 2)) == 6
    # more variables than a recursion per variable could reach
    n = sys.getrecursionlimit() + 100
    assert monomials_of_degree(n, 1) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert monomials_of_degree(n, 0) == ((0,) * n,)


def recursive_monomials(nvars: int, degree: int) -> tuple:
    """The degree-d monomials by recursion on the variables, x1's exponent
    falling from d: graded-lex order by construction. The order oracle of
    `monomials_of_degree`; its depth grows with the variable count."""
    if nvars == 1:
        return ((degree,),)
    return tuple(
        (e,) + rest for e in range(degree, -1, -1) for rest in recursive_monomials(nvars - 1, degree - e)
    )


def test_monomials_of_degree_matches_recursive_oracle():
    for n in range(1, 7):
        for d in range(8):
            assert monomials_of_degree(n, d) == recursive_monomials(n, d), (n, d)


def test_order_strictly_increasing():
    for n, d in [(2, 3), (3, 2), (4, 3)]:
        out = monomials_of_degree(n, d)
        assert all(monomial_key(a) < monomial_key(b) for a, b in zip(out, out[1:]))


def graded_lex_cmp(a, b) -> int:
    """The monomial order, written independently of `monomial_key`: lower
    degree first, then a larger exponent at the first differing position."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(a, b):
        if x != y:
            return -1 if x > y else 1
    return 0


GRADED_LEX = cmp_to_key(graded_lex_cmp)


@st.composite
def exponent_tuples(draw):
    """A variable count and a list of monomials in that many variables."""
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(exponent_tuples())
def test_monomial_key_is_graded_lex(case):
    """Sorting by the key, minimalizing generators and listing a polynomial's
    terms all follow the oracle order, never the tuples' native lex order."""
    n, ts = case
    assert sorted(ts, key=monomial_key) == sorted(ts, key=GRADED_LEX)
    minimal = minimalize_monomial_gens(ts)
    assert list(minimal) == sorted(minimal, key=GRADED_LEX)
    for d in set(map(sum, ts)):
        poly = HomogPoly(n, d, [(t, 1) for t in ts if sum(t) == d])
        assert [m for m, _ in poly.terms()] == sorted(poly.coeffs, key=GRADED_LEX)


def test_native_tuple_order_is_not_graded_lex():
    ts = [(0, 2), (1, 1), (2, 0)]
    assert sorted(ts, key=monomial_key) == [(2, 0), (1, 1), (0, 2)]
    assert sorted(ts) == ts
    assert minimalize_monomial_gens(ts) == ((2, 0), (1, 1), (0, 2))
    assert [m for m, _ in HomogPoly(2, 2, [(t, 1) for t in ts]).terms()] == [(2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize(
    "mono", [(3, -1), (2, 0, 0), (2,), (1, 0)], ids=["negative", "long", "short", "degree"]
)
def test_homog_poly_refuses_invalid_exponents(mono):
    with pytest.raises(ValueError):
        HomogPoly(2, 2, [(mono, 1)])


@pytest.mark.parametrize("text, message, col", [
    ("x1^3*x2^-1", "expected an integer exponent", 9),
    ("x1*x3", "unknown variable x3 (expected x1..x2)", 4),
    ("x1^2 + x2", "term of degree 1 in a polynomial of degree 2", 8),
])
def test_parser_refuses_invalid_exponents_before_homog_poly(text, message, col):
    """Text that would give a negative exponent, a third variable or a
    mixed degree is a positioned ParseError, not HomogPoly's ValueError."""
    with pytest.raises(ParseError) as err:
        parse_ideal(text, 2)
    assert str(err.value) == f"line 1, column {col}: {message}"


def test_in_monomial_ideal():
    assert in_monomial_ideal((1, 2), [(1, 1)])
    assert not in_monomial_ideal((0, 3), [(2, 0), (1, 1)])
    assert not in_monomial_ideal((1, 1), [])


def test_poly_mul_examples():
    p = parse_poly("x1 + x2", 2)
    q = parse_poly("x1 - x2", 2)
    assert format_poly(p * q) == "x1^2 - x2^2"
    zero = HomogPoly.zero(2, 1)
    assert (p * zero).is_zero()
    assert format_poly(p * p) == "x1^2 + 2*x1*x2 + x2^2"


def test_parse_monomial_kind():
    spec = parse_ideal("x1^2, x2^2", 2)
    assert spec.others == ()
    assert spec.monomials == ((2, 0), (0, 2))
    assert len(spec.generators) == 2


def test_parse_binomial_kind():
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    j, f1, f2 = spec.binomial_parts()
    assert j == ((2, 0),) == spec.monomials
    assert f1 == (1, 1) and f2 == (0, 2)


def test_parse_binomial_rescales_equal_coefficients():
    spec = parse_ideal("x1^2, x2^2, 3*x1*x2 + 3*x3^2", 3)
    (binom,) = spec.others
    assert set(binom.coeffs.values()) == {Fraction(1)}
    assert spec.binomial_parts() == (((2, 0, 0), (0, 2, 0)), (1, 1, 0), (0, 0, 2))


def test_parse_binomial_unequal_coefficients_is_general():
    spec = parse_ideal("x1^2, x1*x2 + 2*x2^2", 2)
    assert len(spec.others) == 1
    with pytest.raises(ValueError, match="monomial-plus-one-binomial"):
        spec.binomial_parts()


def _shape_sample_generator(rng, n):
    """A monomial, a binomial with equal or unequal coefficients or a
    three-term form, in degree 2 or 3, or else the zero polynomial or the
    constant 1."""
    kind = rng.choice(["monomial"] * 4 + ["binomial"] * 3 + ["three terms", "zero", "one"])
    if kind == "zero":
        return HomogPoly.zero(n, 2)
    if kind == "one":
        return HomogPoly.from_monomial((0,) * n)
    degree = rng.choice([2, 2, 2, 3])
    count = {"monomial": 1, "binomial": 2, "three terms": 3}[kind]
    if rng.random() < 0.6:
        coeffs = [rng.choice([1, 2, Fraction(-1, 3)])] * count
    else:
        coeffs = [rng.choice([1, -1, 2, Fraction(5, 2)]) for _ in range(count)]
    return HomogPoly(n, degree, zip(rng.sample(monomials_of_degree(n, degree), count), coeffs))


def test_split_views_match_the_shape_oracle():
    """The three shapes the package once stored as a tag, read back off the
    derived views: a monomial ideal has no `others`, a monomial-plus-one-
    binomial ideal has `binomial_parts` (J in generator order, f1 before f2
    in graded-lex order), and every other ideal has others and no parts."""
    rng = random.Random(4343)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(2, 4)
        gens = [_shape_sample_generator(rng, n) for _ in range(rng.randint(1, 5))]
        spec = make_ideal(n, gens)
        shape = ideal_shape(gens)
        seen[shape] += 1
        assert ideal_shape(spec.generators) == shape
        assert (spec.others == ()) == (shape == MONOMIAL)
        assert spec.monomials == tuple(next(iter(g.coeffs)) for g in gens if len(g.coeffs) == 1)
        if shape == ONE_BINOMIAL:
            (binomial,) = [g for g in gens if len(g.coeffs) > 1]
            f1, f2 = sorted(binomial.coeffs, key=GRADED_LEX)
            assert spec.binomial_parts() == (spec.monomials, f1, f2)
        else:
            with pytest.raises(ValueError, match="monomial-plus-one-binomial"):
                spec.binomial_parts()
    assert set(seen) == set(SHAPES), seen


def test_parse_non_homogeneous():
    with pytest.raises(NonHomogeneousError):
        parse_poly("x1 + x2^2", 2)
    with pytest.raises(NonHomogeneousError) as err:
        parse_ideal("x1^2, x1 + x2^2", 2)
    assert "degree" in str(err.value)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + ?", 2)
    assert err.value.line == 1 and err.value.col == 6
    with pytest.raises(ParseError):
        parse_poly("x9", 2)
    with pytest.raises(ParseError):
        parse_poly("1/0", 2)


LONG = "1" * 5000

# One malformed input per ParseError message: (reader, text, message, line,
# column). Integers are ASCII 0-9 only, and one longer than Python's string
# conversion limit is a positioned error too, not int()'s ValueError.
PARSE_ERROR_GOLDEN = [
    (parse_poly, "x1 + ?", "unexpected character '?'", 1, 6),
    (parse_poly, "x1 +\n  xa", "expected a variable like x1", 2, 3),
    (parse_poly, "  # only a comment", "empty polynomial", 1, 1),
    (parse_poly, "x1, x2", "expected a single polynomial", 1, 5),
    (parse_ideal, "x1^2,\n\tx2^2 - 2/", "unexpected end of input", 2, 11),
    (parse_poly, "x1 x2", "expected '+' or '-', found 'x2'", 1, 4),
    (parse_poly, "x1 +", "dangling sign", 1, 4),
    (parse_ideal, "x1^2,\n x2^2 # c\n x1*x2 + x2", "term of degree 1 in a polynomial of degree 2", 3, 10),
    (parse_poly, "x1 + - x2", "expected a term, found '-'", 1, 6),
    (parse_poly, "1/x1", "expected an integer denominator", 1, 3),
    (parse_poly, "1/0*x1", "zero denominator", 1, 3),
    (parse_poly, "x3", "unknown variable x3 (expected x1..x2)", 1, 1),
    (parse_poly, "x1^x2", "expected an integer exponent", 1, 4),
    (parse_poly, "x1*^2", "unexpected '^'", 1, 4),
    (parse_poly, "x1^\u00b2", "unexpected character '\u00b2'", 1, 4),
    (parse_poly, "x1^\u0663", "unexpected character '\u0663'", 1, 4),
    (parse_poly, "x\u0663", "expected a variable like x1", 1, 1),
    pytest.param(parse_poly, f"{LONG}*x1", "integer too long (5000 digits)", 1, 1,
                 id="long-coefficient"),
    pytest.param(parse_poly, f"x1 + 1/{LONG}*x2", "integer too long (5000 digits)", 1, 8,
                 id="long-denominator"),
    pytest.param(parse_ideal, f"x1^2,\n x2^{LONG}", "integer too long (5000 digits)", 2, 5,
                 id="long-exponent"),
    pytest.param(parse_poly, f"x{LONG}", "integer too long (5000 digits)", 1, 1,
                 id="long-index"),
]


@pytest.mark.parametrize("read, text, message, line, col", PARSE_ERROR_GOLDEN)
def test_parse_error_golden(read, text, message, line, col):
    with pytest.raises(ParseError) as err:
        read(text, 2)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"line {line}, column {col}: {message}", line, col)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.text(max_size=40), st.integers(1, 3))
@example("x1^\u00b2, x2^2", 2)
@example(LONG, 2)
def test_any_text_parses_or_raises_parse_error(text, nvars):
    for read in (parse_ideal, parse_poly):
        try:
            read(text, nvars)
        except ParseError:
            pass


@pytest.mark.parametrize("text", ["2*", "x1*", "x1* + x2", "x1*x2 - 3*"])
def test_parse_rejects_dangling_star(text):
    with pytest.raises(ParseError, match="expected a term"):
        parse_poly(text, 2)


def test_parse_comments_newlines_whitespace():
    text = """
    # squares of both variables
    x1^2
    x2 ^ 2   # trailing note
    """
    spec = parse_ideal(text, 2)
    assert spec.others == ()
    assert len(spec.generators) == 2


def test_parse_rational_coefficients():
    p = parse_poly("-1/2*x1*x2 + x2^2", 2)
    assert p.coeffs[(1, 1)] == Fraction(-1, 2)
    assert format_poly(p) == "-1/2*x1*x2 + x2^2"


def test_minimalize():
    assert minimalize_monomial_gens([(1, 0), (1, 1)]) == ((1, 0),)
    assert minimalize_monomial_gens([(2, 0), (0, 2)]) == ((2, 0), (0, 2))
    assert minimalize_monomial_gens([(1, 1), (1, 1)]) == ((1, 1),)


def test_minimalize_preserves_membership():
    gens = [(2, 0, 0), (2, 1, 0), (0, 2, 0), (1, 1, 1)]
    minimal = minimalize_monomial_gens(gens)
    for m in monomials_of_degree(3, 3):
        assert in_monomial_ideal(m, gens) == in_monomial_ideal(m, minimal)


def test_roundtrip_identity():
    texts = [
        "x1^2, x2^2",
        "x1^2, x1*x2 + x2^2",
        "x1^3, -2*x1*x2 + x2^2, x2^3",
        "x1^2*x3, 1/3*x2^2 - x3^2",
    ]
    for text in texts:
        spec = parse_ideal(text, 3)
        again = parse_ideal(format_ideal(spec), 3)
        assert again == spec


def test_zero_generators_dropped():
    spec = parse_ideal("x1^2, x2^2 - x2^2", 2)
    assert len(spec.generators) == 1


@st.composite
def homog_polys(draw, nvars=2, degree=2):
    monos = monomials_of_degree(nvars, degree)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            min_size=len(monos),
            max_size=len(monos),
        )
    )
    return HomogPoly(nvars, degree, list(zip(monos, coeffs)))


@settings(deadline=None, max_examples=50)
@given(homog_polys(), homog_polys(degree=1))
def test_poly_mul_commutative(p, q):
    assert p * q == q * p


@settings(deadline=None, max_examples=50)
@given(homog_polys(), homog_polys(), homog_polys(degree=1))
def test_poly_mul_distributive(p, q, r):
    assert (p + q) * r == p * r + q * r


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(monomials_of_degree(2, 2) + monomials_of_degree(2, 3)), max_size=4))
def test_roundtrip_random_monomial_ideals(monos):
    spec = monomial_ideal(2, monos)
    assert parse_ideal(format_ideal(spec), 2) == spec


def _fraction_poly(terms) -> dict:
    """The all-Fraction oracle: coefficients summed per monomial, zeros dropped."""
    out: dict = {}
    for m, c in terms:
        out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def _fraction_product(a: dict, b: dict) -> dict:
    return _fraction_poly(
        (tuple(x + y for x, y in zip(m1, m2)), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()
    )


def _assert_one_form(p: HomogPoly, oracle: dict):
    assert all(map(in_one_form, p.coeffs.values())), p.coeffs
    assert p.coeffs == oracle


# integral values drawn as Fractions too, so storing them must convert
one_form_coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.integers(-6, 6).map(Fraction),
)


@st.composite
def _term_lists(draw, degree):
    """Terms of a 3-variable form, monomials repeating so that halves can add up to an integer."""
    monos = st.sampled_from(monomials_of_degree(3, degree))
    return draw(st.lists(st.tuples(monos, one_form_coeffs), max_size=6))


def _text(terms) -> str:
    """Ideal text for the terms, every coefficient written as a/b."""
    pieces = []
    for m, c in terms:
        c = Fraction(c)
        mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(m) if e)
        pieces.append(f"{'-' if c < 0 else '+'} {abs(c.numerator)}/{c.denominator}*{mono}")
    return " ".join(pieces)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(_term_lists(2), _term_lists(2), _term_lists(1), one_form_coeffs)
@example([((2, 0, 0), Fraction(1, 2)), ((2, 0, 0), Fraction(1, 2))], [((2, 0, 0), Fraction(2, 3))],
         [((1, 0, 0), Fraction(3, 2))], Fraction(4, 3))
@example([((1, 1, 0), Fraction(1, 3))], [((1, 1, 0), Fraction(2, 3))], [((0, 0, 1), 3)], Fraction(6, 2))
def test_coefficients_are_stored_in_the_one_form(terms_p, terms_q, terms_r, scalar):
    """Every stored coefficient of a sum, difference, product, scalar product or
    parsed polynomial is an int or a Fraction with denominator other than 1,
    and equals the value of all-Fraction arithmetic."""
    p, q, r = HomogPoly(3, 2, terms_p), HomogPoly(3, 2, terms_q), HomogPoly(3, 1, terms_r)
    fp, fq, fr = _fraction_poly(terms_p), _fraction_poly(terms_q), _fraction_poly(terms_r)
    _assert_one_form(p, fp)
    _assert_one_form(p + q, _fraction_poly([*fp.items(), *fq.items()]))
    _assert_one_form(p - q, _fraction_poly([*fp.items(), *((m, -c) for m, c in fq.items())]))
    _assert_one_form(p * r, _fraction_product(fp, fr))
    _assert_one_form(r ** 2, _fraction_product(fr, fr))
    scaled = _fraction_poly((m, Fraction(scalar) * c) for m, c in fp.items())
    _assert_one_form(p * scalar, scaled)
    _assert_one_form(scalar * p, scaled)
    if terms_p:
        _assert_one_form(parse_poly(_text(terms_p), 3), fp)
        assert all(in_one_form(p.coeffs.get(m, 0)) for m in monomials_of_degree(3, 2))


def test_equal_polynomials_hash_equal_once_computed():
    """Equal polynomials hash the same whatever the order of their terms and
    whether a coefficient is an int or an integral Fraction; the hash is
    kept, and equality, pickling and deepcopy are unchanged by it."""
    terms = [((2, 0), 3), ((1, 1), Fraction(-1, 2)), ((0, 2), 5)]
    p = HomogPoly(2, 2, terms)
    q = HomogPoly(2, 2, reversed(terms))
    r = HomogPoly(2, 2, [((2, 0), Fraction(6, 2)), ((1, 1), Fraction(-1, 2)), ((0, 2), Fraction(5))])
    s = parse_poly("3*x1^2 - 1/2*x1*x2 + 5*x2^2", 2)
    assert p == q == r == s
    assert len({hash(p), hash(q), hash(r), hash(s)}) == 1
    assert hash(p) == hash(p)
    assert p != HomogPoly(2, 2, terms[:2])
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.deepcopy(HomogPoly(2, 2, terms))):
        assert twin == p and hash(twin) == hash(p)
        assert twin.coeffs == p.coeffs and twin.coeffs is not p.coeffs
    assert repr(p) == "HomogPoly('3*x1^2 - 1/2*x1*x2 + 5*x2^2')"
