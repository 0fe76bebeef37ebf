"""The binomial scan's three checks against their slow oracles
(`partner_oracle.py`): the colon identity, the partner split and its
support check, on every trial of the n=3 family and a seeded n=4 sample."""

import random

import pytest

import binomial_family
import partner_oracle as oracle
from ezdlab import lab
from ezdlab.ezd import colon_identity_dims, derived_seed, find_ezd_complement, generic_linear_form
from ezdlab.gradedring import build_quotient
from ezdlab.lab import check_split_support, decompose_partner
from ezdlab.polyring import HomogPoly, parse_ideal, parse_poly


def _examined_rings(n):
    """(index, spec) of each candidate `scan_binomial` builds, in index order."""
    for idx, (j_exps, f1, f2) in enumerate(binomial_family.candidates(n)):
        if f1 in j_exps or f2 in j_exps or not lab._binomial_is_artinian(n, j_exps, f1, f2):
            continue
        yield idx, binomial_family.spec(n, j_exps, f1, f2)


def _coeff_types(p):
    return {m: type(c) for m, c in p.coeffs.items()}


def _assert_split_matches(spec, ell, q):
    """The split and its support check equal the oracle's, coefficient types included."""
    fast, slow = decompose_partner(spec, ell, q), oracle.decompose_partner(spec, ell, q)
    assert fast == slow
    if fast is None:
        return None
    assert type(fast.alpha) is type(slow.alpha)
    assert _coeff_types(fast.q1) == _coeff_types(slow.q1)
    assert _coeff_types(fast.q2) == _coeff_types(slow.q2)
    support = check_split_support(spec, ell, fast.q1, fast.q2)
    assert support == oracle.check_split_support(spec, ell, fast.q1, fast.q2)
    return fast


def _compare_trials(n, rings, seeds, trials=3):
    """Every trial of `scan binomial` on these rings and scan seeds; the
    number of degree-1 partners split."""
    split = 0
    for idx, spec in rings:
        ring = build_quotient(spec, max(lab.BINOMIAL_DEFAULT_BOUND, n + 1))
        for seed in seeds:
            instance_seed = derived_seed(seed, idx)
            for t in range(trials):
                ell = generic_linear_form(n, derived_seed(instance_seed, t))
                assert colon_identity_dims(ring, ell) == oracle.colon_identity_dims(ring, ell)
                found = find_ezd_complement(ring, ell)
                if found is not None and found[0].degree == 1:
                    assert _assert_split_matches(spec, ell, found[0]) is not None
                    split += 1
    return split


def test_checks_match_oracle_on_every_n3_trial():
    rings = list(_examined_rings(3))
    assert len(rings) == 54
    assert _compare_trials(3, rings, range(8)) == 648  # 81 partners per scan seed


def test_checks_match_oracle_on_n4_sample():
    rings = list(_examined_rings(4))
    assert len(rings) == 1200
    sample = sorted(random.Random(4).sample(rings, 60), key=lambda r: r[0])
    assert _compare_trials(4, sample, (0,)) == 54


@pytest.mark.parametrize(
    "text, n, ell, q",
    [
        ("x1^2, x1*x2 + x2^2", 2, "x1 + 2*x2", "x1 + 2*x2"),
        ("x1^2, x1*x2 + x2^2", 2, "2*x1 + 3*x2", "1/9*x1 + 1/3*x2"),  # fractional q
        ("x1^2, x1*x2, x2*x3 + x3^2", 3, "x1", "x1"),  # alpha = 0
        ("x1^2, x1*x2 + x2^2", 2, "1/2*x1 + 3/4*x2", "1/5*x1 + 3/5*x2"),  # fractional ell
    ],
)
def test_checks_match_oracle_on_hand_made_inputs(text, n, ell, q):
    spec, ell, q = parse_ideal(text, n), parse_poly(ell, n), parse_poly(q, n)
    ring = build_quotient(spec, 3)
    assert colon_identity_dims(ring, ell) == oracle.colon_identity_dims(ring, ell)
    assert _assert_split_matches(spec, ell, q) is not None


def test_colon_identity_matches_oracle_off_the_binomial_family():
    """The left side reads only the generators and ell, so it holds for any
    ideal: linear, cubic and rational generators among them."""
    rng = random.Random(5)
    for text, n in [
        ("x1 + x2, x3^2, x1*x3 - 1/3*x2^2", 3),
        ("x1^3, x2^3, x1*x2 + 2*x2^2", 2),
        ("x1^2 + x2*x3, x2^2 + x1*x4, x3^3", 4),
        ("", 3),
        ("7", 2),
    ]:
        ring = build_quotient(parse_ideal(text, n), 3)
        for _ in range(3):
            ell = generic_linear_form(n, rng.randrange(10**6))
            lhs, rhs = colon_identity_dims(ring, ell)
            assert (lhs, rhs) == oracle.colon_identity_dims(ring, ell)
            assert lhs == rhs


@pytest.mark.parametrize(
    "ell, q1, q2, violations",
    [
        # ell*q1 = x1*x2 lies in J, yet x2 does not divide f1 and x2*x2^2 escapes J
        ("x1", "x2", None, [("a", (0, 1), (0, 2))]),
        # ell*q2 = x1*x2 lies in J, yet x1 does not divide f2 and x1*x1^2 escapes J
        ("x2", None, "x1", [("b", (1, 0), (2, 0))]),
    ],
)
def test_split_support_violations_match_oracle(ell, q1, q2, violations):
    """Hand-made splits that pass the preconditions and fail the support facts."""
    spec = parse_ideal("x1*x2, x1^2 + x2^2", 2)  # J = (x1*x2), f1 = x1^2, f2 = x2^2
    ell, q1, q2 = (HomogPoly.zero(2, 1) if t is None else parse_poly(t, 2) for t in (ell, q1, q2))
    assert check_split_support(spec, ell, q1, q2) == violations
    assert oracle.check_split_support(spec, ell, q1, q2) == violations


def test_split_preconditions_refuse_like_oracle():
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ell = parse_poly("x1 + 2*x2", 2)
    with pytest.raises(ValueError, match="ell\\*q is not in the ideal"):
        decompose_partner(spec, ell, parse_poly("x1", 2))
    with pytest.raises(ValueError, match="ell\\*q is not in the ideal"):
        oracle.decompose_partner(spec, ell, parse_poly("x1", 2))
    q1, q2 = parse_poly("2*x1 + x2", 2), parse_poly("-x1 + x2", 2)
    message = "ell\\*q1 is not in J \\+ \\(x1\\*x2\\)"
    with pytest.raises(ValueError, match=message):
        check_split_support(spec, ell, q1, q2)
    with pytest.raises(ValueError, match=message):
        oracle.check_split_support(spec, ell, q1, q2)

