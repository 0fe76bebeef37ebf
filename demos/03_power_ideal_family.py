#!/usr/bin/env python3
"""The power ideal family: rings far from the short case with generic pairs.

R = k[x1..xn] / ((x1^d) + (x2..xn)^d) keeps nonzero pieces up to degree
n(d-1), yet the all-ones form L always pairs with the alternating partner
Q = x1^{d-1} - l0 x1^{d-2} + ... where l0 = x2 + ... + xn, because
L*Q = x1^d - l0^d lands in the ideal. Sampling confirms that generic
forms are exact as well.
"""

from ezdlab import (
    build_quotient,
    default_bound,
    find_ezd_complement,
    format_poly,
    generic_linear_form,
    parse_ideal,
    power_ideal_example,
)

for n, d in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
    report = power_ideal_example(n, d)
    print(f"n={n}, d={d}")
    print(f"  ideal: {report.ring}")
    print(f"  L = {format_poly(report.x)}")
    print(f"  Q = {format_poly(report.y)}")
    print(f"  verdict: {report.verdict.value}")

# For the short member (every piece from degree 3 on vanishes) one pair
# already forces generic behavior; twenty sampled forms all find a partner.
spec = parse_ideal("x1^2, x2^2, x2*x3, x3^2", 3)
ring = build_quotient(spec, default_bound(spec))
forms = [generic_linear_form(3, seed) for seed in range(20)]
exact = sum(find_ezd_complement(ring, ell) is not None for ell in forms)
print()
print(f"sampled forms {format_poly(forms[0])} and nineteen more: {exact}/{len(forms)} exact")
