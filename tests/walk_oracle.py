"""The monomial enumeration without orderly pruning: an oracle for the
tests, which the package itself never needs.

It is the include-first walk over the divisibility antichains that
`lab.enumerate_monomial_ideals` makes, with the same tables and the same
emission order, but it enters every child and tests a set for symmetry
only at its emission, by sweeping every non-identity permutation over the
set's members.
"""

from itertools import permutations

from ezdlab.polyring import divides, monomials_of_degree


def canonical_sweep_walk(cfg):
    n = cfg.nvars
    exps = [e for d in range(2, cfg.max_degree + 1) for e in monomials_of_degree(n, d)]
    position = {e: i for i, e in enumerate(exps)}
    comparable = [
        sum(1 << j for j, f in enumerate(exps) if divides(e, f) or divides(f, e))
        for e in exps
    ]
    pure_var = [1 << e.index(max(e)) if e.count(0) == n - 1 else 0 for e in exps]
    last_pure = [max(i for i, bit in enumerate(pure_var) if bit == 1 << v) for v in range(n)]
    passed = [sum(1 << v for v in range(n) if last_pure[v] < i) for i in range(len(exps))]
    every_var = (1 << n) - 1
    images = [
        [position[tuple(e[p] for p in perm)] for e in exps]
        for perm in permutations(range(n)) if perm != tuple(range(n))
    ] if cfg.symmetry_reduction else []

    def canonical(chosen, members):
        # the permuted set is smaller exactly when the least index in which
        # the two differ belongs to it
        for image in images:
            permuted = 0
            for i in members:
                permuted |= 1 << image[i]
            diff = permuted ^ chosen
            if permuted & diff & -diff:
                return False
        return True

    def grow(chosen, members, free, covered):
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            cov = covered | pure_var[i]
            if passed[i] & ~cov:
                break
            members.append(i)
            yield from grow(chosen | low, members, free & ~comparable[i], cov)
            members.pop()
        if covered == every_var and canonical(chosen, members):
            yield tuple(exps[i] for i in members)

    return grow(0, [], (1 << len(exps)) - 1, 0)
