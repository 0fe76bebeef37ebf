"""Acceptance gate: every criterion exercised at its stated tolerance.

Each test prints one `ACCEPTANCE n: ... PASS/FAIL` line (visible with
`pytest -s`). All comparisons are exact; the only tolerances are the two
stated runtime ceilings.
"""

import random
import time
from fractions import Fraction

import pytest

from ezdlab.ezd import (
    GenericDecision,
    PairVerdict,
    annihilator_degree,
    degree2_generator_count,
    find_ezd_complement,
    generic_linear_form,
    is_gorenstein,
    wlp_check,
    yoshino_conditions,
)
from ezdlab.gradedring import build_quotient, default_bound
from ezdlab.lab import (
    BINOMIAL_DEFAULT_BOUND,
    ScanConfig,
    power_ideal_example,
    scan_binomial,
    scan_monomial,
)
from ezdlab.polyring import (
    HomogPoly,
    linear_form,
    minimalize_monomial_gens,
    monomial_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
)

from macaulay_oracle import macaulay_ring
from probe_oracle import generic_form_probe
from support_oracle import check_support_multiples

F = Fraction


def _criterion(num, label, ok):
    print(f"\nACCEPTANCE {num:>2} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def monomial_scans():
    return {
        2: scan_monomial(ScanConfig(nvars=2, max_degree=4, seed=0)),
        3: scan_monomial(ScanConfig(nvars=3, max_degree=3, seed=0)),
    }


@pytest.fixture(scope="module")
def binomial_scan():
    return scan_binomial(ScanConfig(nvars=3, max_degree=2, trials=5, seed=0))


def _monomial_ring(record, nvars):
    spec = parse_ideal(record.ideal, nvars)
    return build_quotient(spec, default_bound(spec))


def _binomial_ring(record, nvars):
    spec = parse_ideal(record.ideal, nvars)
    return build_quotient(spec, BINOMIAL_DEFAULT_BOUND)


def test_criterion_1_power_ideal_family():
    start = time.perf_counter()
    ok = True
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)]:
        report = power_ideal_example(n, d)
        ok = ok and report.verdict is PairVerdict.EXACT_PAIR
        # the canonical witness found from scratch must match the formula
        spec = parse_ideal(report.ring, n)
        ring = build_quotient(spec, default_bound(spec))
        found = find_ezd_complement(ring, report.x)
        ok = ok and found is not None
        ok = ok and ring.normal_form(found[0]) == ring.normal_form(report.y)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _criterion(1, f"power ideal family, {elapsed:.2f}s", ok)


def test_criterion_2_monomial_scan(monomial_scans):
    ok = True
    total = 0.0
    for n, report in monomial_scans.items():
        total += report.elapsed
        ok = ok and report.passes and report.examined > 0
        for rec in report.instances:
            if rec.decision == "generically_yes":
                ok = ok and rec.dim_at == rec.dim_prev - 1  # exact, not merely >=
    ok = ok and total < 300.0
    counts = {n: r.examined for n, r in monomial_scans.items()}
    _criterion(2, f"monomial scans {counts}, {total:.1f}s", ok)


def test_criterion_3_binomial_scan(binomial_scan):
    report = binomial_scan
    ok = report.passes and report.examined > 0
    off_boundary = [r for r in report.instances if not r.boundary]
    ok = ok and off_boundary != []
    for rec in off_boundary:
        ok = ok and rec.deg1_witness_trials == 0
    _criterion(
        3,
        f"binomial family n=3, {len(off_boundary)} off-boundary instances",
        ok,
    )


def _drop_two_rings(count):
    rng = random.Random(41)
    found = []
    attempts = 0
    while len(found) < count and attempts < 8000:
        attempts += 1
        n = rng.choice([2, 3, 3])
        gens = set()
        for i in range(n):
            e = [0] * n
            e[i] = rng.choice([2, 3])
            gens.add(tuple(e))
        pool = [m for d in (2, 3) for m in monomials_of_degree(n, d)]
        gens.update(rng.sample(pool, rng.randint(0, 4)))
        spec = monomial_ideal(n, minimalize_monomial_gens(gens))
        ring = build_quotient(spec, default_bound(spec))
        dims = ring.hilbert.values
        for d in range(1, len(dims)):
            if dims[d] <= dims[d - 1] - 2:
                found.append((ring, d, rng.randrange(10**6)))
                break
    return found


def test_criterion_4_big_kernel_blocks_complements():
    rings = _drop_two_rings(200)
    ok = len(rings) == 200
    for ring, d, seed in rings:
        ell = generic_linear_form(ring.nvars, seed)
        ok = ok and annihilator_degree(ring, ell, d - 1).dim >= 2
        foundpair = find_ezd_complement(ring, ell)
        ok = ok and (foundpair is None or foundpair[0].degree != d - 1)
    _criterion(4, f"{len(rings)} rings with a drop of two", ok)


def _ezd_monomial_instances(monomial_scans):
    out = []
    for n, report in monomial_scans.items():
        for rec in report.instances:
            if rec.decision == "generically_yes":
                out.append((n, rec))
    return out


def test_criterion_5_support_oracle_and_mutations(monomial_scans):
    instances = _ezd_monomial_instances(monomial_scans)
    ok = instances != []
    prepared = []
    for n, rec in instances:
        ring = _monomial_ring(rec, n)
        ell = linear_form([1] * n)
        q = parse_poly(rec.witness, n)
        ok = ok and check_support_multiples(ring, ell, q) == []
        prepared.append((ring, ell, q))
    rng = random.Random(17)
    tripped = 0
    mutations = 100
    for _ in range(mutations):
        ring, ell, q = prepared[rng.randrange(len(prepared))]
        mu = rng.choice(ring.basis_monomials(q.degree))
        delta = F(rng.choice([-3, -2, -1, 1, 2, 3]))
        corrupted = q + HomogPoly.from_monomial(mu, delta)
        try:
            if check_support_multiples(ring, ell, corrupted):
                tripped += 1
        except ValueError:
            tripped += 1
    ok = ok and tripped >= 99
    _criterion(5, f"support oracle on {len(instances)} pairs, {tripped}/100 mutations tripped", ok)


def test_criterion_6_partner_splits_and_colon_identity(binomial_scan):
    report = binomial_scan
    with_pair = [r for r in report.instances if r.deg1_witness_trials > 0]
    ok = with_pair != []
    for rec in with_pair:
        ok = ok and rec.decompose_ok is True and rec.support_ok is True
    for rec in report.instances:
        ok = ok and rec.colon_identity_ok
    boundary_pairs = sum(1 for r in with_pair if r.boundary)
    _criterion(
        6,
        f"partner split on {len(with_pair)} pair instances ({boundary_pairs} boundary), "
        f"colon identity on {report.examined}",
        ok,
    )


def test_criterion_7_short_ring_conditions(monomial_scans, binomial_scan):
    ok = True
    checked = 0
    boundary_checked = 0
    records = [(n, rec, False) for n, rep in monomial_scans.items() for rec in rep.instances]
    records += [(3, rec, True) for rec in binomial_scan.instances]
    for n, rec, is_binomial in records:
        if len(rec.hilbert) <= 3 or rec.hilbert[3] != 0:
            continue
        ring = _binomial_ring(rec, n) if is_binomial else _monomial_ring(rec, n)
        has_pair = (
            rec.deg1_witness_trials > 0 if is_binomial else rec.decision == "generically_yes"
        )
        if has_pair and not is_gorenstein(ring):
            conditions = yoshino_conditions(ring)
            ok = ok and conditions.c1 and conditions.c2
            checked += 1
        spec = ring.spec
        degree_two = all(g.degree == 2 for g in spec.generators) and spec.generators
        if degree_two and ring.dim(2) == ring.dim(1) - 1:
            ok = ok and len(spec.generators) == degree2_generator_count(n)
            boundary_checked += 1
    ok = ok and checked > 0 and boundary_checked > 0
    _criterion(
        7, f"short-ring conditions on {checked} rings, {boundary_checked} boundary counts", ok
    )


def test_criterion_8_one_pair_implies_generic(monomial_scans, binomial_scan):
    ok = True
    probed = 0
    targets = []
    for n, rep in monomial_scans.items():
        for rec in rep.instances:
            if rec.decision == "generically_yes" and rec.hilbert[3] == 0:
                targets.append((n, rec, False))
    for rec in binomial_scan.instances:
        if rec.deg1_witness_trials > 0 and rec.hilbert[3] == 0:
            targets.append((3, rec, True))
    ok = ok and targets != []
    for n, rec, is_binomial in targets:
        ring = _binomial_ring(rec, n) if is_binomial else _monomial_ring(rec, n)
        probe = generic_form_probe(ring, samples=20, seed=1000 + rec.index)
        ok = ok and probe.skipped_reason is None and probe.successes == 20
        probed += 1
    _criterion(8, f"20/20 sampled forms on {probed} rings", ok)


def test_criterion_9_wlp(monomial_scans, binomial_scan):
    ok = True
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            ring = build_quotient(parse_ideal(f"x1^{a}, x2^{b}", 2), a + b - 1)
            ok = ok and wlp_check(ring).holds
    ring3 = build_quotient(parse_ideal("x1^2, x2^2, x3^2", 3), 4)
    ok = ok and wlp_check(ring3).holds
    # a generic pair with witness degree t and no Hilbert drop at t+1 must
    # break the Lefschetz property there (no scanned ring reaches this
    # because the drop theorem holds, so the loop is a guard, not a sample)
    triggered = 0
    for n, rep in monomial_scans.items():
        for rec in rep.instances:
            if rec.decision != "generically_yes":
                continue
            if rec.dim_at >= rec.dim_prev:
                ring = _monomial_ring(rec, n)
                report = wlp_check(ring)
                row = report.degrees[rec.witness_degree]  # degree t+1 row
                ok = ok and not row.maximal
                triggered += 1
    _criterion(9, f"complete intersections hold, {triggered} forced failures", ok)


def test_criterion_10_hilbert_oracle_equivalence():
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 4)
        max_degree = rng.randint(2, 4)
        pool = [m for d in range(2, max_degree + 1) for m in monomials_of_degree(n, d)]
        gens = minimalize_monomial_gens(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
        spec = monomial_ideal(n, gens)
        bound = rng.randint(max(g.degree for g in spec.generators), 6)
        fast = build_quotient(spec, bound)
        slow = macaulay_ring(spec, bound)
        ok = ok and fast.hilbert.values == slow.hilbert.values
    _criterion(10, "200 random monomial ideals, both construction paths", ok)


def test_criterion_11_scan_determinism():
    mono_cfgs = [
        ScanConfig(nvars=2, max_degree=3, seed=3, workers=w) for w in (1, 3)
    ]
    mono = [scan_monomial(cfg) for cfg in mono_cfgs]
    bino_cfgs = [
        ScanConfig(nvars=2, max_degree=2, trials=3, seed=3, workers=w) for w in (1, 2)
    ]
    bino = [scan_binomial(cfg) for cfg in bino_cfgs]
    rerun = scan_monomial(mono_cfgs[0])
    ok = (
        mono[0].to_json(full=True) == mono[1].to_json(full=True)
        and bino[0].to_json(full=True) == bino[1].to_json(full=True)
        and mono[0].to_csv() == mono[1].to_csv()
        and rerun.to_json(full=True) == mono[0].to_json(full=True)
    )
    _criterion(11, "byte-identical reports across worker counts and re-runs", ok)
