"""Enumeration, scans, the named experiments, and their negative controls."""

import json
import random
import re
from dataclasses import asdict, fields, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from types import SimpleNamespace

import pytest

from ezdlab import cli, ezd, lab, polyring
from ezdlab.exactmat import rank
from ezdlab.ezd import (
    PairVerdict,
    derived_seed,
    find_ezd_complement,
    general_form_admits_pair,
    generic_ezd_decision,
    generic_linear_form,
    hilbert_admits_pair,
    mult_map,
)
from ezdlab.gradedring import GradedQuotient, build_quotient, default_bound, monomial_hilbert, socle_bound
from ezdlab.lab import (
    ScanConfig,
    check_split_support,
    decompose_partner,
    enumerate_monomial_ideals,
    power_ideal_example,
    scan_binomial,
    scan_monomial,
)
from ezdlab.polyring import (
    divides,
    format_ideal,
    format_poly,
    minimalize_monomial_gens,
    monomial_ideal,
    monomial_key,
    monomials_of_degree,
    parse_ideal,
    parse_poly,
)

import binomial_family
import probe_oracle
from probe_oracle import generic_form_probe
from support_oracle import check_support_multiples
from walk_oracle import canonical_sweep_walk

F = Fraction


def brute_force_monomial_ideals(nvars, max_degree, artinian=True):
    """Independent oracle: enumerate every subset, minimalize, deduplicate."""
    pool = [m for d in range(2, max_degree + 1) for m in monomials_of_degree(nvars, d)]
    seen = set()
    for size in range(1, len(pool) + 1):
        for subset in combinations(pool, size):
            minimal = minimalize_monomial_gens(subset)
            if artinian:
                vars_with_power = {
                    next(i for i, e in enumerate(m) if e)
                    for m in minimal
                    if sum(1 for e in m if e) == 1
                }
                if len(vars_with_power) != nvars:
                    continue
            seen.add(minimal)
    return seen


def _multiset_key(exps_list) -> tuple:
    return tuple(sorted(map(monomial_key, exps_list)))


def dfs_monomial_ideals(cfg, artinian_only=True):
    """Include-first walk over every divisibility antichain with the Artinian
    and canonicity filters applied at the leaves: the enumeration oracle."""
    candidates = [
        m for d in range(2, cfg.max_degree + 1) for m in monomials_of_degree(cfg.nvars, d)
    ]

    def artinian(chosen):
        covered = {next(i for i, e in enumerate(m) if e)
                   for m in chosen if sum(1 for e in m if e) == 1}
        return len(covered) == cfg.nvars

    def canonical(chosen):
        base = _multiset_key(chosen)
        return all(
            _multiset_key([tuple(m[p] for p in perm) for m in chosen]) >= base
            for perm in permutations(range(cfg.nvars))
        )

    def dfs(i, chosen):
        if i == len(candidates):
            if chosen and (not artinian_only or artinian(chosen)) and (
                not cfg.symmetry_reduction or canonical(chosen)
            ):
                yield tuple(chosen)
            return
        m = candidates[i]
        if not any(divides(c, m) or divides(m, c) for c in chosen):
            chosen.append(m)
            yield from dfs(i + 1, chosen)
            chosen.pop()
        yield from dfs(i + 1, chosen)

    yield from dfs(0, [])


@pytest.mark.parametrize("artinian,symmetry", list(product([True, False], repeat=2)))
@pytest.mark.parametrize("nvars,max_degree", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_enumerate_matches_dfs_oracle_in_order(nvars, max_degree, artinian, symmetry):
    """The enumeration is the oracle's walk with its Artinian filter. Without
    the filter the walk adds only ideals whose rings never vanish, which a
    scan could only skip. Every ideal it yields has a ring that vanishes by
    its socle bound, so the monomial scan, which builds to that bound, never
    finds one that does not vanish."""
    cfg = ScanConfig(nvars=nvars, max_degree=max_degree, symmetry_reduction=symmetry)
    got = list(enumerate_monomial_ideals(cfg))
    assert got
    oracle = list(dfs_monomial_ideals(cfg, artinian_only=artinian))
    if artinian:
        assert got == oracle
        for gens in got:
            spec = monomial_ideal(nvars, gens)
            ring = build_quotient(spec, default_bound(spec))
            assert ring.complete and ring.hilbert.values[-1] == 0, gens
        return
    kept = set(got)
    assert [gens for gens in oracle if gens in kept] == got
    dropped = [gens for gens in oracle if gens not in kept]
    assert dropped
    for gens in dropped:
        ring = build_quotient(monomial_ideal(nvars, gens), max_degree + 2)
        assert 0 not in ring.hilbert.values and not ring.complete


@pytest.mark.parametrize("nvars,max_degree,symmetry", [
    (2, 6, True), (3, 4, True), (4, 3, True), (5, 2, True), (6, 2, True), (3, 3, False),
])
def test_pruned_walk_matches_the_canonical_sweep(nvars, max_degree, symmetry):
    """Orderly pruning emits the sequence of the walk that enters every
    child and tests each set for symmetry at its emission."""
    cfg = ScanConfig(nvars=nvars, max_degree=max_degree, symmetry_reduction=symmetry)
    assert list(enumerate_monomial_ideals(cfg)) == list(canonical_sweep_walk(cfg))


def test_enumerate_two_vars_degree_two():
    cfg = ScanConfig(nvars=2, max_degree=2, symmetry_reduction=False)
    ideals = set(enumerate_monomial_ideals(cfg))
    squares = ((2, 0), (0, 2))
    full = ((2, 0), (1, 1), (0, 2))
    assert ideals == {squares, full}


def test_enumerate_matches_brute_force():
    cfg = ScanConfig(nvars=2, max_degree=3, symmetry_reduction=False)
    enumerated = {frozenset(gens) for gens in enumerate_monomial_ideals(cfg)}
    oracle = set(map(frozenset, brute_force_monomial_ideals(2, 3)))
    assert enumerated == oracle


def test_enumerate_emits_antichains_once():
    cfg = ScanConfig(nvars=3, max_degree=2, symmetry_reduction=False)
    seen = []
    for gens in enumerate_monomial_ideals(cfg):
        # minimal, and listed in graded-lex order
        assert gens == minimalize_monomial_gens(gens)
        seen.append(frozenset(gens))
    assert len(seen) == len(set(seen))


def test_symmetry_reduction_never_increases():
    for nvars, max_degree in [(2, 3), (3, 2)]:
        base = ScanConfig(nvars=nvars, max_degree=max_degree, symmetry_reduction=False)
        reduced = ScanConfig(nvars=nvars, max_degree=max_degree, symmetry_reduction=True)
        count_all = sum(1 for _ in enumerate_monomial_ideals(base))
        count_reduced = sum(1 for _ in enumerate_monomial_ideals(reduced))
        assert 0 < count_reduced <= count_all


def test_symmetry_classes_cover_everything():
    base = ScanConfig(nvars=2, max_degree=3, symmetry_reduction=False)
    reduced = ScanConfig(nvars=2, max_degree=3, symmetry_reduction=True)
    all_sets = {frozenset(gens) for gens in enumerate_monomial_ideals(base)}
    reps = list(enumerate_monomial_ideals(reduced))
    covered = set()
    for gens in reps:
        for perm in [(0, 1), (1, 0)]:
            covered.add(frozenset(tuple(e[p] for p in perm) for e in gens))
    assert covered == all_sets


# Max-deg 2 is the graph family: an Artinian monomial ideal generated in
# degree 2 holds every x_i^2, and its other generators x_i*x_j are the edges
# of a graph on n vertices. The number of graphs on n unlabelled vertices,
# n = 2..7 (OEIS A000088):
GRAPH_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def _graph_of(n, gens) -> frozenset[tuple[int, int]]:
    """The edges of a degree-2 Artinian ideal; fails unless it holds every x_i^2."""
    squares = {e.index(2) for e in gens if 2 in e}
    assert squares == set(range(n)), gens
    return frozenset(tuple(i for i, a in enumerate(e) if a) for e in gens if 2 not in e)


def _check_graph_oracle(n, gens) -> frozenset[tuple[int, int]]:
    """The socle bound is n + 1 and H(d) counts the independent d-sets: the
    standard monomials are the squarefree ones on no edge."""
    edges = _graph_of(n, gens)
    assert socle_bound(n, gens) == n + 1
    independent = [
        sum(1 for s in combinations(range(n), d) if not any(i in s and j in s for i, j in edges))
        for d in range(n + 2)
    ]
    assert list(monomial_hilbert(n, gens, n + 1).values) == independent, gens
    return edges


@pytest.mark.parametrize("n", sorted(GRAPH_COUNTS))
def test_degree2_canonical_ideals_are_the_graphs(n):
    ideals = list(enumerate_monomial_ideals(ScanConfig(n, 2)))
    assert len(ideals) == GRAPH_COUNTS[n]
    for gens in ideals:
        _check_graph_oracle(n, gens)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degree2_ideals_are_the_labelled_graphs(n):
    ideals = list(enumerate_monomial_ideals(ScanConfig(n, 2, symmetry_reduction=False)))
    assert len(ideals) == 2 ** comb(n, 2)
    assert len({_check_graph_oracle(n, gens) for gens in ideals}) == len(ideals)


def test_scan_builds_ideal_specs_only_for_admitted_rings(monkeypatch):
    # enumeration yields exponent tuples and a worker reads the socle bound
    # and H from them, so an IdealSpec is built only for a ring the Hilbert
    # series with Green's bound admits: one per build_quotient call
    calls = []
    built = []

    def counting_ideal(*args):
        calls.append(args)
        return monomial_ideal(*args)

    def counting_build(spec, bound, **kw):
        built.append(spec)
        return build_quotient(spec, bound, **kw)

    monkeypatch.setattr(lab, "monomial_ideal", counting_ideal)
    monkeypatch.setattr(lab, "build_quotient", counting_build)
    report = scan_monomial(ScanConfig(3, 3))
    assert report.examined + len(report.skipped) == 103
    assert len(calls) == 18
    assert len(calls) == len(built)
    assert len(built) == sum(general_form_admits_pair(r.hilbert) for r in report.instances)


def test_scan_monomial_small():
    report = scan_monomial(ScanConfig(nvars=2, max_degree=2))
    assert report.examined == 2
    assert report.passes
    by_ideal = {r.ideal: r for r in report.instances}
    assert by_ideal["x1^2, x2^2"].decision == "generically_yes"
    assert by_ideal["x1^2, x2^2"].witness == "x1 - x2"
    assert by_ideal["x1^2, x2^2"].hilbert_drop_ok is True
    assert by_ideal["x1^2, x1*x2, x2^2"].decision == "no"


def test_scan_monomial_three_vars_passes():
    report = scan_monomial(ScanConfig(nvars=3, max_degree=2))
    assert report.passes
    assert report.examined > 0


def test_scan_binomial_examples():
    report = scan_binomial(ScanConfig(nvars=3, max_degree=2, trials=3, seed=2))
    assert report.passes
    by_ideal = {r.ideal: r for r in report.instances}
    key = "x1^2, x2^2, x1*x2 + x3^2"
    assert key in by_ideal
    rec = by_ideal[key]
    assert rec.r2 == 3 and not rec.boundary
    assert rec.deg1_witness_trials == 0
    assert rec.colon_identity_ok
    # skipped bookkeeping: instances whose binomial collapses modulo J
    assert any("collapses" in s.reason for s in report.skipped)


def test_scan_binomial_boundary_stratum_two_vars():
    report = scan_binomial(ScanConfig(nvars=2, max_degree=2, trials=3, seed=5))
    assert report.passes
    boundary = [r for r in report.instances if r.boundary]
    assert boundary, "expected boundary instances for n=2"
    yes = [r for r in boundary if r.decision == "generically_yes"]
    assert yes
    assert all(r.decompose_ok and r.support_ok for r in yes)


def test_scan_determinism_across_workers():
    cfg1 = ScanConfig(nvars=2, max_degree=3, seed=7, workers=1)
    cfg2 = ScanConfig(nvars=2, max_degree=3, seed=7, workers=3)
    r1, r2 = scan_monomial(cfg1), scan_monomial(cfg2)
    assert r1.to_json(full=True) == r2.to_json(full=True)
    assert r1.to_csv() == r2.to_csv()


def test_binomial_scan_determinism_across_workers():
    r1, r2 = (scan_binomial(ScanConfig(nvars=3, seed=1, workers=w)) for w in (1, 2))
    assert r1.to_json(full=True) == r2.to_json(full=True)
    assert r1.to_csv() == r2.to_csv()
    # Collapse skips are decided by the tasks, so they come back through the pool.
    indices = [s.index for s in r2.skipped]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    reasons = [s.reason for s in r2.skipped]
    assert reasons.count("binomial collapses to a monomial modulo J") == 720
    assert reasons.count("does not vanish by degree 6") == 186
    assert r2.examined == 54


def test_binomial_support_test_matches_build_oracle():
    """The support test against build_quotient(spec, 6).complete. An Artinian
    ideal generated by quadrics holds a regular sequence of n quadrics, so its
    ring vanishes by degree n + 1 <= 6 here and the bound decides."""
    n3 = [(3, p) for p in binomial_family.candidates(3) if p[1] not in p[0] and p[2] not in p[0]]
    assert len(n3) == 240
    n4 = [p for p in binomial_family.candidates(4) if p[1] not in p[0] and p[2] not in p[0]]
    sample = [(4, p) for p in random.Random(2024).sample(n4, 200)]
    verdicts = set()
    for n, (j_exps, f1, f2) in n3 + sample:
        artinian = lab._binomial_is_artinian(n, j_exps, f1, f2)
        assert artinian == build_quotient(binomial_family.spec(n, j_exps, f1, f2), 6).complete, (
            n, j_exps, f1, f2,
        )
        verdicts.add((n, artinian))
    assert verdicts == {(3, True), (3, False), (4, True), (4, False)}
    assert sum(lab._binomial_is_artinian(3, *p) for _, p in n3) == 54


@pytest.mark.parametrize(
    "n, ideal, artinian",
    [
        (3, "x1^2, x2^2, x3^2, x1*x2 + x1*x3", True),  # J holds every square
        (3, "x1^2 + x2^2", False),  # J = (): a pair of variables escapes J
        (2, "x1*x2, x1^2 + x2^2", True),
        (2, "x1^2, x1*x2 + x2^2", True),
        (2, "x1^2 + x1*x2", False),
    ],
)
def test_binomial_support_test_named_cases(n, ideal, artinian):
    spec = parse_ideal(ideal, n)
    assert lab._binomial_is_artinian(n, *spec.binomial_parts()) is artinian
    assert build_quotient(spec, 6).complete is artinian


def test_binomial_task_refuses_an_incomplete_ring(monkeypatch):
    """An Artinian candidate's ring vanishes by degree n + 1, so one that
    has not vanished by the bound breaks an invariant: it raises rather
    than being recorded as a skip."""
    monkeypatch.setattr(lab, "build_quotient", lambda spec, bound: build_quotient(spec, 1))
    squares = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    with pytest.raises(RuntimeError, match="does not vanish by degree 6"):
        lab._binomial_task(ScanConfig(3), (0, squares, ((1, 1, 0), (0, 1, 1))))


def test_binomial_skips_build_nothing(monkeypatch):
    """Only candidates that pass both skips build an IdealSpec and a ring."""
    made, built = [], []

    def counting_make(*args):
        made.append(polyring.make_ideal(*args))
        return made[-1]

    def counting_build(spec, bound, **kw):
        built.append(spec)
        return build_quotient(spec, bound, **kw)

    monkeypatch.setattr(lab, "make_ideal", counting_make)
    monkeypatch.setattr(lab, "build_quotient", counting_build)
    report = scan_binomial(ScanConfig(3, seed=1))
    examined = sorted(r.ideal for r in report.instances)
    assert len(examined) == 54
    assert sorted(map(format_ideal, made)) == examined
    assert sorted(map(format_ideal, built)) == examined


@pytest.mark.parametrize("options", [{"max_degree": 4}, {"symmetry_reduction": False}])
def test_scan_binomial_rejects_monomial_options(monkeypatch, options):
    """The scan uses neither option, which its report would echo, so it
    refuses both before any candidate runs."""
    monkeypatch.setattr(lab, "_run_scan", lambda *args: pytest.fail("a candidate ran"))
    with pytest.raises(ValueError, match="^max_degree and symmetry_reduction apply to the monomial family only$"):
        scan_binomial(ScanConfig(nvars=2, **options))


def test_binomial_ideal_text_matches_format_ideal():
    """Each record's ideal text, formatted from exponents, is format_ideal's."""
    report = scan_binomial(ScanConfig(3, seed=1))
    texts = {r.index: r.ideal for r in report.instances + report.skipped}
    expected = [format_ideal(binomial_family.spec(3, *p)) for p in binomial_family.candidates(3)]
    assert len(expected) == 960
    assert [texts[i] for i in range(960)] == expected


@pytest.mark.parametrize(
    "scan, cfg",
    [(scan_monomial, ScanConfig(3, 3)), (scan_binomial, ScanConfig(2, seed=3))],
    ids=["monomial", "binomial"],
)
def test_full_json_matches_asdict_form(scan, cfg):
    """The flat emitter of to_json against json.dumps of the dict forms, with
    and without counterexamples, full and summary."""
    plain = scan(cfg)
    report = replace(plain, counterexamples=(lab.Counterexample(7, "x1^2", "a reason"),))
    assert report.instances
    expected = dict(
        report.to_json_dict(),
        counterexamples=[asdict(c) for c in report.counterexamples],
        instances=[asdict(r) for r in report.instances],
        skipped_instances=[asdict(s) for s in report.skipped],
    )
    assert report.to_json(full=True) == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    for r in (plain, report):
        for full in (True, False):
            assert r.to_json(full) == _dumps_oracle(r, full)


def _dumps_oracle(report, full: bool) -> str:
    return json.dumps(report.to_json_dict(full), indent=2, sort_keys=True) + "\n"


def test_flat_json_escapes_and_empty_fields():
    """Strings that need escaping, empty tuples, None and booleans, written
    as json.dumps writes them, in both record families."""
    odd = 'x1^2 "quoted" \\ back\tslash\x01 \u00e9\u4e2d \U0001d400'
    monomial = lab.MonomialInstance(0, odd, (), "no", False, None, None, None, None, None)
    yes = lab.MonomialInstance(1, "", (1, 0), "generically_yes", True, 0, odd, 1, 0, True)
    binomial = lab.BinomialInstance(2, odd, (1,), 0, True, "no", (), 0, None, None, False, True)
    cex = (lab.Counterexample(3, odd, "\n\r\"\\"), lab.Counterexample(4, "", ""))
    skipped = (lab.SkippedInstance(5, odd, odd),)
    cases = [
        lab.ScanReport("monomial", ScanConfig(2), (monomial, yes), cex, skipped, 0.0),
        lab.ScanReport("binomial", ScanConfig(2), (binomial,), (), (), 0.0),
        lab.ScanReport("monomial", ScanConfig(2), (), (), (), 0.0),
    ]
    for report in cases:
        for full in (True, False):
            assert report.to_json(full) == _dumps_oracle(report, full)


def test_flat_json_refuses_nested_fields():
    record = lab.SkippedInstance(0, "x1", ("a", (1, 2)))
    report = lab.ScanReport("monomial", ScanConfig(2), (), (), (record,), 0.0)
    with pytest.raises(TypeError, match="not a scalar or a flat tuple"):
        report.to_json(full=True)


def test_binomial_scan_degree_one_builds(monkeypatch):
    """ann1_dims is read from the colon identity, so it builds no map of its own."""
    builds = []
    integer_map = GradedQuotient.integer_map

    def counting(ring, f, d):
        if f.degree == 1 and d == 1:
            builds.append(f)
        return integer_map(ring, f, d)

    assert not hasattr(lab, "mult_map")  # so every build goes through the ring
    # the public mult_map divides the ring's integer map; every rank,
    # kernel and zero test reads the integer map directly
    monkeypatch.setattr(GradedQuotient, "integer_map", counting)
    report = scan_binomial(ScanConfig(3, seed=1, workers=1))
    assert report.examined == 54
    # 54 rings x 3 trials = 162 (ring, form) pairs. Each ell is ranked on R_1
    # once, through the ring's map_rank, so that is one build per pair:
    # generic_ezd_decision's partner search ranks it first, and the colon
    # identity reads that rank from the ring's rank memo. The Hilbert series
    # of 15 of the 54 rings admits no linear form in an exact pair, so
    # find_ezd_complement builds no map for their 45 pairs, and there
    # colon_identity_dims ranks ell on R_1 itself.
    rejected = sum(1 for r in report.instances if not hilbert_admits_pair(r.hilbert))
    assert rejected == 15
    # Of the other 117 pairs, 81 have a degree-1 partner q, and each of
    # those builds one more map from degree 1: q's, ranked by is_ezd_pair.
    # ell's kernel vector, which find_ezd_complement offers, comes from the
    # one build that also ranks ell (annihilator_degree). decompose_partner
    # builds no ring, so no map of ell on a half ring.
    partnered = sum(r.deg1_witness_trials for r in report.instances)
    assert partnered == 81
    assert len(builds) == 162 + partnered == 243


def test_binomial_scan_builds_one_ring_per_instance(monkeypatch):
    """build_quotient runs once per examined ring, and never inside the
    colon identity, the partner split or its support check."""
    depth = [0]
    builds = []  # the check depth at each build
    build = lab.build_quotient

    def counting(spec, bound, **kw):
        builds.append(depth[0])
        return build(spec, bound, **kw)

    def within_check(check):
        def wrapped(*args):
            depth[0] += 1
            try:
                return check(*args)
            finally:
                depth[0] -= 1
        return wrapped

    assert not hasattr(ezd, "build_quotient")  # so lab holds the one name a scan builds with
    monkeypatch.setattr(lab, "build_quotient", counting)
    for name in ("colon_identity_dims", "decompose_partner", "check_split_support"):
        monkeypatch.setattr(lab, name, within_check(getattr(lab, name)))
    report = scan_binomial(ScanConfig(3, seed=1, workers=1))
    assert report.examined == 54
    assert sum(r.deg1_witness_trials for r in report.instances) == 81  # the checks ran
    assert builds == [0] * 54


def test_binomial_record_counts_a_higher_degree_partner(monkeypatch, capsys):
    """A partner of degree 2 reaches the pair rule, as every partner does.
    This stand-in partner, on a ring with H = 1 3 3 1, breaks the series
    identity, since 3 does not divide sum H = 8: the scan raises RuntimeError
    and the CLI exits 3. That a record's decision and witness are the
    verdict's is pinned by test_cli's test_binomial_records_are_ezd_verdicts."""
    key = "x1^2, x2^2, x1*x2 + x3^2"  # off the boundary stratum
    q = parse_poly("x1*x3", 3)
    complement = ezd.find_ezd_complement

    def fake(ring, ell):
        # a stand-in partner, never checked: only the degree and text are read
        return (q, None) if format_ideal(ring.spec) == key else complement(ring, ell)

    monkeypatch.setattr(ezd, "find_ezd_complement", fake)
    where = r"instance \d+: x1\^2, x2\^2, x1\*x2 \+ x3\^2: "
    broken = rf"^{where}exact pair .+, x1\*x3: H_R = \[1, 3, 3, 1\] is not H_\{{R/\(ell\)\}} = .+ z\^2$"
    with pytest.raises(RuntimeError, match=broken):
        scan_binomial(ScanConfig(3, seed=2, workers=1))
    assert cli.main(["scan", "binomial", "-n", "3", "--seed", "2", "--workers", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and re.match(rf"internal error: {where}exact pair ", err)


def test_monomial_task_names_the_instance_in_a_pair_rule_fault(monkeypatch):
    """The monomial task, as the binomial one, prefixes the pair rule's
    RuntimeError with the instance's index and ideal."""
    q = parse_poly("x1*x3", 3)
    monkeypatch.setattr(ezd, "find_ezd_complement", lambda ring, ell: (q, None))
    broken = r"^instance \d+: x1\^2, .+: exact pair x1 \+ x2 \+ x3, x1\*x3: H_R = "
    with pytest.raises(RuntimeError, match=broken):
        scan_monomial(ScanConfig(3, 3, workers=1))


def _rule_faults(hilbert, t, quotient):
    """`pair_rule_faults` on hand-made data: three forms, the first and the
    last with partners of degree t, and ranks that give H_{R/(ell)} = quotient."""
    ell, q = parse_poly("x1 + x2", 3), parse_poly(f"x1^{t}", 3)
    verdict = SimpleNamespace(forms=(ell, ell, ell), partners=(q, None, q))
    padded = [*quotient, *[0] * len(hilbert)]
    return lab.pair_rule_faults(hilbert, verdict, lambda f, d: hilbert[d + 1] - padded[d + 1])


def test_pair_rule_finds_the_drop_failing_at_partner_degree_1():
    # (1 + z)(1 + 2z + z^2) = 1 + 3z + 3z^2 + z^3, and H(2) = 3 != H(1) - 1
    assert _rule_faults((1, 3, 3, 1), 1, (1, 2, 1)) == [
        "generic exact pair with partner degree 1 but dim R_2 = 3 while dim R_1 - 1 = 2"
    ]


def test_pair_rule_finds_the_drop_failing_at_partner_degree_2():
    # (1 + z + z^2)(1 + 2z + 2z^2 + z^3) = 1 + 3z + 5z^2 + 5z^3 + 3z^4 + z^5,
    # and H(3) = 5 != H(2) - 1: a rule read at t = 1 only would miss it
    assert _rule_faults((1, 3, 5, 5, 3, 1, 0), 2, (1, 2, 2, 1)) == [
        "generic exact pair with partner degree 2 but dim R_3 = 5 while dim R_2 - 1 = 4"
    ]


def test_pair_rule_passes_the_drop_at_partner_degree_2():
    # (1 + z + z^2)(1 + 2z + z^2) = 1 + 3z + 4z^2 + 3z^3 + z^4, and H(3) = H(2) - 1
    assert _rule_faults((1, 3, 4, 3, 1), 2, (1, 2, 1)) == []


def test_pair_rule_refuses_a_pair_that_breaks_the_series():
    # (1 + z + z^2)(1 + 2z + z^2) has 4 in degree 2, not H(2) = 3
    with pytest.raises(RuntimeError, match=r"^exact pair x1 \+ x2, x1\^2: H_R = \[1, 3, 3, 1\] is not "):
        _rule_faults((1, 3, 3, 1), 2, (1, 2, 1))


def test_pair_rule_has_nothing_to_check_on_the_zero_ring():
    """The unit ideal's ring is zero in every degree: its verdict holds no
    partner, so the rule finds no fault and raises nothing."""
    ring = build_quotient(parse_ideal("1", 2), 2)
    assert ring.hilbert.values == (0, 0, 0)
    verdict = generic_ezd_decision(ring)
    assert verdict.partners == (None,)
    assert lab.pair_rule_faults(ring.hilbert.values, verdict, ring.map_rank) == []


def test_both_scans_reach_the_pair_rule(monkeypatch, capsys):
    """Each family's task hands its verdict to `pair_rule_faults` and reports
    the reasons it returns as counterexamples."""
    rule = lab.pair_rule_faults

    def forced(hilbert, verdict, map_rank):
        faults = rule(hilbert, verdict, map_rank)
        return faults + ["forced"] if any(q is not None for q in verdict.partners) else faults

    monkeypatch.setattr(lab, "pair_rule_faults", forced)
    for family, extra in (("monomial", ["--max-deg", "3"]), ("binomial", [])):
        assert cli.main(["scan", family, "-n", "2", *extra, "--workers", "1"]) == 1
        out = capsys.readouterr().out
        assert "with generic exact pair: 0" not in out and ": forced\n" in out


def _unequal_colon_sides(ring, ell):
    lhs, rhs = ezd.colon_identity_dims(ring, ell)
    return lhs + 1, rhs


@pytest.mark.parametrize("name,forced,flag,reason", [
    ("colon_identity_dims", _unequal_colon_sides, "colon_identity_ok", r"colon identity failed: (\d+) != (\d+)"),
    ("decompose_partner", lambda *a: None, "decompose_ok", r"partner split failed for (.+)"),
    ("check_split_support", lambda *a: ["forced"], "support_ok", r"split support check failed: forced"),
], ids=["colon", "split", "support"])
def test_binomial_task_reports_each_failed_check(monkeypatch, capsys, name, forced, flag, reason):
    """Each check of the binomial task, forced to fail, clears its flag on
    every record it runs on and files its reason as a counterexample."""
    monkeypatch.setattr(lab, name, forced)
    assert cli.main(["scan", "binomial", "-n", "3", "--workers", "1", "--format", "json", "--full"]) == 1
    payload = json.loads(capsys.readouterr().out)
    reasons = {}
    for c in payload["counterexamples"]:
        reasons.setdefault(c["index"], []).append(re.fullmatch(reason, c["reason"]))
    # the colon identity runs on every trial, the split and its support check
    # on every trial whose partner has degree 1
    checked = [r for r in payload["instances"] if name == "colon_identity_dims" or r["deg1_witness_trials"]]
    assert len(checked) == (54 if name == "colon_identity_dims" else 27)
    assert sorted(reasons) == sorted(r["index"] for r in checked)
    for rec in checked:
        assert rec[flag] is False
        found = reasons[rec["index"]]
        assert all(found) and len(found) == (3 if name == "colon_identity_dims" else rec["deg1_witness_trials"])
        if name == "colon_identity_dims":
            assert all(int(m[1]) == int(m[2]) + 1 for m in found)
        elif name == "decompose_partner":
            assert all(parse_poly(m[1], 3).degree == 1 for m in found)  # the form that was split
            assert rec["support_ok"] is None  # no split, so no support check


def test_binomial_ann1_dims_match_direct_ranks():
    """ann1_dims, read from the colon identity, against dim R_1 - rank(ell: R_1 -> R_2)."""
    cfg = ScanConfig(3, seed=4)
    report = scan_binomial(cfg)
    seen = set()
    for rec in report.instances:
        ring = build_quotient(parse_ideal(rec.ideal, 3), 6)
        seed = derived_seed(cfg.seed, rec.index)
        ells = [generic_linear_form(3, derived_seed(seed, t)) for t in range(cfg.trials)]
        maps = [mult_map(ring, ell, 1) for ell in ells]
        assert rec.ann1_dims == tuple(ring.dim(1) - rank(map(m.row, range(m.rows))) for m in maps)
        seen.add(rec.ann1_dims)
    assert seen == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}


def test_scans_do_not_parse_ideal_text(monkeypatch):
    def refuse(text):
        raise AssertionError(f"scan parsed ideal text {text!r}")

    monkeypatch.setattr(polyring, "_tokenize", refuse)
    monomial = scan_monomial(ScanConfig(nvars=2, max_degree=3))
    binomial = scan_binomial(ScanConfig(nvars=2))
    assert monomial.passes and monomial.examined > 0
    assert binomial.passes and binomial.examined > 0


def test_power_ideal_example_instances():
    for n, d, q_text in [
        (2, 2, "x1 - x2"),
        (3, 2, "x1 - x2 - x3"),
        (2, 3, "x1^2 - x1*x2 + x2^2"),
    ]:
        rep = power_ideal_example(n, d)
        assert rep.verdict is PairVerdict.EXACT_PAIR
        assert format_poly(rep.y) == q_text


def test_power_ideal_example_usage():
    with pytest.raises(ValueError):
        power_ideal_example(1, 2)
    with pytest.raises(ValueError):
        power_ideal_example(2, 1)


def test_support_multiples_oracle_clean():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 3)
    assert check_support_multiples(
        ring, parse_poly("x1 + x2", 2), parse_poly("x1 - x2", 2)
    ) == []
    spec3 = parse_ideal("x1^2, x2^2, x2*x3, x3^2", 3)
    ring3 = build_quotient(spec3, 3)
    assert check_support_multiples(
        ring3, parse_poly("x1 + x2 + x3", 3), parse_poly("x1 - x2 - x3", 3)
    ) == []


def test_support_multiples_negative_control():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 3)
    ell = parse_poly("x1 + x2", 2)
    corrupted = parse_poly("x1 - 2*x2", 2)
    with pytest.raises(ValueError):
        check_support_multiples(ring, ell, corrupted)


def test_decompose_partner_worked_instance():
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ell = parse_poly("x1 + 2*x2", 2)
    q = parse_poly("x1 + 2*x2", 2)
    split = decompose_partner(spec, ell, q)
    assert split is not None
    assert format_poly(split.q1) == "2*x1"
    assert format_poly(split.q2) == "-x1 + 2*x2"
    assert split.alpha == 4
    assert check_split_support(spec, ell, split.q1, split.q2) == []


def test_decompose_partner_divides_coefficients_exactly():
    """alpha = 1 and a1 = 3 are both ints, so alpha / a1 would be the float
    0.333..., and the split would miss ell*q2 = alpha*f2 by a rounding error."""
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ell = parse_poly("2*x1 + 3*x2", 2)
    q = parse_poly("1/9*x1 + 1/3*x2", 2)
    split = decompose_partner(spec, ell, q)
    assert split is not None
    assert split.alpha == 1 and type(split.alpha) is int
    assert split.q1.coeffs == {(1, 0): Fraction(1, 3)}
    assert split.q2.coeffs == {(1, 0): Fraction(-2, 9), (0, 1): Fraction(1, 3)}
    coeffs = [*split.q1.coeffs.values(), *split.q2.coeffs.values()]
    assert all(type(c) is Fraction and c.denominator != 1 for c in coeffs)
    assert split.q1 + split.q2 == q
    assert check_split_support(spec, ell, split.q1, split.q2) == []


def test_decompose_partner_alpha_zero_branch():
    # ell*q lies inside J and no solution reaches f1, so q splits as (q, 0)
    spec = parse_ideal("x1^2, x1*x2, x2*x3 + x3^2", 3)
    ell = parse_poly("x1", 3)
    q = parse_poly("x1", 3)
    split = decompose_partner(spec, ell, q)
    assert split is not None
    assert split.alpha == 0
    assert split.q1 == q and split.q2.is_zero()


def test_decompose_partner_found_on_sampled_instances():
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ring = build_quotient(spec, 3)
    for seed in range(6):
        ell = generic_linear_form(2, seed)
        found = find_ezd_complement(ring, ell)
        assert found is not None and found[0].degree == 1
        split = decompose_partner(spec, ell, found[0])
        assert split is not None
        assert split.q1 + split.q2 == found[0]
        assert check_split_support(spec, ell, split.q1, split.q2) == []


def test_split_support_negative_control():
    spec = parse_ideal("x1^2, x1*x2 + x2^2", 2)
    ell = parse_poly("x1 + 2*x2", 2)
    q1 = parse_poly("2*x1 + x2", 2)  # corrupted: ell*q1 leaves J + (f1)
    q2 = parse_poly("-x1 + x2", 2)
    with pytest.raises(ValueError):
        check_split_support(spec, ell, q1, q2)


def test_probe_power_example_ring():
    ring = build_quotient(parse_ideal("x1^2, x2^2, x2*x3, x3^2", 3), 4)
    rep = generic_form_probe(ring, samples=20, seed=3)
    assert rep.skipped_reason is None
    assert rep.successes == rep.samples == 20


def test_probe_skips_without_pair():
    ring = build_quotient(parse_ideal("x1^2, x1*x2, x2^2", 2), 3)
    rep = generic_form_probe(ring, samples=10, seed=3)
    assert rep.skipped_reason is not None
    assert rep.successes == 0


def test_probe_gorenstein_ring_still_probed():
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 3)
    rep = generic_form_probe(ring, samples=10, seed=3)
    assert rep.skipped_reason is None
    assert rep.successes == 10


def test_probe_requires_short_ring():
    with pytest.raises(ValueError):
        generic_form_probe(build_quotient(parse_ideal("x1^3, x2^3", 2), 5))
    # built to bound 2 and not vanished there: degree 3 is unknown, not out of range
    ring = build_quotient(parse_ideal("x1^3, x2^3", 2), 2)
    assert not ring.complete
    with pytest.raises(ValueError, match="^ring must vanish from degree 3 on$"):
        generic_form_probe(ring)
    # built to bound 2 and known to vanish from degree 3 on
    assert generic_form_probe(build_quotient(parse_ideal("x1^2, x2^2", 2), 2), samples=2).successes == 2


@pytest.mark.parametrize("samples", [0, -3])
def test_probe_refuses_no_samples(samples):
    ring = build_quotient(parse_ideal("x1^2, x2^2", 2), 2)
    with pytest.raises(ValueError, match="^need at least one sample$"):
        generic_form_probe(ring, samples=samples)


def test_probe_report_fields():
    assert [f.name for f in fields(probe_oracle.ProbeReport)] == [
        "base_form", "skipped_reason", "samples", "successes",
    ]


def test_example_refuses_before_listing_monomials(monkeypatch):
    """-n 8 -d 30 has socle bound 233 and C(241, 8) monomials; -n 10 -d 40
    would list C(48, 8) degree-40 generators before the build refused."""
    monkeypatch.setattr(lab, "monomials_of_degree", lambda *a: pytest.fail("monomials listed"))
    with pytest.raises(ValueError, match="^8 variables up to degree 233 span 250972818245370 monomials"):
        power_ideal_example(8, 30)
    with pytest.raises(ValueError, match="^10 variables up to degree 391 span over 2"):
        power_ideal_example(10, 40)


@pytest.mark.parametrize("nvars", [6, 7, 10**9])
def test_binomial_scan_refuses_before_listing_candidates(monkeypatch, nvars):
    monkeypatch.setattr(lab, "monomials_of_degree", lambda *a: pytest.fail("candidates listed"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    with pytest.raises(ValueError, match=(
        f"^the binomial family in {nvars} variables has 2\\^.* candidates, "
        "more than the cap of 10,000,000; lower the variable count$"
    )):
        scan_binomial(ScanConfig(nvars, workers=2))


def test_binomial_candidate_cap_admits_five_variables():
    k = len(monomials_of_degree(5, 2))
    assert 2**k * comb(k, 2) == 3_440_640 <= lab.MAX_BINOMIAL_CANDIDATES
    k = len(monomials_of_degree(6, 2))
    assert 2**k * comb(k, 2) == 440_401_920 > lab.MAX_BINOMIAL_CANDIDATES


@pytest.mark.parametrize("nvars, max_degree", [(8, 2), (9, 2), (10**9, 2), (3, 10**12)])
def test_symmetry_reduction_refuses_before_any_table(monkeypatch, nvars, max_degree):
    monkeypatch.setattr(lab, "monomials_of_degree", lambda *a: pytest.fail("candidates listed"))
    monkeypatch.setattr(lab, "permutations", lambda *a: pytest.fail("permutations listed"))
    cfg = ScanConfig(nvars, max_degree)
    message = f"^symmetry reduction in {nvars} variables up to degree {max_degree} "
    with pytest.raises(ValueError, match=message):
        next(enumerate_monomial_ideals(cfg))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    with pytest.raises(ValueError, match=message):
        scan_monomial(replace(cfg, workers=2))


def test_symmetry_image_cap_admits_the_documented_scans():
    """Every scan that the docs and tests name fits well under the cap; at
    n = 8 the table alone would take seconds."""
    for n, max_degree in [(3, 5), (4, 4), (5, 3), (7, 2), (7, 3)]:
        lab._refuse_symmetry_images(n, max_degree)
    assert (factorial(4) - 1) * (comb(8, 4) - 5) == 1_495
    assert (factorial(8) - 1) * len(monomials_of_degree(8, 2)) > lab.MAX_SYMMETRY_IMAGES
    # no symmetry reduction, no table and no refusal
    assert next(enumerate_monomial_ideals(ScanConfig(8, symmetry_reduction=False)))


@pytest.mark.parametrize("nvars, max_degree, symmetry, candidates", [
    (3, 40, True, "12,337"),
    (2, 300, False, "45,448"),
    (2, 100_000, False, "5,000,149,998"),
    (2, 29, False, "462"),
    (10**9, 10**9, False, "over 2\\^64"),
])
def test_monomial_scan_refuses_comparability_table_before_listing(
    monkeypatch, nvars, max_degree, symmetry, candidates
):
    """The pairwise comparability table is refused from the candidate count
    alone, with or without symmetry reduction, before a candidate is listed."""
    monkeypatch.setattr(lab, "monomials_of_degree", lambda *a: pytest.fail("candidates listed"))
    monkeypatch.setattr(lab, "permutations", lambda *a: pytest.fail("permutations listed"))
    cfg = ScanConfig(nvars, max_degree, symmetry_reduction=symmetry)
    message = (
        f"^the monomial family in {nvars} variables up to degree {max_degree} has "
        f"{candidates} candidate generators, so .* pairs to compare, more than the cap of "
        "200,000; lower the variable count or the degree$"
    )
    with pytest.raises(ValueError, match=message):
        enumerate_monomial_ideals(cfg)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    with pytest.raises(ValueError, match=message):
        scan_monomial(replace(cfg, workers=2))


def test_comparable_pair_cap_admits_the_documented_scans():
    """The largest scan the docs and tests name, n = 7 at max-deg 3, has 112
    candidates; the cap is more than ten times its 12,544 pairs."""
    assert (comb(7 + 3, 7) - 7 - 1) ** 2 == 12_544
    assert lab.MAX_COMPARABLE_PAIRS >= 10 * 12_544
    for n, max_degree in [(2, 5), (3, 5), (4, 4), (5, 3), (7, 2), (7, 3), (8, 2), (2, 28)]:
        lab._refuse_comparable_pairs(n, max_degree)
    assert next(enumerate_monomial_ideals(ScanConfig(2, 28, symmetry_reduction=False)))


@pytest.mark.parametrize("cpus, pool_sizes", [
    (2, [2]),
    (3, [3]),
    (1, []),
    (None, []),
    pytest.param((2, {0}), [], id="affinity-1-of-2"),
    pytest.param((4, {0, 2, 3}), [3], id="affinity-3-of-4"),
])
def test_scan_pool_is_clamped_to_the_cpus(monkeypatch, cpus, pool_sizes):
    """The pool starts all its processes at once, so it is sized to the CPUs
    the process may run on. `cpus` is `os.cpu_count()` on a platform with no
    affinity set, or a pair of it and the affinity set: under `taskset -c 0`
    a 2-CPU host leaves one usable CPU, and the scan runs in the parent. A
    stand-in records the size and starts none."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, chunksize=1):
            return map(fn, payloads)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    count, affinity = cpus if isinstance(cpus, tuple) else (cpus, None)
    monkeypatch.setattr(lab.os, "cpu_count", lambda: count)
    if affinity is None:
        monkeypatch.delattr(lab.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    for scan, cfg in [(scan_monomial, ScanConfig(2, 3)), (scan_binomial, ScanConfig(2))]:
        serial = scan(cfg).to_json(full=True)
        assert scan(replace(cfg, workers=5000)).to_json(full=True) == serial
    assert sizes == pool_sizes * 2


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(nvars=1)
    with pytest.raises(ValueError):
        ScanConfig(nvars=2, trials=0)
