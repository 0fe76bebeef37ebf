"""The benchmark's workloads: their inputs, how one pass runs, and its checks.

scan-monomial   `scan monomial -n 3 --max-deg 4` at 2 workers, 5693 instances.
                The headline research run: every scan layer runs, enumeration
                is serial in the parent, so pipelining and worker scaling
                show only here.
scan-binomial   `scan binomial -n 3` at 1 worker, scan seed from the workload
                seed. 906 of its 960 candidates are skipped: 720 collapse
                before a ring is built, 186 are built only to be found
                non-vanishing. Early-rejection gains show only here.
ring-analysis   A seeded list of single rings analysed through the library
                API: no enumeration, no text round trip, no process pool.
                Dense elimination with coefficient growth does the work.

Every input is a pure function of the workload seed. Ring-analysis runs a
fixed pool of rings whose result records were hashed at the benchmark's
first commit (`reference.json`); the seed sets their order.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations_with_replacement

WORKLOADS = ("scan-monomial", "scan-binomial", "ring-analysis")
MONOMIAL_WORKERS = 2
BINOMIAL_SCAN_SEEDS = 8  # scan --seed is the workload seed modulo this

# Random-coefficient complete intersections: (nvars, generator degrees),
# the number of fixed coefficient draws, and how often each draw appears in
# one pass. Every pass holds the same multiset of rings, so its cost does not
# depend on the seed, which only sets the order. The 24 rings of degrees
# 2,3,3 straddle the 90th latency percentile, so it is estimated where
# latencies are dense rather than at a gap between shapes.
CI_SHAPES = (((3, (2, 2, 2)), 8, 6), ((3, (2, 2, 3)), 8, 2), ((3, (2, 3, 3)), 8, 3),
             ((4, (2, 2, 2, 2)), 2, 1))
CI_COEFF = 9  # coefficients are integers in [-9, 9]
# Monomial complete intersections x_i^{a_i}, each exponent vector three times.
MCI_SHAPES = tuple((3, a) for a in combinations_with_replacement((2, 3, 4), 3)) + tuple(
    (4, a) for a in combinations_with_replacement((2, 3), 4))
MCI_REPEATS = 3
POWER_SHAPES = tuple((n, d) for n in (3, 4) for d in (3, 4, 5))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_digest(record: dict) -> str:
    return digest(json.dumps(record, sort_keys=True).encode())


# ---------------------------------------------------------------------------
# scans


def scan_argv(workload: str, seed: int, workers: int, out: str) -> list[str]:
    if workload == "scan-monomial":
        args = ["monomial", "-n", "3", "--max-deg", "4"]
    else:
        args = ["binomial", "-n", "3", "--seed", str(seed % BINOMIAL_SCAN_SEEDS)]
    return ["scan", *args, "--workers", str(workers), "--format", "json", "--full", "--out", out]


def scan_reference_key(workload: str, seed: int) -> str:
    if workload == "scan-monomial":
        return "scan-monomial"
    return f"scan-binomial/seed{seed % BINOMIAL_SCAN_SEEDS}"


def skipped_counts(report: dict) -> dict[str, int]:
    """Skipped scan instances by reason: collapsed before a ring, or built
    and found non-vanishing."""
    reasons = [s["reason"] for s in report["skipped_instances"]]
    return {
        "collapse": sum(1 for r in reasons if r.startswith("binomial collapses")),
        "nonvanishing": sum(1 for r in reasons if r.startswith("does not vanish")),
    }


# ---------------------------------------------------------------------------
# ring analysis


def ring_pool_ids() -> list[str]:
    """Every ring the workload can draw; `reference.json` hashes each one."""
    ids = []
    for (n, degs), variants, _ in CI_SHAPES:
        ids.extend(_ci_id(n, degs, v) for v in range(variants))
    ids.extend(_mci_id(n, a) for n, a in MCI_SHAPES)
    ids.extend(f"pow/{n}/{d}" for n, d in POWER_SHAPES)
    return ids


def ring_items(seed: int) -> list[str]:
    """The pool ids analysed in one pass, in order, for a workload seed."""
    items = []
    for (n, degs), variants, repeats in CI_SHAPES:
        items.extend(_ci_id(n, degs, v) for v in range(variants) for _ in range(repeats))
    for n, a in MCI_SHAPES:
        items.extend([_mci_id(n, a)] * MCI_REPEATS)
    items.extend(f"pow/{n}/{d}" for n, d in POWER_SHAPES)
    random.Random(seed).shuffle(items)
    return items


def _ci_id(n: int, degs: tuple, variant: int) -> str:
    return f"ci/{n}/{'.'.join(map(str, degs))}/v{variant}"


def _mci_id(n: int, exps: tuple) -> str:
    return f"mci/{n}/{'.'.join(map(str, exps))}"


def make_ring_input(item: str):
    """The library input for a pool id: ("pow", (n, d)) or ("ring", (spec, bound))."""
    from ezdlab import HomogPoly, Monomial, make_ideal, monomial_ideal, monomials_of_degree

    kind, n, rest = item.split("/", 2)
    n = int(n)
    if kind == "pow":
        return "pow", (n, int(rest))
    degs = tuple(int(x) for x in rest.split("/")[0].split("."))
    bound = sum(d - 1 for d in degs) + 1  # a complete intersection's socle degree + 1
    if kind == "mci":
        gens = [Monomial(tuple(a if j == i else 0 for j in range(n))) for i, a in enumerate(degs)]
        return "ring", (monomial_ideal(n, gens), bound)
    rng = random.Random(item)
    gens = []
    for d in degs:
        terms = [(m, rng.randint(-CI_COEFF, CI_COEFF)) for m in monomials_of_degree(n, d)]
        gens.append(HomogPoly(n, d, [(m, c) for m, c in terms if c]))
    return "ring", (make_ideal(n, gens), bound)


def analyse_ring(kind: str, data) -> dict:
    """One ring through the library API; returns its result record."""
    from ezdlab import (build_quotient, format_ideal, generic_ezd_decision,
                        power_ideal_example, socle_dims, wlp_check)

    if kind == "pow":
        return power_ideal_example(*data).to_json_dict()
    spec, bound = data
    ring = build_quotient(spec, bound)
    return {
        "ideal": format_ideal(spec),
        "hilbert": list(ring.hilbert.values),
        "ezd": generic_ezd_decision(ring).to_json_dict(),
        "wlp": wlp_check(ring).to_json_dict(),
        "socle": list(socle_dims(ring)),
    }


def theory_problem(item: str, record: dict) -> str | None:
    """A fact that must hold whatever the reference says, or None.

    Power ideals carry the explicit exact pair. Complete intersections are
    Gorenstein, so their socle is one-dimensional, and monomial complete
    intersections have the weak Lefschetz property in characteristic zero.
    """
    kind = item.split("/", 1)[0]
    if kind == "pow":
        return None if record["verdict"] == "exact_pair" else "power ideal without exact pair"
    if sum(record["socle"]) != 1:
        return "complete intersection with socle total != 1"
    if kind == "mci" and not record["wlp"]["holds"]:
        return "monomial complete intersection without WLP"
    return None
