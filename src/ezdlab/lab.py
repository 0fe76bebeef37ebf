"""Ideal-family enumeration and the experiment suite.

Two families are scanned exhaustively at desk scale, each listed in
FAMILIES with its scan and record type:

* Artinian monomial ideals with generators up to a degree cap, each
  decided exactly through the all-ones form (`ezd.decision_forms`). The
  socle bound and the Hilbert function come from the generators' exponent
  tuples alone, the latter through divisibility bitmasks shared across the
  scan (`monomial_hilbert`); the IdealSpec and the ring are built only when
  the Hilbert series admits a general linear form in an exact pair, with
  H_{R/(ell)} under Green's hyperplane restriction bound
  (`ezd.general_form_admits_pair`), and every other ideal is recorded as
  "no". The walk is orderly: symmetry reduction prunes each subtree whose
  root is not lex-least in its class.

* "Monomial plus one binomial" ideals J + (f1 + f2) with everything in
  degree 2. Each ring is decided by `generic_ezd_decision`, as the
  monomial family is, and the paper's checks run over its trials: each
  degree-1 partner is split into halves compatible with J + (f1) and
  J + (f2), and the degree-2 colon-dimension identity is checked on every
  trial. A candidate is skipped before anything is built when its binomial
  collapses modulo J or when the supports of J and f show the quotient is
  not Artinian. Each examined candidate builds one ring; the checks build
  none. The colon identity's left side is one rank in the coordinates of
  the degree-2 monomials of P (`colon_identity_dims`), and the split and
  its support check hold J as sets of exponent tuples and the linear forms
  as integer coefficient vectors (`decompose_partner`, `check_split_support`).

Both tasks check their verdict with one rule, `pair_rule_faults`: the
series identity and the drop dim R_{t+1} = dim R_t - 1 at each verified
partner's degree t. A pair that breaks the identity raises RuntimeError
naming the instance's index and ideal.

Scans are deterministic: per-instance seeds depend only on the configured
seed and the instance index, work is distributed in enumeration order in
fixed-size chunks, and reports serialize without timing data, so re-runs
with different worker counts emit byte-identical JSON. The chunks are not
pipelined: `Executor.map` draws every payload before it returns, so the
workers take their first chunk about when enumeration ends.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from io import StringIO
from itertools import combinations, permutations, product
from json.encoder import encode_basestring_ascii
from math import comb
from operator import add, attrgetter, or_
from typing import Callable, Iterable, Iterator, NamedTuple

from .exactmat import kernel_basis, ratio
from .ezd import (
    EzdReport,
    GenericDecision,
    GenericVerdict,
    colon_identity_dims,
    derived_seed,
    general_form_admits_pair,
    generic_ezd_decision,
    is_ezd_pair,
)
from .gradedring import (
    build_quotient, default_bound, monomial_hilbert, refuse_oversize, socle_bound,
)
from .polyring import (
    HomogPoly,
    IdealSpec,
    Monomial,
    divides,
    format_monomial,
    format_poly,
    linear_form,
    make_ideal,
    monomial_ideal,
    monomials_of_degree,
    variable,
)

BINOMIAL_DEFAULT_BOUND = 6  # least degree a binomial candidate's ring is built to
# Largest binomial family scanned, in candidates 2^k * C(k, 2) over the k
# degree-2 monomials: n = 5 has 3,440,640, n = 6 has 440,401,920, and the
# scan lists all 2^k subsets of them and holds a result per candidate.
MAX_BINOMIAL_CANDIDATES = 10_000_000
# Largest table of candidate generators' images under the n! - 1 non-identity
# variable permutations that symmetry reduction builds before its first ideal.
# The largest scan named in the docs and tests, n = 4 at max-deg 4, needs
# 1,495 entries, and n = 7 at max-deg 3 needs 564,368; n = 8 at max-deg 2
# needs 1,451,484 and takes seconds and tens of MB.
MAX_SYMMETRY_IMAGES = 1_000_000
# Largest table of candidate generator pairs that the monomial enumeration
# compares for divisibility before its first ideal, with or without symmetry
# reduction: candidates squared, C(n + max_degree, n) - n - 1 of them. The
# largest scan named in the docs and tests, n = 7 at max-deg 3, needs 12,544
# (112 candidates); a table at the cap takes 0.4-0.8 s on a 2-core Xeon.
MAX_COMPARABLE_PAIRS = 200_000
_CHUNKSIZE = 256  # payloads per task sent to a worker process
_NONVANISHING = f"does not vanish by degree {BINOMIAL_DEFAULT_BOUND}"


@dataclass(frozen=True)
class ScanConfig:
    """Configuration shared by the family scans. There is no degree bound:
    a monomial ideal's ring is built to its socle bound (`socle_bound`), a
    binomial candidate's to max(`BINOMIAL_DEFAULT_BOUND`, nvars + 1)."""

    nvars: int
    max_degree: int = 2
    symmetry_reduction: bool = True
    seed: int = 0
    trials: int = 3
    workers: int = 1

    def __post_init__(self):
        if self.nvars < 2:
            raise ValueError("need at least two variables")
        if self.max_degree < 2:
            raise ValueError("max generator degree must be at least 2")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.workers < 1:
            raise ValueError("need at least one worker")

    def echo(self) -> dict:
        # Workers are an execution detail and stay out of serialized reports.
        # Scans examine Artinian ideals only, each built to the bound its
        # family fixes; schema 1 still records both.
        out = asdict(self)
        del out["workers"]
        out["bound"] = None
        out["require_artinian"] = True
        return out


# ---------------------------------------------------------------------------
# enumeration


def enumerate_monomial_ideals(cfg: ScanConfig) -> Iterator[tuple[Monomial, ...]]:
    """All Artinian monomial ideals with minimal generators of degree 2..max_degree.

    Each ideal is yielded as its minimal generators, in graded-lex order.
    Minimal generating sets are exactly the divisibility antichains, so
    each ideal appears once. Only ideals
    containing a pure power of every variable are emitted: a non-Artinian
    monomial ideal never vanishes, so a scan could only skip it. With
    `symmetry_reduction` only the canonical representative of each
    variable-permutation class is emitted: the one whose generators,
    sorted in graded-lex order, come first.

    Candidates are indexed in graded-lex order and sets of them are
    bitmasks. The search grows each antichain by one candidate past its
    last, in increasing order, and emits a set after all its extensions,
    which is the order of an include-first walk over the candidates.
    The tables are built at the call: every pair of candidates is compared,
    and symmetry reduction tabulates every candidate's image under each
    non-identity permutation. Past MAX_SYMMETRY_IMAGES images or
    MAX_COMPARABLE_PAIRS pairs the call raises ValueError before any table.

    Symmetry reduction prunes the walk (orderly generation, after Read,
    "Every one a winner", Ann. Discrete Math. 2, 1978). Sets of equal size
    compare as sorted index tuples, and sigma(S) < S exactly when the least
    index of their symmetric difference lies in sigma(S). If S is
    lex-least, so is T = S minus its largest member: were sigma(T) < T, the
    least index of sigma(T) xor T would lie in sigma(T) below max S and
    would also be the least of sigma(S) xor S, so sigma(S) < S. So a child
    that is not lex-least has no lex-least descendant and is not entered,
    and the emitted sequence is that of a walk that tests each set at its
    emission. The walk carries the chosen set's image under each
    permutation as a bitmask with the candidates' bits in reverse order, in
    which the least index of a symmetric difference is its highest bit: a
    set under a permutation is smaller exactly when its mask is larger. So
    testing a child takes one OR per permutation and one max over them.
    """
    n = cfg.nvars
    if cfg.symmetry_reduction:
        _refuse_symmetry_images(n, cfg.max_degree)
    _refuse_comparable_pairs(n, cfg.max_degree)
    exps = [e for d in range(2, cfg.max_degree + 1) for e in monomials_of_degree(n, d)]
    position = {e: i for i, e in enumerate(exps)}
    # comparable[i]: candidates that divide candidate i or that it divides
    comparable = [
        sum(1 << j for j, f in enumerate(exps) if divides(e, f) or divides(f, e))
        for e in exps
    ]
    # pure_var[i]: bit v when candidate i is a pure power of variable v
    pure_var = [1 << e.index(max(e)) if e.count(0) == n - 1 else 0 for e in exps]
    # passed[i]: variables whose last pure-power candidate comes before i;
    # an Artinian set growing past i must already hold a pure power of each
    last_pure = [max(i for i, bit in enumerate(pure_var) if bit == 1 << v) for v in range(n)]
    passed = [sum(1 << v for v in range(n) if last_pure[v] < i) for i in range(len(exps))]
    every_var = (1 << n) - 1
    identity = tuple(range(n))
    perms = [p for p in permutations(identity) if p != identity] if cfg.symmetry_reduction else []
    # rbits[i]: candidate i's bit in reversed order, so that of two sets of
    # equal size the smaller has the larger mask; image_rbits[i][k]: the
    # reversed bit of candidate i's image under the k-th non-identity
    # permutation, shared from rbits
    rbits = [1 << (len(exps) - 1 - j) for j in range(len(exps))]
    image_rbits = [[rbits[position[tuple(e[p] for p in perm)]] for perm in perms] for e in exps]

    def grow(rchosen: int, images: list[int], members: list[int], free: int, covered: int):
        # `rchosen`: the chosen set's reversed mask, and `images[k]` that of
        # its image under the k-th permutation; `free`: candidates past the
        # last member and comparable to none; `covered`: variables with a
        # pure power among the members. Every set reached is lex-least in its class.
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            cov = covered | pure_var[i]
            if passed[i] & ~cov:
                break  # no later candidate is a pure power of that variable
            rchild = rchosen | rbits[i]
            child_images = list(map(or_, images, image_rbits[i]))
            if max(child_images, default=0) <= rchild:
                members.append(i)
                yield from grow(rchild, child_images, members, free & ~comparable[i], cov)
                members.pop()
        if covered == every_var:
            yield tuple(exps[i] for i in members)

    return grow(0, [0] * len(perms), [], (1 << len(exps)) - 1, 0)


def _refuse_symmetry_images(n: int, max_degree: int) -> None:
    """Raise ValueError when the (n! - 1) x candidates image table of the
    symmetry reduction would hold more than MAX_SYMMETRY_IMAGES entries.
    n! is formed only while it stays under the cap."""
    perms = 1
    for i in range(2, n + 1):
        perms *= i
        if perms > MAX_SYMMETRY_IMAGES:
            break
    else:
        # the monomials of degree 2..max_degree
        candidates = comb(n + max_degree, n) - n - 1
        if (perms - 1) * candidates <= MAX_SYMMETRY_IMAGES:
            return
    raise ValueError(
        f"symmetry reduction in {n} variables up to degree {max_degree} maps each "
        f"candidate generator under {n}! - 1 permutations, more than the cap of "
        f"{MAX_SYMMETRY_IMAGES:,} images; lower the variable count or the degree"
    )


def _refuse_comparable_pairs(n: int, max_degree: int) -> None:
    """Raise ValueError when the candidate generators, the monomials of degree
    2..max_degree, form more than MAX_COMPARABLE_PAIRS pairs. C(n + max_degree, n)
    is at least 2^k for k = min(n, max_degree), so past k = 64 it is not formed."""
    k = min(n, max_degree)
    candidates = comb(n + max_degree, k) - n - 1 if k <= 64 else None
    if candidates is not None and candidates**2 <= MAX_COMPARABLE_PAIRS:
        return
    count = "over 2^64" if candidates is None else f"{candidates:,}"
    pairs = "over 2^128" if candidates is None else f"{candidates**2:,}"
    raise ValueError(
        f"the monomial family in {n} variables up to degree {max_degree} has {count} "
        f"candidate generators, so {pairs} pairs to compare, more than the cap of "
        f"{MAX_COMPARABLE_PAIRS:,}; lower the variable count or the degree"
    )


# ---------------------------------------------------------------------------
# scan records


@dataclass(frozen=True)
class Counterexample:
    index: int
    ideal: str
    reason: str


@dataclass(frozen=True)
class SkippedInstance:
    index: int
    ideal: str
    reason: str


@dataclass(frozen=True)
class MonomialInstance:
    index: int
    ideal: str
    hilbert: tuple[int, ...]
    decision: str
    exact: bool
    witness_degree: int | None
    witness: str | None
    dim_prev: int | None
    dim_at: int | None
    hilbert_drop_ok: bool | None


@dataclass(frozen=True)
class BinomialInstance:
    index: int
    ideal: str
    hilbert: tuple[int, ...]
    r2: int
    boundary: bool  # dim R_2 == n - 1
    decision: str
    ann1_dims: tuple[int, ...]
    deg1_witness_trials: int
    witness: str | None
    decompose_ok: bool | None
    support_ok: bool | None
    colon_identity_ok: bool


@dataclass(frozen=True)
class ScanReport:
    family: str
    config: ScanConfig
    instances: tuple
    counterexamples: tuple[Counterexample, ...]
    skipped: tuple[SkippedInstance, ...]
    elapsed: float

    @property
    def examined(self) -> int:
        return len(self.instances)

    @property
    def with_generic_ezd(self) -> int:
        return sum(1 for r in self.instances if r.witness is not None)

    @property
    def passes(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self, full: bool = False) -> dict:
        out = {
            "schema_version": 1,
            "family": self.family,
            "config": self.config.echo(),
            "examined": self.examined,
            "with_generic_ezd": self.with_generic_ezd,
            "skipped": len(self.skipped),
            "counterexamples": [_record_dict(c) for c in self.counterexamples],
        }
        if full:
            out["instances"] = [_record_dict(r) for r in self.instances]
            out["skipped_instances"] = [_record_dict(s) for s in self.skipped]
        return out

    def to_json(self, full: bool = False) -> str:
        """`json.dumps(self.to_json_dict(full), indent=2, sort_keys=True) + "\n"`,
        with the record lists written by a flat emitter (`_records_json`)
        instead of the pure-Python indenting encoder; every other value
        still goes through `json.dumps`."""
        records = {"counterexamples": self.counterexamples}
        if full:
            records.update(instances=self.instances, skipped_instances=self.skipped)
        out = self.to_json_dict()
        out.update(records)
        lines = []
        for key in sorted(out):
            if key in records:
                value = _records_json(records[key])
            else:
                value = json.dumps(out[key], indent=2, sort_keys=True).replace("\n", "\n  ")
            lines.append(f"  {encode_basestring_ascii(key)}: {value}")
        return "{\n" + ",\n".join(lines) + "\n}\n"

    def to_csv(self) -> str:
        """One row per instance; the columns are the record's fields in order."""
        names = [f.name for f in fields(FAMILIES[self.family].record)]
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for r in self.instances:
            writer.writerow([_csv_cell(getattr(r, name)) for name in names])
        return buf.getvalue()


def _record_dict(record) -> dict:
    """A record's fields by name. Records hold only scalars and flat tuples,
    so this shallow dict serializes as `asdict` would, without its deep copy."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


# json.dumps's text for each scalar type a record field or its items may hold
_JSON_SCALARS = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    str: encode_basestring_ascii,
}


def _records_json(records: tuple) -> str:
    """`json.dumps([_record_dict(r) for r in records], indent=2, sort_keys=True)`
    for records of one type, one level below the report's top, written
    record by record. A field is a scalar (None, bool, int or str) or a flat
    tuple of them, with one item per line; anything else raises TypeError."""
    if not records:
        return "[]"
    names = sorted(f.name for f in fields(records[0]))
    prefixes = [f"      {encode_basestring_ascii(name)}: " for name in names]
    values = attrgetter(*names)  # every record type has several fields, so a tuple
    parts = []
    for r in records:
        body = []
        for prefix, v in zip(prefixes, values(r)):
            t = type(v)
            if t is int:
                body.append(prefix + int.__repr__(v))
            elif t is str:
                body.append(prefix + encode_basestring_ascii(v))
            elif v is None:
                body.append(prefix + "null")
            elif t is bool:
                body.append(prefix + ("true" if v else "false"))
            elif t is tuple and all(type(x) in _JSON_SCALARS for x in v):
                items = ",\n        ".join([_JSON_SCALARS[type(x)](x) for x in v])
                body.append(prefix + ("[\n        " + items + "\n      ]" if v else "[]"))
            else:
                raise TypeError(f"record field {v!r} is not a scalar or a flat tuple of scalars")
        parts.append("    {\n" + ",\n".join(body) + "\n    }")
    return "[\n" + ",\n".join(parts) + "\n  ]"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return " ".join(map(str, v))
    return str(v)


def pair_rule_faults(
    hilbert: tuple[int, ...], verdict: GenericVerdict, map_rank: Callable[[HomogPoly, int], int]
) -> list[str]:
    """The reasons of the counterexamples to the drop H(t + 1) = H(t) - 1, one
    per distinct degree t of a verified partner in `verdict`. Each pair (ell, q)
    must first satisfy H_R(z) = H_{R/(ell)}(z)(1 + z + ... + z^t), a theorem
    (`ezd.hilbert_admits_pair`), or RuntimeError is raised; H_{R/(ell)}(d) is
    H(d) - map_rank(ell, d - 1), from the ranks the pair check took."""
    top = max(d for d, v in enumerate(hilbert) if v)
    h = [*hilbert[: top + 1], *[0] * top]  # H up to degree 2 * top, past any top + t
    for ell, q in zip(verdict.forms, verdict.partners):
        if q is None:
            continue
        t = q.degree
        quotient = [h[0]] + [h[d] - map_rank(ell, d - 1) for d in range(1, top + 1)]
        if [sum(quotient[max(0, d - t) : d + 1]) for d in range(top + t + 1)] != h[: top + t + 1]:
            raise RuntimeError(f"exact pair {format_poly(ell)}, {format_poly(q)}: H_R = "
                               f"{h[: top + 1]} is not H_{{R/(ell)}} = {quotient} times 1 + ... + z^{t}")
    degrees = sorted({q.degree for q in verdict.partners if q is not None})
    return [
        f"generic exact pair with partner degree {t} but dim R_{t + 1} = {h[t + 1]} "
        f"while dim R_{t} - 1 = {h[t] - 1}" for t in degrees if h[t + 1] != h[t] - 1
    ]


def _instance_pair_rule_faults(
    idx: int, text: str, hilbert: tuple[int, ...], verdict: GenericVerdict,
    map_rank: Callable[[HomogPoly, int], int],
) -> list[str]:
    """`pair_rule_faults` for a scan's instance: its RuntimeError is raised
    again prefixed with the instance's index and ideal."""
    try:
        return pair_rule_faults(hilbert, verdict, map_rank)
    except RuntimeError as e:
        raise RuntimeError(f"instance {idx}: {text}: {e}") from None


# ---------------------------------------------------------------------------
# monomial scan


def _monomial_task(cfg: ScanConfig, payload: tuple[int, tuple]):
    idx, gens = payload
    # format_ideal's text: every generator of a monomial ideal has coefficient 1
    text = ", ".join(map(format_monomial, gens))
    # enumeration emits Artinian ideals only, so the socle bound exists and
    # the ring vanishes by it
    bound = socle_bound(cfg.nvars, gens)
    hilbert = monomial_hilbert(cfg.nvars, gens, bound).values
    # The all-ones form is general: its orbit under rescaling the variables
    # (`ezd.decision_forms`) is dense, so it meets Green's open set, and
    # H_{R/(ell)} is the same along it. So when the series with Green's
    # bound rules out every general linear form, the decision is "no", as
    # the all-ones form would find, and neither ideal nor ring is built.
    decision, witness, faults = GenericDecision.NO, None, []
    if general_form_admits_pair(hilbert):
        ring = build_quotient(monomial_ideal(cfg.nvars, gens), bound)
        verdict = generic_ezd_decision(ring, cfg.trials, derived_seed(cfg.seed, idx))
        decision, witness = verdict.decision, verdict.witness
        faults = _instance_pair_rule_faults(idx, text, hilbert, verdict, ring.map_rank)
    # the all-ones form is the one trial, so a witness means "generically yes"
    t = dim_prev = dim_at = drop_ok = None
    if witness is not None:
        t = witness.degree
        # the socle bound lies past the top degree, so H(t + 1) is listed
        dim_prev, dim_at, drop_ok = hilbert[t], hilbert[t + 1], not faults
    record = MonomialInstance(
        idx,
        text,
        hilbert,
        decision.value,
        True,  # a monomial ideal is decided exactly, through the all-ones form
        t,
        format_poly(witness) if witness is not None else None,
        dim_prev,
        dim_at,
        drop_ok,
    )
    return record, [Counterexample(idx, text, reason) for reason in faults]


def _run_scan(family: str, cfg: ScanConfig, task, payloads: Iterable[tuple]) -> ScanReport:
    """Run `task(cfg, payload)` over the payloads in order and collect the report.

    A payload is a tuple whose first entry is the instance index, and a task
    returns a SkippedInstance or a (record, counterexamples) pair. The clock
    starts before the payloads are drawn, so `elapsed` covers enumeration.
    """
    start = time.perf_counter()
    fn = partial(task, cfg)
    # the pool starts all its processes at the first chunk, so more than
    # the CPUs would only add interpreters
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers > 1:
        # ex.map draws every payload before it returns, while the pool's
        # manager and feeder threads wait for the GIL: the workers fork at
        # the first chunk but take their first task about when enumeration
        # ends, not while the parent is still enumerating
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(fn, payloads, chunksize=_CHUNKSIZE))
    else:
        results = [fn(p) for p in payloads]
    instances = []
    skipped = []
    counterexamples: list[Counterexample] = []
    for res in results:
        if isinstance(res, SkippedInstance):
            skipped.append(res)
            continue
        record, cexs = res
        instances.append(record)
        counterexamples.extend(cexs)
    return ScanReport(
        family, cfg, tuple(instances), tuple(counterexamples), tuple(skipped),
        time.perf_counter() - start,
    )


def scan_monomial(cfg: ScanConfig) -> ScanReport:
    """Exhaustive generic-pair scan over the configured monomial family."""
    return _run_scan("monomial", cfg, _monomial_task, enumerate(enumerate_monomial_ideals(cfg)))


# ---------------------------------------------------------------------------
# binomial family scan


def _binomial_is_artinian(nvars: int, j_exps: tuple, f1: tuple, f2: tuple) -> bool:
    """Whether J + (f1 + f2) is Artinian, read from the supports alone.

    J is generated by degree-2 monomials and f = f1 + f2 with f1 != f2 of
    degree 2. Over the algebraic closure the zero set of J is the union of
    the coordinate subspaces L_S, S a variable set containing the support
    of no generator of J. On L_S with |S| >= 2 the restriction of f is zero
    or a nonzero form in at least two variables, so it has a projective
    zero; on L_{i} it is the coefficient of x_i^2 times x_i^2. Hilbert
    functions do not change under field extension, so the ring vanishes
    in high degree exactly when no pair of variables escapes J and every
    x_i^2 outside J is f1 or f2.
    """
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in j_exps]
    if not all(
        any(s <= {i, j} for s in supports) for i, j in combinations(range(nvars), 2)
    ):
        return False
    squares = [tuple(2 if k == i else 0 for k in range(nvars)) for i in range(nvars)]
    return all(sq in j_exps or sq in (f1, f2) for sq in squares)


def _binomial_task(cfg: ScanConfig, payload: tuple[int, tuple, tuple]):
    idx, j_exps, (f1, f2) = payload
    n = cfg.nvars
    # format_ideal's text: J's generators have coefficient 1, and f1 comes
    # before f2 in graded-lex order
    binomial = f"{format_monomial(f1)} + {format_monomial(f2)}"
    text = ", ".join([*map(format_monomial, j_exps), binomial])
    if f1 in j_exps or f2 in j_exps:
        return SkippedInstance(idx, text, "binomial collapses to a monomial modulo J")
    # a non-Artinian ring vanishes by no bound, so it is skipped unbuilt
    if not _binomial_is_artinian(n, j_exps, f1, f2):
        return SkippedInstance(idx, text, _NONVANISHING)
    gens = [HomogPoly.from_monomial(e) for e in j_exps]
    gens.append(HomogPoly(n, 2, [(f1, 1), (f2, 1)]))
    spec = make_ideal(n, gens)
    # An Artinian ideal generated by quadrics holds a regular sequence of n
    # quadrics, so its ring is a quotient of a complete intersection with
    # top degree n and vanishes from degree n + 1 on.
    bound = max(BINOMIAL_DEFAULT_BOUND, n + 1)
    ring = build_quotient(spec, bound)
    if not ring.complete:
        raise RuntimeError(f"instance {idx}: Artinian {text} does not vanish by degree {bound}")
    r1, r2 = ring.dim(1), ring.dim(2)
    verdict = generic_ezd_decision(ring, cfg.trials, derived_seed(cfg.seed, idx))
    faults = _instance_pair_rule_faults(idx, text, ring.hilbert.values, verdict, ring.map_rank)
    # per-trial outcomes: colon identities and ann1 dims, and for each
    # degree-1 partner its split and that split's support check
    colon_ok, ann1_dims, splits_ok, supports_ok = [], [], [], []
    deg1_trials = 0
    for ell, q in zip(verdict.forms, verdict.partners):
        lhs, rhs = colon_identity_dims(ring, ell)
        colon_ok.append(lhs == rhs)
        if lhs != rhs:
            faults.append(f"colon identity failed: {lhs} != {rhs}")
        # rhs = dim R_2 - rank(ell: R_1 -> R_2), so dim Ann(ell)_1 = r1 - r2 + rhs
        ann1_dims.append(r1 - r2 + rhs)
        if q is None or q.degree != 1:
            continue
        deg1_trials += 1
        split = decompose_partner(spec, ell, q)
        splits_ok.append(split is not None)
        if split is None:
            faults.append(f"partner split failed for {format_poly(ell)}")
            continue
        bad = check_split_support(spec, ell, split.q1, split.q2)
        supports_ok.append(not bad)
        if bad:
            faults.append(f"split support check failed: {bad[0]}")
    record = BinomialInstance(
        idx, text, ring.hilbert.values, r2, r2 == n - 1,
        verdict.decision.value, tuple(ann1_dims), deg1_trials,
        format_poly(verdict.witness) if verdict.witness is not None else None,
        all(splits_ok) if splits_ok else None, all(supports_ok) if supports_ok else None,
        all(colon_ok),
    )
    return record, [Counterexample(idx, text, reason) for reason in faults]


def scan_binomial(cfg: ScanConfig) -> ScanReport:
    """Scan J + (f1 + f2) with J and f1, f2 in degree 2, f1 != f2.

    Instances whose binomial collapses modulo J (some f_i already in J) are
    recorded as skipped, as are non-Artinian quotients
    (`_binomial_is_artinian`), which vanish by no bound. Both are decided
    from exponent tuples before any ring is built. Only Artinian candidates
    are built, to max(`BINOMIAL_DEFAULT_BOUND`, nvars + 1), by which each
    one vanishes; one that does not raises RuntimeError. A payload is
    (index, J's generators, (f1, f2)). The scan uses neither `max_degree`
    nor `symmetry_reduction` yet the report echoes both, so only their
    defaults are accepted. A family of more than MAX_BINOMIAL_CANDIDATES
    candidates raises ValueError before any is listed.
    """
    if cfg.max_degree != 2 or not cfg.symmetry_reduction:
        raise ValueError("max_degree and symmetry_reduction apply to the monomial family only")
    k = comb(cfg.nvars + 1, 2)  # the degree-2 monomials
    # 2^k alone exceeds the cap from k = its bit length on, so 2^k is formed only below it
    if k >= MAX_BINOMIAL_CANDIDATES.bit_length() or comb(k, 2) << k > MAX_BINOMIAL_CANDIDATES:
        raise ValueError(
            f"the binomial family in {cfg.nvars} variables has 2^{k} x C({k}, 2) candidates, "
            f"more than the cap of {MAX_BINOMIAL_CANDIDATES:,}; lower the variable count"
        )
    deg2 = monomials_of_degree(cfg.nvars, 2)
    subsets = [
        tuple(e for i, e in enumerate(deg2) if mask >> i & 1) for mask in range(1 << len(deg2))
    ]
    payloads = (
        (idx, j_exps, pair)
        for idx, (j_exps, pair) in enumerate(product(subsets, combinations(deg2, 2)))
    )
    return _run_scan("binomial", cfg, _binomial_task, payloads)


# ---------------------------------------------------------------------------
# named experiments


def power_ideal_example(n: int, d: int) -> EzdReport:
    """Exact pair in k[x1..xn] / ((x1^d) + (x2..xn)^d).

    The all-ones form L pairs with the alternating geometric partner
    Q = sum_{i<d} (-1)^i l0^i x1^{d-1-i} where l0 = x2 + ... + xn, since
    L*Q telescopes to x1^d - l0^d which lies in the ideal.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    # the size check of the build, at the socle bound, before any monomial is listed
    refuse_oversize(n, n * (d - 1) + 1)
    gens = [(d,) + (0,) * (n - 1)]
    gens.extend((0,) + m for m in monomials_of_degree(n - 1, d))
    spec = monomial_ideal(n, gens)
    # Every variable has the pure power x_i^d, so the default bound exists.
    ring = build_quotient(spec, default_bound(spec))
    ell = linear_form([1] * n)
    ell0 = linear_form([0] + [1] * (n - 1))
    x1 = variable(n, 0)
    q = HomogPoly.zero(n, d - 1)
    for i in range(d):
        term = (ell0 ** i) * (x1 ** (d - 1 - i))
        q = q + term if i % 2 == 0 else q - term
    return is_ezd_pair(ring, ell, q)


@dataclass(frozen=True)
class PartnerSplit:
    """Degree-1 partner split Q = Q1 + Q2 with ell*Q1 in J+(f1), ell*Q2 in J+(f2)."""

    q1: HomogPoly
    q2: HomogPoly
    alpha: int | Fraction


@lru_cache(maxsize=None)
def _quadrics(nvars: int) -> tuple[tuple[Monomial, ...], ...]:
    """Row i, column j: the exponent tuple of x_i * x_j."""
    units = monomials_of_degree(nvars, 1)
    return tuple(tuple(tuple(map(add, u, v)) for v in units) for u in units)


def _integer_vector(p: HomogPoly) -> tuple[list[int], int]:
    """The linear form p as its coefficient vector times the lcm L of its
    coefficients' denominators, and L."""
    if p.degree != 1:
        raise ValueError(f"expected a linear form, got degree {p.degree}")
    coeffs, scale = p.integer_coeffs()
    v = [0] * p.nvars
    for m, c in coeffs.items():
        v[m.index(1)] = c
    return v, scale


def _product_mod(j_set: frozenset, a: list[int], b: list[int]) -> dict[Monomial, int]:
    """The product of the integer linear forms a and b with the degree-2
    monomials of j_set dropped, as {monomial: nonzero coefficient}."""
    quadrics = _quadrics(len(a))
    out: dict[Monomial, int] = {}
    for i, x in enumerate(a):
        if x:
            row = quadrics[i]
            for j, y in enumerate(b):
                if y and row[j] not in j_set:
                    out[row[j]] = out.get(row[j], 0) + x * y
    return {m: c for m, c in out.items() if c}


def decompose_partner(spec: IdealSpec, ell: HomogPoly, q: HomogPoly) -> PartnerSplit | None:
    """Split a verified degree-1 partner across the two monomial halves.

    With ell*q = alpha*(f1 + f2) modulo J, solves ell*q1 in J + (f1) over
    linear forms, rescales a solution so that ell*q1 = alpha*f1 modulo J,
    and sets q2 = q - q1. Returns None only if no split exists, which would
    contradict the theory and is treated as a red flag by the scans.

    No ring is built. Every generator has degree 2, so a degree-2 monomial
    lies in J exactly when it is one of J's exponent tuples. ell, q and the
    solutions are integer coefficient vectors, each scaled by the lcm of its
    denominators, and their products modulo J are small dicts. The
    solutions are the canonical kernel of the int rows of ell's map from the
    variables to the degree-2 monomials outside J + (f1), the map the half
    ring's degree-1 annihilator reads. With R the f1 coefficient of ell*q, L
    the lcm of q, V a solution and A the f1 coefficient of ell*V,
    q1 = R/(L*A)*V, and the tail ell*q2 = alpha*f2 is checked in integers as
    ell*(A*Q - R*V) = A*R*f2 modulo J.
    """
    j_monos, f1, f2 = spec.binomial_parts()
    if q.degree != 1:
        raise ValueError("partner must be a linear form")
    n = spec.nvars
    j_set = frozenset(j_monos)
    e, ell_scale = _integer_vector(ell)
    qv, q_scale = _integer_vector(q)
    remainder = _product_mod(j_set, e, qv)
    r = remainder.get(f1, 0)
    if remainder.get(f2, 0) != r or any(m != f1 and m != f2 for m in remainder):
        raise ValueError("precondition failed: ell*q is not in the ideal")
    alpha = ratio(r, ell_scale * q_scale)
    # ell's map from the variables to the degree-2 monomials outside J + (f1)
    standard = [m for m in monomials_of_degree(n, 2) if m not in j_set and m != f1]
    rows = {m: [0] * n for m in standard}
    for i, c in enumerate(e):
        if c:
            for j, m in enumerate(_quadrics(n)[i]):
                row = rows.get(m)
                if row is not None:
                    row[j] += c
    units = monomials_of_degree(n, 1)
    for _, row in kernel_basis(n, rows.values()).rows:
        entries = dict(row)
        v = [entries.get(j, 0) for j in range(n)]
        a = _product_mod(j_set, e, v).get(f1, 0)
        if a:
            den = q_scale * a
            q2v = [a * x - r * y for x, y in zip(qv, v)]
            if _product_mod(j_set, e, q2v) != ({f2: a * r} if r else {}):
                return None
            q1 = HomogPoly(n, 1, [(u, ratio(r * y, den)) for u, y in zip(units, v)])
            q2 = HomogPoly(n, 1, [(u, ratio(x, den)) for u, x in zip(units, q2v)])
            return PartnerSplit(q1, q2, alpha)
    if alpha == 0:
        # ell*q already lies in J, so q itself works against either half.
        return PartnerSplit(q, HomogPoly.zero(n, 1), alpha)
    return None


def check_split_support(
    spec: IdealSpec, ell: HomogPoly, q1: HomogPoly, q2: HomogPoly
) -> list[tuple[str, Monomial, Monomial]]:
    """Support facts for a partner split, checked over every monomial.

    For every variable u in the support of q1 that does not divide f1 and
    every degree-2 monomial M other than f1, u*M must lie in J; same for
    q2 against f2. Violations are returned and expected absent. J is
    generated in degree 2, so a degree-3 monomial lies in J exactly when it
    is g*x_i for a generator g, and that set is made once per call; the
    preconditions ell*q1 in J + (f1) and ell*q2 in J + (f2) are read off
    the integer products of `decompose_partner`.
    """
    j_monos, f1, f2 = spec.binomial_parts()
    n = spec.nvars
    j_set = frozenset(j_monos)
    e, _ = _integer_vector(ell)
    halves = []
    for qq, f, label in ((q1, f1, "q1"), (q2, f2, "q2")):
        v, _ = _integer_vector(qq)
        if any(m != f for m in _product_mod(j_set, e, v)):
            raise ValueError(
                f"precondition failed: ell*{label} is not in J + ({format_monomial(f)})"
            )
        halves.append(v)
    units = monomials_of_degree(n, 1)
    j_cubics = frozenset(tuple(map(add, g, u)) for g in j_monos for u in units)
    violations = []
    for part, v, f in (("a", halves[0], f1), ("b", halves[1], f2)):
        for u, c in zip(units, v):
            if not c or divides(u, f):
                continue
            for big in monomials_of_degree(n, 2):
                if big != f and tuple(map(add, u, big)) not in j_cubics:
                    violations.append((part, u, big))
    return violations


Family = NamedTuple("Family", [("scan", Callable[[ScanConfig], ScanReport]), ("record", type)])
# Each scanned family's scan and record type. A scan is called through its
# name in this module, so a wrapper bound to that name runs.
FAMILIES = {
    "monomial": Family(lambda cfg: scan_monomial(cfg), MonomialInstance),
    "binomial": Family(lambda cfg: scan_binomial(cfg), BinomialInstance),
}
