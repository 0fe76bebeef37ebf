"""Where the package works in integers, no Fraction is built.

On integer rings the build, every internal rank and the Lefschetz, socle
and colon checks construct no Fraction; a decision or a partner split
constructs only the non-integral rationals it returns. A profile hook sees
each run of `Fraction.__new__`, which every Fraction, an arithmetic result
included, goes through, and charges it to the innermost watched call.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from ezdlab import cli, ezd, gradedring, lab

BENCH = Path(__file__).resolve().parent.parent / "bench"
INTEGER_ONLY = (gradedring.build_quotient, gradedring.GradedQuotient.map_rank, ezd.wlp_check, ezd.socle_dims,
                ezd.colon_identity_dims)
RETURNING = (ezd.find_ezd_complement, ezd.generic_ezd_decision, lab.decompose_partner)


class _FractionSpy:
    """Profile hook: for each call of a watched function, the Fractions built
    while it is the innermost watched call in progress, and its result."""

    def __init__(self):
        self.watched = {f.__code__: f.__name__ for f in INTEGER_ONLY + RETURNING}
        self.open = []  # (name, frame, Fractions built) of the watched calls in progress
        self.calls = []  # (name, Fractions built, result)

    def __call__(self, frame, event, arg):
        if event == "call" and frame.f_code in self.watched:
            self.open.append((self.watched[frame.f_code], frame, []))
        elif event == "return" and self.open:
            if frame.f_code is Fraction.__new__.__code__:
                self.open[-1][2].append(arg)
            elif frame is self.open[-1][1]:
                name, _, built = self.open.pop()
                self.calls.append((name, built, arg))


def _spied_calls(run) -> list:
    spy = _FractionSpy()
    sys.setprofile(spy)
    try:
        run()
    finally:
        sys.setprofile(None)
    return spy.calls


def _returned(name, result) -> set:
    """The rationals a decision or a partner split returns."""
    if name == "find_ezd_complement":
        return set(result[0].coeffs.values()) if result else set()
    if name == "generic_ezd_decision":
        return set(result.witness.coeffs.values()) if result.witness else set()
    return {*result.q1.coeffs.values(), *result.q2.coeffs.values(), result.alpha} if result else set()


def _check(calls) -> dict:
    """Assert the rule for every spied call; the number of Fractions built, by function."""
    built_by = {}
    integer_only = {f.__name__ for f in INTEGER_ONLY}
    for name, built, result in calls:
        built_by[name] = built_by.get(name, 0) + len(built)
        if name in integer_only:
            assert not built, (name, built[:3])
        else:
            assert all(type(x) is Fraction and x.denominator != 1 for x in built), (name, built[:3])
            assert set(built) <= _returned(name, result), (name, built[:3])
    return built_by


def test_integer_ring_analysis_builds_no_fraction():
    """The complete intersection ci/3/2.2.3/v0 of the benchmark's ring pool,
    through the calls its ring analysis makes."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    kind, data = workloads.make_ring_input("ci/3/2.2.3/v0")
    assert all(type(c) is int for g in data[0].generators for c in g.coeffs.values())
    built_by = _check(_spied_calls(lambda: workloads.analyse_ring(kind, data)))
    assert set(built_by) == {"build_quotient", "map_rank", "find_ezd_complement",
                             "generic_ezd_decision", "wlp_check", "socle_dims"}


def test_binomial_scan_builds_fractions_only_for_partner_splits(tmp_path):
    argv = ["scan", "binomial", "-n", "3", "--seed", "1", "--workers", "1",
            "--format", "json", "--full", "--out", str(tmp_path / "report.json")]
    calls = _spied_calls(lambda: cli.main(argv))
    built_by = _check(calls)
    assert {"build_quotient", "colon_identity_dims", "find_ezd_complement", "decompose_partner"} <= set(built_by)
    # the splits return non-integral q1, q2 or alpha, so the check above is not vacuous
    assert built_by["decompose_partner"] > 0
