"""Command-line front end.

Subcommands: hilbert, ezd, wlp, socle, yoshino, scan, example. Every
command honors --format json with a stable schema (top-level
"schema_version" field); human tables print exact rationals so witnesses
can be pasted back in. EZDLAB_WORKERS sets the default worker count for
scans; --seed fully determines all randomized behavior.

Each analysis command (hilbert, ezd, wlp, socle, yoshino, example) returns
its exit code, the JSON fields that follow its header, and its table lines;
one emitter, `_emit`, prints them in the chosen format. The five ring
commands share one entry, which builds the ring and its header first.
`scan` writes its own formats (table, JSON or CSV) through `_scan_text`.

Exit codes: 0 pass; 1 counterexample or failed check; 2 usage, input or
parse error; 3 internal error (a broken invariant). Exit 1 means, by
command:
- hilbert, socle and yoshino never exit 1 (yoshino's FAIL marks exit 0);
- ezd exits 1 unless the decision is generically_yes, and with --form
  unless an exact partner of the form is found;
- wlp exits 1 when the weak Lefschetz property fails;
- ezd, wlp and socle exit 2 on a ring that may not vanish past its degree
  bound, since their answers speak of every degree;
- example exits 1 without an exact pair;
- scan exits 1 on any counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import asdict

from .ezd import (
    GenericDecision,
    PairVerdict,
    degree2_generator_count,
    find_ezd_complement,
    generic_ezd_decision,
    socle_dims,
    wlp_check,
    yoshino_conditions,
)
from .gradedring import build_quotient, default_bound, refuse_oversize
from .lab import BINOMIAL_DEFAULT_BOUND, FAMILIES, ScanConfig, power_ideal_example
from .polyring import format_ideal, format_poly, parse_ideal, parse_poly

SCHEMA_VERSION = 1


def _ring_header(command: str, args, ring) -> dict:
    """The keys every ring command's JSON report starts with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "nvars": args.nvars,
        "bound": ring.bound,
        "ideal": format_ideal(ring.spec),
    }


def _read_ideal_text(args) -> str:
    if args.file is not None and args.ideal is not None:
        raise ValueError("give the ideal inline or with --file, not both")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") from exc
    if args.ideal is None:
        raise ValueError("no ideal given (inline argument or --file)")
    return args.ideal


def _build_ring(args):
    if args.nvars < 1:
        raise ValueError("need at least one variable")
    # The parser holds one exponent per variable in every term, so the size
    # caps are met before the text is parsed: at the given bound, and at
    # degree 1 when that is larger or the bound is read off the ideal later.
    refuse_oversize(args.nvars, max(args.bound or 1, 1))
    spec = parse_ideal(_read_ideal_text(args), args.nvars)
    bound = args.bound
    if bound is None:
        bound = default_bound(spec)
    if bound is None:
        raise ValueError("ideal has no automatic degree bound; pass -D")
    return build_quotient(spec, bound)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit(args, header: dict, result: tuple[int, dict, list[str]]) -> int:
    """Print one analysis result and return its exit code. `result` holds the
    exit code, the JSON fields that follow `header`, and the table lines;
    this is the only place that reads an analysis command's --format."""
    code, fields, lines = result
    if args.format == "json":
        print(json.dumps({**header, **fields}, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


def _ring_command(command: str, analyse):
    """The CLI entry of an analysis of one ring, `analyse(args, ring)`."""
    def run(args) -> int:
        ring = _build_ring(args)
        return _emit(args, _ring_header(command, args, ring), analyse(args, ring))
    return run


def _pair_report_lines(report) -> list[str]:
    lines = [
        f"ring: {report.ring}",
        f"x: {format_poly(report.x)}",
        f"y: {format_poly(report.y)}",
        f"product zero: {_yes(report.product_zero)}",
    ]
    if report.table:
        lines.append("d | dim R_d | dim Ann(x)_d | dim (y)_d | dim Ann(y)_d | dim (x)_d | equal")
        lines += [
            f"{r.degree} | {r.dim_ring} | {r.dim_ann_x} | {r.dim_ideal_y} | "
            f"{r.dim_ann_y} | {r.dim_ideal_x} | {_yes(r.equal_xy and r.equal_yx)}"
            for r in report.table
        ]
    line = f"verdict: {report.verdict.value}"
    if report.reason:
        line += f" ({report.reason})"
    return lines + [line]


def _hilbert(args, ring):
    values = ring.hilbert.values
    # Artinian when it vanished within the bound or has a pure power of each variable
    artinian = ring.hilbert.artinian_within_bound or default_bound(ring.spec) is not None
    line = f"artinian: {_yes(artinian)}"
    top = ring.top_degree if ring.complete else None
    if top is not None:
        line += f" (top degree {top})"
    fields = {
        "values": list(values),
        "artinian": artinian,
        "artinian_within_bound": ring.hilbert.artinian_within_bound,
        "top_degree": top,
    }
    return 0, fields, [f"H(0..{ring.bound}): " + " ".join(str(v) for v in values), line]


def _ezd(args, ring):
    if args.form is None:
        verdict = generic_ezd_decision(ring, args.trials, args.seed)
        tag = " (exact)" if verdict.exact else f" (trials={verdict.trials}, seed={verdict.seed})"
        lines = [f"decision: {verdict.decision.value}{tag}"]
        if verdict.witness is not None:
            lines.append(f"witness Q: {format_poly(verdict.witness)}")
        if verdict.report is not None:
            lines += _pair_report_lines(verdict.report)
        fields = {
            "mode": "generic",
            "report": verdict.report.to_json_dict() if verdict.report else None,
            **verdict.to_json_dict(),
        }
        return (0 if verdict.decision is GenericDecision.GENERICALLY_YES else 1), fields, lines
    ell = parse_poly(args.form, args.nvars)
    if ell.degree != 1:
        raise ValueError("--form must be a linear form")
    ann_dims = [ring.dim(d) - ring.map_rank(ell, d) for d in range(ring.top_degree + 1)]
    found = find_ezd_complement(ring, ell)
    lines = [
        f"form: {format_poly(ell)}",
        "annihilator dims by degree: " + " ".join(str(v) for v in ann_dims),
    ]
    lines += _pair_report_lines(found[1]) if found else ["no exact partner for this form"]
    fields = {
        "mode": "form",
        "form": format_poly(ell),
        "found": found is not None,
        "annihilator_dims": ann_dims,
        "witness": format_poly(found[0]) if found else None,
        "report": found[1].to_json_dict() if found else None,
    }
    return (0 if found else 1), fields, lines


def _wlp(args, ring):
    report = wlp_check(ring, args.trials, args.seed)
    lines = ["i | dim R_{i-1} | dim R_i | rank | maximal"]
    lines += [
        f"{r.degree} | {r.dim_source} | {r.dim_target} | {r.rank} | {_yes(r.maximal)}"
        for r in report.degrees
    ]
    lines.append(f"weak Lefschetz property: {'holds' if report.holds else 'fails'}")
    return (0 if report.holds else 1), report.to_json_dict(), lines


def _socle(args, ring):
    dims = socle_dims(ring)
    total = sum(dims)
    lines = [
        "socle dims by degree: " + " ".join(str(v) for v in dims),
        f"total: {total}",
        f"gorenstein: {_yes(total == 1)}",
    ]
    return 0, {"dims": list(dims), "total": total, "gorenstein": total == 1}, lines


def _yoshino(args, ring):
    report = yoshino_conditions(ring)
    expected = degree2_generator_count(args.nvars)
    mark = lambda b: "ok" if b else "FAIL"
    gor = "unknown" if report.gorenstein is None else _yes(report.gorenstein)
    lines = [
        f"c1 (dim R_2 = dim R_1 - 1): {mark(report.c1)}  "
        f"[dim R_1 = {report.r1}, dim R_2 = {report.r2}]",
        f"c2 (generated in degree 2): {mark(report.c2)}",
        f"gorenstein: {gor}",
        f"generator count forced on the boundary: {expected}",
    ]
    return 0, {"degree2_generator_count": expected, **asdict(report)}, lines


# name, help, analysis, and whether it samples linear forms (--trials, --seed)
_RING_COMMANDS = [
    ("hilbert", "Hilbert function H(0..D) of P/I", _hilbert, False),
    ("ezd", "generic exact-zero-divisor decision, or check one form", _ezd, True),
    ("wlp", "weak Lefschetz check, exact on monomial ideals", _wlp, True),
    ("socle", "socle dimensions and Gorenstein detection", _socle, False),
    ("yoshino", "necessary conditions for exact pairs on short rings", _yoshino, False),
]


def _env_workers() -> int:
    raw = os.environ.get("EZDLAB_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"EZDLAB_WORKERS must be a positive integer, got {raw!r}")
    return workers


def cmd_scan(args) -> int:
    workers = args.workers if args.workers is not None else _env_workers()
    cfg = ScanConfig(
        nvars=args.nvars,
        max_degree=args.max_deg,
        symmetry_reduction=not args.no_symmetry,
        seed=args.seed,
        trials=args.trials,
        workers=workers,
    )
    scan = FAMILIES[args.family].scan
    if args.out is None:
        report = scan(cfg)
        sys.stdout.write(_scan_text(report, args))
    else:
        # Opened before the scan, so an unwritable path costs no scan time, and
        # for appending, so a failed scan leaves an existing file as it was and
        # removes one it created.
        created = not os.path.exists(args.out)
        try:
            fh = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
        report = None
        try:
            with fh:
                report = scan(cfg)
                # a device such as /dev/null or a pipe cannot be truncated
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(_scan_text(report, args))
        except BaseException as exc:
            if created:
                os.remove(args.out)
            if isinstance(exc, OSError) and report is not None:
                raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
            raise
        print(f"wrote {args.out}: {report.examined} instances, "
              f"{len(report.counterexamples)} counterexamples")
    return 0 if report.passes else 1


def _scan_text(report, args) -> str:
    if args.format == "json":
        return report.to_json(full=args.full)
    if args.format == "csv":
        return report.to_csv()
    lines = [
        f"family: {report.family}",
        f"instances examined: {report.examined}",
        f"with generic exact pair: {report.with_generic_ezd}",
        f"skipped: {len(report.skipped)}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    for c in report.counterexamples:
        lines.append(f"  [{c.index}] {c.ideal}: {c.reason}")
    lines.append(f"elapsed: {report.elapsed:.2f}s")
    return "\n".join(lines) + "\n"


def cmd_example(args) -> int:
    report = power_ideal_example(args.nvars, args.power)
    header = {
        "schema_version": SCHEMA_VERSION,
        "command": "example",
        "nvars": args.nvars,
        "power": args.power,
    }
    code = 0 if report.verdict is PairVerdict.EXACT_PAIR else 1
    return _emit(args, header, (code, report.to_json_dict(), _pair_report_lines(report)))


def _add_ring_arguments(p: argparse.ArgumentParser, with_trials: bool = False) -> None:
    p.add_argument("ideal", nargs="?", help="inline generator list, e.g. \"x1^2, x2^2\"")
    p.add_argument("--file", help="read generators from a file instead")
    p.add_argument("-n", "--nvars", type=int, required=True, help="number of variables")
    p.add_argument("-D", "--bound", type=int, default=None,
                   help="degree bound (defaults to the socle bound when every variable "
                        "has a pure power among the generators)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    if with_trials:
        p.add_argument("--trials", type=int, default=3, help="sampled linear forms (non-monomial ideals only)")
        p.add_argument("--seed", type=int, default=0, help="seed of the sampled forms (non-monomial ideals only)")


class _SubcommandParser(argparse.ArgumentParser):
    """Reports the arguments a subcommand does not know with the
    subcommand's own usage line; the root parser would print its own."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ezdlab",
        description="Hilbert functions and exact zero divisor analysis for graded quotient rings",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    for name, help_text, analyse, with_trials in _RING_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_ring_arguments(p, with_trials)
        p.set_defaults(func=_ring_command(name, analyse))
    sub.choices["ezd"].add_argument(
        "--form", help="check this specific linear form instead of sampling")

    p = sub.add_parser(
        "scan",
        help="exhaustive family scan",
        description="Exhaustive family scan. Scans take no -D: each family fixes the degree "
                    "its rings are built to, the socle bound of each monomial ideal and "
                    f"max({BINOMIAL_DEFAULT_BOUND}, n + 1) for the binomial family.",
    )
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("-n", "--nvars", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=2, help="max generator degree (monomial family)")
    p.add_argument("--trials", type=int, default=3,
                   help="sampled linear forms per instance (binomial family; the monomial "
                        "family is decided exactly through the all-ones form)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled forms (binomial family only)")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default: EZDLAB_WORKERS or 1)")
    p.add_argument("--no-symmetry", action="store_true",
                   help="do not reduce by variable permutations (monomial family)")
    p.add_argument("--full", action="store_true", help="include per-instance records in JSON")
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("example", help="power-ideal family with its explicit exact pair")
    p.add_argument("-n", "--nvars", type=int, required=True)
    p.add_argument("-d", "--power", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A broken invariant is a fault of the program, not a counterexample.
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
