"""Command-line front end.

Subcommands: hilbert, ezd, wlp, socle, yoshino, scan, example. Every
command honors --format json with a stable schema (top-level
"schema_version" field); human tables print exact rationals so witnesses
can be pasted back in. Exit codes: 0 pass, 1 counterexample or failed
check, 2 usage, input or parse error, 3 internal error (a broken
invariant). EZDLAB_WORKERS sets the default worker count for scans;
--seed fully determines all randomized behavior.
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
    map_rank,
    socle_dims,
    wlp_check,
    yoshino_conditions,
)
from .gradedring import _refuse_oversize, build_quotient, default_bound, is_artinian_within
from .lab import (
    BINOMIAL_DEFAULT_BOUND, ScanConfig, power_ideal_example, scan_binomial, scan_monomial,
)
from .polyring import format_ideal, format_poly, parse_ideal, parse_poly

SCHEMA_VERSION = 1


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


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
    _refuse_oversize(args.nvars, max(args.bound or 1, 1))
    spec = parse_ideal(_read_ideal_text(args), args.nvars)
    bound = args.bound
    if bound is None:
        bound = default_bound(spec)
    if bound is None:
        raise ValueError("ideal has no automatic degree bound; pass -D")
    return build_quotient(spec, bound)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _print_pair_report(report) -> None:
    print(f"ring: {report.ring}")
    print(f"x: {format_poly(report.x)}")
    print(f"y: {format_poly(report.y)}")
    print(f"product zero: {_yes(report.product_zero)}")
    if report.table:
        print("d | dim R_d | dim Ann(x)_d | dim (y)_d | dim Ann(y)_d | dim (x)_d | equal")
        for r in report.table:
            eq = _yes(r.equal_xy and r.equal_yx)
            print(
                f"{r.degree} | {r.dim_ring} | {r.dim_ann_x} | {r.dim_ideal_y} | "
                f"{r.dim_ann_y} | {r.dim_ideal_x} | {eq}"
            )
    line = f"verdict: {report.verdict.value}"
    if report.reason:
        line += f" ({report.reason})"
    print(line)


def cmd_hilbert(args) -> int:
    ring = _build_ring(args)
    hf = ring.hilbert
    artinian = is_artinian_within(ring)
    if args.format == "json":
        _emit_json(
            {
                **_ring_header("hilbert", args, ring),
                "values": list(hf.values),
                "artinian": artinian,
                "artinian_within_bound": hf.artinian_within_bound,
                "top_degree": ring.top_degree,
            }
        )
    else:
        print(f"H(0..{ring.bound}): " + " ".join(str(v) for v in hf.values))
        line = f"artinian: {_yes(artinian)}"
        if ring.top_degree is not None:
            line += f" (top degree {ring.top_degree})"
        print(line)
    return 0


def cmd_ezd(args) -> int:
    ring = _build_ring(args)
    if args.form is not None:
        ell = parse_poly(args.form, args.nvars)
        if ell.degree != 1:
            raise ValueError("--form must be a linear form")
        if not ring.complete:
            raise ValueError("ring does not vanish within the degree bound; raise the bound")
        ann_dims = [
            ring.dim(d) - map_rank(ring, ell, d) for d in range(ring.top_degree + 1)
        ]
        found = find_ezd_complement(ring, ell)
        if args.format == "json":
            _emit_json(
                {
                    **_ring_header("ezd", args, ring),
                    "mode": "form",
                    "form": format_poly(ell),
                    "found": found is not None,
                    "annihilator_dims": ann_dims,
                    "witness": format_poly(found[0]) if found else None,
                    "report": found[1].to_json_dict() if found else None,
                }
            )
        else:
            print(f"form: {format_poly(ell)}")
            print("annihilator dims by degree: " + " ".join(str(v) for v in ann_dims))
            if found is None:
                print("no exact partner for this form")
            else:
                _print_pair_report(found[1])
        return 0 if found else 1

    verdict = generic_ezd_decision(ring, args.trials, args.seed)
    if args.format == "json":
        payload = {
            **_ring_header("ezd", args, ring),
            "mode": "generic",
            "report": verdict.report.to_json_dict() if verdict.report else None,
        }
        payload.update(verdict.to_json_dict())
        _emit_json(payload)
    else:
        tag = " (exact)" if verdict.exact else f" (trials={verdict.trials}, seed={verdict.seed})"
        print(f"decision: {verdict.decision.value}{tag}")
        if verdict.witness is not None:
            print(f"witness Q: {format_poly(verdict.witness)}")
        if verdict.report is not None:
            _print_pair_report(verdict.report)
    return 0 if verdict.decision is GenericDecision.GENERICALLY_YES else 1


def cmd_wlp(args) -> int:
    ring = _build_ring(args)
    report = wlp_check(ring, args.trials, args.seed)
    if args.format == "json":
        payload = _ring_header("wlp", args, ring)
        payload.update(report.to_json_dict())
        _emit_json(payload)
    else:
        print("i | dim R_{i-1} | dim R_i | rank | maximal")
        for r in report.degrees:
            print(f"{r.degree} | {r.dim_source} | {r.dim_target} | {r.rank} | {_yes(r.maximal)}")
        print(f"weak Lefschetz property: {'holds' if report.holds else 'fails'}")
    return 0 if report.holds else 1


def cmd_socle(args) -> int:
    ring = _build_ring(args)
    dims = socle_dims(ring)
    total = sum(dims)
    if args.format == "json":
        _emit_json(
            {
                **_ring_header("socle", args, ring),
                "dims": list(dims),
                "total": total,
                "gorenstein": total == 1,
            }
        )
    else:
        print("socle dims by degree: " + " ".join(str(v) for v in dims))
        print(f"total: {total}")
        print(f"gorenstein: {_yes(total == 1)}")
    return 0


def cmd_yoshino(args) -> int:
    ring = _build_ring(args)
    report = yoshino_conditions(ring)
    expected = degree2_generator_count(args.nvars)
    if args.format == "json":
        payload = _ring_header("yoshino", args, ring)
        payload["degree2_generator_count"] = expected
        payload.update(asdict(report))
        _emit_json(payload)
    else:
        mark = lambda b: "ok" if b else "FAIL"
        print(f"c1 (dim R_2 = dim R_1 - 1): {mark(report.c1)}  [dim R_1 = {report.r1}, dim R_2 = {report.r2}]")
        print(f"c2 (generated in degree 2): {mark(report.c2)}")
        gor = "unknown" if report.gorenstein is None else _yes(report.gorenstein)
        print(f"gorenstein: {gor}")
        print(f"generator count forced on the boundary: {expected}")
    return 0


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
    scan = scan_monomial if args.family == "monomial" else scan_binomial
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
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "example",
            "nvars": args.nvars,
            "power": args.power,
        }
        payload.update(report.to_json_dict())
        _emit_json(payload)
    else:
        _print_pair_report(report)
    return 0 if report.verdict is PairVerdict.EXACT_PAIR else 1


def _add_ring_arguments(p: argparse.ArgumentParser, with_trials: bool = False) -> None:
    p.add_argument("ideal", nargs="?", help="inline generator list, e.g. \"x1^2, x2^2\"")
    p.add_argument("--file", help="read generators from a file instead")
    p.add_argument("-n", "--nvars", type=int, required=True, help="number of variables")
    p.add_argument("-D", "--bound", type=int, default=None,
                   help="degree bound (defaults to the socle bound when every variable "
                        "has a pure power among the generators)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    if with_trials:
        p.add_argument("--trials", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)


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

    p = sub.add_parser("hilbert", help="Hilbert function H(0..D) of P/I")
    _add_ring_arguments(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("ezd", help="generic exact-zero-divisor decision, or check one form")
    _add_ring_arguments(p, with_trials=True)
    p.add_argument("--form", help="check this specific linear form instead of sampling")
    p.set_defaults(func=cmd_ezd)

    p = sub.add_parser("wlp", help="weak Lefschetz check with sampled linear forms")
    _add_ring_arguments(p, with_trials=True)
    p.set_defaults(func=cmd_wlp)

    p = sub.add_parser("socle", help="socle dimensions and Gorenstein detection")
    _add_ring_arguments(p)
    p.set_defaults(func=cmd_socle)

    p = sub.add_parser("yoshino", help="necessary conditions for exact pairs on short rings")
    _add_ring_arguments(p)
    p.set_defaults(func=cmd_yoshino)

    p = sub.add_parser(
        "scan",
        help="exhaustive family scan",
        description="Exhaustive family scan. Scans take no -D: each family fixes the degree "
                    "its rings are built to, the socle bound of each monomial ideal and "
                    f"max({BINOMIAL_DEFAULT_BOUND}, n + 1) for the binomial family.",
    )
    p.add_argument("family", choices=["monomial", "binomial"])
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
