#!/usr/bin/env python3
"""ezdlab benchmark: a closed loop, one client, one pass at a time.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --all --seed N [--seconds S]   # every workload, both modes
    python3 bench/run.py --self-test                     # counters repeat, coverage >= 0.9
    python3 bench/run.py --record-references             # rewrite reference.json

Run from the root of a checkout; ezdlab is imported from its `src/`. Every
pass starts a fresh interpreter, as a CLI run does (see child.py).

--trace 0 measures the end-to-end metrics: a few set-up-only interpreter
starts, then passes back to back until S seconds have gone (at least one).
--trace 1 runs, at one worker, pairs of an untraced and a traced pass (at
least one pair) and reports the per-layer metrics. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the lines before it are
the same numbers as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_DIR = os.path.join(ROOT, ".bench_run")
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402

SETUP_PROBES = 7  # set-up-only starts per run, for a steady set-up median
CHILD_TIMEOUT_S = 170

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "parallel_eff": "ratio",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# Per-layer metrics reported by --trace 1. Every time here is nonzero on
# every workload; self times of layers that only some workloads enter are
# in EXTRA_LAYER_TIMES, printed in the table but not in the JSON line.
MODULES = ("lab", "polyring", "gradedring", "ezd", "exactmat")
LAYER_TIMES = MODULES + (
    "polyring.format", "gradedring.build", "gradedring.normal_form", "ezd.mult_map",
    "ezd.principal_ideal", "ezd.decision", "exactmat.rref", "exactmat.kernel",
    "exactmat.subspace",
)
EXTRA_LAYER_TIMES = ("lab.enumerate", "lab.partner_split", "lab.report", "polyring.parse",
                     "cli.main", "trace.counters")
LAYER_CALLS = ("polyring.parse", "gradedring.build", "gradedring.normal_form",
               "ezd.mult_map", "ezd.pair_check", "exactmat.rref", "exactmat.kernel")
LAYER_COUNTS = ("ezd.mult_map.cells", "exactmat.rref.cells", "exactmat.rref.ops")
LAYER_MAXIMA = ("exactmat.rref.max_cells", "exactmat.rref.max_bits")
PER_LAYER = {
    **{f"{n}.self_s": "s" for n in LAYER_TIMES},
    **{f"{n}.calls": "count" for n in LAYER_CALLS},
    **{n: "count" for n in LAYER_COUNTS},
    **{n: "count" for n in LAYER_MAXIMA},
    "lab.enumerate.ideals": "count",
    "lab.skipped.collapse": "count",
    "lab.skipped.nonvanishing": "count",
    "gradedring.build.useful_ratio": "ratio",
    "lab.serial_share": "ratio",
    "lab.amdahl_bound": "x",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
# Exact counters that must repeat across runs of the same code and seed.
EXACT = tuple(n for n, u in PER_LAYER.items() if u == "count") + ("gradedring.build.useful_ratio",)


class BenchError(Exception):
    """A pass could not be run; the benchmark prints no result."""


def workers_for(workload: str) -> int:
    """Untraced worker count; traced runs always use one worker."""
    return W.MONOMIAL_WORKERS if workload == "scan-monomial" else 1


def run_child(mode: str, workload: str, seed: int, workers: int) -> dict:
    """Start one fresh interpreter, wait for it, and return its result."""
    out = os.path.join(RUN_DIR, f"{workload}-{mode}")
    cfg = {"mode": mode, "workload": workload, "seed": seed, "workers": workers,
           "root": ROOT, "out": out}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if os.path.exists(out):
        os.remove(out)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"), json.dumps(cfg)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_session(proc)
        raise BenchError(f"{workload} {mode} pass exceeded {CHILD_TIMEOUT_S} s")
    if code != 0 or not os.path.exists(out):
        _kill_session(proc)
        raise BenchError(f"{workload} {mode} pass exited with {code}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup"] = result["t_ready"] - t_spawn
    return result


def _kill_session(proc: subprocess.Popen) -> None:
    """Stop a failed pass and any pool workers it left, and reap the pass."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty sample."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    workers = workers_for(workload)
    setups = [run_child("setup", workload, seed, workers)["setup"] for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_child("pass", workload, seed, workers))
    setups += [p["setup"] for p in passes]
    walls = [p["wall"] for p in passes]
    if workload == "ring-analysis":
        items = [x for p in passes for x in p["latencies"]]
    else:
        items = walls  # a scan is the client's one work item
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "parallel_eff": statistics.median(p["cpu"] / (workers * p["wall"]) for p in passes),
        "item_ms_p50": 1000 * percentile(items, 0.5),
        "item_ms_p90": 1000 * percentile(items, 0.9),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_frac": 1 - failed / attempted,
    }
    return metrics, passes


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    first = traced[0]["trace"]
    wall = statistics.median(t["trace"]["wall"] for t in traced)

    def self_s(name: str) -> float:
        def one(tr: dict) -> float:
            return sum(v for k, v in tr["self"].items() if k == name or k.startswith(name + "."))
        return statistics.median(one(t["trace"]) for t in traced)

    serial = statistics.median(
        (t["trace"]["wall"] - t["trace"]["item_time"]) / t["trace"]["wall"] for t in traced)
    out = {f"{n}.self_s": self_s(n) for n in LAYER_TIMES + EXTRA_LAYER_TIMES}
    out.update({f"{n}.calls": first["calls"].get(n, 0) for n in LAYER_CALLS})
    out.update({n: first["counts"].get(n, 0) for n in LAYER_COUNTS})
    out.update({n: first["maxima"].get(n, 0) for n in LAYER_MAXIMA})
    out.update({
        "lab.enumerate.ideals": first["counts"].get("lab.enumerate.yields", 0),
        "lab.skipped.collapse": first["skipped"].get("collapse", 0),
        "lab.skipped.nonvanishing": first["skipped"].get("nonvanishing", 0),
        "gradedring.build.useful_ratio": first["examined"] / first["item_builds"],
        "lab.serial_share": serial,
        "lab.amdahl_bound": 1 / (serial + (1 - serial) / 2),
        "trace.wall_s": wall,
        "trace.overhead": wall / statistics.median(u["wall"] for u in untraced) - 1,
        "trace.coverage": sum(out[f"{m}.self_s"] for m in MODULES) / wall,
    })
    return out


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        untraced.append(run_child("pass", workload, seed, 1))
        traced.append(run_child("trace", workload, seed, 1))
    for t in traced[1:]:
        if exact_counts(t) != exact_counts(traced[0]):
            print(f"warning: {workload} counters differ between traced passes", file=sys.stderr)
    return layer_metrics(traced, untraced), untraced + traced


def exact_counts(result: dict) -> dict:
    return {k: v for k, v in layer_metrics([result], [result]).items() if k in EXACT}


def print_table(workload: str, metrics: dict, units: dict) -> None:
    print(f"# {workload}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units.get(name, 's')}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if trace:
        metrics, passes = measure_traced(workload, seed, seconds)
        units = PER_LAYER
    else:
        metrics, passes = measure(workload, seed, seconds)
        units = END_TO_END
    print_table(workload, metrics, units)
    for p in passes:
        for problem in p["problems"]:
            print(f"  problem: {problem}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(line))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, with the scaling report."""
    for workload in W.WORKLOADS:
        e2e, _ = measure(workload, seed, seconds)
        layers, _ = measure_traced(workload, seed, 0)
        print_table(workload + " (end to end)", e2e, END_TO_END)
        print_table(workload + " (traced, 1 worker)", layers, PER_LAYER)
        s = layers["lab.serial_share"]
        print(f"  scaling: parallel_eff {e2e['parallel_eff']:.3f} at "
              f"{workers_for(workload)} worker(s); serial share {s:.3f} bounds a "
              f"2-worker speed-up at {layers['lab.amdahl_bound']:.2f}x")
    return 0


def self_test(seed: int) -> int:
    """Exact counters repeat across two traced runs, the five modules' self
    times cover at least 90% of the traced wall, and the metric names and
    units match BENCHMARK.json."""
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            print(f"FAIL {key}: BENCHMARK.json and run.py disagree")
            ok = False
    for workload in W.WORKLOADS:
        first = run_child("trace", workload, seed, 1)
        a, b = exact_counts(first), exact_counts(run_child("trace", workload, seed, 1))
        if a != b:
            diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
            print(f"FAIL {workload}: counters differ between runs: {diff}")
            ok = False
        else:
            print(f"ok   {workload}: {len(a)} exact counters repeat")
        coverage = layer_metrics([first], [first])["trace.coverage"]
        if coverage < 0.9:
            print(f"FAIL {workload}: named layers cover {coverage:.3f} of the traced wall")
            ok = False
    return 0 if ok else 1


def record_references() -> int:
    """Hash the reports and result records of the current code."""
    refs = {}
    refs.update(run_child("record", "scan-monomial", 0, W.MONOMIAL_WORKERS)["digests"])
    for s in range(W.BINOMIAL_SCAN_SEEDS):
        refs.update(run_child("record", "scan-binomial", s, 1)["digests"])
    ring = run_child("record", "ring-analysis", 0, 1)
    if ring["problems"]:
        raise BenchError("; ".join(ring["problems"]))
    refs.update(ring["digests"])
    with open(os.path.join(BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} reference digests")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ezdlab", "__init__.py")):
        print(f"no ezdlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        if args.record_references:
            return record_references()
        if args.self_test:
            return self_test(args.seed)
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            p.error("give --workload, --all, --self-test or --record-references")
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
