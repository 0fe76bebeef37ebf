"""One benchmark pass in a fresh interpreter, started by run.py.

Usage: python3 bench/child.py '<json config>'

The config names the mode (`setup`, `pass`, `trace` or `record`), the
workload, seed, worker count, the checkout root, and the file to write the
result to. The child imports ezdlab from the checkout's `src/`, makes the
workload's inputs, notes the monotonic clock (the parent's spawn time to
this point is set-up), runs the pass, and only then checks the outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    cfg = json.loads(sys.argv[1])
    mode, workload, seed, workers = cfg["mode"], cfg["workload"], cfg["seed"], cfg["workers"]
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import ezdlab.cli

    if not os.path.abspath(ezdlab.__file__).startswith(os.path.join(src, "ezdlab") + os.sep):
        print(f"ezdlab imported from {ezdlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads as W

    scan = workload != "ring-analysis"
    if scan:
        report_path = cfg["out"] + ".report.json"
        argv = W.scan_argv(workload, seed, workers, report_path)
    else:
        items = W.ring_pool_ids() if mode == "record" else W.ring_items(seed)
        inputs = [W.make_ring_input(item) for item in items]
    t_ready = time.monotonic()
    cpu_ready = _cpu_s()
    result: dict = {"t_ready": t_ready}
    if mode == "setup":
        return _write(cfg["out"], result)

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        root = tracer.open("bench.pass")
    t0 = time.monotonic()
    latencies: list[float] = []
    records: list = []
    problems: list[str] = []
    if scan:
        code = ezdlab.cli.main(argv)
    else:
        for idx, (kind, data) in enumerate(inputs):
            if tracer is not None:
                tracer.item = idx
                rec = tracer.open("bench.item")
            t = time.perf_counter()
            try:
                records.append(W.analyse_ring(kind, data))
            except Exception as exc:  # one failed ring must not stop the pass
                records.append(None)
                problems.append(f"{items[idx]}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.close(rec)
                tracer.item = None
    t_end = time.monotonic()
    cpu_end = _cpu_s()
    if tracer is not None:
        tracer.close(root)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        wall=t_end - t0,
        cpu=cpu_end - cpu_ready,
        # ru_maxrss is in KiB; children report only their largest peak, so
        # count it once per worker: an upper bound on the tree's peak.
        rss_mb=(own + (kids * workers if workers > 1 else 0)) / 1024,
        latencies=latencies,
    )

    refs = {}
    if mode != "record":
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
            refs = json.load(fh)
    if scan:
        report = None
        if code != 0:
            problems.append(f"scan exited with {code}")
        else:
            with open(report_path, "rb") as fh:
                data = fh.read()
            report = json.loads(data)
            key = W.scan_reference_key(workload, seed)
            if mode == "record":
                result["digests"] = {key: W.digest(data)}
            elif W.digest(data) != refs.get(key):
                problems.append(f"report sha256 differs from the reference for {key}")
            if report["counterexamples"]:
                problems.append(f"{len(report['counterexamples'])} counterexamples")
        result.update(attempted=1, failed=1 if problems else 0)
        examined = report["examined"] if report else 0
        skipped = W.skipped_counts(report) if report else {}
    else:
        failed = 0
        digests = {}
        for item, record in zip(items, records):
            if record is None:
                failed += 1
                continue
            digests[item] = W.record_digest(record)
            problem = W.theory_problem(item, record)
            if mode != "record" and digests[item] != refs.get(item):
                problem = problem or "result record sha256 differs from the reference"
            if problem:
                failed += 1
                problems.append(f"{item}: {problem}")
        if mode == "record":
            result["digests"] = digests
        result.update(attempted=len(items), failed=failed)
        examined = len(items)
        skipped = {}
    result["problems"] = problems[:20]

    if tracer is not None:
        tracer.write(cfg["out"] + ".spans.csv")
        result["trace"] = {
            "wall": root[2] - root[1],
            "self": tracer.self_times(),
            "calls": tracer.calls(),
            "counts": tracer.counts,
            "maxima": tracer.maxima,
            "item_time": tracer.item_time(),
            "item_builds": tracer.count_children(
                "gradedring.build", {"lab.task", "lab.power_ideal", "bench.item"}),
            "examined": examined,
            "skipped": skipped,
        }
    return _write(cfg["out"], result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
