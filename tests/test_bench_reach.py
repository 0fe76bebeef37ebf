"""The benchmark's tracer sees the work of a ring analysis in its layers.

Work routed round a traced name fails nothing else: it drops out of its
layer and is charged to the caller, as an elimination entered through an
untraced constructor was charged to `gradedring.build`. `Tracer.install`
wraps functions for the rest of the process, so the traced run is made in
a subprocess, which loads `bench/spans.py` and `bench/workloads.py`
read-only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import importlib.util, json, sys
import ezdlab.cli

def load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, sys.argv[1] + "/" + name + ".py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

spans, workloads = load("spans"), load("workloads")
tracer = spans.Tracer()
tracer.install()
workloads.analyse_ring(*workloads.make_ring_input("ci/3/2.2.3/v0"))
print(json.dumps({
    "build_eliminations": tracer.count_children("exactmat.subspace", {"gradedring.build"}),
    "annihilators": tracer.calls()["ezd.annihilator"],
}))
"""


def test_tracer_sees_the_build_elimination_and_the_annihilators():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUN, str(ROOT / "bench")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["build_eliminations"] >= 1, seen
    assert seen["annihilators"] >= 1, seen
