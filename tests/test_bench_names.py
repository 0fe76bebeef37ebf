"""The benchmark's scripts use ezdlab by name: every name the tracer wraps
must exist, and the library inputs of ring-analysis must still give their
reference records."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from ezdlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name: str):
    """Import bench/<name>.py read-only, outside the package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_bench("spans")
    missing = []
    for modname, attr in spans.TRACED:
        owner = importlib.import_module("ezdlab." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(owner, cls_name, type).__dict__
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert not missing, f"bench/spans.py traces names ezdlab lacks: {missing}"


def test_ring_analysis_inputs_match_references():
    """One ring of each shape the ring-analysis pool draws, built by
    `make_ring_input` through the package root, `Monomial(...)` included;
    otherwise only a benchmark run would show a break there. The larger
    shapes carry the elimination's coefficient growth into tier-1."""
    workloads = _load_bench("workloads")
    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    for item in ("ci/3/2.2.2/v0", "ci/3/2.2.3/v0", "ci/3/2.3.3/v0", "ci/4/2.2.2.2/v0",
                 "mci/3/2.2.2", "mci/3/2.3.4", "mci/4/2.2.2.2", "pow/3/3", "pow/4/5"):
        record = workloads.analyse_ring(*workloads.make_ring_input(item))
        assert workloads.record_digest(record) == refs[item], item


@pytest.mark.parametrize("seed", range(8))
def test_binomial_scan_digests_match_references(seed, tmp_path):
    """The `--full` report of each scan-binomial input, byte for byte as
    the benchmark checks it."""
    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    out = tmp_path / "report.json"
    argv = ["scan", "binomial", "-n", "3", "--seed", str(seed), "--workers", "1",
            "--format", "json", "--full", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == refs[f"scan-binomial/seed{seed}"]
