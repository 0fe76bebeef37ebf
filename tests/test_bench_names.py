"""The benchmark's tracer wraps ezdlab functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
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
