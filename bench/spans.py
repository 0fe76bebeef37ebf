"""Span tracing of ezdlab's public functions, from outside the package.

A `Tracer` replaces each traced function with a wrapper under every name a
module of the package binds it to (`from .exactmat import rref` makes
`gradedring.rref` a second binding of `exactmat.rref`), so calls made inside
the package are seen too. Each call becomes one span: layer name, start,
end, parent span and the item being worked on. Spans stay in memory until
the pass ends; self time per layer is derived from them afterwards.

Counters that need the call's arguments or result (matrix cells, an
operation count, coefficient bit lengths) are computed after the span
closes, inside a `trace.counters` span, so their cost lands in no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

MODULES = ("ezdlab", "ezdlab.exactmat", "ezdlab.polyring", "ezdlab.gradedring",
           "ezdlab.ezd", "ezdlab.lab", "ezdlab.cli")

# (module, attribute) -> span name. Attributes with a dot are methods.
# Hot helpers such as monomials_of_degree and in_monomial_ideal stay
# untraced: their cost is charged to the calling layer.
TRACED = {
    ("exactmat", "rref"): "exactmat.rref",
    ("exactmat", "rank"): "exactmat.rank",
    ("exactmat", "kernel_basis"): "exactmat.kernel",
    ("exactmat", "subspace_equal"): "exactmat.subspace",
    ("exactmat", "Subspace.from_vectors"): "exactmat.subspace",
    ("polyring", "parse_ideal"): "polyring.parse",
    ("polyring", "parse_poly"): "polyring.parse",
    ("polyring", "format_ideal"): "polyring.format",
    ("polyring", "format_poly"): "polyring.format",
    ("polyring", "make_ideal"): "polyring.ideal",
    ("polyring", "monomial_ideal"): "polyring.ideal",
    ("polyring", "linear_form"): "polyring.ideal",
    ("polyring", "variable"): "polyring.ideal",
    ("polyring", "minimalize_monomial_gens"): "polyring.ideal",
    ("gradedring", "build_quotient"): "gradedring.build",
    ("gradedring", "GradedQuotient.normal_form"): "gradedring.normal_form",
    ("ezd", "mult_map"): "ezd.mult_map",
    ("ezd", "annihilator_degree"): "ezd.annihilator",
    ("ezd", "principal_ideal_degree"): "ezd.principal_ideal",
    ("ezd", "is_ezd_pair"): "ezd.pair_check",
    ("ezd", "find_ezd_complement"): "ezd.decision",
    ("ezd", "generic_ezd_decision"): "ezd.decision",
    ("ezd", "wlp_check"): "ezd.wlp",
    ("ezd", "socle_dims"): "ezd.socle",
    ("ezd", "colon_identity_dims"): "ezd.colon",
    ("ezd", "generic_linear_form"): "ezd.sample",
    ("lab", "enumerate_monomial_ideals"): "lab.enumerate",
    ("lab", "scan_monomial"): "lab.scan",
    ("lab", "scan_binomial"): "lab.scan",
    ("lab", "_monomial_task"): "lab.task",
    ("lab", "_binomial_task"): "lab.task",
    ("lab", "decompose_partner"): "lab.partner_split",
    ("lab", "check_split_support"): "lab.partner_split",
    ("lab", "power_ideal_example"): "lab.power_ideal",
    ("lab", "ScanReport.to_json"): "lab.report",
    ("lab", "ScanReport.to_json_dict"): "lab.report",
    ("lab", "ScanReport.to_csv"): "lab.report",
    ("cli", "main"): "cli.main",
}

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, ITEM = range(5)


def _rref_counts(counts: Counter, maxima: dict, args, result) -> None:
    m = args[0]
    red, pivots = result
    cells = m.rows * m.cols
    counts["exactmat.rref.cells"] += cells
    # Dense Gauss-Jordan touches every row at every pivot: an upper bound on
    # Fraction multiply-subtract pairs, computed from the shape and the rank.
    counts["exactmat.rref.ops"] += len(pivots) * m.rows * m.cols
    bits = 0
    for x in red.data:
        if x:
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    maxima["exactmat.rref.max_cells"] = max(maxima.get("exactmat.rref.max_cells", 0), cells)
    maxima["exactmat.rref.max_bits"] = max(maxima.get("exactmat.rref.max_bits", 0), bits)


def _mult_map_counts(counts: Counter, maxima: dict, args, result) -> None:
    counts["ezd.mult_map.cells"] += result.rows * result.cols


COUNTERS = {"exactmat.rref": _rref_counts, "ezd.mult_map": _mult_map_counts}


class Tracer:
    """Installs span wrappers into the loaded ezdlab modules and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.counts: Counter = Counter()
        self.maxima: dict = {}

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)
        if name == "lab.task":
            # payload = (instance index, ideal text): the scan's item id
            def traced(cfg, payload):
                outer = tracer.item
                tracer.item = payload[0]
                rec = tracer.open(name)
                try:
                    return fn(cfg, payload)
                finally:
                    tracer.close(rec)
                    tracer.item = outer
        elif inspect.isgeneratorfunction(fn):
            # One span per step, so the time spent producing each element
            # counts and the consumer's work between steps does not.
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = tracer.open(name)
                    try:
                        x = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(rec)
                    tracer.counts[name + ".yields"] += 1
                    yield x
        else:
            def traced(*args, **kwargs):
                rec = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(rec)
                if count is not None:
                    crec = tracer.open("trace.counters")
                    count(tracer.counts, tracer.maxima, args, result)
                    tracer.close(crec)
                return result
        functools.update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        """Wrap every traced function under each name bound to it, for the
        rest of the process's life."""
        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        for (modname, attr), span in TRACED.items():
            owner = sys.modules["ezdlab." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__))
                else:
                    new = self._wrap(span, raw)
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(span, orig)
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: its duration minus the part its child spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for i, s in enumerate(spans):
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(s[NAME] for s in self.spans)

    def count_children(self, name: str, parents: set[str]) -> int:
        """Spans called `name` opened directly under a span named in `parents`."""
        spans = self.spans
        return sum(
            1 for s in spans
            if s[NAME] == name and s[PARENT] >= 0 and spans[s[PARENT]][NAME] in parents
        )

    def item_time(self) -> float:
        """Wall time spent inside per-item work (scan tasks or single rings)."""
        spans = self.spans
        total = 0.0
        for s in spans:
            if s[ITEM] is not None and (s[PARENT] < 0 or spans[s[PARENT]][ITEM] is None):
                total += s[END] - s[START]
        return total

    def write(self, path: str) -> None:
        """Dump every span as `name,start,end,parent,item` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,item\n")
            for s in self.spans:
                item = "" if s[ITEM] is None else s[ITEM]
                fh.write(f"{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{item}\n")
