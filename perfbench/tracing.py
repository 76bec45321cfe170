"""Per-layer tracing from outside the program.

Timing wrappers are installed around the public functions of picardlab's
modules for the duration of a traced pass and removed afterwards, so the
untraced passes run the unmodified code.  A wrapper replaces the function in
every module namespace that holds it (validate_bidouble lives in covers and
is imported into constructions, seed_curve in curves and constructions), and
methods are replaced on their class.

Each call records a span (name, start, end, parent) in memory.  A layer's
self time is its spans' duration minus the part covered by child spans; the
program is single-threaded, so children nest inside their parent and do not
overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (span name, module, attribute): module-level functions, patched by identity
# in every picardlab namespace.  Several functions may share one span name.
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("geography.enumerate_set", "geography", "enumerate_set"),
    ("geography.set_relations_report", "geography", "set_relations_report"),
    ("geography.emit_figure", "geography", "emit_figure"),
    ("figures.figure_svg", "figures", "figure_svg"),
    ("figures.figure_csv", "figures", "figure_csv"),
    ("constructions.build", "constructions", "build"),
    ("covers.validate", "covers", "validate_bidouble"),
    ("covers.validate", "covers", "validate_double"),
    ("covers.invariants", "covers", "bidouble_invariants"),
    ("covers.invariants", "covers", "double_invariants"),
    ("covers.canonical_ample_check", "covers", "canonical_ample_check"),
    ("singularities.transport", "singularities", "transport_bidouble"),
    ("singularities.transport", "singularities", "transport_double"),
    ("singularities.transport", "singularities", "transport_cyclic"),
    ("singularities.picard_lower_bound", "singularities", "picard_lower_bound"),
    ("surfaces.is_ample", "surfaces", "is_ample"),
    ("surfaces.intersect", "surfaces", "intersect"),
    ("curves.seed_curve", "curves", "seed_curve"),
    ("curves.classify", "curves", "classify"),
    ("curves.classify_ak", "curves", "classify_ak"),
    ("curves.singular_points_report", "curves", "singular_points_report"),
    ("polynomials.parse_ternary_form", "polynomials", "parse_ternary_form"),
    ("polynomials.substitute", "polynomials", "substitute"),
)
# (span name, module, class, attribute): methods, patched on the class.
METHODS = (
    ("polynomials.localize", "polynomials", "HomPoly", "localize"),
    ("polynomials.homform_mul", "polynomials", "HomPoly", "__mul__"),
    ("polynomials.homform_mul", "polynomials", "HomPoly", "__rmul__"),
)


class Tracer:
    """Spans of one traced pass plus the counters measured at the same
    boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.enumerated: list[tuple[str, int, int]] = []  # (label, chi_max, pairs)
        self.figure_bytes = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "geography.enumerate_set":
            self.enumerated.append((args[0], args[1], len(result)))
        elif name.startswith("figures."):
            self.figure_bytes += len(result.encode())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _parent), child in zip(self.spans, child_ns):
            row = totals[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child) / 1e9
        return totals

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Patch every target in every picardlab namespace; restore on exit."""
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "picardlab" or name.startswith("picardlab."))}
    undo = []
    for span, module, attr in FUNCTIONS:
        original = getattr(modules[f"picardlab.{module}"], attr)
        wrapper = tracer.wrap(span, original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    for span, module, cls_name, attr in METHODS:
        cls = getattr(modules[f"picardlab.{module}"], cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(span, original))
        undo.append((cls, attr, original))
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name."""
    t = tracer.layer_totals()

    def get(name: str, field: str) -> float:
        return t[name][field] if name in t else 0

    enum_calls = get("geography.enumerate_set", "calls")
    distinct = len({(label, bound) for label, bound, _n in tracer.enumerated})
    classify_calls = get("curves.classify", "calls")
    metrics = {
        "cli.main.self_s": get("cli.main", "self_s"),
        "geography.enumerate_set.calls": enum_calls,
        "geography.enumerate_set.s": get("geography.enumerate_set", "s"),
        "geography.pairs_enumerated": sum(n for _l, _b, n in tracer.enumerated),
        "geography.enumerate_redundancy": enum_calls / distinct if distinct else 0.0,
        "geography.set_relations_report.self_s": get("geography.set_relations_report", "self_s"),
        "geography.emit_figure.self_s": get("geography.emit_figure", "self_s"),
        "figures.figure_svg.s": get("figures.figure_svg", "s"),
        "figures.figure_csv.s": get("figures.figure_csv", "s"),
        "figures.bytes": tracer.figure_bytes,
        "constructions.build.calls": get("constructions.build", "calls"),
        "constructions.build.self_s": get("constructions.build", "self_s"),
        "covers.validate.calls": get("covers.validate", "calls"),
        "covers.invariants.s": get("covers.invariants", "s"),
        "covers.canonical_ample_check.s": get("covers.canonical_ample_check", "s"),
        "singularities.transport.s": get("singularities.transport", "s"),
        "singularities.picard_lower_bound.calls": get("singularities.picard_lower_bound", "calls"),
        "surfaces.is_ample.s": get("surfaces.is_ample", "s"),
        "surfaces.intersect.calls": get("surfaces.intersect", "calls"),
        "curves.seed_curve.calls": get("curves.seed_curve", "calls"),
        "curves.seed_curve.s": get("curves.seed_curve", "s"),
        "curves.classify.calls": classify_calls,
        "curves.classify.s": get("curves.classify", "s"),
        "curves.classify_ak.calls": get("curves.classify_ak", "calls"),
        "curves.jet_attempts_per_classify": (
            get("curves.classify_ak", "calls") / classify_calls if classify_calls else 0.0
        ),
        "curves.singular_points_report.s": get("curves.singular_points_report", "s"),
        "polynomials.parse_ternary_form.s": get("polynomials.parse_ternary_form", "s"),
        "polynomials.localize.calls": get("polynomials.localize", "calls"),
        "polynomials.localize.s": get("polynomials.localize", "s"),
        "polynomials.substitute.calls": get("polynomials.substitute", "calls"),
        "polynomials.substitute.s": get("polynomials.substitute", "s"),
        "polynomials.homform_mul.calls": get("polynomials.homform_mul", "calls"),
        "polynomials.homform_mul.s": get("polynomials.homform_mul", "s"),
    }
    return metrics
