"""Per-layer tracing from outside the library.

``Tracer.install`` replaces selected functions and methods of leibnizalg
with wrappers that record a span (name, start, end, parent) per call, or
only a call count for methods too hot to time without distorting the run.
Module globals are looked up at call time, so replacing every module-level
binding of a function also catches the library's internal calls.  Spans are
kept in memory, summarised into per-layer metrics, and written to a file at
the end.  Nothing here changes what the library computes.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("leibnizalg", "leibnizalg.algebra", "leibnizalg.compat",
           "leibnizalg.exact", "leibnizalg.fp", "leibnizalg.operators",
           "leibnizalg.cli")

#: (module, attribute, layer name) of the functions given a span
SPANNED = (
    ("fp", "_compiled_mask", "fp.compiled_mask"),
    ("fp", "_direct_mask", "fp.direct_mask"),
    ("fp", "_digit_block", "fp.digit_block"),
    ("fp", "compile_system", "fp.compile_system"),
    ("fp", "solution_indices", "fp.solution_indices"),
    ("fp", "_eval_chart", "fp.eval_chart"),
    ("fp", "chart_membership", "fp.chart_membership"),
    ("fp", "roundtrip_check", "fp.roundtrip"),
    ("fp", "coverage", "fp.coverage"),
    ("operators", "build_system", "operators.build_system"),
    ("operators", "operator_residual", "operators.operator_residual"),
    ("operators", "verify_family", "operators.verify_family"),
    ("algebra", "leibniz_residual", "algebra.leibniz_residual"),
    ("algebra", "bind_params", "algebra.bind_params"),
    ("algebra", "load_catalog", "algebra.load_catalog"),
    ("compat", "mixed_residual", "compat.mixed_residual"),
    ("compat", "is_compatible", "compat.is_compatible"),
    ("compat", "lambda_sample_check", "compat.lambda_sample_check"),
    ("exact", "reduce_mod_p", "exact.reduce_mod_p"),
    ("exact", "parse_expr", "exact.parse_expr"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "_atomic_write", "cli.atomic_write"),
)

#: (class path, method, layer name) of methods given a span
SPANNED_METHODS = (
    ("exact.RatExpr", "substitute", "exact.RatExpr.substitute"),
)

#: (class path, method, layer name) of hot methods that are only counted
COUNTED_METHODS = (
    ("exact.Poly", "__mul__", "exact.Poly.mul"),
    ("exact.Poly", "__add__", "exact.Poly.add"),
)

#: metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "fp.compiled_mask.self_s": "s",
    "fp.direct_mask.self_s": "s",
    "fp.compiled_mask.s_per_65536": "s",
    "fp.direct_mask.s_per_65536": "s",
    "fp.digit_block.self_s": "s",
    "fp.matrices_swept": "count",
    "fp.solutions_found": "count",
    "fp.hit_ratio": "ratio",
    "fp.compile_system.calls": "count",
    "fp.compile_system.self_s": "s",
    "fp.monomials_compiled": "count",
    "fp.equations_compiled": "count",
    "operators.build_system.calls": "count",
    "operators.build_system.self_s": "s",
    "fp.eval_chart.calls": "count",
    "fp.eval_chart.self_s": "s",
    "fp.eval_chart.admissible_ratio": "ratio",
    "fp.chart_membership.calls": "count",
    "fp.chart_membership.self_s": "s",
    "fp.roundtrip.attempts_per_check": "ratio",
    "fp.coverage.self_s": "s",
    "fp.coverage.families_skipped.NonRealValue": "count",
    "fp.coverage.families_skipped.NonInvertibleDenominator": "count",
    "fp.coverage.families_skipped.RefusedSize": "count",
    "fp.coverage.families_skipped.malformed": "count",
    "exact.RatExpr.substitute.calls": "count",
    "exact.RatExpr.substitute.self_s": "s",
    "exact.reduce_mod_p.calls": "count",
    "exact.reduce_mod_p.self_s": "s",
    "exact.Poly.mul.calls": "count",
    "exact.Poly.add.calls": "count",
    "exact.parse_expr.calls": "count",
    "exact.parse_expr.self_s": "s",
    "operators.operator_residual.calls": "count",
    "operators.operator_residual.self_s": "s",
    "operators.verify_family.calls": "count",
    "operators.verify_family.self_s": "s",
    "algebra.leibniz_residual.calls": "count",
    "algebra.leibniz_residual.self_s": "s",
    "algebra.leibniz_residual.repeat_ratio": "ratio",
    "algebra.bind_params.self_s": "s",
    "algebra.load_catalog.calls": "count",
    "compat.mixed_residual.calls": "count",
    "compat.mixed_residual.self_s": "s",
    "compat.is_compatible.calls": "count",
    "compat.lambda_sample_check.self_s": "s",
    "compat.bindings_checked": "count",
    "cli.verify.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

SKIP_REASONS = ("NonRealValue", "NonInvertibleDenominator", "RefusedSize",
                "malformed")

#: matrices in one full p = 2 sweep, the unit of the per-sweep kernel times
SWEEP = 1 << 16


def _table_key(table) -> tuple:
    return (table.name, tuple(str(e) for plane in table.c
                              for row in plane for e in row))


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.tables_seen: set = set()
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (for the run's phases)."""
        return self._spanned(fn, name)(*args, **kwargs)

    # -- observers: counts taken from arguments and results ---------------

    def _observers(self):
        c = self.counts

        def rows(key, position):
            def observe(args, kwargs, result):
                c[key] += args[position].shape[0]
            return observe

        def digit_block(args, kwargs, result):
            c["fp.matrices_swept"] += args[0].size

        def solutions(args, kwargs, result):
            c["fp.solutions_found"] += result.size

        def compiled(args, kwargs, result):
            c["fp.monomials_compiled"] += len(result.monos)
            c["fp.equations_compiled"] += result.equation_count

        def eval_chart(args, kwargs, result):
            c["fp.eval_chart.admissible"] += result is not None

        def roundtrip(args, kwargs, result):
            c["fp.roundtrip.checked"] += result["checked"]

        def coverage(args, kwargs, result):
            for s in result.families_skipped:
                c["fp.coverage.families_skipped." + s["reason"]] += 1

        def leibniz(args, kwargs, result):
            self.tables_seen.add(_table_key(args[0]))

        def compatible(args, kwargs, result):
            if args[0].is_bound() and args[1].is_bound():
                c["compat.bindings_checked"] += 1

        def written(args, kwargs, result):
            c["cli.output_bytes"] += len(args[1].encode())

        return {
            "fp.compiled_mask": rows("fp.compiled_mask.rows", 1),
            "fp.direct_mask": rows("fp.direct_mask.rows", 2),
            "fp.digit_block": digit_block,
            "fp.solution_indices": solutions,
            "fp.compile_system": compiled,
            "fp.eval_chart": eval_chart,
            "fp.roundtrip": roundtrip,
            "fp.coverage": coverage,
            "algebra.leibniz_residual": leibniz,
            "compat.is_compatible": compatible,
            "cli.atomic_write": written,
        }

    # -- patching --------------------------------------------------------

    def install(self, lib):
        modules = [sys.modules[m] for m in MODULES]
        observers = self._observers()
        for mod_name, attr, name in SPANNED:
            original = getattr(getattr(lib, mod_name), attr)
            wrapper = self._spanned(original, name, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for group, make in ((SPANNED_METHODS, self._spanned),
                            (COUNTED_METHODS, self._counted)):
            for path, attr, name in group:
                mod_name, cls_name = path.split(".")
                cls = getattr(getattr(lib, mod_name), cls_name)
                self._patch(cls, attr, make(vars(cls)[attr], name))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur - child

    def per_layer(self, overhead_s: float) -> dict:
        """Every per-layer metric as {name: value}."""
        name, parent, self_time = self._arrays()
        calls, self_s = Counter(), Counter()
        for nid, layer in enumerate(self.names):
            mask = name == nid
            calls[layer] = int(mask.sum())
            self_s[layer] = float(self_time[mask].sum())
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        rt = self._ids.get("fp.roundtrip", -2)
        ev = self._ids.get("fp.eval_chart", -2)
        attempts = int(((name == ev) & (parent >= 0)
                        & (name[np.maximum(parent, 0)] == rt)).sum())
        out = {
            "fp.compiled_mask.self_s": self_s["fp.compiled_mask"],
            "fp.direct_mask.self_s": self_s["fp.direct_mask"],
            "fp.compiled_mask.s_per_65536": ratio(
                self_s["fp.compiled_mask"], c["fp.compiled_mask.rows"] / SWEEP),
            "fp.direct_mask.s_per_65536": ratio(
                self_s["fp.direct_mask"], c["fp.direct_mask.rows"] / SWEEP),
            "fp.digit_block.self_s": self_s["fp.digit_block"],
            "fp.matrices_swept": c["fp.matrices_swept"],
            "fp.solutions_found": c["fp.solutions_found"],
            "fp.hit_ratio": ratio(c["fp.solutions_found"],
                                  c["fp.matrices_swept"]),
            "fp.compile_system.calls": calls["fp.compile_system"],
            "fp.compile_system.self_s": self_s["fp.compile_system"],
            "fp.monomials_compiled": c["fp.monomials_compiled"],
            "fp.equations_compiled": c["fp.equations_compiled"],
            "operators.build_system.calls": calls["operators.build_system"],
            "operators.build_system.self_s": self_s["operators.build_system"],
            "fp.eval_chart.calls": calls["fp.eval_chart"],
            "fp.eval_chart.self_s": self_s["fp.eval_chart"],
            "fp.eval_chart.admissible_ratio": ratio(
                c["fp.eval_chart.admissible"], calls["fp.eval_chart"]),
            "fp.chart_membership.calls": calls["fp.chart_membership"],
            "fp.chart_membership.self_s": self_s["fp.chart_membership"],
            "fp.roundtrip.attempts_per_check": ratio(
                attempts, c["fp.roundtrip.checked"]),
            "fp.coverage.self_s": self_s["fp.coverage"],
        }
        for reason in SKIP_REASONS:
            key = "fp.coverage.families_skipped." + reason
            out[key] = c[key]
        for layer in ("exact.RatExpr.substitute", "exact.reduce_mod_p",
                      "exact.parse_expr", "operators.operator_residual",
                      "operators.verify_family", "algebra.leibniz_residual",
                      "compat.mixed_residual"):
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_s"] = self_s[layer]
        out.update({
            "exact.Poly.mul.calls": c["exact.Poly.mul"],
            "exact.Poly.add.calls": c["exact.Poly.add"],
            "algebra.leibniz_residual.repeat_ratio": ratio(
                calls["algebra.leibniz_residual"], len(self.tables_seen)),
            "algebra.bind_params.self_s": self_s["algebra.bind_params"],
            "algebra.load_catalog.calls": calls["algebra.load_catalog"],
            "compat.is_compatible.calls": calls["compat.is_compatible"],
            "compat.lambda_sample_check.self_s":
                self_s["compat.lambda_sample_check"],
            "compat.bindings_checked": c["compat.bindings_checked"],
            "cli.verify.self_s": self_s["cli.verify"],
            "cli.output_bytes": c["cli.output_bytes"],
            "trace.overhead_s": overhead_s,
        })
        return {k: out[k] for k in PER_LAYER_UNITS}

    def write(self, path):
        """Spans and counters, as arrays, for inspection after the run."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k]
                                   for k in sorted(self.counts)]))
