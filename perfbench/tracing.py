"""In-memory spans and counters around almostreg's public calls.

`Tracer.install()` replaces the traced functions and methods with timing and
counting wrappers, in every loaded `almostreg` module that holds them, and
`uninstall()` puts the originals back. Nothing under `src/` is edited. Spans
stay in memory as rows ``[name_id, parent_row, start, end]`` until the run
writes them out; a span's self time is its duration minus the durations of
its direct children (single-threaded, so children never overlap).
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Per-layer metrics, in the order BENCHMARK.json lists them.
SPAN_METRICS = (
    "regularity.first_reaching.self_s",
    "regularity.MapGeometry.self_s",
    "regularity.cover_radius.self_s",
    "regularity.preimage_distance.self_s",
    *(f"regularity.estimate_modulus.{k}.s" for k in (
        "sur", "popen", "lopen", "reg", "lip_inv", "subreg", "calm", "semireg", "incalm")),
    "regularity.check_openness.self_s",
    "regularity.check_regularity_estimate.self_s",
    "perturb.lg_single_check.s",
    "perturb.estimate_lip.self_s",
    "perturb.perturbed_map.self_s",
    "ioffe.check_criterion.self_s",
    "ioffe.setvalued_criterion.self_s",
    "spaces.check_axioms.self_s",
    "spaces.induce_from_partial.self_s",
    "ekeland.generate_trace.self_s",
    "ekeland.verify_trace.self_s",
    "linear.jacobi_column_norms.self_s",
    "linear.sur_modulus.svd.s",
    "linear.sur_modulus.grid.s",
    "linear.opnorm.self_s",
    "scenarios.load_scenario.s",
    "scenarios.run_suite.self_s",
    "scenarios.emit_report.s",
)
COUNT_METRICS = (
    "regularity.first_reaching.calls",
    "regularity.first_reaching.entries",
    "regularity.MapGeometry.calls",
    "regularity.cover_radius.calls",
    "spaces.premetric.calls",
    "spaces.axiom_witnesses",
    "ekeland.trace_steps",
    "extreal.ExtReal.allocs",
    "linear.jacobi_column_norms.calls",
)


def _axiom_witnesses(report) -> int:
    return sum(len(check.violations) for check in report.checks.values())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _timed(self, fn, name_of, after=None):
        spans, stack, name_id = self.spans, self._stack, self._name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = len(spans)
            spans.append([name_id(name_of(args, kwargs)),
                          stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[row][3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to slice spans and counts from, for one phase of a run."""
        return len(self.spans), dict(self.counts)

    # --- patching ------------------------------------------------------------

    def _patch_function(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "almostreg" or name.startswith("almostreg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        from almostreg import ekeland, extreal, ioffe, linear, perturb, regularity, scenarios, spaces

        def fixed(name):
            return lambda args, kwargs: name

        def timed(name, after=None):
            return lambda fn: self._timed(fn, fixed(name), after)

        def add_entries(args, kwargs, result):
            self.count("regularity.first_reaching.calls")
            self.count("regularity.first_reaching.entries", int(np.size(result)))

        def modulus_name(args, kwargs):
            kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
            return f"regularity.estimate_modulus.{kind}"

        def sur_name(args, kwargs):
            method = kwargs.get("method", args[3] if len(args) > 3 else "svd")
            return f"linear.sur_modulus.{method}"

        def after_axioms(args, kwargs, result):
            self.count("spaces.axiom_witnesses", _axiom_witnesses(result))

        def after_trace(args, kwargs, result):
            self.count("ekeland.trace_steps", len(result.points))

        def counted_call(name):
            return lambda fn: self._counted(fn, name)

        self._patch_method(regularity.TGrid, "first_reaching",
                           timed("regularity.first_reaching", add_entries))
        self._patch_method(regularity.MapGeometry, "__init__",
                           lambda fn: self._counted(
                               self._timed(fn, fixed("regularity.MapGeometry")),
                               "regularity.MapGeometry.calls"))
        self._patch_method(regularity.MapGeometry, "cover_radius",
                           lambda fn: self._counted(
                               self._timed(fn, fixed("regularity.cover_radius")),
                               "regularity.cover_radius.calls"))
        self._patch_method(regularity.MapGeometry, "preimage_distance",
                           timed("regularity.preimage_distance"))
        self._patch_function(regularity, "estimate_modulus",
                             lambda fn: self._timed(fn, modulus_name))
        self._patch_function(regularity, "check_openness", timed("regularity.check_openness"))
        self._patch_function(regularity, "check_regularity_estimate",
                             timed("regularity.check_regularity_estimate"))
        self._patch_function(perturb, "lg_single_check", timed("perturb.lg_single_check"))
        self._patch_function(perturb, "estimate_lip", timed("perturb.estimate_lip"))
        self._patch_function(perturb, "perturbed_map", timed("perturb.perturbed_map"))
        self._patch_function(ioffe, "check_criterion", timed("ioffe.check_criterion"))
        self._patch_function(ioffe, "setvalued_criterion", timed("ioffe.setvalued_criterion"))
        self._patch_method(spaces.QuasiPremetric, "__call__", counted_call("spaces.premetric.calls"))
        self._patch_function(spaces, "check_axioms", timed("spaces.check_axioms", after_axioms))
        self._patch_function(spaces, "induce_from_partial", timed("spaces.induce_from_partial"))
        self._patch_function(ekeland, "generate_trace", timed("ekeland.generate_trace", after_trace))
        self._patch_function(ekeland, "verify_trace", timed("ekeland.verify_trace"))
        self._patch_method(extreal.ExtReal, "__post_init__", counted_call("extreal.ExtReal.allocs"))
        self._patch_function(linear, "jacobi_column_norms",
                             lambda fn: self._counted(
                                 self._timed(fn, fixed("linear.jacobi_column_norms")),
                                 "linear.jacobi_column_norms.calls"))
        self._patch_function(linear, "sur_modulus", lambda fn: self._timed(fn, sur_name))
        self._patch_function(linear, "opnorm", timed("linear.opnorm"))
        self._patch_function(scenarios, "load_scenario", timed("scenarios.load_scenario"))
        self._patch_function(scenarios, "run_suite", timed("scenarios.run_suite"))
        self._patch_function(scenarios, "emit_report", timed("scenarios.emit_report"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- aggregation ---------------------------------------------------------

    def summarize(self, start: tuple[int, dict[str, int]], end: tuple[int, dict[str, int]]
                  ) -> dict[str, float]:
        """Inclusive (`.s`) and self (`.self_s`) seconds per name, plus counts,
        for the spans and counts recorded between two marks."""
        lo, hi = start[0], end[0]
        rows = self.spans[lo:hi]
        child = [0.0] * len(rows)
        for r, (_, parent, t0, t1) in enumerate(rows):
            if parent >= lo:
                child[parent - lo] += t1 - t0
        inclusive: dict[int, float] = {}
        own: dict[int, float] = {}
        for r, (nid, parent, t0, t1) in enumerate(rows):
            own[nid] = own.get(nid, 0.0) + (t1 - t0) - child[r]
            # A span nested in a span of the same name is already inside it.
            p = parent
            while p >= lo and self.spans[p][0] != nid:
                p = self.spans[p][1]
            if p < lo:
                inclusive[nid] = inclusive.get(nid, 0.0) + (t1 - t0)
        out: dict[str, float] = {}
        for nid, value in inclusive.items():
            out[f"{self.names[nid]}.s"] = value
            out[f"{self.names[nid]}.self_s"] = own[nid]
        before, after = start[1], end[1]
        for name, value in after.items():
            out[name] = value - before.get(name, 0)
        return out

    def dump(self) -> dict:
        return {"names": self.names,
                "columns": ["name_id", "parent_row", "start_s", "end_s"],
                "spans": self.spans}
