"""Spans around the public functions of the psp4obs modules.

The traced run wraps each layer's entry points from outside the program.
Every call of a wrapped function records one span (name, start, end,
parent span); the per-layer metrics are computed from the spans once the
run is over, and the spans themselves are written out then.

Per-element helpers (``pmul``, ``pinv``, ``pconj`` and
``ElementTable.contains_rows``) are deliberately left unwrapped: a cold
classification calls ``pmul`` millions of times, so wrapping it would
measure the wrapper rather than the program.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


class Tracer:
    """Records spans and counters for one traced run, in memory."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = {}
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def inside(self, name) -> bool:
        """Is a span called ``name`` open on the current call stack?"""
        return any(self.names[i] == name for i in self._stack)

    def wrap(self, name, fn, observe=None):
        """``fn`` recording a span called ``name`` on every call.

        ``observe(tracer, args, kwargs, result)`` runs after a call that
        returned, with the span already closed.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installing wrappers ----------------------------------------------

    def install(self, modules, targets):
        """Wrap every target and patch every binding of it.

        ``modules`` maps module names to the imported package modules;
        ``targets`` holds ``(module, qualname, span, observe)`` tuples, where
        ``qualname`` is ``"func"`` or ``"Class.method"``.  A function is
        replaced under every name that binds it in any of ``modules``, so a
        ``from .x import func`` copy is wrapped too.
        """
        for mod_name, qualname, span, observe in targets:
            owner = modules[mod_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original,
                            self.wrap(span, original, observe))
                continue
            original = getattr(owner, qualname)
            wrapper = self.wrap(span, original, observe)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list:
        return self_times(self.starts, self.ends, self.parents)

    def layer_totals(self) -> dict:
        """Per span name: entries into the layer and summed self time.

        An entry is a span whose parent has another name, so a layer that
        calls itself (``hnf`` inside ``kernel_saturated``) counts once.
        """
        selfs = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            calls, self_s = out.get(name, (0, 0.0))
            p = self.parents[i]
            if p < 0 or self.names[p] != name:
                calls += 1
            out[name] = (calls, self_s + selfs[i])
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "run_id": self.run_id,
                       "names": self.names, "start": self.starts,
                       "end": self.ends, "parent": self.parents}, fh)


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread and nest properly, so the children of a
    span lie inside it and do not overlap each other.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


# ---------------------------------------------------------------------------
# what is wrapped


def _max_entry_bits(value) -> int:
    if isinstance(value, np.ndarray):
        if value.size == 0 or value.dtype.kind not in "iuO":
            return 0
        return max(abs(int(value.max())), abs(int(value.min()))).bit_length()
    if isinstance(value, tuple):
        return max((_max_entry_bits(v) for v in value), default=0)
    return 0


def _is_object_array(value) -> bool:
    if isinstance(value, tuple):
        return any(_is_object_array(v) for v in value)
    return isinstance(value, np.ndarray) and value.dtype == object


def _observe_intlinalg(tracer, args, kwargs, result):
    if _is_object_array(result):
        tracer.count("intlinalg.object_results")
    tracer.maximum("intlinalg.max_entry_bits", _max_entry_bits(result))


def _observe_add_block(tracer, args, kwargs, result):
    tracer.count("intlinalg.kernel.blocks")
    if tracer.inside("cohomology.h1"):
        tracer.count("cohomology.h1.blocks")


def _observe_kernel_init(tracer, args, kwargs, result):
    if tracer.inside("cohomology.h1"):
        n = args[1] if len(args) > 1 else kwargs["n"]
        tracer.maximum("cohomology.h1.unknowns_max", n)


def _observe_presentation(tracer, args, kwargs, result):
    tracer.count("permgroups.presentation.relators", len(result.relators))
    if tracer.inside("cohomology.h1"):
        tracer.count("cohomology.h1.relators", len(result.relators))


def _observe_classes(tracer, args, kwargs, result):
    tracer.count("subgroups.classes", len(result))


def _observe_compare(tracer, args, kwargs, result):
    structural = kwargs.get("structural_only",
                            args[2] if len(args) > 2 else False)
    if not structural:
        tracer.counters["table.mismatch_cells"] = len(result.mismatches)


def _intlinalg(names, span):
    return [("intlinalg", n, span, _observe_intlinalg) for n in names]


TARGETS = [
    ("permgroups", "PermGroup.__init__", "permgroups.build", None),
    ("permgroups", "PermGroup.element_table", "permgroups.element_table",
     None),
    ("permgroups", "PermGroup.conjugacy_classes",
     "permgroups.conjugacy_classes", None),
    *[("permgroups", f"PermGroup.{n}", "permgroups.conj_scan", None)
      for n in ("conjugate_into", "conjugating_element",
                "is_conjugate_subgroup", "normalizer")],
    ("permgroups", "group_from_elements", "permgroups.closure", None),
    ("permgroups", "normal_closure", "permgroups.closure", None),
    ("permgroups", "PermGroup.presentation", "permgroups.presentation",
     _observe_presentation),
    ("permgroups", "PermGroup.express", "permgroups.express", None),
    ("subgroups", "subgroup_classes", "subgroups.subgroup_classes",
     _observe_classes),
    ("subgroups", "perfect_subgroup_classes", "subgroups.perfect_search",
     None),
    ("subgroups", "fingerprint_of", "subgroups.fingerprint", None),
    ("burnside", "perm_characters", "burnside.perm_characters", None),
    ("burnside", "burnside_order", "burnside.order", None),
    *_intlinalg(("hnf", "hnf_basis", "kernel_saturated", "saturate_rows"),
                "intlinalg.hnf"),
    *_intlinalg(("snf", "smith_diagonal", "quotient_invariants",
                 "minimal_multiplier"), "intlinalg.snf"),
    *_intlinalg(("solve_in_lattice", "unimodular_inverse"), "intlinalg.solve"),
    ("intlinalg", "KernelAccumulator.__init__", "intlinalg.kernel",
     _observe_kernel_init),
    ("intlinalg", "KernelAccumulator.add_block", "intlinalg.kernel",
     _observe_add_block),
    ("intlinalg", "KernelAccumulator.kernel", "intlinalg.kernel",
     _observe_intlinalg),
    ("cohomology", "h1", "cohomology.h1", None),
    ("cohomology", "h0", "cohomology.h0", None),
    ("cohomology", "invariants_basis", "cohomology.h0", None),
    ("zmodules", "load_module", "zmodules.load_module", None),
    ("zmodules", "GIntModule.restrict", "zmodules.restrict", None),
    ("sp4f3", "standard_model", "sp4f3.standard_model", None),
    ("sp4f3", "is_absolutely_irreducible", "sp4f3.irreducible", None),
    ("table", "compute_table", "table.compute_table", None),
    ("table", "compare_fixture", "table.compare_fixture", _observe_compare),
]

# per-layer metric -> (unit, the workload expected to move it); a metric
# left at zero on the other workload is reported with the reason below
LAYER_METRICS = {
    "permgroups.build.calls": ("count", "classify"),
    "permgroups.build.self_s": ("s", "classify"),
    "permgroups.element_table.calls": ("count", "classify"),
    "permgroups.element_table.self_s": ("s", "classify"),
    "permgroups.conjugacy_classes.self_s": ("s", "classify"),
    "permgroups.conj_scan.calls": ("count", "classify"),
    "permgroups.conj_scan.self_s": ("s", "classify"),
    "permgroups.closure.calls": ("count", "classify"),
    "permgroups.closure.self_s": ("s", "classify"),
    "permgroups.presentation.calls": ("count", "h1_sweep"),
    "permgroups.presentation.self_s": ("s", "h1_sweep"),
    "permgroups.presentation.relators": ("count", "h1_sweep"),
    "permgroups.express.calls": ("count", "h1_sweep"),
    "subgroups.subgroup_classes.self_s": ("s", "classify"),
    "subgroups.perfect_search.self_s": ("s", "classify"),
    "subgroups.fingerprint.calls": ("count", "classify"),
    "subgroups.fingerprint.self_s": ("s", "classify"),
    "subgroups.classes": ("count", "classify"),
    "burnside.perm_characters.calls": ("count", "classify"),
    "burnside.perm_characters.self_s": ("s", "classify"),
    "burnside.order.calls": ("count", "classify"),
    "burnside.order.self_s": ("s", "classify"),
    "intlinalg.hnf.calls": ("count", "h1_sweep"),
    "intlinalg.hnf.self_s": ("s", "h1_sweep"),
    "intlinalg.snf.calls": ("count", "h1_sweep"),
    "intlinalg.snf.self_s": ("s", "h1_sweep"),
    "intlinalg.kernel.blocks": ("count", "h1_sweep"),
    "intlinalg.kernel.self_s": ("s", "h1_sweep"),
    "intlinalg.solve.calls": ("count", "h1_sweep"),
    "intlinalg.solve.self_s": ("s", "h1_sweep"),
    "intlinalg.object_results": ("count", "h1_sweep"),
    "intlinalg.max_entry_bits": ("bits", "h1_sweep"),
    "cohomology.h1.calls": ("count", "h1_sweep"),
    "cohomology.h1.self_s": ("s", "h1_sweep"),
    "cohomology.h0.self_s": ("s", "h1_sweep"),
    "cohomology.h1.unknowns_max": ("count", "h1_sweep"),
    "cohomology.relators_used_frac": ("ratio", "h1_sweep"),
    "cohomology.h1.stops": ("count", "h1_sweep"),
    "cohomology.h1.stop_late_s_max": ("s", "h1_sweep"),
    "zmodules.load_module.self_s": ("s", "h1_sweep"),
    "zmodules.restrict.calls": ("count", "h1_sweep"),
    "zmodules.restrict.self_s": ("s", "h1_sweep"),
    "sp4f3.standard_model.self_s": ("s", "both"),
    "sp4f3.irreducible.calls": ("count", "both"),
    "sp4f3.irreducible.self_s": ("s", "both"),
    "table.compute_table.self_s": ("s", "both"),
    "table.compare_fixture.self_s": ("s", "both"),
    "table.mismatch_cells": ("count", "both"),
    "trace.spans": ("count", "both"),
    "trace.overhead_s": ("s", "both"),
}

ZERO_REASON = {
    "classify": "classify loads no module and computes no H^1",
    "h1_sweep": "h1_sweep runs no subgroup search; the lattice is loaded, "
                "not computed",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric except those the caller measures itself:
    the deadline stops and the tracing overhead."""
    totals = tracer.layer_totals()
    c = tracer.counters
    out = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s"):
            out[metric] = totals.get(span, (0, 0))[kind == "self_s"]
    for name in ("permgroups.presentation.relators", "subgroups.classes",
                 "intlinalg.kernel.blocks", "intlinalg.object_results",
                 "intlinalg.max_entry_bits", "cohomology.h1.unknowns_max",
                 "table.mismatch_cells"):
        out[name] = c.get(name, 0)
    relators = c.get("cohomology.h1.relators", 0)
    out["cohomology.relators_used_frac"] = (
        c.get("cohomology.h1.blocks", 0) / relators if relators else 0.0)
    out["trace.spans"] = len(tracer.names)
    return out

