"""Spans around the public entry points of each nskoszul module.

The program has no instrumentation of its own, so the tracer replaces each
traced function, in every nskoszul module that holds a reference to it, by a
wrapper that records a span: its layer, its duration, and how much of that
the spans it caused took.  A layer's self time is its span durations minus
its children's; like every time the benchmark reports, it is scaled to the
reference speed (calibration.py), case by case.  Counts are recorded at the
same boundaries, from the arguments and results that cross them.
Everything stays in memory.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) -> layer name; a layer's metric names start with it
TRACED = (
    ("truncation", "trunc_gens"),
    ("gb", "syzygies"),
    ("gb", "minimal_generators"),
    ("complexes", "resolve_module"),
    ("complexes", "minimize_complex"),
    ("complexes", "homology_dims"),
    ("koszul_check", "linear_part"),
    ("koszul_check", "koszul_verdict"),
    ("assoc_graded", "gr_module"),
    ("egm", "betti_via_koszul"),
    ("construction", "construct_gr_betti"),
    ("modp", "rank_py"),
    ("modp", "rank_mod"),
    ("sweep", "run_case"),
)

RANK_KERNELS = ("modp.rank_py", "modp.rank_mod")


def _cells(args) -> int:
    mat = args[0]
    if isinstance(mat, np.ndarray):
        return mat.size
    return len(mat) * len(mat[0]) if mat else 0


class Tracer:
    """Per-layer self times, call counts and work counts of one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.rank_s = defaultdict(float)  # rank kernel time by calling layer
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        # times of the case in progress, scaled into the totals by end_case
        self._case_self_s = defaultdict(float)
        self._case_rank_s = defaultdict(float)
        self._stack = []
        self._restore = []

    def end_case(self, scale: float):
        """Add the finished case's times, scaled to the reference speed."""
        for case, total in ((self._case_self_s, self.self_s), (self._case_rank_s, self.rank_s)):
            for layer, took in case.items():
                total[layer] += took * scale
            case.clear()

    def _observe(self, layer: str, parent: str | None, args, out, took: float):
        counts = self.counts
        if layer in RANK_KERNELS:
            counts["modp.rank_cells"] += _cells(args)
            if parent is not None:
                counts[parent + ".rank_calls"] += 1
                self._case_rank_s[parent] += took
        elif layer == "truncation.trunc_gens":
            counts["truncation.generators"] += len(out)
        elif layer == "gb.minimal_generators":
            counts["gb.candidates"] += sum(1 for v in args[0] if v)
            counts["gb.kept"] += len(out)
        elif layer == "complexes.resolve_module":
            counts["complexes.resolution_rank"] += sum(m.rank for m in out.modules)
        elif layer == "assoc_graded.gr_module":
            counts["assoc_graded.gr_basis"] += sum(len(b) for b in out.degrees.values())
        elif layer == "egm.betti_via_koszul":
            counts["egm.betti_total"] += sum(r for _, _, r in out.entries)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_s = self._case_self_s
        calls = self.calls
        observe = self._observe

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                self_s[layer] += took - frame[1]
                calls[layer] += 1
                if parent is not None:
                    parent[1] += took
            observe(layer, parent[0] if parent else None, args, out, took)
            return out

        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("nskoszul") and m]
        for mod_name, fn_name in TRACED:
            mod = sys.modules.get(f"nskoszul.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue  # a layer the program no longer has reads as zero
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)
                        self._restore.append((holder, attr, fn))
        return self

    def __exit__(self, *exc):
        for holder, attr, fn in reversed(self._restore):
            setattr(holder, attr, fn)
        self._restore.clear()
        return False

    def metrics(self) -> dict:
        """Metric name -> value for this pass, zero for layers that never ran."""
        s, calls, counts = self.self_s, self.calls, self.counts
        candidates = counts["gb.candidates"]
        return {
            "truncation.trunc_gens_s": s["truncation.trunc_gens"],
            "truncation.generators": counts["truncation.generators"],
            "gb.syzygies_s": s["gb.syzygies"],
            "gb.syzygies_calls": calls["gb.syzygies"],
            "gb.minimal_generators_s": s["gb.minimal_generators"],
            "gb.minimal_generators_calls": calls["gb.minimal_generators"],
            "gb.kept_ratio": counts["gb.kept"] / candidates if candidates else 0.0,
            "complexes.resolve_module_s": s["complexes.resolve_module"],
            "complexes.minimize_complex_s": s["complexes.minimize_complex"],
            "complexes.resolution_rank": counts["complexes.resolution_rank"],
            "complexes.homology_dims_s": s["complexes.homology_dims"],
            "complexes.homology_dims.rank_calls": counts["complexes.homology_dims.rank_calls"],
            "complexes.homology_dims.rank_s": self.rank_s["complexes.homology_dims"],
            "koszul_check.linear_part_s": s["koszul_check.linear_part"],
            "koszul_check.koszul_verdict_s": s["koszul_check.koszul_verdict"],
            "assoc_graded.gr_module_s": s["assoc_graded.gr_module"],
            "assoc_graded.gr_basis": counts["assoc_graded.gr_basis"],
            "egm.betti_via_koszul_s": s["egm.betti_via_koszul"],
            "egm.betti_via_koszul.rank_calls": counts["egm.betti_via_koszul.rank_calls"],
            "egm.betti_via_koszul.rank_s": self.rank_s["egm.betti_via_koszul"],
            "egm.betti_total": counts["egm.betti_total"],
            "construction.construct_gr_betti_s": s["construction.construct_gr_betti"],
            "modp.rank_py_calls": calls["modp.rank_py"],
            "modp.rank_py_s": s["modp.rank_py"],
            "modp.rank_mod_calls": calls["modp.rank_mod"],
            "modp.rank_mod_s": s["modp.rank_mod"],
            "modp.rank_cells": counts["modp.rank_cells"],
            "sweep.self_s": s["sweep.run_case"],
        }
