"""Spans around the calls that cross a module boundary, recorded from
outside the package.

Each boundary is a name in the namespace of the module that calls it, so
the wrapper is installed where the caller resolves the name.  Modules are
reached through ``importlib.import_module``: ``import satgraph.closure``
would bind the function ``closure`` that the package re-exports.  Spans
stay in memory as (name id, start, end, parent index) and are written out
once, at the end.
"""
from __future__ import annotations

import importlib
import time

# (module that resolves the name, attribute, span name); the span name's
# first component is the layer the callee belongs to.
BOUNDARIES = (
    ("satgraph.cli", "main", "cli.main"),
    ("satgraph.cli", "decode", "graph6.decode"),
    ("satgraph.cli", "check_bounds", "verify.check_bounds"),
    ("satgraph.cli", "certify_run", "closure.certify"),
    ("satgraph.cli", "exact_sat", "search.exact"),
    ("satgraph.cli", "exact_semi_sat", "search.exact"),
    ("satgraph.cli", "saturated_hypergraph", "hypersat.saturated"),
    ("satgraph.cli", "to_text", "hypergraphs.to_text"),
    ("satgraph.search", "_run_level", "search.level"),
    ("satgraph.search", "canonical_masks", "canon.canonical_masks"),
    ("satgraph.search", "find_clique_in_mask", "graphs.find_clique_in_mask"),
    ("satgraph.search", "saturation_holds_masks", "verify.saturation_holds_masks"),
    ("satgraph.search", "encode", "graph6.encode"),
    ("satgraph.verify", "encode", "graph6.encode"),
    ("satgraph.closure", "is_saturated", "verify.is_saturated"),
    ("satgraph.closure", "refine", "closure.refine"),
    ("satgraph.closure", "verify_certificate", "closure.replay"),
    ("satgraph.closure", "encode", "graph6.encode"),
    ("satgraph.hypersat", "sidorenko_base", "hypersat.base"),
    ("satgraph.hypersat", "greedy_complete", "hypersat.greedy_complete"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]
        self.missing: list[str] = []
        # boundary counters, taken where the call happens
        self.canon_seen: set = set()
        self.canon_repeats = 0
        self.clique_hits = 0
        self.leaf_hits = 0
        self.closure_steps = 0
        self.hyper_edges = 0

    # -- observers: run after the wrapped call returns -----------------------

    def _canon(self, args, result):
        key = (args[0], tuple(args[1]))
        if key in self.canon_seen:
            self.canon_repeats += 1
        else:
            self.canon_seen.add(key)

    def _clique(self, args, result):
        self.clique_hits += result is not None

    def _leaf(self, args, result):
        self.leaf_hits += bool(result)

    def _certify(self, args, result):
        self.closure_steps += len(result.steps)

    def _hyper(self, args, result):
        self.hyper_edges += result.edge_count()

    def install(self) -> None:
        observers = {
            "canon.canonical_masks": self._canon,
            "graphs.find_clique_in_mask": self._clique,
            "verify.saturation_holds_masks": self._leaf,
            "closure.certify": self._certify,
            "hypersat.saturated": self._hyper,
        }
        for module_name, attr, span in BOUNDARIES:
            mod = importlib.import_module(module_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span not in self.names:
                self.names.append(span)
            nid = self.names.index(span)
            setattr(mod, attr, self._wrap(fn, nid, observers.get(span)))

    def _wrap(self, fn, nid, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times.  Self time is a span's duration minus
        the durations of its direct children."""
        k = len(self.names)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, _) in enumerate(self.spans):
            calls[nid] += 1
            total[nid] += t1 - t0
            own[nid] += t1 - t0 - child[i]

        def get(table, *spans):
            return sum(table[self.names.index(s)] for s in spans if s in self.names)

        search_s = get(total, "search.exact")
        canon_calls = get(calls, "canon.canonical_masks")
        canon_s = get(total, "canon.canonical_masks")
        clique_calls = get(calls, "graphs.find_clique_in_mask")
        leaf_checks = get(calls, "verify.saturation_holds_masks")
        return {
            "canon.calls": canon_calls,
            "canon.s": canon_s,
            "canon.share": canon_s / search_s if search_s else 0.0,
            "canon.repeat_frac": self.canon_repeats / canon_calls if canon_calls else 0.0,
            "search.levels": get(calls, "search.level"),
            "search.s": search_s,
            "search.self_s": get(own, "search.exact", "search.level"),
            "graphs.clique_calls": clique_calls,
            "graphs.clique_s": get(total, "graphs.find_clique_in_mask"),
            "graphs.clique_hit_frac": self.clique_hits / clique_calls if clique_calls else 0.0,
            "verify.leaf_checks": leaf_checks,
            "verify.leaf_hit_frac": self.leaf_hits / leaf_checks if leaf_checks else 0.0,
            "verify.check_bounds_calls": get(calls, "verify.check_bounds"),
            "verify.check_bounds_s": get(total, "verify.check_bounds"),
            "verify.is_saturated_s": get(total, "verify.is_saturated"),
            "graph6.decode_calls": get(calls, "graph6.decode"),
            "graph6.decode_s": get(total, "graph6.decode"),
            "graph6.encode_s": get(total, "graph6.encode"),
            "cli.self_s": get(own, "cli.main"),
            "closure.certify_s": get(total, "closure.certify"),
            "closure.refine_calls": get(calls, "closure.refine"),
            "closure.refine_s": get(total, "closure.refine"),
            "closure.replay_s": get(total, "closure.replay"),
            "closure.steps": self.closure_steps,
            "hypersat.base_s": get(total, "hypersat.base"),
            "hypersat.greedy_complete_s": get(total, "hypersat.greedy_complete"),
            "hypersat.edges": self.hyper_edges,
            "trace.spans": len(self.spans),
        }

    def write(self, path: str, header: str) -> None:
        """One line per span: name, start and end in microseconds from the
        first span, and the parent's line index (-1 for a root)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(f"# {header}\n# name,start_us,end_us,parent\n")
            names = self.names
            for nid, t0, t1, parent in self.spans:
                fh.write(f"{names[nid]},{(t0 - origin) * 1e6:.1f},{(t1 - origin) * 1e6:.1f},{parent}\n")
