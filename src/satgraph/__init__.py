"""Saturated graphs and hypergraphs of prescribed minimum degree.

Constructions, verifiers, edge lower bounds with machine-checkable
closure certificates, exhaustive minimum-edge search, and a CLI.

Names resolve on first use: ``satgraph.X`` imports the submodule that
defines X, so a program loads only the modules it touches.
``satgraph.closure`` is the closure engine module; its ``closure``
function is ``satgraph.closure.closure``.
"""

# submodule -> the public names the package takes from it
_EXPORTS = {
    "canon": ("are_isomorphic", "canonical_form", "canonical_graph"),
    "closure": ("Certificate", "ClosureState", "LymResult", "StepRecord", "bad_vertices",
                "control", "lym_check", "certify", "make_state", "refine", "trace_antichain",
                "verify_certificate", "weight"),
    "constructions": ("SplitFamilyLayout", "clique_join_bipartite", "complete_bipartite", "cone",
                      "duffus_hanson_t2", "duplicate_vertex", "ehm_extremal", "f_graph",
                      "petersen", "semi_sat", "split_family"),
    "errors": ("BudgetExceededError", "DomainError", "FatalInconsistencyError", "Graph6Error",
               "IntegrityError", "ParseError", "VerificationError"),
    "graph6": ("decode", "encode"),
    "graphs": ("Graph", "find_clique", "contains_clique"),
    "hypergraphs": ("Hypergraph", "contains_r_clique", "find_r_clique", "from_text", "to_text"),
    "hypersat": ("CyclicPartition", "bollobas_extremal", "extension_class_check",
                 "greedy_complete", "has_cyclic_excess", "saturated_hypergraph",
                 "sidorenko_base"),
    "search": ("SearchProblem", "SearchResult", "enumerate_extremal", "exact_sat",
               "exact_semi_sat"),
    "verify": ("BoundEval", "VerifyReport", "bollobas_bound", "check_bounds",
               "closure_tower_bound", "closure_tower_term", "dh_mixed_bound", "dh_semi_bound",
               "ehm_bound", "has_conical_vertex", "is_kp_free", "is_r_saturated", "is_saturated",
               "is_semi_saturated", "non_saturating_pair", "non_saturating_r_set",
               "semi_sat_lower_bound", "semi_sat_upper_bound"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

# `closure` is the submodule: importing it binds that attribute anyway
__all__ = ["closure", *_ORIGIN]
__version__ = "0.1.0"


def __getattr__(name: str):
    import importlib

    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
