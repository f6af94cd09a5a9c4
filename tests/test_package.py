"""The package namespace: the names `satgraph` exports, each resolved on
first use to the object its submodule defines."""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satgraph

# submodule -> the names the package takes from it; `closure` itself is
# the closure engine submodule
EXPORTS = {
    "canon": ["are_isomorphic", "canonical_form", "canonical_graph"],
    "closure": ["Certificate", "ClosureState", "LymResult", "StepRecord", "bad_vertices",
                "certify", "control", "lym_check", "make_state", "refine", "trace_antichain",
                "verify_certificate", "weight"],
    "constructions": ["SplitFamilyLayout", "clique_join_bipartite", "complete_bipartite",
                      "cone", "duffus_hanson_t2", "duplicate_vertex", "ehm_extremal", "f_graph",
                      "petersen", "semi_sat", "split_family"],
    "errors": ["BudgetExceededError", "DomainError", "FatalInconsistencyError", "Graph6Error",
               "IntegrityError", "ParseError", "VerificationError"],
    "graph6": ["decode", "encode"],
    "graphs": ["Graph", "contains_clique", "find_clique"],
    "hypergraphs": ["Hypergraph", "contains_r_clique", "find_r_clique", "from_text", "to_text"],
    "hypersat": ["CyclicPartition", "bollobas_extremal", "extension_class_check",
                 "greedy_complete", "has_cyclic_excess", "saturated_hypergraph",
                 "sidorenko_base"],
    "search": ["SearchProblem", "SearchResult", "enumerate_extremal", "exact_sat",
               "exact_semi_sat"],
    "verify": ["BoundEval", "VerifyReport", "bollobas_bound", "check_bounds",
               "closure_tower_bound", "closure_tower_term", "dh_mixed_bound", "dh_semi_bound",
               "ehm_bound", "has_conical_vertex", "is_kp_free", "is_r_saturated", "is_saturated",
               "is_semi_saturated", "non_saturating_pair", "non_saturating_r_set",
               "semi_sat_lower_bound", "semi_sat_upper_bound"],
}
NAMES = sorted(["closure", *(name for names in EXPORTS.values() for name in names)])


def test_all_lists_the_package_names():
    assert len(NAMES) == 75
    assert sorted(satgraph.__all__) == NAMES


def test_each_name_is_the_object_its_submodule_defines():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"satgraph.{module}")
        for name in names:
            assert getattr(satgraph, name) is getattr(mod, name), name
    assert satgraph.closure is sys.modules["satgraph.closure"]
    assert callable(satgraph.closure.closure)


def test_star_import_and_dir_hold_every_name():
    namespace: dict = {}
    exec("from satgraph import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(satgraph, name), name
    assert set(NAMES) <= set(dir(satgraph))
    assert {"cli", "closure", "search", "verify"} <= set(dir(satgraph))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        satgraph.nope
    assert "nope" not in dir(satgraph)


def test_names_and_submodules_resolve_on_first_use():
    # in a fresh interpreter without site hooks: the package alone loads no
    # submodule, and `satgraph.closure` stays the engine module after the
    # engine runs
    code = (
        "import contextlib, io, sys\n"
        "import satgraph\n"
        "print(sorted(m for m in sys.modules if m.startswith('satgraph.')))\n"
        "engine = satgraph.closure\n"
        "print(engine is sys.modules['satgraph.closure'],\n"
        "      satgraph.verify is sys.modules['satgraph.verify'],\n"
        "      satgraph.Hypergraph is sys.modules['satgraph.hypergraphs'].Hypergraph)\n"
        "sys.stdin = io.StringIO('Dhc\\n')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = satgraph.cli.main(['certify', '--p', '3', '--t', '2'])\n"
        "print(code, satgraph.closure is engine is sys.modules['satgraph.closure'])\n"
    )
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "True True True", "0 True"]
