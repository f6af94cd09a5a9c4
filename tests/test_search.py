"""Tests for the exact minimum-edge search over saturated graphs."""
from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

import satgraph.canon
import satgraph.search
from satgraph.canon import are_isomorphic, canonical_graph
from satgraph.cli import main
from satgraph.constructions import duffus_hanson_t2, ehm_extremal
from satgraph.errors import DomainError, FatalInconsistencyError
from satgraph.graph6 import decode
from satgraph.graphs import Graph
from satgraph.search import (
    SearchProblem,
    enumerate_extremal,
    exact_sat,
    exact_semi_sat,
)
from satgraph.verify import (
    is_saturated,
    is_semi_saturated,
    semi_sat_lower_bound,
    semi_sat_upper_bound,
)

from oracles import (
    atlas_saturation_optima,
    brute_is_semi_saturated,
    brute_optimum,
    extended_atlas_optima,
    saturation_debt,
)

SAT_GOLDENS = [
    (5, 3, 2, 5, "DLo"),
    (6, 3, 2, 7, "E@v_"),
    (7, 3, 2, 9, "F?Fn_"),
    (3, 3, 1, 2, "BW"),
    (5, 3, 1, 4, "D?{"),
    (6, 3, 1, 5, "E?Bw"),
    (7, 3, 1, 6, "F??Fw"),
    (4, 3, 0, 3, "CF"),
    (4, 3, 2, 4, "C]"),
    (6, 4, 2, 9, "E?~w"),
    (7, 4, 2, 11, "F?B~w"),
    (7, 3, 3, 12, "F?~v_"),
]


def test_exact_sat_golden_values_and_witnesses():
    for n, p, t, value, witness in SAT_GOLDENS:
        r = exact_sat(SearchProblem(n, p, t))
        assert r.status == "ok"
        assert r.value == value, (n, p, t)
        assert r.witness_graph6 == witness, (n, p, t)
        g = decode(witness)
        assert g.n == n
        assert g.edge_count() == value
        assert g.min_degree() >= t
        assert is_saturated(g, p)
        assert canonical_graph(g) == g


def test_witnesses_for_degree_one_are_stars():
    for n in range(3, 8):
        r = exact_sat(SearchProblem(n, 3, 1))
        assert r.value == n - 1
        assert are_isomorphic(r.witness, ehm_extremal(n, 3))


def test_duffus_hanson_construction_is_optimal():
    for n in range(5, 8):
        r = exact_sat(SearchProblem(n, 3, 2))
        assert r.value == 2 * n - 5
        g = duffus_hanson_t2(n)
        assert g.edge_count() == r.value
        assert is_saturated(g, 3)
        assert g.min_degree() >= 2


def test_exact_sat_eight_vertices():
    r = exact_sat(SearchProblem(8, 3, 2))
    assert r.status == "ok"
    assert r.value == 11 == 2 * 8 - 5
    assert r.witness_graph6 == "G??Nno"


def _check_duffus_hanson(points):
    """sat_2(n, K_3) = 2n - 5 and, for n >= 9 here, sat_3(n, K_3) = 3n - 15
    (Duffus and Hanson, J. Graph Theory 10, 1986)."""
    for n, t in points:
        r = exact_sat(SearchProblem(n, 3, t, max_n=n), threads=1)
        assert r.value == (2 * n - 5 if t == 2 else 3 * n - 15), (n, t)
        assert r.witness.edge_count() == r.value
        assert r.witness.min_degree() >= t and is_saturated(r.witness, 3), (n, t)


def test_duffus_hanson_values():
    _check_duffus_hanson([(9, 2), (10, 2), (10, 3), (11, 3)])


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="1.7M nodes at (12, 3, 2), about 8 s together; set SATGRAPH_LONG_TESTS=1",
)
def test_duffus_hanson_values_to_twelve_vertices():
    _check_duffus_hanson([(11, 2), (12, 2), (12, 3)])


def test_isomorphism_rejection_does_not_change_results():
    cases = [(5, 3, 2, "sat"), (6, 3, 1, "sat"), (6, 4, 2, "sat"), (6, 3, 2, "sat"),
             (6, 4, 2, "semi"), (6, 3, 2, "sat-exact")]
    for n, p, t, mode in cases:
        solve = exact_semi_sat if mode == "semi" else exact_sat
        a = solve(SearchProblem(n, p, t, mode=mode))
        b = solve(SearchProblem(n, p, t, mode=mode, iso_reject=False))
        assert (a.value, a.witness_graph6) == (b.value, b.witness_graph6)
        assert b.nodes >= a.nodes


def test_infeasible_problems():
    for n, p, t in [(4, 3, 3), (5, 3, 3)]:
        r = exact_sat(SearchProblem(n, p, t))
        assert r.status == "infeasible"
        assert r.value is None and r.witness is None
    r = exact_sat(SearchProblem(6, 3, 9))
    assert r.status == "infeasible"
    assert r.nodes == 0
    r = exact_sat(SearchProblem(5, 3, 0, mode="sat-exact"))
    assert r.status == "infeasible"


def test_sat_exact_mode_requires_exact_degree():
    assert exact_sat(SearchProblem(6, 3, 2, mode="sat-exact")).value == 7
    loose = exact_sat(SearchProblem(5, 3, 0)).value
    assert loose == 4


def test_semi_saturation_values():
    for n, p, t, value in [(7, 3, 1, 6), (6, 3, 2, 7), (8, 3, 2, 11)]:
        r = exact_semi_sat(SearchProblem(n, p, t, mode="semi"))
        assert r.value == value
        g = r.witness
        assert is_semi_saturated(g, p)
        assert g.min_degree() >= t
        sat_value = exact_sat(SearchProblem(n, p, t)).value
        assert r.value <= sat_value


def test_semi_matches_brute_force_on_small_cases():
    for n, p, t in [(4, 3, 1), (5, 3, 2), (5, 4, 2)]:
        r = exact_semi_sat(SearchProblem(n, p, t, mode="semi"))
        assert r.value == brute_optimum(n, p, t, mode="semi")


def test_enumerate_extremal_goldens():
    cases = [
        ((7, 3, 1), ("F??Fw",)),
        ((7, 4, 2), ("F?B~w",)),
        ((6, 3, 2), ("E@v_",)),
        ((7, 3, 2), ("F?Fn_", "F?NN_")),
    ]
    for (n, p, t), expected in cases:
        r = enumerate_extremal(SearchProblem(n, p, t))
        assert r.extremal == expected
        graphs = [decode(s) for s in expected]
        for g in graphs:
            assert is_saturated(g, p)
            assert canonical_graph(g) == g
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not are_isomorphic(graphs[i], graphs[j])


def test_enumerate_extremal_json_has_list():
    out = enumerate_extremal(SearchProblem(6, 3, 2)).to_json()
    assert out["extremal_list"] == ["E@v_"]
    assert out["value"] == 7


def test_enumerate_extremal_rejects_large_n():
    with pytest.raises(DomainError):
        enumerate_extremal(SearchProblem(10, 3, 2))


def test_problem_validation():
    with pytest.raises(DomainError):
        exact_sat(SearchProblem(11, 3, 2))
    with pytest.raises(DomainError):
        SearchProblem(6, 3, -1)
    with pytest.raises(DomainError):
        SearchProblem(6, 3, 2, mode="nope")
    with pytest.raises(DomainError):
        exact_sat(SearchProblem(4, 5, 2, max_n=10))
    with pytest.raises(DomainError):
        exact_sat(SearchProblem(6, 2, 1))


def test_solvers_refuse_the_other_modes():
    with pytest.raises(DomainError, match="exact_sat needs mode sat or sat-exact"):
        exact_sat(SearchProblem(5, 3, 2, mode="semi"))
    for mode in ("sat", "sat-exact"):
        with pytest.raises(DomainError, match="exact_semi_sat needs mode semi"):
            exact_semi_sat(SearchProblem(5, 3, 2, mode=mode))


def test_a_witness_failing_its_check_is_a_fatal_inconsistency(monkeypatch):
    # each witness is checked again by its mode's own checker and edge
    # count; a failure is a fault of the search, not of its input
    problem = SearchProblem(6, 3, 2)
    witness = exact_sat(problem, threads=1).witness
    with pytest.raises(FatalInconsistencyError, match="edge count"):
        satgraph.search._verify_witness(problem, witness, 8)
    monkeypatch.setattr(satgraph.search, "is_saturated", lambda g, p: False)
    monkeypatch.setattr(satgraph.search, "is_semi_saturated", lambda g, p: False)
    for solve, mode in [(exact_sat, "sat"), (exact_sat, "sat-exact"),
                        (exact_semi_sat, "semi")]:
        with pytest.raises(FatalInconsistencyError, match="mode checker"):
            solve(problem._replace(mode=mode), threads=1)


def test_problem_and_result_contract():
    # the values, equality, hash, immutability, pickling and refusals the
    # CLI and the worker pool rely on, whatever the classes are built from
    problem = SearchProblem(7, 3, 2)
    assert problem == SearchProblem(n=7, p=3, t=2) == SearchProblem(
        7, 3, 2, "sat", None, 10**9, 600.0, True, 10)
    assert problem != SearchProblem(7, 3, 3)
    assert (problem.mode, problem.edge_budget, problem.node_budget, problem.time_budget,
            problem.iso_reject, problem.max_n) == ("sat", None, 10**9, 600.0, True, 10)
    assert repr(problem) == (
        "SearchProblem(n=7, p=3, t=2, mode='sat', edge_budget=None, node_budget=1000000000, "
        "time_budget=600.0, iso_reject=True, max_n=10)")
    assert hash(problem) == hash(SearchProblem(n=7, p=3, t=2)) == hash(
        (7, 3, 2, "sat", None, 10**9, 600.0, True, 10))
    result = exact_sat(SearchProblem(5, 3, 2, node_budget=50))
    assert repr(result) == (
        "SearchResult(problem=SearchProblem(n=5, p=3, t=2, mode='sat', edge_budget=None, "
        "node_budget=50, time_budget=600.0, iso_reject=True, max_n=10), status='ok', value=5, "
        f"witness={result.witness!r}, witness_graph6='DLo', nodes={result.nodes}, "
        f"wall_ms={result.wall_ms}, extremal=None)")
    for obj, field in ((problem, "n"), (problem, "mode"), (result, "value")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert type(pickle.loads(pickle.dumps(obj))) is type(obj)
    refusals = [
        ({"n": 0}, "need n >= 1, got 0"),
        ({"p": 2}, "clique order must be >= 3, got 2"),
        ({"t": -1}, "need t >= 0, got -1"),
        ({"mode": "nope"}, "unknown mode 'nope'; choose from ('sat', 'sat-exact', 'semi')"),
        ({"node_budget": 0}, "node budget must be positive"),
        ({"time_budget": 0.0}, "time budget must be positive"),
        ({"time_budget": float("inf")}, "time budget must be finite, got inf"),
        ({"edge_budget": -1}, "edge budget must be non-negative"),
        ({"max_n": 0}, "max_n must be positive"),
    ]
    for change, message in refusals:
        with pytest.raises(DomainError) as err:
            SearchProblem(**{"n": 7, "p": 3, "t": 2, **change})
        assert str(err.value) == message


def test_problem_replace_runs_the_checks():
    # _replace builds through _make, which builds through the constructor
    problem = SearchProblem(7, 3, 2)
    with pytest.raises(DomainError, match="^need n >= 1, got 0$"):
        problem._replace(n=0)
    with pytest.raises(DomainError, match="unknown mode 'x'"):
        problem._replace(mode="x")
    with pytest.raises(DomainError, match="^need n >= 1, got 0$"):
        SearchProblem._make((0, 3, 2))
    replaced = problem._replace(t=3)
    assert replaced == SearchProblem(7, 3, 3) and type(replaced) is SearchProblem
    assert pickle.loads(pickle.dumps(replaced)) == replaced


def test_time_budget_must_be_finite():
    for budget in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="time budget must be finite"):
            SearchProblem(10, 3, 2, time_budget=budget)
    for budget in (0, -1.0, float("-inf")):
        with pytest.raises(DomainError, match="^time budget must be positive$"):
            SearchProblem(10, 3, 2, time_budget=budget)


def test_node_budget_reports_resource_limit():
    r = exact_sat(SearchProblem(6, 3, 2, node_budget=10))
    assert r.status == "resource-limit"
    assert r.value is None
    assert r.to_json()["value"] == "resource-limit"
    assert r.nodes >= 10


def test_edge_budget():
    assert exact_sat(SearchProblem(6, 3, 2, edge_budget=6)).status == "infeasible"
    assert exact_sat(SearchProblem(6, 3, 2, edge_budget=7)).value == 7


def test_result_json_shape():
    out = exact_sat(SearchProblem(5, 3, 2)).to_json()
    assert set(out) == {"problem", "value", "witness_graph6", "nodes", "wall_ms"}
    assert out["problem"] == {
        "n": 5, "p": 3, "t": 2, "mode": "sat", "edge_budget": None,
        "node_budget": 10**9, "time_budget": 600.0, "iso_reject": True,
    }
    assert out["value"] == 5
    assert out["witness_graph6"] == "DLo"


def test_oracle_agreement_spot_checks():
    for n, p, t in [(5, 3, 2), (6, 3, 1), (5, 4, 2), (6, 4, 3)]:
        got = exact_sat(SearchProblem(n, p, t))
        want = brute_optimum(n, p, t)
        if want is None:
            assert got.status == "infeasible"
        else:
            assert got.value == want


def test_semi_ten_vertex_budgeted_run_never_reports_a_wrong_value():
    r = exact_semi_sat(SearchProblem(10, 4, 3, mode="semi", node_budget=200_000))
    assert r.status == "resource-limit"
    assert r.value is None


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="exhaustive 3.45M-node run, about 5 s on 2 workers; set SATGRAPH_LONG_TESTS=1",
)
def test_semi_ten_vertex_exact_value():
    problem = SearchProblem(
        10, 4, 3, mode="semi", node_budget=2 * 10**9, time_budget=3600.0
    )
    r = exact_semi_sat(problem)
    assert r.value == 21
    assert r.witness_graph6 == "I?CaCB~~w"
    assert r.nodes == 3_447_324


def test_ten_vertex_semi_witness_golden_is_valid():
    g = decode("I?CaCB~~w")
    assert g.n == 10
    assert g.edge_count() == 21
    assert g.min_degree() == 3
    assert is_semi_saturated(g, 4)


@pytest.fixture(scope="module")
def atlas():
    pytest.importorskip("networkx")
    return atlas_saturation_optima()


def _atlas_rows(atlas, slow):
    # semi-saturation at n = 7 with t <= 2 explores 35k-70k nodes a point
    return [(point, row) for point, row in sorted(atlas.items())
            if (point[3] == "semi" and point[0] == 7 and point[2] <= 2) == slow]


def _check_atlas_rows(rows):
    import networkx

    for (n, p, t, mode), (value, graphs) in rows:
        problem = SearchProblem(n, p, t, mode=mode)
        # one process: these levels are too small to gain from a pool
        r = (exact_semi_sat if mode == "semi" else exact_sat)(problem, threads=1)
        if value is None:
            assert r.status == "infeasible", (n, p, t, mode)
            continue
        assert r.value == value, (n, p, t, mode)
        if n < 7:
            continue
        listed = [networkx.from_graph6_bytes(s.encode())
                  for s in enumerate_extremal(problem, threads=1).extremal]
        assert len(listed) == len(graphs), (n, p, t, mode)
        for g in listed:
            assert sum(networkx.is_isomorphic(g, h) for h in graphs) == 1, (n, p, t, mode)


def test_atlas_oracle_values_and_extremal_lists(atlas):
    """Every (n <= 7, p, t, mode) minimum, and every class list of an
    optimal n = 7 point, as read off the graph atlas."""
    assert len(atlas) == 255
    _check_atlas_rows(_atlas_rows(atlas, slow=False))


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="the 15 slowest atlas rows, about 8 s; set SATGRAPH_LONG_TESTS=1",
)
def test_atlas_oracle_slow_rows(atlas):
    _check_atlas_rows(_atlas_rows(atlas, slow=True))


def test_semi_sat_bounds_bracket_the_atlas_optima(atlas):
    """The semi-saturation bounds hold at every feasible atlas point: the
    upper one also where t < p - 2, which `semi_sat` refuses, and the
    lower one where its proof covers the point, n >= 4t."""
    points = [(n, p, t, value) for (n, p, t, mode), (value, _) in sorted(atlas.items())
              if mode == "semi" and value is not None]
    assert len(points) == 85
    for n, p, t, value in points:
        assert semi_sat_upper_bound(n, p, t) >= value, (n, p, t)
        if n >= 4 * t:
            assert semi_sat_lower_bound(n, p, t) <= value, (n, p, t)


def _labellings(g) -> set[frozenset]:
    """The edge sets of every labelling of the networkx graph g on 0..n-1,
    each once, as pairs (a, b) with a < b."""
    return {frozenset(tuple(sorted((order[a], order[b]))) for a, b in g.edges())
            for order in permutations(range(g.number_of_nodes()))}


def _check_debt(atlas, sizes):
    """Walk every node the search passes on the way to every optimal atlas
    graph with n in `sizes`, in every labelling: before each pair
    decision, the oracle's debt, its prefix part and its later part fit
    the edges left, and each vertex's need fits its pairs left, so no need
    rule cuts any of them; at each column boundary the search's `owed`
    mask is the oracle's."""
    import networkx

    checks = {}
    for (n, p, t, mode), (value, graphs) in atlas.items():
        if n in sizes:
            for g in graphs:  # the mode only picks the graphs
                checks[networkx.to_graph6_bytes(g), p, t] = g
    for (_, p, t), g in checks.items():
        n, m = g.number_of_nodes(), g.number_of_edges()
        pairs = [(j, k) for k in range(1, n) for j in range(k)]
        for placed in _labellings(g):
            decided = []
            left = [n - 1] * n
            for j, k in pairs:
                need, owes = saturation_debt(n, p, t, decided, k)
                assert sum(need) <= 2 * (m - len(decided)), (placed, j, k, p, t)
                # each pair left has at most one end below k, and at most
                # C(n - k, 2) of them join two vertices k..n-1
                assert sum(need[:k]) <= m - len(decided), (placed, j, k, p, t)
                assert sum(need[k:]) - comb(n - k, 2) <= m - len(decided), (placed, j, k, p, t)
                assert all(a <= b for a, b in zip(need, left)), (placed, j, k, p, t)
                if not j and k >= 2:
                    adj = [0] * n
                    for a, b in decided:
                        adj[a] |= 1 << b
                        adj[b] |= 1 << a
                    deg = [a.bit_count() for a in adj]
                    want = sum(1 << v for v in owes if deg[v] >= t)
                    assert satgraph.search._owed(adj, deg, k, t, p) == want, (placed, k, p, t)
                left[j] -= 1
                left[k] -= 1
                if (j, k) in placed:
                    decided.append((j, k))
    return len(checks)


def test_closed_pair_test_matches_the_definition():
    """`_closed` on N(u) & N(v), against a scan of its (p-2)-subsets for a
    clique, at every vertex pair of every atlas graph (n <= 7)."""
    import networkx

    seen = set()
    for g in networkx.graph_atlas_g():
        n = g.number_of_nodes()
        adj = [sum(1 << w for w in g[v]) for v in range(n)]
        for u, v in combinations(range(n), 2):
            common = set(g[u]) & set(g[v])
            for p in range(3, 8):
                want = any(all(g.has_edge(a, b) for a, b in combinations(c, 2))
                           for c in combinations(common, p - 2))
                assert satgraph.search._closed(adj, adj[u] & adj[v], p) == want, (
                    networkx.to_graph6_bytes(g), u, v, p)
                seen.add((p, want))
    assert len(seen) == 10  # every p in 3..7 gives both answers somewhere


def test_completed_graph_boundary_is_semi_saturation():
    """A completed graph is the column boundary k = n, where the search
    keeps it iff no vertex is below degree t and none owes an edge: that
    must be min degree >= t and semi-saturation, on every atlas graph
    with 3 <= n <= 7, saturated or not, for every p and t <= 4."""
    import networkx

    cases = accepted = 0
    for h in networkx.graph_atlas_g():
        n = h.number_of_nodes()
        if n < 3:
            continue
        g = Graph(n, list(h.edges()))
        adj = g.masks()
        deg = [a.bit_count() for a in adj]
        for p in range(3, n + 1):
            semi = brute_is_semi_saturated(g, p)
            for t in range(min(4, n - 1) + 1):
                kept = min(deg) >= t and satgraph.search._owed(adj, deg, n, t, p) == 0
                assert kept == (min(deg) >= t and semi), (networkx.to_graph6_bytes(h), p, t)
                cases += 1
                accepted += kept
    assert (cases, accepted) == (29_830, 2_083)


def test_saturation_debt_never_cuts_an_atlas_solution(atlas):
    assert _check_debt(atlas, range(3, 7)) == 51


def test_search_reaches_every_labelled_optimum(atlas, monkeypatch):
    """Without isomorph rejection the search must reach, as a leaf, every
    labelling of every optimal graph: no pruning rule may cut one."""
    reached = []
    canonical = satgraph.search.canonical_masks
    monkeypatch.setattr(satgraph.search, "canonical_masks",
                        lambda n, adj: reached.append(tuple(adj)) or canonical(n, adj))
    for (n, p, t, mode), (value, graphs) in sorted(atlas.items()):
        if n > 6 or value is None:
            continue
        labelled = []
        for g in graphs:
            for edges in _labellings(g):
                adj = [0] * n
                for a, b in edges:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
                labelled.append(tuple(adj))
        reached.clear()
        problem = SearchProblem(n, p, t, mode=mode, iso_reject=False)
        (exact_semi_sat if mode == "semi" else exact_sat)(problem, threads=1)
        assert sorted(reached) == sorted(labelled), (n, p, t, mode)


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="every order of the 7-vertex optima, about 5 s; set SATGRAPH_LONG_TESTS=1",
)
def test_saturation_debt_never_cuts_a_seven_vertex_solution(atlas):
    assert _check_debt(atlas, (7,)) == 43


@pytest.fixture(scope="module")
def extended_atlas():
    pytest.importorskip("networkx")
    return extended_atlas_optima()


def _check_extended_points(extended_atlas, points):
    for n, p, t, mode in points:
        r = (exact_semi_sat if mode == "semi" else exact_sat)(
            SearchProblem(n, p, t, mode=mode), threads=1)
        value, _ = extended_atlas[n, p, t, mode]
        assert r.status == ("infeasible" if value is None else "ok"), (n, p, t, mode)
        assert r.value == value, (n, p, t, mode)


def _check_extended_classes(extended_atlas, points):
    """`enumerate_extremal` lists each attaining class once, and no other
    graph: the canonical forms the search collects, memoised or not, are
    those of distinct optimal graphs."""
    import networkx

    for point in points:
        value, classes = extended_atlas[point]
        r = enumerate_extremal(SearchProblem(*point[:3], mode=point[3]), threads=1)
        assert r.value == value, point
        listed = [networkx.from_graph6_bytes(s.encode()) for s in r.extremal]
        assert len(listed) == len(classes), point
        for g in listed:
            assert sum(networkx.is_isomorphic(g, h) for h in classes) == 1, point


def test_extended_atlas_oracle_spot_points(extended_atlas):
    """n = 8 minima, one vertex past the atlas, at a few cheap points."""
    assert len(extended_atlas) == 144
    assert sum(value is not None for value, _ in extended_atlas.values()) == 105
    assert sum(len(classes) for _, classes in extended_atlas.values()) == 139
    _check_extended_points(extended_atlas, [
        (8, 3, 2, "sat"), (8, 3, 3, "sat-exact"), (8, 3, 4, "semi"), (8, 3, 5, "sat"),
        (8, 5, 4, "sat"), (8, 6, 5, "sat"), (8, 6, 6, "sat-exact"), (8, 7, 3, "sat-exact"),
    ])


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="all 144 points, about 30 s; set SATGRAPH_LONG_TESTS=1",
)
def test_extended_atlas_oracle_all_points(extended_atlas):
    _check_extended_points(extended_atlas, sorted(extended_atlas))


def test_extended_atlas_oracle_class_lists(extended_atlas):
    """n = 8 class lists at the points with the most optimal classes
    (11, 6, 4, 4, 3, 3, 3, 2, 2, 2), about 0.7 s together."""
    _check_extended_classes(extended_atlas, [
        (8, 4, 4, "semi"), (8, 3, 4, "semi"), (8, 3, 2, "semi"), (8, 4, 3, "semi"),
        (8, 4, 4, "sat"), (8, 3, 5, "semi"), (8, 4, 5, "semi"), (8, 3, 2, "sat"),
        (8, 4, 3, "sat-exact"), (8, 3, 3, "semi"),
    ])


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="the class lists of all 105 feasible points, about 25 s; set SATGRAPH_LONG_TESTS=1",
)
def test_extended_atlas_oracle_all_class_lists(extended_atlas):
    _check_extended_classes(extended_atlas, sorted(
        point for point, (value, _) in extended_atlas.items() if value is not None))


class _CountingPool(ProcessPoolExecutor):
    submitted = 0

    def submit(self, *args, **kwargs):
        type(self).submitted += 1
        return super().submit(*args, **kwargs)


def _without_time(result):
    out = result.to_json()
    del out["wall_ms"]
    return out


def _small_quotas(monkeypatch, quota=1_000, worker_quota=500):
    """Let a small search reach the pool: every level is handed to it past
    `quota` nodes, and a task hands back the rest of its walk past
    `worker_quota` (by default 65,536 nodes on every level, and 4,096 in
    a task)."""
    monkeypatch.setattr(satgraph.search, "_QUOTA", quota)
    monkeypatch.setattr(satgraph.search, "_WORKER_QUOTA", worker_quota)


# `nodes` is the size of one fixed tree.  With isomorph rejection off it
# is the labelled tree the pruning rules leave (142,637 before the
# saturation debt rule); with it on, a larger count means weaker
# rejection, which loses no solution and so shows nowhere else.
POOL_CASES = [(enumerate_extremal, SearchProblem(9, 3, 2), 21_998),
              (exact_sat, SearchProblem(7, 3, 2, iso_reject=False), 31_741),
              (exact_sat, SearchProblem(9, 3, 2), 21_998),
              (exact_sat, SearchProblem(9, 3, 2, mode="sat-exact"), 21_998),
              (exact_semi_sat, SearchProblem(8, 3, 2, mode="semi"), 13_422),
              (exact_sat, SearchProblem(8, 4, 3), 24_184),
              (exact_sat, SearchProblem(8, 4, 3, mode="sat-exact"), 24_184),
              (exact_semi_sat, SearchProblem(8, 4, 3, mode="semi"), 31_114)]


def _check_worker_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    for solve, problem, nodes in POOL_CASES:
        serial = solve(problem, threads=1)
        before = _CountingPool.submitted
        pooled = solve(problem, threads=2)
        assert _CountingPool.submitted > before, problem  # the level was split
        assert _without_time(pooled) == _without_time(serial), problem
        assert pooled.extremal == serial.extremal
        assert serial.nodes == nodes, problem


def test_worker_count_does_not_change_results(monkeypatch):
    _small_quotas(monkeypatch)
    _check_worker_count(monkeypatch)


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="every node handed back, about 50 s; set SATGRAPH_LONG_TESTS=1",
)
def test_worker_count_does_not_change_results_at_quota_one(monkeypatch):
    # each walk, in process or in a worker, takes one node and hands back
    # the rest of its stack
    _small_quotas(monkeypatch, 1, 1)
    _check_worker_count(monkeypatch)


def _walk_in_pieces(problem, m, quota):
    """(solutions, nodes) of level m, walked `quota` nodes at a time: each
    group handed back is walked the same way, in process, the last first."""
    search = satgraph.search
    budget, memo = search._Budget(10**9, time.monotonic() + 600), {}
    solutions, groups = search._search(problem, m, None, quota, budget, memo)
    while groups:
        found, more = search._search(problem, m, groups.pop(), quota, budget, memo)
        solutions |= found
        groups += more
    return solutions, budget.nodes


def test_handed_back_groups_finish_the_walk():
    # the groups of a walk stopped at its quota hold the rest of the level:
    # walked apart, in another order, they give the solutions and node
    # count of one uninterrupted walk, at an infeasible level and the first
    # feasible one
    for problem, value in [(SearchProblem(9, 3, 2), 13),
                           (SearchProblem(8, 4, 3, mode="semi"), 16),
                           (SearchProblem(8, 5, 4), 20),
                           (SearchProblem(7, 3, 2, iso_reject=False), 9)]:
        for m in (value - 1, value):
            whole = _walk_in_pieces(problem, m, None)
            assert bool(whole[0]) == (m == value) and whole[1] > 4_000, (problem, m)
            for quota in (1, 7, 500):
                assert _walk_in_pieces(problem, m, quota) == whole, (problem, m, quota)


def test_default_quota_keeps_small_levels_in_process(monkeypatch):
    # every level is walked in process up to 65,536 nodes, the first one
    # too: (9, 3, 2) walks at most 10,647 nodes on a level, the one level
    # of (10, 4, 5) semi 38,884, and (7, 4, 0) and (7, 4, 1) fewer still,
    # so none of them starts a worker at two threads
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    before = _CountingPool.submitted
    for solve, problem, value in [(exact_sat, SearchProblem(9, 3, 2), 13),
                                  (exact_semi_sat, SearchProblem(10, 4, 5, mode="semi"), 25),
                                  (exact_sat, SearchProblem(7, 4, 0), 11),
                                  (exact_sat, SearchProblem(7, 4, 1), 11)]:
        assert solve(problem, threads=2).value == value, problem
    assert _CountingPool.submitted == before
    # (10, 4, 4) semi walks 17,014 nodes on its first level and more than
    # 65,536 on its second, which the pool then shares until the node
    # budget runs out
    r = exact_semi_sat(SearchProblem(10, 4, 4, mode="semi", node_budget=90_000), threads=2)
    assert r.status == "resource-limit" and r.nodes > 90_000
    assert _CountingPool.submitted > before
    assert multiprocessing.active_children() == []


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of each call to `<module>.<name>`."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_prefix_labelling_counts(monkeypatch):
    # canonical deletion labels only the prefixes whose new vertex passes
    # the degree and root-partition stages, and each such prefix once per
    # search, as the memo keeps its verdict for the later edge levels
    # (293, 967 and 865 labellings when every level labels again; 739,
    # 3,879 and 2,341 without the two stages either); a completed graph
    # with no debt is labelled the same way, as the boundary k = n; the
    # node counts, 31,114 and 21,998 above, do not move
    calls = _count_calls(monkeypatch, satgraph.canon, "_labelling")
    for solve, problem, count in [(exact_sat, SearchProblem(8, 3, 2), 150),
                                  (exact_semi_sat, SearchProblem(8, 4, 3, mode="semi"), 410),
                                  (exact_sat, SearchProblem(9, 3, 2), 414)]:
        calls.clear()
        solve(problem, threads=1)
        assert len(calls) == count, problem


def test_clique_search_counts(monkeypatch):
    # the clique refusal and the debt rule answer p = 3 and p = 4 by mask
    # tests; only p >= 5 runs the generic clique search, at the boundary
    # k = n of a completed graph too, and only on the prefixes that pass
    # the degree stage (23,245 calls if the owing set came first)
    calls = _count_calls(monkeypatch, satgraph.search, "find_clique_in_mask")
    for problem, count in [(SearchProblem(9, 3, 2), 0), (SearchProblem(8, 5, 4), 11_488)]:
        calls.clear()
        exact_sat(problem, threads=1)
        assert len(calls) == count, problem


def test_boundary_work_counts(monkeypatch):
    # a column boundary rejects a prefix on degree before it computes the
    # owing set or asks for a verdict (6,447 and 9,508 owing sets, 1,203
    # and 4,075 verdicts if it asked first); labellings and nodes do not
    # depend on that order
    owed = _count_calls(monkeypatch, satgraph.search, "_owed")
    verdicts = _count_calls(monkeypatch, satgraph.search, "_verdict")
    labellings = _count_calls(monkeypatch, satgraph.canon, "_labelling")
    for solve, problem, counts in [
            (exact_sat, SearchProblem(9, 3, 2), (2_608, 483, 414, 21_998)),
            (exact_semi_sat, SearchProblem(10, 4, 5, mode="semi"), (2_923, 1_257, 791, 38_884))]:
        for calls in (owed, verdicts, labellings):
            calls.clear()
        nodes = solve(problem, threads=1).nodes
        assert (len(owed), len(verdicts), len(labellings), nodes) == counts, problem


def _memo_results(cases):
    return [(_without_time(r), r.extremal) for r in (
        enumerate_extremal(SearchProblem(n, p, t, mode=mode), threads=1)
        for n, p, t, mode in cases)]


def _record_memos(monkeypatch) -> list:
    """Record (memo, its size then) at each `_search` call."""
    memos = []
    search = satgraph.search._search
    monkeypatch.setattr(satgraph.search, "_search",
                        lambda *args: memos.append((args[-1], len(args[-1]))) or search(*args))
    return memos


def test_memo_changes_no_result(monkeypatch):
    """The verdicts the memo keeps are those the labeller would give again:
    the default cap, a tiny one, or none at all give the same values,
    witnesses, node counts and extremal lists."""
    cases = [(n, p, t, mode) for n in range(3, 7) for p in range(3, n + 1)
             for t in range(n) for mode in ("sat", "sat-exact", "semi")]
    cases += [(8, 3, 2, "sat"), (8, 4, 3, "semi"), (9, 3, 2, "sat")]
    default = _memo_results(cases)
    monkeypatch.setattr(satgraph.search, "_MEMO_CAP", 0)
    assert _memo_results(cases) == default
    memos = _record_memos(monkeypatch)
    monkeypatch.setattr(satgraph.search, "_MEMO_CAP", 8)
    assert _memo_results(cases) == default
    assert max(len(memo) for memo, _ in memos) == 8  # filled, and never past the cap


def test_memo_keys_are_the_prefix_bits(monkeypatch):
    """Each memo key is the prefix's lower-triangle adjacency bits, row by
    row, under a leading 1, and its value the verdict of that prefix.  The
    memo holds only the prefixes that pass the degree stage (411 and 1,890
    if it held the degree rejects too)."""
    judged = {}
    verdict = satgraph.search._verdict

    def recorded(prefix):
        key = 1
        for v, row in enumerate(prefix):
            key = key << v | row & ((1 << v) - 1)
        judged[key] = verdict(prefix)
        return judged[key]

    monkeypatch.setattr(satgraph.search, "_verdict", recorded)
    memos = _record_memos(monkeypatch)
    for problem, size in ((SearchProblem(8, 3, 2), 165),
                          (SearchProblem(8, 4, 3, mode="semi"), 540)):
        judged.clear()
        (exact_semi_sat if problem.mode == "semi" else exact_sat)(problem, threads=1)
        assert memos[-1][0] == judged and len(judged) == size


def test_memo_lives_for_one_search(monkeypatch):
    """Each search starts with an empty memo of its own, so a repeated
    search labels as many prefixes as the first."""
    calls = _count_calls(monkeypatch, satgraph.canon, "_labelling")
    memos = _record_memos(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        memos.clear()
        exact_sat(SearchProblem(8, 3, 2), threads=1)
        counts.append(len(calls))
        assert memos[0][1] == 0 and all(memo is memos[0][0] for memo, _ in memos)
        assert len(memos[0][0]) > 0
    assert counts == [150, 150]
    # with small quotas, (9, 3, 2) shares its levels with the pool, and
    # its in-process walks still share the one memo
    _small_quotas(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    before = _CountingPool.submitted
    memos.clear()
    assert exact_sat(SearchProblem(9, 3, 2), threads=2).value == 13
    assert _CountingPool.submitted > before
    assert memos[0][1] == 0 and all(memo is memos[0][0] for memo, _ in memos)


class _InProcessPool:
    """Stands in for the search's worker pool: records its size, starts
    no process, and runs each task in process as a worker would."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_default_workers_are_the_usable_cpus(monkeypatch):
    # a library call, like the CLI, starts no more workers than the CPUs
    # this process may run on; an explicit count is taken as given
    _small_quotas(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    serial = _without_time(exact_sat(SearchProblem(9, 3, 2), threads=1))
    for cpus, threads, sizes in [({0}, None, []), ({0, 1, 2}, None, [3]), ({0}, 2, [2])]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        _InProcessPool.sizes.clear()
        assert _without_time(exact_sat(SearchProblem(9, 3, 2), threads=threads)) == serial
        assert _InProcessPool.sizes == sizes, (cpus, threads)


def test_threads_must_be_positive():
    for threads in (0, -3):
        with pytest.raises(DomainError, match="need threads >= 1"):
            exact_sat(SearchProblem(5, 3, 2), threads=threads)


def test_node_budget_stops_the_pool(monkeypatch):
    # (8, 4, 3) spends 2,661 nodes on its first level and 5,558 on its
    # second; past 1,000 nodes each level goes to the pool, in tasks of at
    # most 500 nodes that are given the nodes left when submitted: at 4,400
    # and at 6,000 the sum of the second level's tasks runs out
    _small_quotas(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    for budget in (4_400, 6_000):
        for threads in (1, 2):
            before = _CountingPool.submitted
            r = exact_sat(SearchProblem(8, 4, 3, node_budget=budget), threads=threads)
            assert r.status == "resource-limit"
            assert r.nodes > budget
            assert (_CountingPool.submitted > before) == (threads == 2)  # the pool was reached
            assert multiprocessing.active_children() == []
    assert main(["search", "--n", "8", "--p", "4", "--t", "3",
                 "--node-budget", "6000", "--threads", "2"]) == 3
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched guard only when forked")
def test_labelling_guard_in_a_worker_is_a_resource_limit(monkeypatch, capsys):
    parent = os.getpid()

    class TripsInWorkers:
        def __lt__(self, visited):  # `visited > guard` in a worker only
            return os.getpid() != parent

    monkeypatch.setattr(satgraph.canon, "_LABELING_GUARD", TripsInWorkers())
    _small_quotas(monkeypatch)
    assert exact_sat(SearchProblem(7, 3, 2), threads=1).value == 9
    r = exact_sat(SearchProblem(9, 3, 2), threads=2)
    assert r.status == "resource-limit"
    assert multiprocessing.active_children() == []
    # the CLI caps its workers at the usable CPUs: let it see two, so
    # that it starts the pool on a one-CPU machine too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["search", "--n", "9", "--p", "3", "--t", "2", "--threads", "2"]) == 3
    assert '"value": "resource-limit"' in capsys.readouterr().out
    assert multiprocessing.active_children() == []


def test_time_budget_stops_a_search():
    # the clock is read at the first node of the search's own walk, and of
    # each worker task, not only every 8,192 nodes after
    for threads in (1, 2):
        r = exact_sat(SearchProblem(9, 3, 2, time_budget=1e-9), threads=threads)
        assert (r.status, r.nodes) == ("resource-limit", 1), threads
        assert multiprocessing.active_children() == []


def test_a_worker_task_out_of_time_is_a_resource_limit(monkeypatch):
    # (8, 4, 3)'s first level hands its walk to the pool at 1,000 nodes,
    # and the deadline passes as it does: each task stops at its first
    # node, and the level at the first task done
    _small_quotas(monkeypatch)
    search = satgraph.search._search

    def walk_then_expire(problem, m, group, quota, budget, memo):
        found = search(problem, m, group, quota, budget, memo)
        budget.deadline = time.monotonic() - 1
        return found

    monkeypatch.setattr(satgraph.search, "_search", walk_then_expire)
    r = exact_sat(SearchProblem(8, 4, 3), threads=2)
    assert (r.status, r.nodes) == ("resource-limit", 1_001)
    assert multiprocessing.active_children() == []


def test_worker_task_stops_at_its_first_node():
    # a task is run here as a worker would run it, with no process started,
    # on a copy of a group that a walk handed back, as a worker receives it
    problem, m = SearchProblem(9, 3, 2), 13
    search = satgraph.search
    group = _handed_back_group(problem, m)
    found, nodes, _ = search._task(problem, m, pickle.loads(group), 10**9, time.monotonic() + 60)
    assert found is not None and nodes > 1
    assert search._task(problem, m, pickle.loads(group), 10**9, time.monotonic() - 1)[:2] == (
        None, 1)


def _handed_back_group(problem: SearchProblem, m: int) -> bytes:
    """The last group a walk of level m hands back past 500 nodes, the
    one whose parent prefix is the shortest, pickled as a worker
    receives it."""
    budget = satgraph.search._Budget(10**9, time.monotonic() + 60)
    return pickle.dumps(satgraph.search._search(problem, m, None, 500, budget, {})[1][-1])


def test_worker_tasks_keep_no_verdict(monkeypatch):
    # a task walks its group from an empty memo, so the same group run
    # twice in one process labels as many prefixes the second time (a
    # memo kept for the process would leave the second run none to label)
    problem, m = SearchProblem(9, 3, 2), 13
    group = _handed_back_group(problem, m)
    calls = _count_calls(monkeypatch, satgraph.canon, "_labelling")
    counts = []
    for _ in range(2):
        calls.clear()
        found, nodes, _ = satgraph.search._task(
            problem, m, pickle.loads(group), 10**9, time.monotonic() + 60)
        assert found is not None
        counts.append(len(calls))
    assert counts == [115, 115]


def test_spawned_workers_give_the_serial_json():
    # in a fresh interpreter that spawns its workers, which then import
    # the package afresh: (9, 3, 2) shares its levels with the pool past
    # 1,000 nodes, and gives the JSON of a serial search
    code = (
        "import json, multiprocessing\n"
        "from satgraph import search\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    search._QUOTA = 1000\n"
        "    tasks = []\n"
        "    submit = search._Pool.submit\n"
        "    search._Pool.submit = lambda pool, *call: tasks.append(1) or submit(pool, *call)\n"
        "    runs = []\n"
        "    for threads in (1, 2):\n"
        "        out = search.exact_sat(search.SearchProblem(9, 3, 2), threads=threads).to_json()\n"
        "        del out['wall_ms']\n"
        "        runs.append(out)\n"
        "    print(json.dumps([runs, len(tasks), multiprocessing.get_start_method(),\n"
        "                      len(multiprocessing.active_children())]))\n"
    )
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert out.returncode == 0, out.stderr
    (serial, pooled), tasks, method, children = json.loads(out.stdout)
    assert pooled == serial and serial["value"] == 13
    assert tasks > 0 and method == "spawn" and children == 0


def test_serial_search_walks_each_level_once(monkeypatch):
    # without a pool no level is split into subtrees: one walk from the
    # root per edge level, on the search's own budget
    walks, levels = [], []
    search, run_level = satgraph.search._search, satgraph.search._run_level
    monkeypatch.setattr(satgraph.search, "_search",
                        lambda *args: walks.append(args[2]) or search(*args))
    monkeypatch.setattr(satgraph.search, "_run_level",
                        lambda *args: levels.append(args[1]) or run_level(*args))
    r = exact_sat(SearchProblem(9, 3, 2), threads=1)
    assert (r.value, r.nodes) == (13, 21_998)
    assert levels == [9, 10, 11, 12, 13]
    assert walks == [None] * 5
