"""Every entry point that takes a clique order p, a degree t or a
uniformity r refuses an out-of-range value with the one message of its
condition: p >= 3 (p >= r + 1 for an r-graph), t >= 0 (t >= 1 for the
closure engine and the codegree construction) and r >= 2.  The bound
evaluators also refuse a vertex count n < 0."""
from __future__ import annotations

import json

import pytest

from satgraph.cli import main
from satgraph.closure import certify, closure, make_state
from satgraph.constructions import (
    clique_join_bipartite,
    complete_bipartite,
    ehm_extremal,
    f_graph,
    semi_sat,
)
from satgraph.errors import DomainError, ParseError
from satgraph.graphs import Graph
from satgraph.hypergraphs import Hypergraph, from_text
from satgraph.hypersat import (
    CyclicPartition,
    bollobas_extremal,
    greedy_complete,
    saturated_hypergraph,
    sidorenko_base,
)
from satgraph.search import SearchProblem
from satgraph.verify import (
    bollobas_bound,
    check_bounds,
    closure_tower_bound,
    dh_mixed_bound,
    dh_semi_bound,
    ehm_bound,
    is_kp_free,
    is_r_saturated,
    is_saturated,
    is_semi_saturated,
    non_saturating_pair,
    non_saturating_r_set,
    semi_sat_lower_bound,
    semi_sat_upper_bound,
)

P2 = "clique order must be >= 3, got 2"
T0 = "need t >= 0, got -1"
T1 = "need t >= 1, got 0"
R1 = "need r >= 2, got 1"
R3P3 = "clique order must be >= r+1 = 4, got 3"
N0 = "need n >= 0, got -5"

C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
H3 = bollobas_extremal(6, 3, 4)  # a 3-graph

CASES = [
    # bound evaluators
    (ehm_bound, (5, 2), P2),
    (dh_semi_bound, (5, -1, 3), T0),
    (dh_mixed_bound, (5, 2, 1), P2),
    (closure_tower_bound, (5, 2, 1), P2),
    (semi_sat_lower_bound, (5, 3, -1), T0),
    (semi_sat_upper_bound, (5, 3, -1), T0),
    (bollobas_bound, (5, 1, 3), R1),
    (bollobas_bound, (5, 3, 3), R3P3),
    (ehm_bound, (-5, 3), N0),
    (dh_semi_bound, (-5, 1, 3), N0),
    (dh_mixed_bound, (-5, 3, 1), N0),
    (closure_tower_bound, (-5, 3, 1), N0),
    (semi_sat_lower_bound, (-5, 3, 1), N0),
    (semi_sat_upper_bound, (-5, 3, 1), N0),
    (bollobas_bound, (-5, 2, 3), N0),
    (check_bounds, (C5, 2), P2),
    (check_bounds, (C5, 3, -1), T0),
    (check_bounds, (H3, 3), R3P3),
    # the search
    (SearchProblem, (5, 2, 1), P2),
    (SearchProblem, (5, 3, -1), T0),
    # constructions
    (ehm_extremal, (5, 2), P2),
    (clique_join_bipartite, (5, 2, 1), P2),
    (semi_sat, (5, 2, 1), P2),
    (complete_bipartite, (0, 4), T1),
    (f_graph, (5, -1), T0),
    # hypergraph builders
    (Hypergraph, (1, 3), R1),
    (CyclicPartition, (1, 1, 3), R1),
    (CyclicPartition, (2, 0, 3), T1),
    (sidorenko_base, (1, 1, 3), R1),
    (sidorenko_base, (2, 0, 3), T1),
    (greedy_complete, (H3, 3), R3P3),
    (saturated_hypergraph, (1, 3, 2, 5), R1),
    (bollobas_extremal, (5, 1, 3), R1),
    (bollobas_extremal, (5, 3, 3), R3P3),
    # saturation checkers
    (is_kp_free, (C5, 2), P2),
    (non_saturating_pair, (C5, 2), P2),
    (is_saturated, (C5, 2), P2),
    (is_semi_saturated, (C5, 2), P2),
    (non_saturating_r_set, (H3, 3), R3P3),
    (is_r_saturated, (H3, 3), R3P3),
    # the closure engine
    (closure, (C5, 0, [0]), T1),
    (make_state, (C5, 0, [0]), T1),
    (certify, (C5, 3, 0), T1),
    (certify, (C5, 2, 2), P2),
]


@pytest.mark.parametrize("fn, args, message", CASES,
                         ids=[f"{fn.__name__}{args[-2:]}" for fn, args, _ in CASES])
def test_out_of_range_parameter_has_one_message(fn, args, message):
    with pytest.raises(DomainError) as err:
        fn(*args)
    assert str(err.value) == message


def test_hypergraph_text_of_uniformity_one_is_refused():
    with pytest.raises(ParseError) as err:
        from_text("1 3 1\n0\n")
    assert str(err.value) == R1


CLI_CASES = [
    (["construct", "ehm", "--n", "5", "--p", "2"], P2),
    (["construct", "semi-sat", "--n", "5", "--p", "2", "--t", "1"], P2),
    (["construct", "f-graph", "--n", "5", "--t", "-1"], T0),
    (["verify", "--p", "2"], P2),
    (["verify", "--p", "3", "--t", "-1"], T0),
    (["certify", "--p", "3", "--t", "0"], T1),
    (["certify", "--p", "2", "--t", "2"], P2),
    (["search", "--n", "5", "--p", "2", "--t", "1"], P2),
    (["search", "--n", "5", "--p", "3", "--t", "-1"], T0),
    (["hyper", "base", "--r", "1", "--t", "1", "--n", "3"], R1),
    (["hyper", "base", "--r", "2", "--t", "0", "--n", "3"], T1),
    (["hyper", "complete", "--r", "3", "--t", "1", "--n", "5", "--p", "3"], R3P3),
    (["hyper", "saturated", "--r", "1", "--t", "2", "--n", "5", "--p", "3"], R1),
    (["hyper", "bollobas", "--r", "1", "--n", "5", "--p", "3"], R1),
    (["bounds", "--n", "5", "--p", "2"], P2),
    (["bounds", "--n", "5", "--p", "3", "--t", "-1"], T0),
    (["bounds", "--n", "5", "--p", "3", "--r", "1"], R1),
    (["bounds", "--n", "5", "--p", "3", "--r", "3"], R3P3),
    (["bounds", "--n", "-5", "--p", "3", "--r", "2"], N0),
    (["bounds", "--n", "-5", "--p", "3", "--t", "1"], N0),
]


@pytest.mark.parametrize("argv, detail", CLI_CASES, ids=[" ".join(a) for a, _ in CLI_CASES])
def test_cli_refuses_out_of_range_parameter(argv, detail, capsys, monkeypatch):
    # no input is read: the CLI states the ranges before it reads a line
    monkeypatch.setattr("sys.stdin", None)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "domain", "detail": detail}
