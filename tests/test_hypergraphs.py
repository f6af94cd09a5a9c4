"""Tests for the uniform hypergraph container and its text format."""
from __future__ import annotations

from itertools import combinations

import pytest

from satgraph.errors import DomainError, ParseError
from satgraph.hypergraphs import (
    Hypergraph,
    contains_r_clique,
    find_r_clique,
    from_text,
    to_text,
)


def complete_r_graph(n: int, r: int) -> Hypergraph:
    return Hypergraph(r, n, combinations(range(n), r))


def test_construction_normalizes_edges():
    h = Hypergraph(3, 5, [(2, 1, 0), (0, 1, 2), (1, 3, 4)])
    assert h.r == 3 and h.n == 5
    assert h.edge_count() == 2
    assert h.edges == ((0, 1, 2), (1, 3, 4))
    assert h.has_edge((2, 0, 1))
    assert not h.has_edge((0, 1, 3))


def test_construction_rejects_bad_edges():
    with pytest.raises(DomainError):
        Hypergraph(3, 5, [(0, 1)])
    with pytest.raises(DomainError):
        Hypergraph(3, 5, [(0, 1, 5)])
    with pytest.raises(DomainError):
        Hypergraph(3, 5, [(0, 1, 1)])


def test_degree_and_codegree():
    h = complete_r_graph(5, 3)
    assert h.degree([0]) == 6
    assert h.min_codegree(2) == 3
    assert h.min_codegree(1) == 6
    empty = Hypergraph(3, 5)
    assert empty.degree([0]) == 0
    assert empty.min_codegree(2) == 0


def test_with_edge_and_non_edges():
    h = Hypergraph(3, 4, [(0, 1, 2)])
    g = h.with_edge((1, 2, 3))
    assert h.edge_count() == 1 and g.edge_count() == 2
    assert set(h.non_edges()) == {(0, 1, 3), (0, 2, 3), (1, 2, 3)}


def test_r_clique_detection():
    h = complete_r_graph(5, 3)
    assert contains_r_clique(h, 5)
    assert find_r_clique(h, 5) == (0, 1, 2, 3, 4)
    almost = Hypergraph(3, 4, [e for e in combinations(range(4), 3) if e != (1, 2, 3)])
    assert not contains_r_clique(almost, 4)
    assert find_r_clique(almost, 3) == (0, 1, 2)


def test_text_round_trip():
    h = Hypergraph(3, 5, [(0, 1, 2), (1, 3, 4)])
    assert to_text(h) == "3 5 2\n0 1 2\n1 3 4\n"
    assert from_text(to_text(h)) == h
    assert from_text("2 3 0\n") == Hypergraph(2, 3)


def test_from_text_rejects_malformed_input():
    cases = [
        ("3 5\n0 1 2", "header must be 'r n m'"),
        ("x", "header must be 'r n m'"),
        ("3 5 1\n0 1", "has 2 vertices, expected 3"),
        ("3 5 1\n0 1 5", "out of range"),
        ("", "empty hypergraph input"),
        ("3 5 x\n0 1 2", "non-integer header field"),
        ("3 5 2\n0 1 2", "header promises 2 edges, found 1"),
        ("3 5 1\n0 1 z", "non-integer vertex"),
        ("3 5 1\n0 2 1", "not strictly increasing"),
        ("3 5 1\n0 1 1", "not strictly increasing"),
        ("3 5 2\n0 1 3\n0 1 2", "not in lexicographic order"),
        ("3 5 2\n0 1 2\n0 1 2", "duplicate edge lines"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            from_text(text)
        assert fragment in str(err.value)
