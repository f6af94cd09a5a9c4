"""Tests for the bitmask graph container and clique detection."""
from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from satgraph.errors import DomainError
from satgraph.graphs import (
    Graph,
    contains_clique,
    find_clique,
    find_clique_in_mask,
    iter_bits,
    mask_of,
)

from oracles import brute_find_clique, brute_has_clique


def graphs(max_n: int = 7):
    """Strategy: a random labeled graph with up to max_n vertices."""
    def build(n: int, picks: list[bool]) -> Graph:
        pairs = list(combinations(range(n), 2))
        return Graph(n, [e for e, keep in zip(pairs, picks) if keep])

    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.booleans(),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
        )
    )


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert mask_of([]) == 0
    assert list(iter_bits(0b1101)) == [0, 2, 3]
    assert list(iter_bits(0)) == []


def test_construction_and_access():
    g = Graph(4, [(2, 3), (0, 1), (1, 0)])
    assert g.n == 4
    assert g.edge_count() == 2
    assert list(g.edges()) == [(0, 1), (2, 3)]
    assert list(g.non_edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(0) == 1
    assert g.min_degree() == 1
    assert sorted(g.neighbors(1)) == [0]
    assert g.adj_mask(2) == 0b1000


def test_construction_rejects_bad_edges():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 5)])
    with pytest.raises(DomainError):
        Graph(-1)


def test_with_and_without_edge_are_persistent():
    g = Graph(3, [(0, 1)])
    h = g.with_edge(1, 2)
    assert g.edge_count() == 1 and h.edge_count() == 2
    assert h.without_edge(0, 1).edge_count() == 1
    assert g == Graph(3, [(0, 1)])
    assert hash(g) == hash(Graph(3, [(1, 0)]))
    assert g != Graph(4, [(0, 1)])


def test_from_masks_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert Graph.from_masks(g.n, g.masks()) == g


def test_from_masks_rejects_malformed_masks():
    cases = [
        ([0b10, 0b1], 3, "expected 3 masks, got 2"),
        ([0b10, 0b101], 2, "mask of vertex 1 references vertices >= 2"),
        ([0b11, 0b1], 2, "loop at vertex 0 not allowed"),
        ([0b10, 0b0, 0b0], 3, "adjacency not symmetric at (1,0)"),
    ]
    for masks, n, message in cases:
        with pytest.raises(DomainError) as err:
            Graph.from_masks(n, masks)
        assert str(err.value) == message


def test_find_clique_in_mask_is_lex_least():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    adj = g.masks()
    assert find_clique_in_mask(adj, mask_of(range(5)), 3) == (0, 1, 2)
    assert find_clique_in_mask(adj, mask_of([2, 3, 4]), 3) == (2, 3, 4)
    assert find_clique_in_mask(adj, mask_of(range(5)), 4) is None
    assert find_clique_in_mask(adj, mask_of(range(5)), 1) == (0,)


@given(graphs(max_n=9), st.integers(min_value=0, max_value=(1 << 9) - 1))
def test_find_clique_in_mask_finds_the_least_triangle(g, cand):
    cand &= (1 << g.n) - 1
    assert (find_clique_in_mask(g.masks(), cand, 3)
            == brute_find_clique(g, 3, list(iter_bits(cand))))


def test_find_clique_known_graphs():
    k5 = Graph(5, combinations(range(5), 2))
    assert find_clique(k5, 5) == (0, 1, 2, 3, 4)
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert find_clique(c5, 3) is None
    assert contains_clique(c5, 2)


@given(graphs(max_n=6), st.integers(min_value=2, max_value=5))
def test_contains_clique_matches_brute_force(g, p):
    assert contains_clique(g, p) == brute_has_clique(g, p)


@given(graphs())
def test_handshake_identity(g):
    assert 2 * g.edge_count() == sum(g.degree(v) for v in range(g.n))


@given(graphs())
def test_edges_and_non_edges_partition_pairs(g):
    edges = set(g.edges())
    non = set(g.non_edges())
    assert edges.isdisjoint(non)
    assert edges | non == set(combinations(range(g.n), 2))
