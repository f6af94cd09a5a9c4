"""Tests for the named graph constructions and their edge-count formulas."""
from __future__ import annotations

import hashlib
import json
from itertools import combinations
from math import comb, ceil

import pytest

from satgraph.constructions import (
    clique_join_bipartite,
    complete_bipartite,
    cone,
    duffus_hanson_t2,
    duplicate_vertex,
    ehm_extremal,
    f_graph,
    petersen,
    semi_sat,
    split_family,
)
from satgraph.errors import DomainError
from satgraph.graph6 import encode
from satgraph.graphs import Graph
from satgraph.verify import is_kp_free, is_saturated, is_semi_saturated

from oracles import brute_is_saturated, brute_is_semi_saturated


def test_ehm_extremal():
    for n, p, edges in [(7, 3, 6), (7, 4, 11), (10, 5, 24), (4, 4, 5)]:
        g = ehm_extremal(n, p)
        assert g.edge_count() == edges == n * (p - 2) - comb(p - 1, 2)
        assert g.min_degree() == p - 2
        assert brute_is_saturated(g, p)
    star = ehm_extremal(7, 3)
    assert sorted(star.degree(v) for v in range(7)) == [1] * 6 + [6]
    near_clique = ehm_extremal(3, 4)
    assert near_clique.edge_count() == 3 == 3 * 2 - comb(3, 2)
    with pytest.raises(DomainError):
        ehm_extremal(2, 4)
    with pytest.raises(DomainError):
        ehm_extremal(4, 2)


def test_complete_bipartite():
    for t, n, edges in [(2, 6, 8), (1, 5, 4), (3, 6, 9)]:
        g = complete_bipartite(t, n)
        assert g.edge_count() == edges == t * n - t * t
        assert g.min_degree() == t
        assert brute_is_saturated(g, 3)
    with pytest.raises(DomainError):
        complete_bipartite(3, 5)
    with pytest.raises(DomainError):
        complete_bipartite(0, 4)


def test_clique_join_bipartite():
    for n, p, t, edges in [(10, 4, 3, 23), (6, 3, 2, 8), (12, 5, 4, 37)]:
        g = clique_join_bipartite(n, p, t)
        assert g.edge_count() == edges == t * n - t * t + t * (p - 3) - comb(p - 2, 2)
        assert g.min_degree() == t
        assert is_saturated(g, p)
    assert clique_join_bipartite(6, 3, 2) == complete_bipartite(2, 6)
    with pytest.raises(DomainError):
        clique_join_bipartite(10, 4, 1)


def test_duffus_hanson_t2():
    for n in range(5, 12):
        g = duffus_hanson_t2(n)
        assert g.edge_count() == 2 * n - 5
        assert g.min_degree() == 2
        assert is_saturated(g, 3)
    assert duffus_hanson_t2(5) == Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(DomainError):
        duffus_hanson_t2(4)


def test_duffus_hanson_t2_matches_its_duplication_definition():
    # the definition, kept as the reference: duplicate the least degree-2
    # vertex of the 5-cycle until n vertices
    g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    for n in range(5, 121):
        assert encode(duffus_hanson_t2(n)) == encode(g), n
        g = duplicate_vertex(g, next(v for v in range(g.n) if g.degree(v) == 2))


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.edge_count() == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert is_kp_free(g, 3)
    assert brute_is_saturated(g, 3)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    assert all(g.has_edge(u, v) for u, v in outer)
    assert all(g.has_edge(i, i + 5) for i in range(5))
    assert all(g.has_edge(5 + i, 5 + (i + 2) % 5) for i in range(5))


def split_family_formula(t: int, n: int) -> int:
    if t % 2 == 0:
        return t * n - t * t * (8 + comb(t, t // 2)) // 8
    return t * n - t * t - (t - 1) * (t * t - 1) * comb(t, (t - 1) // 2) // (8 * t)


def test_split_family_golden_counts():
    for t, n, edges in [(4, 16, 36), (4, 20, 52), (5, 30, 101)]:
        g, _ = split_family(t, n)
        assert g.n == n
        assert g.edge_count() == edges == split_family_formula(t, n)
        assert g.min_degree() == t
        assert is_saturated(g, 3)
    with pytest.raises(DomainError):
        split_family(3, 30)
    with pytest.raises(DomainError):
        split_family(4, 15)


def test_split_family_layout_json_is_pinned():
    text = json.dumps(split_family(5, 40)[1].to_json())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "224ced1c1787912e56d7aed7385cdc5d1e8e8641fe9bcdd4d7c23b7f2c8e8e4c"


def test_split_family_layout():
    g, lay = split_family(4, 18)
    half = lay.t // 2
    r = comb(lay.t - 1, half - 1)
    assert len(lay.hub) == lay.t
    assert len(lay.splits) == len(lay.left) == len(lay.right) == r
    assert lay.splits == tuple(
        s for s in combinations(lay.hub, half) if lay.hub[0] in s
    )
    assert all(len(v) == half for v in lay.left)
    assert all(len(w) == lay.t - half for w in lay.right)
    assert len(lay.bulk) == lay.n - lay.t - half * comb(lay.t, half)
    complements = [tuple(sorted(set(lay.hub) - set(x))) for x in lay.splits]
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            assert set(lay.splits[i]) & set(lay.splits[j])
            assert set(lay.splits[i]) & set(complements[j])
            assert set(complements[i]) & set(complements[j])
    groups = [lay.hub, lay.bulk] + [c for c in lay.left] + [c for c in lay.right]
    flat = sorted(v for c in groups for v in c)
    assert flat == list(range(g.n))


def test_duplicate_vertex():
    c5 = duffus_hanson_t2(5)
    g = duplicate_vertex(c5, 0)
    assert g.n == 6 and g.edge_count() == 7
    assert sorted(g.neighbors(5)) == sorted(c5.neighbors(0))
    assert not g.has_edge(0, 5)
    assert is_saturated(g, 3)
    k24 = complete_bipartite(2, 6)
    assert duplicate_vertex(k24, 2).edge_count() == complete_bipartite(2, 7).edge_count()
    with pytest.raises(DomainError):
        duplicate_vertex(c5, 9)


def test_duplicate_vertex_preserves_saturation():
    for g, p in [(duffus_hanson_t2(6), 3), (ehm_extremal(7, 4), 4), (petersen(), 3)]:
        for v in range(g.n):
            h = duplicate_vertex(g, v)
            assert is_kp_free(h, p)
            assert is_saturated(h, p)


def test_cone():
    wheel = cone(duffus_hanson_t2(5))
    assert wheel.n == 6 and wheel.edge_count() == 10
    assert wheel.min_degree() == 3
    assert brute_is_saturated(wheel, 4)
    assert cone(Graph(1)).edge_count() == 1
    big = cone(split_family(4, 16)[0])
    assert big.edge_count() == 52
    assert big.min_degree() == 5
    assert is_saturated(big, 4)


def test_f_graph():
    for m, s, edges in [(5, 2, 5), (6, 3, 9), (5, 3, 8)]:
        g = f_graph(m, s)
        assert g.edge_count() == edges == ceil(m * s / 2)
        assert g.min_degree() == s
    assert f_graph(5, 2) == duffus_hanson_t2(5)
    assert sorted(f_graph(5, 3).degree(v) for v in range(5)) == [3, 3, 3, 3, 4]
    assert all(f_graph(6, 3).degree(v) == 3 for v in range(6))
    assert f_graph(7, 0).edge_count() == 0
    with pytest.raises(DomainError):
        f_graph(3, 3)


def test_f_graph_sweep():
    for m in range(1, 16):
        for s in range(0, m):
            g = f_graph(m, s)
            assert g.edge_count() == ceil(m * s / 2), (m, s)
            assert g.min_degree() == s, (m, s)


def test_semi_sat():
    for n, p, t, edges in [(10, 4, 3, 21), (12, 3, 2, 17), (16, 5, 4, 49)]:
        g = semi_sat(n, p, t)
        tt = t + p - 2
        assert g.edge_count() == edges == ceil(tt * (n - (p - 2)) / 2) + comb(p - 2, 2)
        assert g.min_degree() == t
        assert is_semi_saturated(g, p)
    assert brute_is_semi_saturated(semi_sat(10, 4, 3), 4)
    with pytest.raises(DomainError):
        semi_sat(10, 4, 1)
    with pytest.raises(DomainError):
        semi_sat(3, 3, 3)
    with pytest.raises(DomainError):
        semi_sat(10, 2, 1)
