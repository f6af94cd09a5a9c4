"""Tests for canonical labeling and isomorphism checks."""
from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import satgraph.canon
from satgraph.canon import (
    _labelling,
    _refine,
    _verdict,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    canonical_masks,
    masks_from_packed,
)
from satgraph.errors import DomainError
from satgraph.graph6 import decode, encode
from satgraph.graphs import Graph

from oracles import brute_isomorphic
from test_graphs import graphs

networkx = pytest.importorskip("networkx")


def relabeled(g: Graph, sigma: list[int]) -> Graph:
    return Graph(g.n, [(sigma[u], sigma[v]) for u, v in g.edges()])


def test_known_canonical_forms():
    c5 = decode("Dhc")
    assert encode(canonical_graph(c5)) == "DLo"
    assert canonical_form(decode("DUW")) == canonical_form(c5)
    assert are_isomorphic(decode("DUW"), c5)
    assert not are_isomorphic(c5, decode("D??"))


def test_trivial_graphs():
    assert canonical_masks(0, []) == ((), 0)
    assert canonical_masks(1, [0]) == ((0,), 0)
    n = 6
    empty = Graph(n)
    complete = Graph(n, combinations(range(n), 2))
    assert canonical_form(empty) == (n, 0)
    assert canonical_form(complete) == (n, (1 << (n * (n - 1) // 2)) - 1)


def test_labeling_is_a_permutation_realizing_the_form():
    g = Graph(5, [(0, 1), (0, 2), (2, 3), (2, 4), (3, 4)])
    lab, packed = canonical_masks(g.n, g.masks())
    assert sorted(lab) == list(range(g.n))
    rebuilt = Graph.from_masks(g.n, masks_from_packed(g.n, packed))
    assert brute_isomorphic(g, rebuilt)


def test_masks_from_packed_inverts_packing():
    g = decode("Dhc")
    n, packed = canonical_form(g)
    again = canonical_form(Graph.from_masks(n, masks_from_packed(n, packed)))
    assert again == (n, packed)


@given(st.integers(min_value=0, max_value=9), st.data())
def test_masks_from_packed_reads_pairs_most_significant_first(n, data):
    pairs = [(j, k) for k in range(1, n) for j in range(k)]
    packed = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    bits = format(packed, f"0{len(pairs)}b")
    expect = Graph(n, [pair for pair, bit in zip(pairs, bits) if bit == "1"])
    assert masks_from_packed(n, packed) == list(expect.masks())
    # bits above the triangle are ignored
    high = data.draw(st.integers(min_value=-(1 << 70), max_value=1 << 70))
    assert masks_from_packed(n, packed + (high << len(pairs))) == list(expect.masks())


@given(graphs(max_n=6), st.randoms(use_true_random=False))
def test_invariant_under_relabeling(g, rng):
    sigma = list(range(g.n))
    rng.shuffle(sigma)
    assert canonical_form(relabeled(g, sigma)) == canonical_form(g)


@given(graphs(max_n=6), graphs(max_n=6))
def test_equality_decides_isomorphism(a, b):
    assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)


@given(graphs(max_n=7), graphs(max_n=7))
def test_agrees_with_networkx(a, b):
    def to_nx(g):
        h = networkx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    expected = a.n == b.n and networkx.is_isomorphic(to_nx(a), to_nx(b))
    assert are_isomorphic(a, b) == expected


@given(graphs(max_n=7))
def test_canonical_graph_is_idempotent(g):
    h = canonical_graph(g)
    assert canonical_graph(h) == h
    assert canonical_form(h) == canonical_form(g)


@pytest.mark.parametrize("edges, packed", [
    ([(0, v) for v in range(1, 10)], 511),                          # K_{1,9}
    ([(u, v) for u in range(2) for v in range(2, 10)], 131070),     # K_{2,8}
    ([(0, 1)], 1),                                                  # K_2 + 8 K_1
], ids=["K_1,9", "K_2,8", "K_2+8K_1"])
def test_twin_classes_branch_once(monkeypatch, edges, packed):
    # a full branch would visit 9!, 2 * 8! and 2 * 8! leaves
    monkeypatch.setattr(satgraph.canon, "_LABELING_GUARD", 100)
    g = Graph(10, edges)
    assert canonical_form(g) == (10, packed)
    rng = random.Random(10)
    for _ in range(5):
        sigma = list(range(10))
        rng.shuffle(sigma)
        assert canonical_form(relabeled(g, sigma)) == (10, packed)


def test_labeling_guard_raises_a_domain_error(monkeypatch):
    monkeypatch.setattr(satgraph.canon, "_LABELING_GUARD", 0)
    with pytest.raises(DomainError):
        canonical_form(decode("Dhc"))


def test_atlas_forms_golden():
    """Pins the canonical choice itself (the witness goldens rest on it):
    the number of forms per n matches the atlas, and the digest of every
    form, in atlas order, is the one recorded for this packing."""
    lines = []
    forms: dict[int, set[int]] = {}
    for h in networkx.graph_atlas_g():
        n, packed = canonical_form(Graph(h.number_of_nodes(), h.edges()))
        lines.append(f"{n} {packed}")
        forms.setdefault(n, set()).add(packed)
    assert [len(forms[n]) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "aeac4b820425ffa10e3517b951d299aedb0c66d0f1ceb4b9289a8a8179b83f10"


def networkx_orbits(h) -> list[list[int]]:
    """The automorphism orbits of a networkx graph: u and v share one iff
    networkx's GraphMatcher maps h onto itself with u marked on one side
    and v on the other."""
    matcher = networkx.algorithms.isomorphism.GraphMatcher

    def maps(u, v):
        a, b = h.copy(), h.copy()
        a.nodes[u]["mark"] = b.nodes[v]["mark"] = True
        return matcher(a, b, node_match=lambda x, y: x.get("mark") == y.get("mark")).is_isomorphic()

    orbits: list[list[int]] = []
    for v in sorted(h):
        home = next((o for o in orbits if h.degree(o[0]) == h.degree(v) and maps(o[0], v)), None)
        if home is None:
            orbits.append([v])
        else:
            home.append(v)
    return orbits


def labelling_orbits(g: Graph) -> list[list[int]]:
    _, _, orbit = _labelling(g.n, g.masks())
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(orbit[v], []).append(v)
    return sorted(groups.values())


# twin pruning skips all but one branch of each class here
BIG = [
    [(0, v) for v in range(1, 10)],                          # K_{1,9}
    [(u, v) for u in range(2) for v in range(2, 10)],        # K_{2,8}
    [(v, (v + d) % 10) for v in range(10) for d in (1, 3, 5)],  # circulant C_10(1,3,5) = K_{5,5}
    [(v, (v + d) % 9) for v in range(9) for d in (1, 2)],    # circulant C_9(1,2)
]


def test_orbits_match_networkx_automorphisms():
    for h in networkx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        assert labelling_orbits(g) == networkx_orbits(h), list(h.edges())
    for edges in BIG:
        g = Graph(max(max(e) for e in edges) + 1, {tuple(sorted(e)) for e in edges})
        assert labelling_orbits(g) == networkx_orbits(networkx.Graph(list(g.edges()))), edges
    assert labelling_orbits(Graph(10, BIG[0])) == [[0], list(range(1, 10))]
    assert labelling_orbits(Graph(10, BIG[1])) == [[0, 1], list(range(2, 10))]


def test_root_partition_bounds_the_last_vertex():
    """The facts canonical deletion rests on: the labeling puts last a
    vertex of the root's last cell, and that cell lies inside the class of
    maximum degree and is a union of orbits.  With each vertex v in turn
    relabelled last, `_verdict` keeps the graph exactly when v shares a
    networkx orbit with the labeling's last vertex, and then gives the
    graph's canonical form."""
    hs = list(networkx.graph_atlas_g())[1:] + [networkx.Graph(edges) for edges in BIG]
    assert len(hs) == 1256
    for h in hs:
        g = Graph(h.number_of_nodes(), h.edges())
        n, masks = g.n, g.masks()
        root = _refine(masks, [list(range(n))], [(1 << n) - 1])
        labeling, packed, orbit = _labelling(n, masks)
        assert _labelling(n, masks, root) == (labeling, packed, orbit)
        last = set(root[-1])
        assert labeling[-1] in last
        top = max(g.degree(v) for v in range(n))
        assert all(g.degree(v) == top for v in last)
        orbits = networkx_orbits(h)
        for o in orbits:
            assert set(o) <= last or not set(o) & last, (list(h.edges()), o)
        home = next(o for o in orbits if labeling[-1] in o)
        for v in range(n):
            sigma = list(range(n))
            sigma[v], sigma[-1] = n - 1, v
            kept = _verdict(relabeled(g, sigma).masks())
            assert kept == (packed if v in home else None), (list(h.edges()), v)
