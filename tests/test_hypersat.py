"""Tests for the cyclic-class hypergraph constructions and greedy completion."""
from __future__ import annotations

import hashlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from satgraph.canon import are_isomorphic
from satgraph.constructions import clique_join_bipartite, complete_bipartite
from satgraph.errors import DomainError
from satgraph.graphs import Graph
from satgraph.hypergraphs import (
    Hypergraph,
    contains_r_clique,
    find_r_clique,
    link_masks,
    to_text,
)
from satgraph.hypersat import (
    CyclicPartition,
    bollobas_extremal,
    extension_class_check,
    greedy_complete,
    has_cyclic_excess,
    saturated_hypergraph,
    sidorenko_base,
)
from satgraph.verify import bollobas_bound, is_r_saturated, non_saturating_r_set

from oracles import (
    brute_find_r_clique,
    brute_greedy_complete,
    brute_non_saturating_r_set,
    brute_r_saturated,
)


def main_type_count(h: Hypergraph, part: CyclicPartition) -> int:
    first = set(part.members(0))
    last = set(part.members(part.r - 1))
    return sum(
        1 for e in h.edges
        if sum(v in first for v in e) == h.r - 1 and sum(v in last for v in e) == 1
    )


def test_cyclic_partition_layout():
    part = CyclicPartition(3, 2, 8)
    assert part.sizes == (4, 2, 2)
    assert [part.class_of(v) for v in range(8)] == [0, 0, 0, 0, 1, 1, 2, 2]
    assert list(part.members(0)) == [0, 1, 2, 3]
    assert list(part.members(1)) == [4, 5]
    assert list(part.members(4)) == [4, 5]
    assert part.counts((0, 1, 4)) == (2, 1, 0)
    assert part.to_json() == {"r": 3, "t": 2, "n": 8, "sizes": [4, 2, 2]}
    assert CyclicPartition(3, 2, 5).sizes == (1, 2, 2)
    with pytest.raises(DomainError):
        CyclicPartition(3, 2, 4)


def test_cyclic_excess_hand_cases():
    part = CyclicPartition(3, 2, 8)
    assert has_cyclic_excess([0, 1, 4], part)
    assert not has_cyclic_excess([0, 4, 6], part)
    assert not has_cyclic_excess([0, 1, 6], part)
    assert has_cyclic_excess([0, 1, 2], part)
    assert has_cyclic_excess([4, 5, 6], part)
    with pytest.raises(DomainError):
        has_cyclic_excess([0, 0, 4], part)
    with pytest.raises(DomainError):
        has_cyclic_excess([0, 1], part)


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.integers(min_value=1, max_value=3),
            st.lists(
                st.integers(min_value=0, max_value=r - 1),
                min_size=r, max_size=r,
            ),
        )
    )
)
def test_cyclic_excess_depends_only_on_rotated_counts(case):
    r, t, classes = case
    part = CyclicPartition(r, t, r * (t + 2))
    picks: list[int] = []
    used: dict[int, int] = {}
    for c in classes:
        idx = used.get(c, 0)
        used[c] = idx + 1
        pool = list(part.members(c))
        if idx >= len(pool):
            return
        picks.append(pool[idx])
    base_answer = has_cyclic_excess(picks, part)
    counts = part.counts(picks)
    for shift in range(r):
        rotated = counts[shift:] + counts[:shift]
        other: list[int] = []
        used.clear()
        for c, cnt in enumerate(rotated):
            pool = list(part.members(c))
            if cnt > len(pool):
                return
            other.extend(pool[:cnt])
        assert has_cyclic_excess(other, part) == base_answer


def test_sidorenko_base_golden():
    h, part = sidorenko_base(3, 2, 8)
    assert h.edge_count() == 34
    assert not contains_r_clique(h, 4)
    assert h.min_codegree(2) == 2
    assert extension_class_check(h, part) == (True, None)
    assert main_type_count(h, part) == 12 == 2 * comb(8 - 4, 2)
    residual = h.edge_count() - main_type_count(h, part)
    assert residual == 22 <= comb(4, 2) * comb(8, 1)
    with pytest.raises(DomainError):
        sidorenko_base(3, 2, 5)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_sidorenko_base_is_the_r_sets_without_cyclic_excess(r):
    for t in (1, 2, 3):
        for n in range(r * t, r * t + 7):
            h, part = sidorenko_base(r, t, n)
            want = [e for e in combinations(range(n), r) if not has_cyclic_excess(e, part)]
            assert list(h.edges) == want


def test_extension_class_check_finds_violations():
    h, part = sidorenko_base(3, 2, 8)
    broken = Hypergraph(h.r, h.n, [e for e in h.edges if e != h.edges[0]])
    ok, witness = extension_class_check(broken, part)
    assert not ok
    assert witness is not None


def test_greedy_complete_on_already_saturated_base():
    h, _ = sidorenko_base(3, 2, 8)
    done = greedy_complete(h, 4)
    assert done == h
    assert is_r_saturated(done, 4)


def test_greedy_complete_from_empty():
    empty = Hypergraph(3, 6)
    done = greedy_complete(empty, 4)
    assert is_r_saturated(done, 4)
    assert not contains_r_clique(done, 4)
    with pytest.raises(DomainError):
        greedy_complete(Hypergraph(3, 5, combinations(range(5), 3)), 4)
    with pytest.raises(DomainError):
        greedy_complete(empty, 3)


def test_completion_is_saturated_under_any_insertion_order():
    h, _ = sidorenko_base(3, 2, 9)
    rng = random.Random(11)
    for _ in range(5):
        edges = set(h.edges)
        candidates = [e for e in combinations(range(h.n), 3) if e not in edges]
        rng.shuffle(candidates)
        for e in candidates:
            probe = Hypergraph(3, h.n, edges | {e})
            if not contains_r_clique(probe, 4):
                edges.add(e)
        done = Hypergraph(3, h.n, edges)
        assert set(h.edges) <= set(done.edges)
        assert is_r_saturated(done, 4)


SATURATED_GOLDENS = [
    (3, 4, 2, 8, 34),
    (3, 4, 2, 10, 62),
    (3, 4, 3, 11, 99),
    (3, 5, 3, 9, 62),
    (4, 5, 2, 10, 135),
]


def test_saturated_hypergraph_goldens():
    for r, p, t, n, edges in SATURATED_GOLDENS:
        h = saturated_hypergraph(r, p, t, n)
        assert h.edge_count() == edges, (r, p, t, n)
        assert not contains_r_clique(h, p)
        assert is_r_saturated(h, p)
        assert h.min_codegree(r - 1) == t
        q = p - r - 1
        universal = set(range(n - q, n))
        for e in combinations(range(n), r):
            if set(e) & universal:
                assert h.has_edge(e)


def test_saturated_hypergraph_bytes_golden():
    points = [
        (3, 4, 2, 8), (3, 4, 2, 10), (3, 4, 3, 11), (3, 5, 3, 9),
        (4, 5, 2, 10), (2, 3, 2, 60), (4, 5, 2, 13), (5, 6, 2, 12),
    ]
    text = "".join(to_text(saturated_hypergraph(*pt)) for pt in points)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "61d429d086923b71455a215b2cc341e7080bfba343c9ed5312fd64378149499c"
    )


def test_greedy_complete_bytes_golden_beyond_r_plus_one():
    base, _ = sidorenko_base(3, 2, 10)
    done = [greedy_complete(base, p) for p in (4, 5, 6)]
    assert [h.edge_count() for h in done] == [62, 83, 98]
    text = "".join(to_text(h) for h in done)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1dd9e6747d72d23fd5bf116bba40f37564abad6276552ad9dfdddbc8e0947249"
    )


@st.composite
def r_graphs(draw):
    """(n, r, edge set) with r in 2..4, n <= 8; sparse, half or dense."""
    r = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=0, max_value=8))
    sets = list(combinations(range(n), r))
    top = (1 << len(sets)) - 1
    a = draw(st.integers(min_value=0, max_value=top))
    b = draw(st.integers(min_value=0, max_value=top))
    mask = draw(st.sampled_from([a & b, a, a | b, a | b | top >> 2]))
    return n, r, {e for i, e in enumerate(sets) if mask >> i & 1}


def _all_but(n, r, missing):
    return {e for e in combinations(range(n), r) if e not in missing}


@settings(max_examples=300, deadline=None)
@given(r_graphs(), st.integers(min_value=0, max_value=3))
@example((7, 3, _all_but(7, 3, {(0, 1, 2), (3, 4, 5)})), 2)
@example((8, 2, _all_but(8, 2, {(0, 1), (2, 3), (4, 5)})), 3)
@example((8, 4, _all_but(8, 4, {(0, 1, 2, 3), (4, 5, 6, 7)})), 3)
def test_hypergraph_kernels_match_brute_force(case, extra):
    # extra >= 2 is where _creates_complete tests subsets of the common link
    n, r, edges = case
    p = r + extra
    h = Hypergraph(r, n, edges)
    clique = brute_find_r_clique(n, r, edges, p)
    assert find_r_clique(h, p) == clique
    if p == r:
        for kernel in (non_saturating_r_set, greedy_complete):
            with pytest.raises(DomainError):
                kernel(h, p)
        return
    assert non_saturating_r_set(h, p) == brute_non_saturating_r_set(n, r, edges, p)
    if clique is not None:
        with pytest.raises(DomainError):
            greedy_complete(h, p)
    else:
        assert set(greedy_complete(h, p).edges) == brute_greedy_complete(n, r, edges, p)


def test_link_masks_are_built_once_and_left_unchanged():
    base, _ = sidorenko_base(3, 2, 10)
    links = base.links()
    assert links == link_masks(base.edges, base.r)
    done = greedy_complete(base, 5)
    assert base.links() is links
    assert links == link_masks(base.edges, base.r)
    assert done.links() == link_masks(done.edges, done.r) != links


def test_saturated_hypergraph_rejects_bad_parameters():
    with pytest.raises(DomainError):
        saturated_hypergraph(3, 3, 2, 10)
    with pytest.raises(DomainError):
        saturated_hypergraph(3, 6, 1, 12)
    with pytest.raises(DomainError):
        saturated_hypergraph(3, 4, 2, 5)


def test_bollobas_extremal():
    h = bollobas_extremal(8, 3, 5)
    assert h.edge_count() == 36 == bollobas_bound(8, 3, 5)
    assert is_r_saturated(h, 5)
    core = set(range(5 - 3))
    for e in combinations(range(8), 3):
        assert h.has_edge(e) == bool(set(e) & core)
    small = bollobas_extremal(6, 3, 4)
    assert small.edge_count() == 10 == bollobas_bound(6, 3, 4)
    assert brute_r_saturated(6, 3, set(small.edges), 4)
    with pytest.raises(DomainError):
        bollobas_extremal(4, 3, 5)


def test_two_uniform_case_matches_graph_constructions():
    h = saturated_hypergraph(2, 4, 3, 10)
    assert are_isomorphic(Graph(10, h.edges), clique_join_bipartite(10, 4, 3))
    base, _ = sidorenko_base(2, 3, 10)
    assert are_isomorphic(Graph(10, base.edges), complete_bipartite(3, 10))
