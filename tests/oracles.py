"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is deliberately naive: cliques are found by scanning all
vertex subsets, saturation is checked straight from its definition, optimal
edge counts come from scanning every graph on n vertices, and isomorphism
is decided by trying every permutation.  None of it shares code with the
package beyond reading adjacency masks, so agreement is meaningful.
"""
from __future__ import annotations

from itertools import combinations, permutations

from satgraph.graphs import Graph


def brute_has_clique(g: Graph, k: int) -> bool:
    """Scan all k-subsets for a clique."""
    if k <= 0:
        return True
    if k == 1:
        return g.n >= 1
    return any(
        all(g.has_edge(u, v) for u, v in combinations(sub, 2))
        for sub in combinations(range(g.n), k)
    )


def brute_is_saturated(g: Graph, p: int) -> bool:
    """Definitional check: no K_p, and adding any missing edge creates one
    (vacuously true for a complete K_p-free graph)."""
    if brute_has_clique(g, p):
        return False
    return all(
        brute_has_clique(g.with_edge(u, v), p)
        for u, v in combinations(range(g.n), 2)
        if not g.has_edge(u, v)
    )


def brute_is_semi_saturated(g: Graph, p: int) -> bool:
    """Adding any missing edge creates a K_p through that edge."""
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v):
            continue
        common = g.adj_mask(u) & g.adj_mask(v)
        members = [w for w in range(g.n) if common >> w & 1]
        if not any(
            all(g.has_edge(a, b) for a, b in combinations(sub, 2))
            for sub in combinations(members, p - 2)
        ):
            return False
    return True


def brute_non_saturating_pair(g: Graph, p: int):
    """First non-edge (u, v) in lexicographic order with no (p-2)-subset of
    the common neighbourhood that is a clique, or None."""
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v):
            continue
        common = [w for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w)]
        if not any(
            all(g.has_edge(a, b) for a, b in combinations(sub, 2))
            for sub in combinations(common, p - 2)
        ):
            return (u, v)
    return None


def all_graphs(n: int):
    """Yield every labeled graph on n vertices, one per pair bitmask."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])


def brute_optimum(n: int, p: int, t: int, mode: str = "sat"):
    """Minimum edge count over every graph on n vertices meeting the mode's
    degree and saturation conditions, or None if no graph qualifies.
    Modes mirror the search: "sat" (min degree >= t), "sat-exact"
    (min degree == t), "semi" (semi-saturated, min degree >= t)."""
    best = None
    for g in all_graphs(n):
        if best is not None and g.edge_count() >= best:
            continue
        if g.min_degree() < t:
            continue
        if mode == "sat-exact" and g.min_degree() != t:
            continue
        ok = brute_is_semi_saturated(g, p) if mode == "semi" else brute_is_saturated(g, p)
        if ok:
            best = g.edge_count()
    return best


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Try every vertex permutation."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    am = a.masks()
    bm = b.masks()
    for perm in permutations(range(a.n)):
        if all(
            sum(1 << perm[u] for u in range(a.n) if am[v] >> u & 1) == bm[perm[v]]
            for v in range(a.n)
        ):
            return True
    return False


def brute_hyperclique(edges: set[tuple[int, ...]], r: int, vertices, k: int) -> bool:
    """Scan all k-subsets of the vertex pool for a complete r-graph."""
    verts = list(vertices)
    return any(
        all(tuple(sorted(e)) in edges for e in combinations(sub, r))
        for sub in combinations(verts, k)
    )


def brute_r_saturated(n: int, r: int, edges: set[tuple[int, ...]], p: int) -> bool:
    """Definitional hypergraph saturation: K_p^(r)-free, and adding any
    missing r-set creates a complete r-graph on p vertices."""
    if brute_hyperclique(edges, r, range(n), p):
        return False
    missing = [
        tuple(e) for e in combinations(range(n), r) if tuple(e) not in edges
    ]
    if not missing:
        return False
    for e in missing:
        if not brute_hyperclique(edges | {e}, r, range(n), p):
            return False
    return True


def brute_find_r_clique(n: int, r: int, edges: set[tuple[int, ...]], p: int):
    """First p-set in lexicographic order whose every r-subset is an edge,
    or None."""
    for sub in combinations(range(n), p):
        if all(e in edges for e in combinations(sub, r)):
            return sub
    return None


def _brute_completes(n: int, r: int, edges: set[tuple[int, ...]], cand, p: int) -> bool:
    """Is there a p-set containing `cand` whose other r-subsets are all edges?"""
    return any(
        set(cand) <= set(sub)
        and all(e == cand or e in edges for e in combinations(sub, r))
        for sub in combinations(range(n), p)
    )


def brute_non_saturating_r_set(n: int, r: int, edges: set[tuple[int, ...]], p: int):
    """First absent r-set in lexicographic order whose addition completes
    no p-set, or None."""
    for cand in combinations(range(n), r):
        if cand not in edges and not _brute_completes(n, r, edges, cand, p):
            return cand
    return None


def brute_greedy_complete(n: int, r: int, edges: set[tuple[int, ...]], p: int):
    """Add the absent r-sets in lexicographic order, each unless it would
    complete a p-set; return the final edge set."""
    done = set(edges)
    for cand in combinations(range(n), r):
        if cand not in done and not _brute_completes(n, r, done, cand, p):
            done.add(cand)
    return done
