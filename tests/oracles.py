"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is deliberately naive: cliques are found by scanning all
vertex subsets, saturation is checked straight from its definition, optimal
edge counts come from scanning every graph on n vertices, isomorphism is
decided by trying every permutation, and closure certificates are re-derived
step by step from the definitions of closure, weight and trace (their
saturation check uses a plain take-or-drop clique branching, since those
graphs reach a few hundred vertices).  The search is judged against the
graph atlas, and one vertex past it, and its saturation debt against
the definition.  None of it shares code with the package beyond reading
adjacency masks (and decoding a certificate's graph6 string), so
agreement is meaningful.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional

from satgraph.errors import Graph6Error
from satgraph.graph6 import decode
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


def brute_find_clique(g: Graph, k: int, vertices=None):
    """The first k-subset of `vertices` (default all) that is a clique, or
    None.  `combinations` yields sorted subsets in lexicographic order, so
    it is the lexicographically least clique."""
    for sub in combinations(sorted(range(g.n) if vertices is None else vertices), k):
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            return sub
    return None


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


def _mask_has_clique(adj, cand: int, k: int) -> bool:
    """Does the vertex set `cand` (a bitmask) contain a k-clique?  Branches
    on the highest vertex: take it (and keep its neighbours) or drop it."""
    if k <= 0:
        return True
    while cand.bit_count() >= k:
        v = cand.bit_length() - 1
        cand &= ~(1 << v)
        if _mask_has_clique(adj, cand & adj[v], k - 1):
            return True
    return False


@lru_cache(maxsize=64)
def clique_saturated(g: Graph, p: int) -> bool:
    """Definitional K_p-saturation, fast enough for a few hundred vertices:
    no p-clique, and every non-edge uv has a (p-2)-clique in N(u) & N(v)."""
    adj = g.masks()
    if p < 2 or _mask_has_clique(adj, (1 << g.n) - 1, p):
        return False
    return all(
        _mask_has_clique(adj, adj[u] & adj[v], p - 2)
        for u, v in combinations(range(g.n), 2)
        if not adj[u] >> v & 1
    )


def certificate_problem(data: dict, g: Graph) -> Optional[str]:
    """Judge a closure certificate, given as its JSON object, against the
    graph `g` it should name, from the definitions alone.  Returns the first
    check that fails, or None when the certificate holds.

    For every step it recomputes, from r_before: the closure Rbar (absorb
    any vertex with >= t neighbours inside until none is left), Y = V -
    Rbar, the bad set {y in Y : deg_Rbar(y) + deg_Y(y)/2 < t}, the maximal
    traces N(y) & R over bad y, the least bad vertex with each trace, each
    representative's least Y-neighbour x, and r_after = R | xs | (N(xs) &
    Rbar).  It then checks that the final seed leaves no bad vertex, and
    the bound t(n - |R*|) against the edge count.  `verified` is not read.
    """
    data = json.loads(json.dumps(data))  # tuples, as `to_json` leaves them, to lists
    try:
        if decode(data["graph6"]) != g:
            return "graph6 does not name the graph"
    except (Graph6Error, TypeError):
        return "graph6 does not decode"
    p, t = data["p"], data["t"]
    ints = [p, t, data["iterations"], data["bound"], data["edges"]]
    if not isinstance(data["r0"], list) or not all(type(x) is int for x in ints + data["r0"]):
        return "a field has the wrong type"
    if t < 1 or any(len(g.neighbors(v)) < t for v in range(g.n)):
        return "minimum degree below t"
    if not clique_saturated(g, p):
        return "graph is not K_p-saturated"
    nbrs = [g.neighbors(v) for v in range(g.n)]

    def split(r):
        """(Rbar, Y, bad) for the seed r."""
        rbar = set(r)
        while True:
            pulled = {v for v in range(g.n) if v not in rbar and len(nbrs[v] & rbar) >= t}
            if not pulled:
                break
            rbar |= pulled
        y = set(range(g.n)) - rbar
        weight = {v: len(nbrs[v] & rbar) + Fraction(len(nbrs[v] & y), 2) for v in y}
        return rbar, y, sorted(v for v in y if weight[v] < t)

    r = set(data["r0"])
    if not r or not r <= set(range(g.n)):
        return "r0 is empty or out of range"
    for i, step in enumerate(data["steps"]):
        rbar, y, bad = split(r)
        if step["r_before"] != sorted(r):
            return f"step {i}: r_before"
        if not bad or step["bad"] != bad:
            return f"step {i}: bad set"
        trace = {v: nbrs[v] & r for v in bad}
        family = set(trace.values())
        maximal = sorted((sorted(a) for a in family if not any(a < b for b in family)))
        if step["traces"] != maximal:
            return f"step {i}: traces"
        reps = [min(v for v in bad if trace[v] == set(a)) for a in maximal]
        if step["reps"] != reps:
            return f"step {i}: reps"
        if any(not nbrs[v] & y for v in reps):
            return f"step {i}: a representative has no Y-neighbour"
        xs = [min(nbrs[v] & y) for v in reps]
        if step["xs"] != xs:
            return f"step {i}: xs"
        r = r | set(xs) | {u for x in xs for u in nbrs[x] & rbar}
        if step["r_after"] != sorted(r):
            return f"step {i}: r_after"
    if split(r)[2]:
        return "the final seed leaves a bad vertex"
    if data["r_star"] != sorted(r) or data["iterations"] != len(data["steps"]):
        return "r_star or iterations"
    edges = sum(len(a) for a in nbrs) // 2
    if data["bound"] != t * (g.n - len(r)) or data["edges"] != edges or edges < data["bound"]:
        return "bound or edge count"
    return None


def _holds_clique(nbrs, vertices, k: int) -> bool:
    """Do the given vertices include k pairwise adjacent ones?"""
    return any(all(b in nbrs[a] for a, b in combinations(sub, 2))
               for sub in combinations(sorted(vertices), k))


def atlas_saturation_optima(max_n: int = 7) -> dict:
    """Read the optima off networkx's graph atlas, which lists every graph
    on at most 7 vertices once per isomorphism class.

    For each point (n, p, t, mode) with 3 <= p <= n <= max_n and 0 <= t < n
    returns (least edge count, the atlas graphs attaining it), or (None, [])
    when no graph qualifies.  Modes as in `brute_optimum`.  Works on the
    networkx graphs alone: no code from the package is used."""
    import networkx

    table: dict = {}
    for g in networkx.graph_atlas_g():
        n = g.number_of_nodes()
        if not 3 <= n <= max_n:
            continue
        nbrs = [set(g[v]) for v in range(n)]
        delta = min(len(a) for a in nbrs)
        for p in range(3, n + 1):
            # every non-edge would complete a K_p; the graph holds none
            closes = all(_holds_clique(nbrs, nbrs[u] & nbrs[v], p - 2)
                         for u, v in combinations(range(n), 2) if v not in nbrs[u])
            free = not _holds_clique(nbrs, range(n), p)
            for t in range(n):
                meets = {"sat": free and closes and delta >= t,
                         "sat-exact": free and closes and delta == t,
                         "semi": closes and delta >= t}
                for mode, ok in meets.items():
                    value, graphs = table.get((n, p, t, mode), (None, []))
                    m = g.number_of_edges()
                    if ok and (value is None or m < value):
                        value, graphs = m, []
                    if ok and m == value:
                        graphs.append(g)
                    table[(n, p, t, mode)] = (value, graphs)
    return table


def saturation_debt(n: int, p: int, t: int, edges, k: int):
    """What a search node owes, from the definitions.

    The node has decided every pair inside 0..k-1 and some pairs (j, k);
    `edges` are the pairs (a, b), a < b, it has taken.  A prefix vertex
    owes when it lies in a non-adjacent pair {u, v} of 0..k-1 whose common
    neighbourhood, inside 0..k-1, holds no K_{p-2}, and has no edge yet to
    a vertex >= k: only a later vertex can close that pair.  Returns
    (need, owes): need[v] = max(t - deg v, [v owes]) for every vertex, a
    lower bound on the edges v still gains in any completion that is
    saturated with minimum degree >= t, and the set of owing vertices.
    """
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    inside = frozenset((a, b) for a, b in edges if b < k)
    owes = {v for v in _unclosed(p, k, inside) if max(nbrs[v], default=0) < k}
    need = [max(t - len(nbrs[v]), int(v in owes)) for v in range(n)]
    return need, owes


@lru_cache(maxsize=None)
def _unclosed(p: int, k: int, edges: frozenset) -> frozenset:
    """The vertices of the graph on 0..k-1 with these edges that lie in a
    non-adjacent pair whose common neighbourhood holds no K_{p-2}."""
    nbrs = [set() for _ in range(k)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    ends = set()
    for u, v in combinations(range(k), 2):
        if v not in nbrs[u] and not _holds_clique(nbrs, nbrs[u] & nbrs[v], p - 2):
            ends |= {u, v}
    return frozenset(ends)


def extended_atlas_optima() -> dict:
    """Optima at every 8-vertex point, one vertex past the graph atlas.

    Every graph on 8 vertices, less any one vertex, is a 7-vertex graph,
    so it is isomorphic to some 7-vertex atlas graph plus a vertex with
    one of the 128 neighbourhoods: every class is met, most of them more
    than once.  For each point (8, p, t, mode) with 3 <= p <= 8 and
    0 <= t <= 7 returns (least edge count, one networkx graph per class
    attaining it), or (None, []) when no graph qualifies.  Modes as in
    `brute_optimum`.  networkx supplies the atlas and groups the attaining
    graphs into classes (`is_isomorphic`); the rest works on plain
    adjacency masks.
    """
    import networkx

    n = 8
    table: dict = {}
    for base in networkx.graph_atlas_g():
        if base.number_of_nodes() != n - 1:
            continue
        masks = [sum(1 << u for u in base[v]) for v in range(n - 1)]
        m0 = base.number_of_edges()
        for hood in range(1 << (n - 1)):
            adj = [a | (hood >> v & 1) << (n - 1) for v, a in enumerate(masks)] + [hood]
            shared = [adj[u] & adj[v] for u, v in combinations(range(n), 2)
                      if not adj[u] >> v & 1]
            if not all(shared):
                continue  # a non-adjacent pair with no common neighbour
            # the largest s with a K_s common to every non-adjacent pair
            common = 1
            while common < n - 2 and all(_mask_has_clique(adj, c, common + 1) for c in shared):
                common += 1
            edges = m0 + hood.bit_count()
            delta = min(a.bit_count() for a in adj)
            for p in range(3, common + 3):
                free = not _mask_has_clique(adj, (1 << n) - 1, p)
                for t in range(delta + 1):
                    for mode, ok in (("sat", free), ("sat-exact", free and t == delta),
                                     ("semi", True)):
                        if not ok:
                            continue
                        best = table.get((n, p, t, mode))
                        if best is None or edges < best[0]:
                            table[n, p, t, mode] = best = (edges, set())
                        if edges == best[0]:
                            best[1].add(tuple(adj))
    # each labelled graph joins the class of the first isomorphic one met;
    # graphs with different sorted degree sequences are never compared
    reps: dict = {}
    classes: dict = {}

    def class_of(adj):
        if adj not in classes:
            g = networkx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from((u, v) for u in range(n) for v in range(u) if adj[u] >> v & 1)
            bucket = reps.setdefault(tuple(sorted(a.bit_count() for a in adj)), [])
            for h in bucket:
                if networkx.is_isomorphic(g, h):
                    classes[adj] = h
                    break
            else:
                bucket.append(g)
                classes[adj] = g
        return classes[adj]

    out = {}
    for p in range(3, n + 1):
        for t in range(n):
            for mode in ("sat", "sat-exact", "semi"):
                value, graphs = table.get((n, p, t, mode), (None, ()))
                found = {id(g): g for g in map(class_of, sorted(graphs))}
                out[n, p, t, mode] = (value, list(found.values()))
    return out
