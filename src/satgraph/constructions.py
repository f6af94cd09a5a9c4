"""Constructions of clique-saturated graphs with prescribed minimum degree.

Each builder returns a graph with a fixed, documented vertex layout so that
encodings are reproducible run to run.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from math import comb

from .errors import DomainError, _check_p, _need
from .graphs import Graph

__all__ = [
    "ehm_extremal",
    "complete_bipartite",
    "clique_join_bipartite",
    "duffus_hanson_t2",
    "petersen",
    "split_family",
    "SplitFamilyLayout",
    "duplicate_vertex",
    "cone",
    "f_graph",
    "semi_sat",
]


def ehm_extremal(n: int, p: int) -> Graph:
    """K_{p-2} joined to an independent set: the minimum K_p-saturated graph.

    Vertices 0..p-3 form the clique; the rest are independent.  Edge count
    is n(p-2) - C(p-1,2).  Requires p >= 3 and n >= p-1.
    """
    _check_p(p)
    if n < p - 1:
        raise DomainError(f"need n >= {p - 1} for p={p}, got {n}")
    q = p - 2
    edges = [(u, v) for u, v in combinations(range(q), 2)]
    edges += [(u, v) for u in range(q) for v in range(q, n)]
    return Graph(n, edges)


def complete_bipartite(t: int, n: int) -> Graph:
    """K_{t,n-t} with sides 0..t-1 and t..n-1.

    Triangle-saturated with minimum degree t; shows the smallest such graph
    has at most tn - t^2 edges.  Requires 1 <= t and n >= 2t.
    """
    _need("t", t, 1)
    if n < 2 * t:
        raise DomainError(f"need n >= 2t = {2 * t}, got {n}")
    edges = [(u, v) for u in range(t) for v in range(t, n)]
    return Graph(n, edges)


def clique_join_bipartite(n: int, p: int, t: int) -> Graph:
    """K_{p-3} joined to K_{t-(p-3), n-t}: K_p-saturated with delta = t.

    Layout: clique 0..p-4, small side p-3..t-1, large side t..n-1.  Edge
    count is tn - t^2 + t(p-3) - C(p-2,2).  Requires t >= p-2 >= 1 and
    n >= 2t - (p-3).
    """
    _check_p(p)
    if t < p - 2:
        raise DomainError(f"need t >= p-2 = {p - 2}, got {t}")
    if n < 2 * t - (p - 3):
        raise DomainError(f"need n >= {2 * t - (p - 3)}, got {n}")
    q = p - 3
    edges = list(combinations(range(q), 2))
    edges += [(u, v) for u in range(q) for v in range(q, n)]
    edges += [(u, v) for u in range(q, t) for v in range(t, n)]
    return Graph(n, edges)


def duffus_hanson_t2(n: int) -> Graph:
    """The unique minimum triangle-saturated graph with delta = 2: a 5-cycle
    with one vertex blown up to an independent set.  2n - 5 edges.  n >= 5.

    By definition: start from the 5-cycle 0..4 and repeatedly duplicate the
    least degree-2 vertex.  Vertex 0 keeps degree 2 (its copies join only 1
    and 4), so it is that vertex every time: the 5-cycle plus copies 5..n-1.
    """
    if n < 5:
        raise DomainError(f"need n >= 5, got {n}")
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    return Graph(n, cycle + [(u, v) for v in range(5, n) for u in (1, 4)])


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


@dataclass(frozen=True)
class SplitFamilyLayout:
    """Where each structural class of `split_family` landed.

    splits[i] is the i-th half-size hub subset X_i (always containing 0);
    left[i] / right[i] are the vertex runs attached to X_i and to its
    complement; bulk is the remainder, attached to the whole hub.
    """

    t: int
    n: int
    hub: tuple[int, ...]
    splits: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    bulk: tuple[int, ...]

    def to_json(self) -> dict:
        return asdict(self)


def split_family(t: int, n: int) -> tuple[Graph, SplitFamilyLayout]:
    """Triangle-saturated graph with delta = t on fewer edges than K_{t,n-t}.

    The hub 0..t-1 carries one gadget per half-size hub subset X containing
    vertex 0: a run of floor(t/2) vertices joined to X, a run of ceil(t/2)
    vertices joined to the complement of X, and all edges between the two
    runs.  Remaining vertices are joined to the whole hub.  Edge count is
    t*|bulk| + r*(ceil(t^2/2) + floor(t^2/4)) where r = C(t-1, floor(t/2)-1).
    Requires t >= 4 and n >= t + floor(t/2)*C(t, floor(t/2)).
    """
    if t < 4:
        raise DomainError(f"need t >= 4, got {t}")
    half = t // 2
    n_min = t + half * comb(t, half)
    if n < n_min:
        raise DomainError(f"need n >= {n_min} for t={t}, got {n}")
    splits = tuple((0,) + rest for rest in combinations(range(1, t), half - 1))
    hub = tuple(range(t))
    edges: list[tuple[int, int]] = []
    left: list[tuple[int, ...]] = []
    right: list[tuple[int, ...]] = []
    next_v = t
    for x in splits:
        y = tuple(sorted(set(hub) - set(x)))
        vi = tuple(range(next_v, next_v + half))
        next_v += half
        wi = tuple(range(next_v, next_v + (t - half)))
        next_v += t - half
        left.append(vi)
        right.append(wi)
        edges += [(k, v) for k in x for v in vi]
        edges += [(k, w) for k in y for w in wi]
        edges += [(v, w) for v in vi for w in wi]
    bulk = tuple(range(next_v, n))
    edges += [(k, c) for k in hub for c in bulk]
    g = Graph(n, edges)
    layout = SplitFamilyLayout(t, n, hub, splits, tuple(left), tuple(right), bulk)
    return g, layout


def duplicate_vertex(g: Graph, v: int) -> Graph:
    """Add a new vertex with the same neighbourhood as v (not adjacent to v).

    Preserves K_p-saturation for every p.
    """
    if not 0 <= v < g.n:
        raise DomainError(f"vertex {v} out of range for n={g.n}")
    edges = list(g.edges())
    edges += [(u, g.n) for u in sorted(g.neighbors(v))]
    return Graph(g.n + 1, edges)


def cone(g: Graph) -> Graph:
    """Join one new universal vertex to g.

    Maps K_p-saturated with delta >= t to K_{p+1}-saturated with delta >= t+1.
    """
    edges = list(g.edges())
    edges += [(u, g.n) for u in range(g.n)]
    return Graph(g.n + 1, edges)


def f_graph(m: int, s: int) -> Graph:
    """A graph on m vertices with ceil(ms/2) edges and minimum degree
    exactly s (one vertex of degree s+1 when m and s are both odd).

    Circulant: vertex i is adjacent to i +- 1..floor(s/2) (mod m); for odd s
    and even m the diameter matching i <-> i + m/2 is added; for odd s and
    odd m a near-perfect matching of long chords is added instead, doubling
    up on one vertex.  Requires m > s >= 0.
    """
    _need("t", s, 0)
    if m <= s:
        raise DomainError(f"need m > s, got m={m}, s={s}")
    edges = []
    for d in range(1, s // 2 + 1):
        edges += [(i, (i + d) % m) for i in range(m)]
    if s % 2 == 1:
        if m % 2 == 0:
            edges += [(i, i + m // 2) for i in range(m // 2)]
        else:
            c = (m - 1) // 2
            edges += [(i, (i + c) % m) for i in range(c + 1)]
    return Graph(m, [(min(u, v), max(u, v)) for u, v in edges])


def semi_sat(n: int, p: int, t: int) -> Graph:
    """K_{p-2} joined to an (n-p+2)-vertex graph of minimum degree t-p+2:
    K_p-semi-saturated with delta = t and
    ceil((t+p-2)(n-p+2)/2) + C(p-2,2) edges.

    Layout: clique 0..p-3, then the circulant layer.  Requires
    t >= p-2 >= 1 and n >= t+1.
    """
    _check_p(p)
    if t < p - 2:
        raise DomainError(f"need t >= p-2 = {p - 2}, got {t}")
    if n < t + 1:
        raise DomainError(f"need n >= t+1 = {t + 1}, got {n}")
    q = p - 2
    inner = f_graph(n - q, t - q)
    edges = list(combinations(range(q), 2))
    edges += [(u, q + v) for u in range(q) for v in range(inner.n)]
    edges += [(q + u, q + v) for u, v in inner.edges()]
    return Graph(n, edges)
