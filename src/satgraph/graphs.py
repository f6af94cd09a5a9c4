"""Core immutable graph type and clique primitives.

Vertices are always the integers 0..n-1.  Adjacency is one Python int
bitmask per vertex, so neighbourhood intersection (the inner loop of every
clique and saturation check) is a single ``&``.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError

__all__ = [
    "Graph",
    "iter_bits",
    "mask_of",
    "contains_clique",
    "find_clique",
    "find_clique_in_mask",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    # _g6: the line `graph6.decode` read, if `graph6.encode` writes it; else None
    __slots__ = ("n", "_adj", "_g6")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise DomainError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._g6 = None

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[int]) -> Graph:
        """Build from per-vertex adjacency bitmasks, validating shape."""
        if n < 0:
            raise DomainError(f"vertex count must be non-negative, got {n}")
        if len(masks) != n:
            raise DomainError(f"expected {n} masks, got {len(masks)}")
        full = (1 << n) - 1
        for v, m in enumerate(masks):
            if m < 0 or m & ~full:
                raise DomainError(f"mask of vertex {v} references vertices >= {n}")
            if m & (1 << v):
                raise DomainError(f"loop at vertex {v} not allowed")
            for u in iter_bits(m):
                if not masks[u] & (1 << v):
                    raise DomainError(f"adjacency not symmetric at ({u},{v})")
        return cls._unchecked(n, masks)

    @classmethod
    def _unchecked(cls, n: int, masks: Sequence[int], g6: Optional[str] = None) -> Graph:
        """`from_masks` for masks in range, loop-free and symmetric by construction."""
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        g._g6 = g6
        return g

    # -- structure ---------------------------------------------------------

    def adj_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def masks(self) -> tuple[int, ...]:
        """The full adjacency mask tuple (index = vertex)."""
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self.adj_mask(v)))

    def degree(self, v: int) -> int:
        return self.adj_mask(v).bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise DomainError("min_degree undefined for the empty graph")
        return min(map(int.bit_count, self._adj))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        return bool(self.adj_mask(v) >> u & 1)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in iter_bits(self._adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """All non-adjacent pairs (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self._adj[u] >> v & 1:
                    yield (u, v)

    # -- value semantics ---------------------------------------------------

    def with_edge(self, u: int, v: int) -> Graph:
        """A copy with edge (u, v) added; idempotent if already present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise DomainError(f"loop at vertex {u} not allowed")
        adj = list(self._adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._unchecked(self.n, adj)

    def without_edge(self, u: int, v: int) -> Graph:
        """A copy with edge (u, v) removed; idempotent if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        adj = list(self._adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph._unchecked(self.n, adj)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def find_clique_in_mask(adj: Sequence[int], cand: int, k: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least k-clique within the candidate mask, or None.

    `adj` is indexed by vertex; candidates are restricted to increasing
    vertex order, so the first clique the DFS completes is the lex-least.
    k <= 0 is the empty clique.
    """
    if k <= 0:
        return ()
    if k == 3:  # triangles, the p = 3 case, by mask loops in the same order
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            mid = cand & adj[u]
            while mid:
                low = mid & -mid
                mid ^= low
                v = low.bit_length() - 1
                top = mid & adj[v]
                if top:
                    return (u, v, (top & -top).bit_length() - 1)
        return None
    out: list[int] = []

    def rec(m: int, k: int) -> bool:
        if m.bit_count() < k:
            return False
        while m:
            low = m & -m
            v = low.bit_length() - 1
            out.append(v)
            m ^= low  # now the candidates above v
            if k == 1 or rec(m & adj[v], k - 1):
                return True
            out.pop()
        return False

    if rec(cand, k):
        return tuple(out)
    return None


def find_clique(g: Graph, p: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least clique on p vertices, or None."""
    if p < 1:
        raise DomainError(f"clique size must be >= 1, got {p}")
    return find_clique_in_mask(g.masks(), (1 << g.n) - 1, p)


def contains_clique(g: Graph, p: int) -> bool:
    """True iff g contains a clique on p vertices."""
    return find_clique(g, p) is not None
