"""r-uniform hypergraphs: codegrees, complete-subhypergraph search, text I/O.

Clique kernels work on link masks, the hypergraph version of the adjacency
masks in `graphs`: the link of an (r-1)-set S is the bitmask of the vertices
x for which S + {x} is an edge.  A vertex x extends a set whose r-subsets
are all edges exactly when x lies in the link of each of its (r-1)-subsets,
so growing a complete p-set one vertex at a time is one `&` per new
(r-1)-subset.

The text format is "r n m" on the first line, then m lines each holding r
strictly increasing 0-based vertex indices, lines sorted lexicographically.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Optional

from .errors import DomainError, ParseError, _need
from .graphs import iter_bits

__all__ = [
    "Hypergraph",
    "link_masks",
    "creates_complete",
    "contains_r_clique",
    "find_r_clique",
    "to_text",
    "from_text",
]


class Hypergraph:
    """Immutable r-uniform hypergraph (r >= 2) on vertices 0..n-1 (set
    semantics)."""

    __slots__ = ("r", "n", "edges", "_eset", "_links")

    def __init__(self, r: int, n: int, edges: Iterable[Iterable[int]] = ()):
        _need("r", r, 2)
        if n < 0:
            raise DomainError(f"vertex count must be non-negative, got {n}")
        norm = set()
        for e in edges:
            e = tuple(sorted(e))
            if len(e) != r or len(set(e)) != r:
                raise DomainError(f"edge {e} is not a set of {r} distinct vertices")
            if e[0] < 0 or e[-1] >= n:
                raise DomainError(f"edge {e} out of range for n={n}")
            norm.add(e)
        self.r = r
        self.n = n
        self.edges = tuple(sorted(norm))
        self._eset = frozenset(norm)
        self._links: Optional[dict[tuple[int, ...], int]] = None

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self._eset

    def degree(self, subset: Iterable[int]) -> int:
        """Number of edges containing every vertex of `subset`."""
        s = set(subset)
        if len(s) > self.r:
            return 0
        return sum(1 for e in self.edges if s.issubset(e))

    def min_codegree(self, s: int) -> int:
        """Minimum, over all s-subsets of the vertices, of the number of
        edges containing the subset.  Requires 1 <= s <= r-1 and n >= s."""
        if not 1 <= s <= self.r - 1:
            raise DomainError(f"codegree order must be in 1..{self.r - 1}, got {s}")
        if self.n < s:
            raise DomainError(f"need at least {s} vertices, have {self.n}")
        counts: Counter[tuple[int, ...]] = Counter()
        for e in self.edges:
            for sub in combinations(e, s):
                counts[sub] += 1
        return min(counts[sub] for sub in combinations(range(self.n), s))

    def links(self) -> dict[tuple[int, ...], int]:
        """`link_masks` of the edges, built on first use; do not mutate."""
        if self._links is None:
            self._links = link_masks(self.edges, self.r)
        return self._links

    def with_edge(self, e: Iterable[int]) -> Hypergraph:
        return Hypergraph(self.r, self.n, self.edges + (tuple(sorted(e)),))

    def non_edges(self):
        """All r-sets absent from the edge set, in lexicographic order."""
        for cand in combinations(range(self.n), self.r):
            if cand not in self._eset:
                yield cand

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.r, self.n, self.edges) == (other.r, other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(r={self.r}, n={self.n}, m={len(self.edges)})"


def link_masks(edges: Iterable[tuple[int, ...]], r: int) -> dict[tuple[int, ...], int]:
    """Map each sorted (r-1)-tuple S to its link: the mask of the vertices
    x for which S + {x} is an edge.  Edges must be sorted r-tuples;
    (r-1)-sets in no edge are absent."""
    links: dict[tuple[int, ...], int] = {}
    for e in edges:
        for i in range(r):
            s = e[:i] + e[i + 1:]
            links[s] = links.get(s, 0) | 1 << e[i]
    return links


def creates_complete(
    r: int, eset: set | frozenset, links: dict, cand: tuple[int, ...], p: int
) -> bool:
    """Would adding the absent r-set `cand` complete some p-set?

    Filter, then check.  Each extra vertex x of a p-set that `cand`
    completes makes S + {x} an edge for every (r-1)-subset S of `cand`, so
    x lies in `common`, the AND of those r links (`links` as built by
    `link_masks` from the edge set `eset`).  An empty `common` settles it
    at once; otherwise only the (p-r)-subsets of `common` need the full
    test that every other r-subset of the p-set is an edge.
    """
    common = -1
    for i in range(r):
        common &= links.get(cand[:i] + cand[i + 1:], 0)
        if not common:
            return False
    if p == r + 1:
        return True  # the S + {x} are all the other r-subsets
    for extra in combinations(iter_bits(common), p - r):
        s = tuple(sorted(cand + extra))
        if all(sub == cand or sub in eset for sub in combinations(s, r)):
            return True
    return False


def find_r_clique(h: Hypergraph, p: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least p-set whose every r-subset is an edge, or None.

    DFS over increasing vertices.  `cand` holds the vertices above the last
    chosen one that lie in the link of every (r-1)-subset chosen so far;
    choosing v ANDs in the links of the new (r-1)-subsets, those ending in v.
    The first p-set reached is the least, since DFS order is lexicographic.
    """
    r = h.r
    if p < r:
        raise DomainError(f"clique order must be >= r={r}, got {p}")
    links = h.links()

    def rec(chosen: tuple[int, ...], cand: int, need: int) -> Optional[tuple[int, ...]]:
        while cand and cand.bit_count() >= need:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            grown = chosen + (v,)
            if need == 1:
                return grown
            # cand holds only vertices above v, so every key stays sorted
            nxt = cand
            for sub in combinations(chosen, r - 2):
                nxt &= links.get(sub + (v,), 0)
                if not nxt:
                    break
            found = rec(grown, nxt, need - 1)
            if found is not None:
                return found
        return None

    return rec((), (1 << h.n) - 1, p)


def contains_r_clique(h: Hypergraph, p: int) -> bool:
    """True iff every r-subset of some p-set is an edge."""
    return find_r_clique(h, p) is not None


def to_text(h: Hypergraph) -> str:
    """Serialize to the "r n m" + sorted edge lines format."""
    lines = [f"{h.r} {h.n} {len(h.edges)}"]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    """Parse the "r n m" + edge lines format, validating strictly."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty hypergraph input")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"header must be 'r n m', got {lines[0]!r}")
    try:
        r, n, m = (int(x) for x in head)
    except ValueError as exc:
        raise ParseError(f"non-integer header field in {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            e = tuple(int(x) for x in ln.split())
        except ValueError as exc:
            raise ParseError(f"non-integer vertex in edge line {ln!r}") from exc
        if len(e) != r:
            raise ParseError(f"edge line {ln!r} has {len(e)} vertices, expected {r}")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise ParseError(f"edge line {ln!r} not strictly increasing")
        edges.append(e)
    if edges != sorted(edges):
        raise ParseError("edge lines not in lexicographic order")
    if len(set(edges)) != len(edges):
        raise ParseError("duplicate edge lines")
    try:
        return Hypergraph(r, n, edges)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
