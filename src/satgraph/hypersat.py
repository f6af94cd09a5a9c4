"""Saturated r-uniform hypergraphs with a prescribed minimum codegree.

The route to a K_p^r-saturated hypergraph whose (r-1)-sets all lie in at
least t edges: build a base on a cyclic class partition whose edges are
the r-sets without a cyclic excess run, greedily complete it to
K_{r+1}^r-saturation, then join p-(r+1) universal vertices.  The
classical few-edges saturated hypergraph (all r-sets meeting a fixed
(p-r)-set) is here too for comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import DomainError, _check_p, _need
from .hypergraphs import Hypergraph, contains_r_clique, creates_complete, link_masks

__all__ = [
    "CyclicPartition",
    "has_cyclic_excess",
    "sidorenko_base",
    "extension_class_check",
    "greedy_complete",
    "saturated_hypergraph",
    "bollobas_extremal",
]


@dataclass(frozen=True)
class CyclicPartition:
    """Ground set [0, n) cut into r contiguous classes: the first of size
    n - t(r-1), the remaining r-1 of size t each.  Class indices are
    0-based and wrap cyclically."""

    r: int
    t: int
    n: int

    def __post_init__(self):
        _need("r", self.r, 2)
        _need("t", self.t, 1)
        if self.n - self.t * (self.r - 1) < 1:
            raise DomainError(
                f"first class would be empty: n={self.n}, t={self.t}, r={self.r}"
            )

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.n - self.t * (self.r - 1),) + (self.t,) * (self.r - 1)

    def class_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range [0, {self.n})")
        first = self.n - self.t * (self.r - 1)
        if v < first:
            return 0
        return 1 + (v - first) // self.t

    def members(self, i: int) -> range:
        i %= self.r
        first = self.n - self.t * (self.r - 1)
        if i == 0:
            return range(first)
        return range(first + (i - 1) * self.t, first + i * self.t)

    def counts(self, vertices: Iterable[int]) -> tuple[int, ...]:
        c = [0] * self.r
        for v in vertices:
            c[self.class_of(v)] += 1
        return tuple(c)

    def to_json(self) -> dict:
        return {"r": self.r, "t": self.t, "n": self.n, "sizes": list(self.sizes)}


def has_cyclic_excess(vertices: Iterable[int], part: CyclicPartition) -> bool:
    """True iff some cyclic run of classes is overfull at every prefix:
    there is a start j such that classes j..j+s-1 together hold at least
    s+1 of the given r vertices, for every s = 1..r-1."""
    members = tuple(vertices)
    if len(set(members)) != part.r:
        raise DomainError(f"need {part.r} distinct vertices, got {sorted(members)}")
    c = part.counts(members)
    r = part.r
    for j in range(r):
        acc = 0
        for s in range(1, r):
            acc += c[(j + s - 1) % r]
            if acc < s + 1:
                break
        else:
            return True
    return False


def sidorenko_base(r: int, t: int, n: int) -> tuple[Hypergraph, CyclicPartition]:
    """Base hypergraph: the r-sets with no cyclic excess.  Contains no
    complete (r+1)-set, and every (r-1)-set lies in at least t edges."""
    _need("r", r, 2)
    _need("t", t, 1)
    if n < r * t:
        raise DomainError(f"need n >= rt = {r * t}, got {n}")
    part = CyclicPartition(r, t, n)
    # an r-set's classes, in order, give the counts `has_cyclic_excess` reads
    classes = [part.class_of(v) for v in range(n)].__getitem__
    edges, kept = [], {}
    for e in combinations(range(n), r):
        key = tuple(map(classes, e))
        if key not in kept:
            kept[key] = not has_cyclic_excess(e, part)
        if kept[key]:
            edges.append(e)
    return Hypergraph(r, n, edges), part


def extension_class_check(
    h: Hypergraph, part: CyclicPartition
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Does every (r-1)-set have a class disjoint from it whose members all
    extend it to an edge?  Returns (True, None) or (False, offending set)."""
    if (h.r, h.n) != (part.r, part.n):
        raise DomainError("hypergraph and partition disagree on r or n")
    for b in combinations(range(part.n), part.r - 1):
        bs = set(b)
        for i in range(part.r):
            mem = part.members(i)
            if bs.isdisjoint(mem) and all(h.has_edge(b + (x,)) for x in mem):
                break
        else:
            return False, b
    return True, None


def greedy_complete(h: Hypergraph, p: int) -> Hypergraph:
    """Add absent r-sets in ascending order, skipping any whose addition
    would complete a p-set.  One pass saturates: a skipped set's blockers
    are only ever added to.  The link masks are kept in step with the
    edge set, r entries per added edge."""
    _check_p(p, r=h.r)
    if contains_r_clique(h, p):
        raise DomainError("input already contains a complete p-set")
    eset = set(h._eset)
    links = dict(h.links())
    for cand in h.non_edges():
        if not creates_complete(h.r, eset, links, cand, p):
            eset.add(cand)
            for sub, bit in link_masks((cand,), h.r).items():
                links[sub] = links.get(sub, 0) | bit
    return Hypergraph(h.r, h.n, eset)


def saturated_hypergraph(r: int, p: int, t: int, n: int) -> Hypergraph:
    """K_p^r-saturated hypergraph on n vertices in which every (r-1)-set
    lies in at least t edges: a greedy-completed base on n-p+r+1 vertices
    with codegree parameter t-p+r+1, joined with p-r-1 universal vertices
    at the top indices."""
    _need("r", r, 2)
    if not 1 <= p - r <= t:
        raise DomainError(f"need 1 <= p - r <= t, got p - r = {p - r}, t = {t}")
    q = p - r - 1
    if n < r * t - (r - 1) * q:
        raise DomainError(f"need n >= rt - (r-1)(p-r-1) = {r * t - (r - 1) * q}, got {n}")
    base, _ = sidorenko_base(r, t - q, n - q)
    core = greedy_complete(base, r + 1)
    if q == 0:
        return core
    edges = list(core.edges)
    edges.extend(e for e in combinations(range(n), r) if e[-1] >= n - q)
    return Hypergraph(r, n, edges)


def bollobas_extremal(n: int, r: int, p: int) -> Hypergraph:
    """The classical minimum: all r-sets meeting the fixed vertex set
    [0, p-r).  K_p^r-saturated with C(n,r) - C(n-p+r, r) edges and every
    (r-1)-set in at least p-r edges."""
    _need("r", r, 2)
    _check_p(p, r=r)
    if p > n:
        raise DomainError(f"need p <= n, got p = {p}, n = {n}")
    s = p - r
    edges = [e for e in combinations(range(n), r) if e[0] < s]
    return Hypergraph(r, n, edges)
