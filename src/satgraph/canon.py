"""Canonical labeling by colour refinement plus branching.

The canonical form of a graph is the smallest packing of its upper-triangle
adjacency bits (the pair order of `graph6.triangle_bits`) over all labelings
compatible with iterated colour refinement: branch on the vertices of the
first non-singleton colour class (one per twin class, below), re-refine,
and take the minimum over the discrete partitions reached.  Refinement
and the branching rule are label-independent, so two graphs are
isomorphic iff their canonical forms coincide, and the form is
deterministic.  Intended for small n (search lives at n <= 10); a guard
trips rather than letting a pathological branch run away.

Twin rule: within the target class the branch visits one vertex per twin
class, where u and v are twins when ``adj[u]`` and ``adj[v]`` agree off
{u, v} (equal open or equal closed neighbourhoods).  The transposition
(u v) is then an automorphism that fixes every vertex individualised so
far, so it maps the subtree under u onto the subtree under v leaf by leaf,
and both reach the same set of packed values.  The minimum, and hence the
form, is the one the full branch gives; only the labeling returned for a
tied minimum may differ.

Orbits: the automorphism group is generated by the twin transpositions the
branch skips together with the maps between visited leaves that tie the
least packed value.  In the full branch the leaves of least value are the
images of one of them under every automorphism; every skipped subtree is
the image of a visited one under a twin transposition, so each of those
leaves is a product of twin transpositions applied to a visited leaf of
the same value (McKay & Piperno, "Practical graph isomorphism II", JSC 60,
2014, for the method).

Root partition: refinement replaces each split cell by its parts in
place, and a branch replaces its target cell by [v] and the rest, so the
order of every leaf refines the root partition (the refined unit
partition): the vertices of each root cell stay together, in the root's
order of cells.  So the labeling puts last a vertex of the root's last
cell.  Refinement does not depend on labels, so every automorphism maps
each root cell onto itself: the orbit of a vertex outside the last cell
misses that cell, and with it the labeling's last vertex.  `_verdict`
thus rejects such a vertex before any branching, and else labels from
the root partition.  The first round of refinement orders the vertices
by ascending degree, so the last cell lies inside the class of maximum
degree.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import LabelingLimitError
from .graph6 import triangle_masks
from .graphs import Graph

__all__ = [
    "canonical_masks",
    "canonical_form",
    "canonical_graph",
    "are_isomorphic",
    "masks_from_packed",
]

_LABELING_GUARD = 2_000_000


def _refine(adj: Sequence[int], cells: list[list[int]], fresh: list[int]) -> list[list[int]]:
    """Refine an ordered partition (cells of sorted vertex lists) to the
    stable one.  Each round splits every non-singleton cell by its members'
    neighbour counts into the cells of the round, parts in ascending
    lexicographic order of the count vectors (packed into one integer, most
    significant first), and keeps the cells in order.

    Only the counts into `fresh` (masks) are taken: every cell already has
    constant counts into a cell the previous round left whole, and into the
    last part of a split cell the count is fixed by the earlier parts, so
    those entries never decide the order.  `fresh` is the parts a round
    created, minus the last part of each split."""
    shift = len(adj).bit_length()
    while fresh:
        out: list[list[int]] = []
        nxt: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                a = adj[v]
                key = 0
                for m in fresh:
                    key = key << shift | (a & m).bit_count()
                part = groups.get(key)
                if part is None:
                    groups[key] = [v]
                else:
                    part.append(v)
            if len(groups) == 1:
                out.append(cell)
                continue
            parts = [groups[k] for k in sorted(groups)]
            out += parts
            for part in parts[:-1]:
                mask = 0
                for v in part:
                    mask |= 1 << v
                nxt.append(mask)
        cells, fresh = out, nxt
    return cells


def _pack(n: int, adj: Sequence[int], pos: Sequence[int]) -> int:
    """Upper-triangle bits of the relabeled graph, earliest pair most
    significant, so integer order equals lexicographic string order."""
    val = 0
    for k in range(1, n):
        row = adj[pos[k]]
        for j in range(k):
            val = val << 1 | (row >> pos[j] & 1)
    return val


def _labelling(
    n: int, adj: Sequence[int], cells: Optional[list[list[int]]] = None
) -> tuple[tuple[int, ...], int, list[int]]:
    """(labeling, packed, orbit) for the canonical labeling of the graph
    given by adjacency masks; orbit[v] is the least vertex of v's
    automorphism orbit.  `cells`, when given, is the root partition
    (`_refine` of the unit partition), which is then not refined again."""
    if n == 0:
        return (), 0, []
    if cells is None:
        cells = _refine(adj, [list(range(n))], [(1 << n) - 1])
    best_packed: int | None = None
    best_pos: tuple[int, ...] | None = None
    visited = 0
    # union-find forest over the orbits found so far; every link points
    # to a smaller vertex
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    def join(u: int, v: int) -> None:
        u, v = find(u), find(v)
        if u < v:
            root[v] = u
        else:
            root[u] = v

    def rec(cells: list[list[int]]) -> None:
        nonlocal best_packed, best_pos, visited
        if len(cells) == n:
            visited += 1
            if visited > _LABELING_GUARD:
                raise LabelingLimitError(f"canonical labeling exceeded {_LABELING_GUARD} branches")
            pos = [cell[0] for cell in cells]
            packed = _pack(n, adj, pos)
            if best_packed is None or packed < best_packed:
                best_packed = packed
                best_pos = tuple(pos)
            elif packed == best_packed:
                # best_pos[i] -> pos[i] is an automorphism
                for u, v in zip(best_pos, pos):
                    if u != v:
                        join(u, v)
            return
        i = 0
        while len(cells[i]) == 1:
            i += 1
        target = cells[i]
        branched: list[int] = []
        for v in target:
            for u in branched:
                if adj[u] & ~(1 << u | 1 << v) == adj[v] & ~(1 << u | 1 << v):
                    join(u, v)
                    break
            else:
                branched.append(v)
                rest = [w for w in target if w != v]
                # cells is stable, so only {v} is fresh: rest is the last part
                rec(_refine(adj, cells[:i] + [[v], rest] + cells[i + 1:], [1 << v]))

    rec(cells)
    assert best_pos is not None and best_packed is not None
    for v in range(n):  # root[root[v]] is final already, as root[v] <= v
        root[v] = root[root[v]]
    return best_pos, best_packed, root


def _verdict(adj: Sequence[int]) -> Optional[int]:
    """The canonical form of the graph given by adjacency masks if the
    canonical labeling puts its last vertex, or one in that vertex's
    orbit, last; else None: the canonical-deletion verdict of a search
    prefix (see Root partition above)."""
    n = len(adj)
    cells = _refine(adj, [list(range(n))], [(1 << n) - 1])
    if n - 1 not in cells[-1]:
        return None
    labeling, packed, orbit = _labelling(n, adj, cells)
    return packed if orbit[labeling[-1]] == orbit[n - 1] else None


def canonical_masks(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Return (labeling, packed) for the canonical labeling of the graph
    given by adjacency masks.  labeling[i] is the original vertex placed
    at position i."""
    labeling, packed, _ = _labelling(n, adj)
    return labeling, packed


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, packed upper-triangle bits) under the canonical labeling."""
    _, packed = canonical_masks(g.n, g.masks())
    return g.n, packed


def masks_from_packed(n: int, packed: int) -> list[int]:
    """Adjacency masks from a packed form; bits above the C(n,2) pairs are ignored."""
    npairs = n * (n - 1) // 2
    return triangle_masks(n, int(format(packed & ((1 << npairs) - 1), f"0{npairs}b")[::-1], 2))


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g."""
    n, packed = canonical_form(g)
    return Graph._unchecked(n, masks_from_packed(n, packed))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)
