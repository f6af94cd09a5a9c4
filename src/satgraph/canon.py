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
"""
from __future__ import annotations

from typing import Sequence

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


def canonical_masks(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Return (labeling, packed) for the canonical labeling of the graph
    given by adjacency masks.  labeling[i] is the original vertex placed
    at position i."""
    if n == 0:
        return (), 0
    cells = _refine(adj, [list(range(n))], [(1 << n) - 1])
    best_packed: int | None = None
    best_pos: tuple[int, ...] | None = None
    visited = 0

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
            return
        i = 0
        while len(cells[i]) == 1:
            i += 1
        target = cells[i]
        branched: list[int] = []
        for v in target:
            if any(adj[u] & ~(1 << u | 1 << v) == adj[v] & ~(1 << u | 1 << v) for u in branched):
                continue
            branched.append(v)
            rest = [w for w in target if w != v]
            # cells is stable, so only {v} is fresh: rest is the last part
            rec(_refine(adj, cells[:i] + [[v], rest] + cells[i + 1:], [1 << v]))

    rec(cells)
    assert best_pos is not None and best_packed is not None
    return best_pos, best_packed


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, packed upper-triangle bits) under the canonical labeling."""
    _, packed = canonical_masks(g.n, g.masks())
    return g.n, packed


def masks_from_packed(n: int, packed: int) -> list[int]:
    """Adjacency masks from a packed form; bits above the C(n,2) pairs are ignored."""
    npairs = n * (n - 1) // 2
    return triangle_masks(n, format(packed & ((1 << npairs) - 1), f"0{npairs}b"))


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g."""
    n, packed = canonical_form(g)
    return Graph._unchecked(n, masks_from_packed(n, packed))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)
