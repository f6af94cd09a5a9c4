"""Exact minimum edge counts for small saturation problems.

Iterative deepening on the edge count m: for each m from a proven floor
upward, a backtracking search over pair decisions in column-major order
either finds a witness or proves level m infeasible, so the first
feasible m is the minimum.  The optimal level is explored in full and
solutions are collected as canonical forms, which makes the reported
witness (the least canonical form) and the extremal list independent of
visit order.

Pruning is limited to rules that cannot lose solutions: remaining pair
budget, three bounds of need against the remaining edge budget,
per-vertex reachability of that need, the degree cap 2m - t(n-1), and
(for the saturated modes) refusing any edge that would complete a
p-clique.

A vertex's need is the number of edges it must still gain: t - deg v,
and at least 1 if v owes saturation debt.  A pair u, v is closed when
N(u) & N(v) holds a K_{p-2}; every mode asks it of each non-edge, and
the clique refusal is the same test (`_closed`) on an edge to be taken.
At a column boundary k (vertices 0..k-1 complete, no edge to k yet) a
prefix pair not closed can be closed only by a later vertex, adjacent to
both, so each end of degree >= t owes an edge to a later vertex (see
`_owed`).  In column k the need is carried as two sums: `held`, of the
prefix 0..k-1, and `later`, of k..n-1, which owe nothing; at boundary k,
k-1 moves from later to held before any cut.  With r = m - e edges left,
a node is cut when held + later > 2r, when held > r, or when
later - C(n-k, 2) > r.  Inside column k the debt is carried: the edge
(j, k) pays j's, and j may not skip the last column while it owes.

A completed graph is the boundary k = n, with no test of its own.  It
has e = m, so its need must be 0: every vertex has degree >= t and every
non-edge is closed, which is semi-saturation; the saturated modes take
no edge that completes a p-clique, so there it is K_p-free and
saturated.  Its canonical-deletion verdict gives its canonical form, and
sat-exact also asks min degree t.

Isomorph rejection is canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Column k decides the
edges from vertex k to 0..k-1, so each completed column adds one vertex
to the prefix.  A completed k-vertex prefix is kept iff vertex k-1 lies
in the automorphism orbit of the vertex its canonical labelling puts
last, and, among the children of one kept prefix, only the first of
each isomorphism class is kept.

Soundness: every pruning rule is invariant under relabelling the prefix,
and it survives deleting a vertex: each rule tests a quantity that moves
one way along a path, so no rule cuts a node above a solution.  The need
bounds are necessary conditions for a node to extend to a solution: need
is a lower bound on the edges each vertex still gains in any solution
below, and the r edges still to come pay it.  Each pays at most two
needs; each joins at most one prefix vertex, as every open pair has an
end k or later; and if y of them join two later vertices, y <= C(n-k, 2)
and later <= (r - y) + 2y.  At a boundary each bound depends only on the
prefix's degrees and owing set, so on its isomorphism class, as owing is
defined by degrees, adjacency and cliques alone: it cuts all of a class
or none of it.  A viable prefix (one that some solution extends) thus
stays viable when relabelled, and so does its canonical parent, the
prefix less its canonically last vertex: relabel the solution to put
that vertex last.  By induction on k, some prefix of each viable class
is kept: the canonical parent's class has a kept representative P, and
the child of P that adds the deleted vertex back is isomorphic to the
prefix, with vertex k-1 in the orbit the test asks for.  The sibling set
removes the children that are equivalent under P's automorphisms, which
the orbit test lets through.

The orbit test runs in three stages, each on the prefixes the one before
keeps: reject the prefix if some vertex has a higher degree than k-1
(tested first, before the owing set), else unless `canon._verdict`
keeps it by its root-cell and orbit stages (see `canon`).  The degree
stage rejects only what the verdict would, as every vertex the verdict
keeps last lies in the root's last cell, inside the class of maximum
degree.

The verdict depends on the labelled prefix graph alone, not on m, the
need, t, p or the mode, and iterative deepening walks the same prefixes
again at every level.  So each search keeps a memo from a prefix that
passes the degree stage (its lower-triangle adjacency bits under a
leading 1, which fixes k) to its canonical form if it passes the other
two, else None.  A hit gives the decision a labelling would, so node
counts, values, witnesses and extremal lists are those without the memo.
The sibling test depends on the parent and is made on every visit.  The
memo stops growing at `_MEMO_CAP` entries (a few MB) and is dropped when
the search returns.  Worker tasks label without it, each from an empty
memo of its own (see `_task`).

Each level is walked in process.  With a worker pool, a walk past its
node quota, the same on every level, hands the rest of its stack to the
pool as continuations, a task per group (see `_search`), and a task
hands back the same way, so a level under the quota starts no pool.  The
solution sets merge by union, and the node count is the size of one
fixed tree, whatever the worker count.
"""
from __future__ import annotations

import os
import time
from math import comb, isfinite
from typing import TYPE_CHECKING, NamedTuple, Optional

from .canon import _verdict, canonical_masks, masks_from_packed
from .errors import (
    BudgetExceededError, DomainError, FatalInconsistencyError, LabelingLimitError, _check_p,
)
from .graph6 import encode
from .graphs import Graph, find_clique_in_mask
from .verify import ehm_bound, is_saturated, is_semi_saturated

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "MODES",
    "SearchProblem",
    "SearchResult",
    "exact_sat",
    "exact_semi_sat",
    "enumerate_extremal",
]

MODES = ("sat", "sat-exact", "semi")


# the fields of SearchProblem, which checks them: a NamedTuple itself
# cannot define __new__
class _ProblemFields(NamedTuple):
    n: int
    p: int
    t: int
    mode: str = "sat"
    edge_budget: Optional[int] = None
    node_budget: int = 10**9
    time_budget: float = 600.0
    iso_reject: bool = True
    max_n: int = 10


class SearchProblem(_ProblemFields):
    """What to minimize: edges of an n-vertex graph that is saturated with
    min degree >= t ("sat"), saturated with min degree exactly t
    ("sat-exact"), or semi-saturated with min degree >= t ("semi")."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        _check_p(self.p, self.t)
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.node_budget <= 0:
            raise DomainError("node budget must be positive")
        if self.time_budget <= 0:
            raise DomainError("time budget must be positive")
        if not isfinite(self.time_budget):
            raise DomainError(f"time budget must be finite, got {self.time_budget}")
        if self.edge_budget is not None and self.edge_budget < 0:
            raise DomainError("edge budget must be non-negative")
        if self.max_n < 1:
            raise DomainError("max_n must be positive")
        return self

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)

    def to_json(self) -> dict:
        return {
            "n": self.n, "p": self.p, "t": self.t, "mode": self.mode,
            "edge_budget": self.edge_budget, "node_budget": self.node_budget,
            "time_budget": self.time_budget, "iso_reject": self.iso_reject,
        }


class SearchResult(NamedTuple):
    problem: SearchProblem
    status: str
    value: Optional[int]
    witness: Optional[Graph]
    witness_graph6: Optional[str]
    nodes: int
    wall_ms: int
    extremal: Optional[tuple[str, ...]] = None

    def to_json(self) -> dict:
        out = {
            "problem": self.problem.to_json(),
            "value": self.value if self.status == "ok" else self.status,
            "witness_graph6": self.witness_graph6,
            "nodes": self.nodes,
            "wall_ms": self.wall_ms,
        }
        if self.extremal is not None:
            out["extremal_list"] = list(self.extremal)
        return out


class _Budget:
    """Nodes and time left to one process's share of a search.  A walk
    reads the clock at its first node and at every 8,192nd node of the
    budget, so it can pass its deadline by that many."""

    __slots__ = ("nodes", "limit", "deadline")

    def __init__(self, node_budget: int, deadline: float):
        self.nodes = 0
        self.limit = node_budget
        self.deadline = deadline

    def charge(self, nodes: int):
        """Add the nodes a worker's task spent."""
        self.nodes += nodes
        if self.nodes > self.limit:
            raise BudgetExceededError("node budget exhausted")


_VISIT, _TAKE, _UNDO, _SET = range(4)


def _closed(adj: list[int], common: int, p: int) -> bool:
    """True iff the mask `common` holds a K_{p-2}.  Taken on N(u) & N(v),
    it says that adding the pair uv would complete a p-clique."""
    if p == 3:
        return common != 0
    if p == 4:
        while common:  # an edge inside: its upper end meets the rest
            w = common.bit_length() - 1
            common ^= 1 << w
            if adj[w] & common:
                return True
        return False
    return find_clique_in_mask(adj, common, p - 2) is not None


def _owed(adj: list[int], deg: list[int], k: int, t: int, p: int) -> int:
    """Mask of the vertices v < k of degree >= t with a non-neighbour u < k
    such that the pair uv is not closed, where vertices 0..k-1 are
    complete and no edge reaches k: that pair can be closed only by a
    later vertex, so v needs an edge to one."""
    full = (1 << k) - 1
    owed = 0
    for v in range(k):
        if deg[v] < t:
            continue
        av = adj[v]
        others = full & ~av & ~(1 << v)
        while others:
            low = others & -others
            others ^= low
            if not _closed(adj, adj[low.bit_length() - 1] & av, p):
                owed |= 1 << v
                break
    return owed


# Canonical-deletion verdicts one search keeps, at most; past this the
# memo stops growing (the 10-vertex semi proof keeps 17,817).
_MEMO_CAP = 1 << 16
_UNSEEN = object()


def _search(
    problem: SearchProblem, m: int, group: Optional[list], quota: Optional[int],
    budget: _Budget, memo: dict,
):
    """Walk level m: from the root when `group` is None, else a group an
    earlier walk handed back.  Returns (solutions, groups): the canonical
    forms of the solutions found, and, once the walk passes `quota` nodes
    (if not None), the rest of its stack as groups, one per parent, in
    stack order, with a `_SET` entry above each entry to restore its `adj`
    and `deg`.  Only a parent's own entries touch its sibling set, so the
    groups may be walked apart and in any order, with the nodes, kept
    prefixes and solutions of the uninterrupted walk.  `memo` holds
    canonical-deletion verdicts by prefix (see `_verdict`)."""
    n, p, t = problem.n, problem.p, problem.t
    free_mode = problem.mode != "semi"
    exact_mode = problem.mode == "sat-exact"
    iso = problem.iso_reject
    pairs = [(j, k) for k in range(1, n) for j in range(k)]
    total = len(pairs)
    # one row per pair index: the pair (j, k) and its two bits; whether it
    # opens a column k >= 2; the pairs left from it on; the pairs among
    # vertices k..n-1; the least degrees j and k need to skip it and still
    # reach t; whether it is in the last column.  Index total is the
    # boundary k = n of a completed graph.
    rows = [(j, k, 1 << j, 1 << k, not j and k >= 2, total - idx, comb(n - k, 2),
             t - (n - 1 - k), t - (n - 2 - j), k == n - 1)
            for idx, (j, k) in enumerate(pairs)]
    rows.append((0, n, 1, 1 << n, True, 0, 0, 0, 0, False))
    capd = min(n - 1, 2 * m - t * (n - 1))
    adj = [0] * n
    deg = [0] * n
    solutions: set[int] = set()
    # a loop over an explicit stack of (op, pair index, edges, held, later,
    # owed, parent), not recursion: CPython maps and unmaps a frame chunk
    # each time a deep recursion crosses a chunk boundary.  parent is the
    # last kept prefix: its memo key and its children's canonical forms.
    stack: list[tuple] = []
    push, pop = stack.append, stack.pop
    if group is None:
        # vertex 0 is held from the start; the one-vertex prefix has no
        # pair, so its key is the sentinel alone
        push((_VISIT, 0, 0, t, t * (n - 1), 0, (1, set())))
    else:
        stack += group
    nodes, limit = budget.nodes, budget.limit
    end = limit if quota is None else min(limit, nodes + quota)
    check = 0  # the next node that reads the clock
    groups: dict = {}
    try:
        while stack:
            op, idx, e, held, later, owed, parent = pop()
            j, k, bj, bk, opens, left, inner, jmin, kmin, last = rows[idx]
            if op == _UNDO:
                deg[j] -= 1
                deg[k] -= 1
                adj[j] ^= bk
                adj[k] ^= bj
                continue
            if op == _SET:
                adj[:], deg[:] = parent  # the arrays of the entry below
                continue
            nodes += 1
            if nodes >= check:
                if nodes > limit:
                    raise BudgetExceededError("node budget exhausted")
                if nodes > end:  # hand back this node, and each one after it, unwalked
                    nodes -= 1
                    groups.setdefault(id(parent), []).extend((
                        (_SET, 0, 0, 0, 0, 0, (tuple(adj), tuple(deg))),
                        (op, idx, e, held, later, owed, parent)))
                    continue
                if time.monotonic() > budget.deadline:
                    raise BudgetExceededError("time budget exhausted")
                check = min(end, nodes + (-nodes & 8191)) + 1
            if op == _TAKE:
                push((_UNDO, idx, e, held, later, owed, parent))
                # an edge to a later vertex pays j's debt
                held -= deg[j] < t or owed >> j & 1
                later -= deg[k] < t
                owed &= ~bj
                adj[j] |= bk
                adj[k] |= bj
                deg[j] += 1
                deg[k] += 1
                idx += 1
                e += 1
                j, k, bj, bk, opens, left, inner, jmin, kmin, last = rows[idx]
            r = m - e
            if opens:
                # vertices 0..k-1 are complete and no edge reaches k
                # yet; k-1, the one just added, is now held
                d = t - deg[k - 1]
                if d > 0:
                    held += d
                    later -= d
            if left < r or held > r or later - inner > r or held + later > 2 * r:
                continue
            if opens:
                # the degree stage first
                if iso and k >= 3 and max(deg[:k]) > deg[k - 1]:
                    continue
                fresh = _owed(adj, deg, k, t, p)
                held += fresh.bit_count() - owed.bit_count()
                owed = fresh
                if held > r or held + later > 2 * r:
                    continue
                # the parent's key, then the bits of k-1's row below
                # the diagonal: all of adj[k-1] now
                key = parent[0] << (k - 1) | adj[k - 1]
                if iso and k >= 3:
                    packed = memo.get(key, _UNSEEN)
                    if packed is _UNSEEN:
                        packed = _verdict(adj[:k])
                        if len(memo) < _MEMO_CAP:
                            memo[key] = packed
                    if packed is None or packed in parent[1]:
                        continue
                    parent[1].add(packed)
                if k == n:
                    if not exact_mode or min(deg) == t:
                        solutions.add(packed if iso else canonical_masks(n, adj)[1])
                    continue
                parent = (key, set())
            # skip the pair, if j and k can still reach their needs (j may
            # not skip the last column while it owes), then take it
            if deg[j] >= jmin and deg[k] >= kmin and not (last and owed & bj):
                push((_VISIT, idx + 1, e, held, later, owed, parent))
            if e < m and deg[j] < capd and deg[k] < capd:
                # the saturated modes take no edge that completes a p-clique
                common = adj[j] & adj[k]
                if not free_mode or not (common if p == 3 else _closed(adj, common, p)):
                    push((_TAKE, idx, e, held, later, owed, parent))
    finally:
        budget.nodes = nodes
    return solutions, [group[::-1] for group in groups.values()]


# Nodes a walk takes before it hands back its stack.  In process, a level
# under _QUOTA costs less than in workers, which label without the memo.
# In a task, few, so that an idle worker soon has work, and so that a
# stopped search's pool soon ends: closing it cancels the tasks it holds
# back, and those running or in its call queue (at most one more than the
# workers) end within _WORKER_QUOTA nodes each.
_QUOTA = 1 << 16
_WORKER_QUOTA = 4096


def _task(problem: SearchProblem, m: int, group: list, nodes_left: int, deadline: float):
    """One worker task: (solutions, nodes, groups) of a walk of `group`,
    handing back at `_WORKER_QUOTA` nodes; the solutions are None when the
    task ran out of nodes or time.  The walk starts from an empty memo,
    so no verdict outlives the task."""
    budget = _Budget(nodes_left, deadline)
    try:
        solutions, groups = _search(problem, m, group, _WORKER_QUOTA, budget, {})
    except BudgetExceededError:
        return None, budget.nodes, []
    return solutions, budget.nodes, groups


class _Pool:
    """The `size` worker processes of one search, started at a level's
    first handback with the platform's default start method, and sent
    nothing but tasks.  `close` cancels the tasks not yet started and
    joins the workers."""

    def __init__(self, size: int):
        self.size = size
        self._executor: Optional[ProcessPoolExecutor] = None

    def submit(self, problem: SearchProblem, m: int, group: list, budget: _Budget) -> Future:
        """`_task` on one group, with the nodes and time left to `budget`."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor  # at the first hand-back

            self._executor = ProcessPoolExecutor(self.size)
        return self._executor.submit(
            _task, problem, m, group, budget.limit - budget.nodes, budget.deadline)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)


def _run_level(
    problem: SearchProblem, m: int, budget: _Budget, pool: Optional[_Pool], memo: dict
) -> set[int]:
    """The canonical forms of every level-m solution (empty iff level m is
    infeasible).  The level is walked in process on `budget`; with a pool,
    past its quota the walk hands back its stack, a task per group, and so
    does each task, until no group is left."""
    quota = None if pool is None else _QUOTA
    solutions, groups = _search(problem, m, None, quota, budget, memo)
    tasks = {pool.submit(problem, m, group, budget) for group in groups}
    if tasks:
        from concurrent.futures import FIRST_COMPLETED, wait
    while tasks:
        done, tasks = wait(tasks, return_when=FIRST_COMPLETED)
        for future in done:
            found, nodes, groups = future.result()
            budget.charge(nodes)
            if found is None:
                raise BudgetExceededError("a task ran out of its budget")
            solutions |= found
            tasks |= {pool.submit(problem, m, group, budget) for group in groups}
    return solutions


def _verify_witness(problem: SearchProblem, g: Graph, value: int) -> None:
    if g.edge_count() != value:
        raise FatalInconsistencyError("witness edge count disagrees with the value")
    delta = g.min_degree()
    if problem.mode == "sat-exact":
        ok = delta == problem.t and is_saturated(g, problem.p)
    elif problem.mode == "sat":
        ok = delta >= problem.t and is_saturated(g, problem.p)
    else:
        ok = delta >= problem.t and is_semi_saturated(g, problem.p)
    if not ok:
        raise FatalInconsistencyError("witness fails its own mode checker")


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve(problem: SearchProblem, collect: bool, threads: Optional[int]) -> SearchResult:
    n, p, t = problem.n, problem.p, problem.t
    if n > problem.max_n:
        raise DomainError(f"n = {n} exceeds the configured maximum {problem.max_n}")
    if p > n:
        raise DomainError(f"need p <= n, got p = {p}, n = {n}")
    if threads is None:
        threads = _usable_cpus()
    if threads < 1:
        raise DomainError(f"need threads >= 1, got {threads}")
    start = time.monotonic()
    budget = _Budget(problem.node_budget, start + problem.time_budget)

    def elapsed_ms() -> int:
        return int(round((time.monotonic() - start) * 1000))

    # t > n - 1 puts m_lo past C(n, 2), so no level is walked
    m_lo = max(0, -(-t * n // 2))
    if problem.mode != "semi":
        m_lo = max(m_lo, ehm_bound(n, p))
    cap = comb(n, 2)
    if problem.edge_budget is not None:
        cap = min(cap, problem.edge_budget)
    solutions: set[int] = set()  # empty until a level is feasible
    status = "infeasible"
    memo: dict = {}  # prefix key -> verdict, for this search only
    pool = _Pool(threads) if threads > 1 else None
    try:
        for value in range(m_lo, cap + 1):
            solutions = _run_level(problem, value, budget, pool, memo)
            if solutions:
                break
    except (BudgetExceededError, LabelingLimitError):
        status = "resource-limit"
    finally:
        if pool is not None:
            pool.close()
    if not solutions:
        return SearchResult(problem, status, None, None, None, budget.nodes, elapsed_ms())
    chosen = sorted(solutions) if collect else [min(solutions)]
    graphs = [Graph._unchecked(n, masks_from_packed(n, packed)) for packed in chosen]
    for g in graphs:
        _verify_witness(problem, g, value)
    extremal = tuple(encode(g) for g in graphs) if collect else None
    return SearchResult(
        problem, "ok", value, graphs[0], encode(graphs[0]),
        budget.nodes, elapsed_ms(), extremal,
    )


def exact_sat(problem: SearchProblem, threads: Optional[int] = None) -> SearchResult:
    """Minimum edges of a saturated graph under the problem's degree mode.
    `threads` worker processes share each level (default: one per CPU
    this process may run on)."""
    if problem.mode not in ("sat", "sat-exact"):
        raise DomainError(f"exact_sat needs mode sat or sat-exact, got {problem.mode!r}")
    return _solve(problem, False, threads)


def exact_semi_sat(problem: SearchProblem, threads: Optional[int] = None) -> SearchResult:
    """Minimum edges of a semi-saturated graph with min degree >= t."""
    if problem.mode != "semi":
        raise DomainError(f"exact_semi_sat needs mode semi, got {problem.mode!r}")
    return _solve(problem, False, threads)


def enumerate_extremal(problem: SearchProblem, threads: Optional[int] = None) -> SearchResult:
    """Solve and list every optimal graph up to isomorphism (graph6 of the
    canonical labelings, ascending)."""
    if problem.n > 9:
        raise DomainError(f"enumeration is limited to n <= 9, got {problem.n}")
    return _solve(problem, True, threads)
