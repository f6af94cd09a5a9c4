"""Exact minimum edge counts for small saturation problems.

Iterative deepening on the edge count m: for each m from a proven floor
upward, a backtracking search over pair decisions in column-major order
either finds a witness or proves level m infeasible, so the first
feasible m is the minimum.  The optimal level is explored in full and
solutions are collected as canonical forms, which makes the reported
witness (the least canonical form) and the extremal list independent of
visit order.

Pruning is limited to rules that cannot lose solutions: remaining pair
budget, total degree deficit against the remaining edge budget,
per-vertex reachability of degree t, the degree cap 2m - t(n-1), and
(for the saturated modes) refusing any edge that would complete a
p-clique.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb, isfinite
from typing import Optional

from .canon import canonical_masks, masks_from_packed
from .errors import BudgetExceededError, DomainError, IntegrityError, LabelingLimitError
from .graph6 import encode
from .graphs import Graph, find_clique_in_mask
from .verify import (
    ehm_bound,
    is_saturated,
    is_semi_saturated,
    saturation_holds_masks,
)

__all__ = [
    "MODES",
    "SearchProblem",
    "SearchResult",
    "exact_sat",
    "exact_semi_sat",
    "enumerate_extremal",
]

MODES = ("sat", "sat-exact", "semi")


@dataclass(frozen=True)
class SearchProblem:
    """What to minimize: edges of an n-vertex graph that is saturated with
    min degree >= t ("sat"), saturated with min degree exactly t
    ("sat-exact"), or semi-saturated with min degree >= t ("semi")."""

    n: int
    p: int
    t: int
    mode: str = "sat"
    edge_budget: Optional[int] = None
    node_budget: int = 10**9
    time_budget: float = 600.0
    iso_reject: bool = True
    max_n: int = 10

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if self.p < 3:
            raise DomainError(f"need p >= 3, got {self.p}")
        if self.t < 0:
            raise DomainError(f"need t >= 0, got {self.t}")
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

    def to_json(self) -> dict:
        return {
            "n": self.n, "p": self.p, "t": self.t, "mode": self.mode,
            "edge_budget": self.edge_budget, "node_budget": self.node_budget,
            "time_budget": self.time_budget, "iso_reject": self.iso_reject,
        }


@dataclass(frozen=True)
class SearchResult:
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
    __slots__ = ("nodes", "limit", "deadline")

    def __init__(self, node_budget: int, deadline: float):
        self.nodes = 0
        self.limit = node_budget
        self.deadline = deadline

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceededError("node budget exhausted")
        if not self.nodes & 8191 and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exhausted")


def _run_level(
    problem: SearchProblem, m: int, budget: _Budget, solutions: set[int]
) -> None:
    """Collect the canonical forms of every level-m solution into
    `solutions` (left empty iff level m is infeasible)."""
    n, p, t = problem.n, problem.p, problem.t
    free_mode = problem.mode != "semi"
    exact_mode = problem.mode == "sat-exact"
    pairs = [(j, k) for k in range(1, n) for j in range(k)]
    total = len(pairs)
    stage_at = {comb(k, 2): k for k in range(3, n)} if problem.iso_reject else {}
    capd = min(n - 1, 2 * m - t * (n - 1))
    adj = [0] * n
    deg = [0] * n
    seen: set[tuple[int, int]] = set()

    def rec(idx: int, e: int, deficit: int) -> None:
        budget.tick()
        if e + (total - idx) < m or deficit > 2 * (m - e):
            return
        if idx == total:
            if exact_mode and min(deg) != t:
                return
            if saturation_holds_masks(n, adj, p):
                solutions.add(canonical_masks(n, adj)[1])
            return
        k_prefix = stage_at.get(idx)
        if k_prefix is not None:
            key = (k_prefix, canonical_masks(k_prefix, adj[:k_prefix])[1])
            if key in seen:
                return
            seen.add(key)
        j, k = pairs[idx]
        if e < m and deg[j] < capd and deg[k] < capd:
            blocked = free_mode and find_clique_in_mask(
                adj, adj[j] & adj[k], p - 2
            ) is not None
            if not blocked:
                adj[j] |= 1 << k
                adj[k] |= 1 << j
                gain = (deg[j] < t) + (deg[k] < t)
                deg[j] += 1
                deg[k] += 1
                rec(idx + 1, e + 1, deficit - gain)
                deg[j] -= 1
                deg[k] -= 1
                adj[j] &= ~(1 << k)
                adj[k] &= ~(1 << j)
        if deg[j] + (n - 1 - k) >= t and deg[k] + (n - 2 - j) >= t:
            rec(idx + 1, e, deficit)

    rec(0, 0, t * n)


def _verify_witness(problem: SearchProblem, g: Graph, value: int) -> None:
    if g.edge_count() != value:
        raise IntegrityError("witness edge count disagrees with the value")
    delta = g.min_degree()
    if problem.mode == "sat-exact":
        ok = delta == problem.t and is_saturated(g, problem.p)
    elif problem.mode == "sat":
        ok = delta >= problem.t and is_saturated(g, problem.p)
    else:
        ok = delta >= problem.t and is_semi_saturated(g, problem.p)
    if not ok:
        raise IntegrityError("witness fails its own mode checker")


def _solve(problem: SearchProblem, collect: bool) -> SearchResult:
    n, p, t = problem.n, problem.p, problem.t
    if n > problem.max_n:
        raise DomainError(f"n = {n} exceeds the configured maximum {problem.max_n}")
    if p > n:
        raise DomainError(f"need p <= n, got p = {p}, n = {n}")
    start = time.monotonic()
    budget = _Budget(problem.node_budget, start + problem.time_budget)

    def elapsed_ms() -> int:
        return int(round((time.monotonic() - start) * 1000))

    if t > n - 1:
        return SearchResult(problem, "infeasible", None, None, None, 0, elapsed_ms())
    m_lo = max(0, -(-t * n // 2))
    if problem.mode != "semi":
        m_lo = max(m_lo, ehm_bound(n, p))
    cap = comb(n, 2)
    if problem.edge_budget is not None:
        cap = min(cap, problem.edge_budget)
    solutions: set[int] = set()
    value = None
    try:
        for m in range(m_lo, cap + 1):
            _run_level(problem, m, budget, solutions)
            if solutions:
                value = m
                break
    except (BudgetExceededError, LabelingLimitError):
        return SearchResult(
            problem, "resource-limit", None, None, None, budget.nodes, elapsed_ms()
        )
    if value is None:
        return SearchResult(
            problem, "infeasible", None, None, None, budget.nodes, elapsed_ms()
        )
    chosen = sorted(solutions) if collect else [min(solutions)]
    graphs = [Graph._unchecked(n, masks_from_packed(n, packed)) for packed in chosen]
    for g in graphs:
        _verify_witness(problem, g, value)
    extremal = tuple(encode(g) for g in graphs) if collect else None
    return SearchResult(
        problem, "ok", value, graphs[0], encode(graphs[0]),
        budget.nodes, elapsed_ms(), extremal,
    )


def exact_sat(problem: SearchProblem) -> SearchResult:
    """Minimum edges of a saturated graph under the problem's degree mode."""
    if problem.mode not in ("sat", "sat-exact"):
        raise DomainError(f"exact_sat needs mode sat or sat-exact, got {problem.mode!r}")
    return _solve(problem, collect=False)


def exact_semi_sat(problem: SearchProblem) -> SearchResult:
    """Minimum edges of a semi-saturated graph with min degree >= t."""
    if problem.mode != "semi":
        raise DomainError(f"exact_semi_sat needs mode semi, got {problem.mode!r}")
    return _solve(problem, collect=False)


def enumerate_extremal(problem: SearchProblem) -> SearchResult:
    """Solve and list every optimal graph up to isomorphism (graph6 of the
    canonical labelings, ascending)."""
    if problem.n > 9:
        raise DomainError(f"enumeration is limited to n <= 9, got {problem.n}")
    return _solve(problem, collect=True)
