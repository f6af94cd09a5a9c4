"""Saturation checkers, edge-count bound evaluators, and verification reports.

Saturation is checked one vertex at a time.  A non-edge uv is saturating
when N(u) & N(v) holds a (p-2)-clique, and every such clique is a clique
of N(u).  So for each u a single search over the increasing cliques of
N(u) settles all non-edges uv with v > u at once: each branch carries the
still-open v adjacent to every vertex chosen so far, is dropped once none
is left, and closes them at depth p-2.  Scanning u upwards and taking the
lowest v still open yields the same lexicographically least non-saturating
pair as testing the non-edges one by one.  At p = 3 that search is one
union: uv is closed iff v lies in the union of N(w) over w in N(u).

All bound evaluators return exact values (int or Fraction); nothing here
touches floating point.  `check_bounds` reads a graph's bounds from a table
keyed by (n, p, t, min degree) and by the evaluator functions the module
names at the time, so an evaluator replaced after import is still called.
"""
from __future__ import annotations

import json
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .errors import DomainError, FatalInconsistencyError, _check_p, _need
from .graph6 import encode
from .graphs import Graph, find_clique

if TYPE_CHECKING:
    from fractions import Fraction

    from .hypergraphs import Hypergraph

__all__ = [
    "is_kp_free",
    "is_saturated",
    "is_semi_saturated",
    "is_r_saturated",
    "has_conical_vertex",
    "non_saturating_pair",
    "non_saturating_r_set",
    "ehm_bound",
    "dh_mixed_bound",
    "dh_semi_bound",
    "closure_tower_bound",
    "closure_tower_term",
    "semi_sat_lower_bound",
    "semi_sat_upper_bound",
    "bollobas_bound",
    "BoundEval",
    "VerifyReport",
    "check_bounds",
]


# -- saturation checkers ---------------------------------------------------

def is_kp_free(g: Graph, p: int) -> bool:
    _check_p(p)
    return find_clique(g, p) is None


def _unsaturated_above(adj: Sequence[int], n: int, u: int, k: int) -> int:
    """Mask of the v > u not adjacent to u whose common neighbourhood with
    u holds no k-clique: the search of the module docstring, where `live`
    is the open v adjacent to every vertex chosen so far."""
    todo = ((1 << n) - 1) & ~adj[u] & ~((2 << u) - 1)
    if k <= 0 or not todo:
        return 0
    if k == 1:  # p = 3: the union of the module docstring
        nbrs = adj[u]
        while nbrs and todo:
            low = nbrs & -nbrs
            nbrs ^= low
            todo &= ~adj[low.bit_length() - 1]
        return todo

    def rec(cand: int, live: int, need: int, todo: int) -> int:
        while cand and cand.bit_count() >= need:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            left = live & adj[w] & todo
            if not left:
                continue
            if need == 1:
                todo &= ~left
            else:
                # cand holds only vertices above w, so cliques stay increasing
                todo = rec(cand & adj[w], left, need - 1, todo)
            if not todo:
                return 0
        return todo

    return rec(adj[u], todo, k, todo)


def non_saturating_pair(g: Graph, p: int) -> Optional[tuple[int, int]]:
    """Lexicographically least non-edge whose addition creates no new K_p."""
    _check_p(p)
    adj = g.masks()
    for u in range(g.n):
        todo = _unsaturated_above(adj, g.n, u, p - 2)
        if todo:
            return (u, (todo & -todo).bit_length() - 1)
    return None


def is_saturated(g: Graph, p: int) -> bool:
    """True iff g is K_p-free and every added edge would create a K_p."""
    return is_kp_free(g, p) and non_saturating_pair(g, p) is None


def is_semi_saturated(g: Graph, p: int) -> bool:
    """True iff every added edge would create a new K_p (copies allowed).

    Equivalent to: every non-edge has a (p-2)-clique in its common
    neighbourhood, since a new copy must use the new edge.
    """
    _check_p(p)
    return non_saturating_pair(g, p) is None


def has_conical_vertex(g: Graph) -> bool:
    """True iff some vertex is adjacent to all others."""
    return any(g.degree(v) == g.n - 1 for v in range(g.n))


def non_saturating_r_set(h: Hypergraph, p: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least absent r-set whose addition creates no
    complete p-set."""
    from .hypergraphs import creates_complete  # hypergraph helpers load on hypergraph paths only

    _check_p(p, r=h.r)
    links = h.links()
    for cand in h.non_edges():
        if not creates_complete(h.r, h._eset, links, cand, p):
            return cand
    return None


def is_r_saturated(h: Hypergraph, p: int) -> bool:
    """True iff h has no complete p-set and every added r-set creates one."""
    from .hypergraphs import find_r_clique

    _check_p(p, r=h.r)
    return find_r_clique(h, p) is None and non_saturating_r_set(h, p) is None


# -- bound evaluators ------------------------------------------------------

def ehm_bound(n: int, p: int) -> int:
    """Minimum edges of a K_p-saturated graph: n(p-2) - C(p-1,2)."""
    _check_p(p)
    _need("n", n, 0)
    return n * (p - 2) - comb(p - 1, 2)


def dh_semi_bound(n: int, delta: int, p: int) -> Fraction:
    """(n-delta-1)(delta+p-2)/2 + delta - C(p-2,2): a lower bound for
    K_p-saturated and K_p-semi-saturated graphs with minimum degree delta."""
    _check_p(p, delta)
    _need("n", n, 0)
    from fractions import Fraction  # loaded only where a bound value is built

    return Fraction((n - delta - 1) * (delta + p - 2) + 2 * (delta - comb(p - 2, 2)), 2)


def dh_mixed_bound(n: int, p: int, t: int) -> Fraction:
    """The minimum-degree-t specialization of the same counting bound,
    (t+p-2)(n-t-1)/2 + t - C(p-2,2); valid once n >= 4t.  It covers
    K_p-semi-saturated graphs too, as `semi_sat_lower_bound`."""
    return dh_semi_bound(n, t, p)


def closure_tower_term(t: int) -> int:
    """The additive constant t(t+1)^(t^(2t^2)) of the closure lower bound.

    Exact arbitrary-precision arithmetic: 774,840,980 bits at t = 3, about
    2^64 * log2(5) at t = 4, so t >= 4 is refused before any arithmetic.
    """
    if not 1 <= t <= 3:
        raise DomainError(f"need 1 <= t <= 3, got {t}")
    # 3 * 4^(3^18): a shift, far cheaper than a power
    return _TOWERS[t] if t < 3 else 3 << 2 * 3 ** 18


# t = 3's 97 MB term is built per call, never kept
_TOWERS = {1: 2, 2: 2 * 3 ** 256}


def closure_tower_bound(n: int, p: int, t: int) -> int:
    """tn - t(t+1)^(t^(2t^2)): the fully quantitative closure bound on the
    minimum edges of a K_p-saturated graph with minimum degree >= t."""
    _check_p(p)
    _need("n", n, 0)
    return t * n - closure_tower_term(t)


semi_sat_lower_bound = dh_mixed_bound


def semi_sat_upper_bound(n: int, p: int, t: int) -> int:
    """ceil((s+p-2)(n-(p-2))/2) + C(p-2,2), evaluated at s = max(t, p-2):
    edges of `semi_sat(n, p, s)`, whose minimum degree s >= t, so an upper
    bound on the same minimum (at s = p-2 it is `ehm_bound(n, p)`)."""
    _check_p(p, t)
    _need("n", n, 0)
    tq = max(t, p - 2) + p - 2
    return -((-tq * (n - (p - 2))) // 2) + comb(p - 2, 2)


def bollobas_bound(n: int, r: int, p: int) -> int:
    """C(n,r) - C(n-p+r,r): minimum edges of a K_p^r-saturated r-graph."""
    _need("r", r, 2)
    _check_p(p, r=r)
    _need("n", n, 0)
    return comb(n, r) - comb(max(n - p + r, 0), r)


# -- verification reports --------------------------------------------------

class BoundEval(NamedTuple):
    name: str
    value: Fraction
    satisfied: bool


class VerifyReport(NamedTuple):
    subject: str
    n: int
    p: int
    t: Optional[int]
    edges: int
    min_degree: int
    kp_free: bool
    saturated: bool
    semi_saturated: Optional[bool]
    bounds: tuple[BoundEval, ...] = ()
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return json.loads(self.json_line())

    def json_line(self) -> str:
        """The report as one line of JSON; `verify` prints one per graph."""
        b = self.bounds
        bounds = (b if type(b) is _Bounds else _Bounds(b)).json
        w = self.witness
        witness = "null" if w is None else f'{{"kind": "{w["kind"]}", "vertices": {w["vertices"]}}}'
        return (f'{{"subject": {json.encoder.encode_basestring_ascii(self.subject)}, '
                f'"n": {self.n}, "p": {self.p}, "t": {"null" if self.t is None else self.t}, '
                f'"edges": {self.edges}, "min_degree": {self.min_degree}, '
                f'"kp_free": {_JS[self.kp_free]}, "saturated": {_JS[self.saturated]}, '
                f'"semi_saturated": {_JS[self.semi_saturated]}, "bounds": [{bounds}], '
                f'"witness": {witness}}}')


_JS = {True: "true", False: "false", None: "null"}


class _Bounds(tuple):
    """Bound evaluations that write their JSON once; the reports of one
    table row and outcome share them."""

    @cached_property
    def json(self) -> str:
        return ", ".join([
            f'{{"name": "{b.name}", "value_num": {b.value.numerator}, '
            f'"value_den": {b.value.denominator}, "satisfied": {_JS[b.satisfied]}}}'
            for b in self])


def _row(values: list[tuple[str, Fraction]]) -> tuple:
    """A row of bounds: the (name, value) pairs, each value as (numerator,
    denominator), and the `_Bounds` of each outcome met so far."""
    return values, [(v.numerator, v.denominator) for _, v in values], {}


def _graph_row(n: int, p: int, t: Optional[int], delta: int) -> tuple:
    """The table's row of graph bounds at (n, p, t, delta)."""
    key = (n, p, t, delta, ehm_bound, dh_semi_bound, dh_mixed_bound, closure_tower_bound)
    row = _ROWS.get(key)
    if row is None:
        from fractions import Fraction

        values = [("ehm", Fraction(ehm_bound(n, p))), ("dh_semi", dh_semi_bound(n, delta, p))]
        if t is not None and delta >= t:
            # these bounds presuppose min degree >= t
            if n >= 4 * t:
                values.append(("dh_mixed", dh_mixed_bound(n, p, t)))
            if 1 <= t <= 2:
                values.append(("closure_tower", Fraction(closure_tower_bound(n, p, t))))
        if len(_ROWS) >= 1024:  # a stream of ever new (n, delta) stays small
            _ROWS.clear()
        row = _ROWS[key] = _row(values)
    return row


_ROWS: dict[tuple, tuple] = {}


def check_bounds(subject: Union[Graph, Hypergraph], p: int, t: Optional[int] = None) -> VerifyReport:
    """Verify saturation flags and evaluate every applicable edge bound.

    A violated proven lower bound on a subject whose saturation was just
    verified is impossible; if observed it raises FatalInconsistencyError.
    Those in `_SEMI_BOUNDS` hold on a semi-saturated graph too.
    """
    _need("t", t, 0)
    if not isinstance(subject, Graph):  # a Hypergraph
        h = subject
        _check_p(p, r=h.r)
        n, edges, semi, kind = h.n, h.edge_count(), None, "r_clique"
        import hashlib  # only here: it loads OpenSSL, a few MB that no graph needs
        from fractions import Fraction

        from .hypergraphs import find_r_clique, to_text

        sha = hashlib.sha256(to_text(h).encode()).hexdigest()[:16]
        name = f"hg:r{h.r}:n{n}:m{edges}:{sha}"
        delta = h.min_codegree(h.r - 1) if n >= h.r - 1 >= 1 else 0
        clique, missing = find_r_clique(h, p), non_saturating_r_set(h, p)
        row = _row([("bollobas", Fraction(bollobas_bound(n, h.r, p)))])
    else:
        g = subject
        _check_p(p)
        n, kind = g.n, "clique"
        degrees = list(map(int.bit_count, g.masks()))
        edges, delta = sum(degrees) // 2, min(degrees, default=0)
        row = _graph_row(n, p, t, delta)
        clique, missing = find_clique(g, p), non_saturating_pair(g, p)
        name, semi = encode(g), missing is None
    saturated = clique is None and missing is None
    witness: Optional[dict] = None
    if clique is not None:
        witness = {"kind": kind, "vertices": list(clique)}
    elif missing is not None:
        witness = {"kind": "non_edge", "vertices": list(missing)}
    values, limits, seen = row
    oks = tuple([edges * den >= num for num, den in limits])
    bounds = seen.get(oks)
    if bounds is None:
        bounds = seen[oks] = _Bounds([BoundEval(b, v, ok) for (b, v), ok in zip(values, oks)])
    report = VerifyReport(name, n, p, t, edges, delta, clique is None, saturated, semi,
                          bounds, witness)
    for b in bounds:
        if not b.satisfied and (saturated or semi and b.name in _SEMI_BOUNDS):
            raise FatalInconsistencyError(f"verified-saturated subject violates the {b.name} "
                                          f"lower bound ({edges} < {b.value})", report)
    return report


_SEMI_BOUNDS = frozenset({"ehm", "dh_semi", "dh_mixed"})
