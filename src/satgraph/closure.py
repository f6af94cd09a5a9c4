"""Degree-closure engine producing auditable edge lower-bound certificates.

For a K_p-saturated graph with minimum degree >= t the engine grows a seed
set R through closure/refinement rounds until every outside vertex has
weight >= t, which certifies e(G) >= t(n - |R*|).  All weights are kept as
integers scaled by 2t, so the audit trail is exact.

Definitions, with Rbar the closure of R and Y the complement of Rbar:
  weight(v)  = deg into Rbar + deg into Y / 2          (scaled: x 2t)
  control(v) = deg into R + deg into Rbar\\R / 2
             + sum over Y-neighbours y of deg_R(y) / 2t (scaled: x 2t)
  bad        = y in Y with weight(y) < t
Each refinement step picks representatives of the maximal bad traces
N_R(y), pulls one Y-neighbour of each into R together with that
neighbour's Rbar-neighbours, and must raise every still-bad vertex's
control by at least 1/(2t); at most 2t^2 steps can occur.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from .errors import (
    DomainError,
    FatalInconsistencyError,
    Graph6Error,
    IntegrityError,
    ParseError,
    VerificationError,
    _check_p,
    _need,
)
from .graph6 import decode, encode
from .graphs import Graph, iter_bits, mask_of
from .verify import is_saturated

__all__ = [
    "ClosureState",
    "StepRecord",
    "Certificate",
    "closure",
    "make_state",
    "weight",
    "control",
    "bad_vertices",
    "trace_antichain",
    "refine",
    "certify",
    "verify_certificate",
    "LymResult",
    "lym_check",
]


def _seed_mask(g: Graph, seed: Iterable[int]) -> int:
    seed = tuple(seed)
    if not all(0 <= v < g.n for v in seed):
        raise DomainError("seed out of range")
    return mask_of(seed)


def _closed(g: Graph, t: int, cur: int) -> int:
    """Mask of the closure of the seed mask `cur`."""
    adj, before = g.masks(), -1
    while cur != before:
        before = cur
        for v in range(g.n):
            if (adj[v] & cur).bit_count() >= t:
                cur |= 1 << v
    return cur


def closure(g: Graph, t: int, seed: Iterable[int]) -> frozenset[int]:
    """Smallest superset of `seed` closed under "t neighbours inside pull
    you in": repeatedly absorb any vertex with >= t neighbours inside."""
    _need("t", t, 1)
    return frozenset(iter_bits(_closed(g, t, _seed_mask(g, seed))))


@dataclass(frozen=True)
class ClosureState:
    """One round of the engine: masks of the seed R, its closure Rbar, the outside Y."""

    graph: Graph
    t: int
    r_mask: int
    rbar_mask: int
    y_mask: int

    r = property(lambda self: frozenset(iter_bits(self.r_mask)))
    rbar = property(lambda self: frozenset(iter_bits(self.rbar_mask)))
    y = property(lambda self: frozenset(iter_bits(self.y_mask)))

    @cached_property
    def _bad(self) -> tuple[int, ...]:
        return tuple(v for v in iter_bits(self.y_mask) if weight(self, v) < 2 * self.t * self.t)


def _state(g: Graph, t: int, r_mask: int) -> ClosureState:
    rbar_mask = _closed(g, t, r_mask)
    return ClosureState(g, t, r_mask, rbar_mask, ((1 << g.n) - 1) & ~rbar_mask)


def make_state(g: Graph, t: int, r: Iterable[int]) -> ClosureState:
    r_mask = _seed_mask(g, r)
    if not r_mask:
        raise DomainError("seed set must be non-empty")
    _need("t", t, 1)
    return _state(g, t, r_mask)


def weight(state: ClosureState, v: int) -> int:
    """Scaled weight 2t*w(v) = 2t*deg_Rbar(v) + t*deg_Y(v)."""
    t, a = state.t, state.graph.masks()[v]
    return 2 * t * (a & state.rbar_mask).bit_count() + t * (a & state.y_mask).bit_count()


def control(state: ClosureState, v: int) -> int:
    """Scaled control 2t*l(v); always <= weight(v) on Y."""
    t, adj, r = state.t, state.graph.masks(), state.r_mask
    a = adj[v]
    total = 2 * t * (a & r).bit_count() + t * (a & state.rbar_mask & ~r).bit_count()
    y = a & state.y_mask
    while y:
        low = y & -y
        total += (adj[low.bit_length() - 1] & r).bit_count()
        y ^= low
    return total


def bad_vertices(state: ClosureState) -> tuple[int, ...]:
    """Y-vertices with weight below t, ascending; computed once per state."""
    return state._bad


def _antichain(state: ClosureState) -> tuple[list[int], tuple[int, ...]]:
    """`trace_antichain` with each trace held as a mask."""
    bad = bad_vertices(state)
    if not bad:
        raise DomainError("no bad vertices; nothing to trace")
    rep_of: dict[int, int] = {}
    for y in bad:
        rep_of.setdefault(state.graph.masks()[y] & state.r_mask, y)
    maximal = [tr for tr in rep_of if not any(tr != o and tr & o == tr for o in rep_of)]
    maximal.sort(key=lambda tr: tuple(iter_bits(tr)))
    return maximal, tuple(rep_of[tr] for tr in maximal)


def trace_antichain(state: ClosureState) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
    """Maximal elements of {N_R(y) : y bad} plus, per trace, the least bad
    vertex realizing it exactly.  Requires a non-empty bad set."""
    traces, reps = _antichain(state)
    return tuple(frozenset(iter_bits(tr)) for tr in traces), reps


def refine(state: ClosureState) -> tuple[ClosureState, "StepRecord"]:
    """One refinement round; checks its own postconditions and records an
    auditable step."""
    t, g, adj = state.t, state.graph, state.graph.masks()
    traces, reps = _antichain(state)
    if any(tr.bit_count() > t - 1 for tr in traces):
        raise IntegrityError("a trace has size >= t, so the closure is stale")
    size = state.r_mask.bit_count()
    res = lym_check([iter_bits(tr) for tr in traces], size)
    if not res.antichain or len(traces) > size ** max(t - 1, 0):
        raise IntegrityError("trace family is not a bounded antichain")
    xs, r_after = [], state.r_mask
    for y in reps:
        cand = adj[y] & state.y_mask
        if not cand:
            raise IntegrityError(
                f"representative {y} has no neighbour outside the closure; "
                f"the input cannot have minimum degree >= t"
            )
        x = (cand & -cand).bit_length() - 1
        xs.append(x)
        r_after |= (1 << x) | (adj[x] & state.rbar_mask)
    if r_after.bit_count() > size + t * size ** max(t - 1, 0):
        raise IntegrityError("refined seed exceeded its size bound")
    record = StepRecord(
        r_before=tuple(iter_bits(state.r_mask)), bad=bad_vertices(state),
        traces=tuple(tuple(iter_bits(tr)) for tr in traces), reps=reps,
        xs=tuple(xs), r_after=tuple(iter_bits(r_after)),
    )
    nxt = _state(g, t, r_after)
    for y in bad_vertices(nxt):
        if control(nxt, y) < control(state, y) + 1:
            raise IntegrityError(
                f"control of bad vertex {y} did not rise by 1/(2t); "
                f"the input cannot be saturated with minimum degree >= t"
            )
    return nxt, record


@dataclass(frozen=True)
class StepRecord:
    r_before: tuple[int, ...]
    bad: tuple[int, ...]
    traces: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    xs: tuple[int, ...]
    r_after: tuple[int, ...]

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class Certificate:
    """Auditable run of the engine: every step, the final seed, the bound."""

    graph6: str
    p: int
    t: int
    r0: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    r_star: tuple[int, ...]
    iterations: int
    bound: int
    edges: int
    verified: bool

    def to_json(self) -> dict:
        return dict(vars(self), steps=tuple(s.to_json() for s in self.steps))

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        """Inverse of `to_json`; keys that are not fields are ignored."""
        cert = _from_fields(cls, data)
        if not isinstance(cert.steps, tuple):
            raise ParseError(f"steps must be a JSON array, got {type(cert.steps).__name__}")
        return replace(cert, steps=tuple(_from_fields(StepRecord, s) for s in cert.steps))


def _from_fields(cls, data):
    """`cls` from the JSON object `data`, one key per field, lists as tuples."""
    try:
        return cls(**{f.name: _tuples(data[f.name]) for f in fields(cls)})
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed {cls.__name__} JSON: {exc!r}") from exc


def _tuples(x):
    return tuple(_tuples(v) for v in x) if isinstance(x, (list, tuple)) else x


def certify(g: Graph, p: int, t: int, r0: Optional[Iterable[int]] = None) -> Certificate:
    """Run the engine to completion on a K_p-saturated graph with minimum
    degree >= t and return the certificate for e(G) >= t(n - |R*|)."""
    _need("t", t, 1)
    _check_p(p)
    if g.n == 0:
        raise DomainError("empty graph")
    if g.min_degree() < t:
        raise VerificationError(f"minimum degree {g.min_degree()} below t={t}")
    if not is_saturated(g, p):
        raise VerificationError("input graph is not saturated")
    seed = tuple(sorted(set(r0))) if r0 is not None else (0,)
    state = make_state(g, t, seed)
    steps: list[StepRecord] = []
    limit = 2 * t * t
    # Preconditions are verified, so any step-invariant failure below is not
    # a bad input; it would disprove the bound argument itself.
    while bad_vertices(state):
        if len(steps) >= limit:
            raise FatalInconsistencyError(f"did not stabilize within {limit} refinements")
        try:
            state, record = refine(state)
        except IntegrityError as exc:
            raise FatalInconsistencyError(str(exc)) from exc
        steps.append(record)
    r_star = tuple(iter_bits(state.r_mask))
    bound = t * (g.n - len(r_star))
    edges = g.edge_count()
    if bound > edges:
        raise FatalInconsistencyError(f"certified bound {bound} exceeds edge count {edges}")
    cert = Certificate(
        graph6=encode(g), p=p, t=t, r0=seed, steps=tuple(steps), r_star=r_star,
        iterations=len(steps), bound=bound, edges=edges, verified=False,
    )
    # g and its saturation are preconditions checked above; the replay checks the rest
    return replace(cert, verified=_verify(cert, g, own=True))


def verify_certificate(cert: Certificate, g: Optional[Graph] = None) -> bool:
    """Re-run `refine` from the seed, compare every recorded field, then
    re-check the final bound; a field of the wrong type or range reads False.
    Not independent of the engine: `tests/oracles.certificate_problem` is."""
    return _verify(cert, g, own=False)


def _verify(cert: Certificate, g: Optional[Graph], own: bool) -> bool:
    """`verify_certificate`; when `own`, g is the saturated graph `certify`
    has just encoded into `cert`, so it is not decoded or checked again."""
    ints = (cert.p, cert.t, cert.iterations, cert.bound, cert.edges)
    if not (isinstance(cert.graph6, str) and type(cert.verified) is bool
            and isinstance(cert.r0, tuple) and isinstance(cert.r_star, tuple)
            and all(type(x) is int for x in ints + cert.r0 + cert.r_star)):
        return False
    try:
        if not own:
            named = decode(cert.graph6)
            g = named if g is None else g
            if g != named:
                return False
        if g.min_degree() < cert.t or not (own or is_saturated(g, cert.p)):
            return False
        state = make_state(g, cert.t, cert.r0)
        for rec in cert.steps:
            # a replayed record holds r_before, so a wrong one fails here too
            state, replayed = refine(state)
            if replayed != rec:
                return False
    except (DomainError, Graph6Error, IntegrityError):
        return False
    return (
        not bad_vertices(state)
        and tuple(iter_bits(state.r_mask)) == cert.r_star
        and cert.iterations == len(cert.steps)
        and cert.bound == cert.t * (g.n - len(cert.r_star))
        and cert.edges == g.edge_count() >= cert.bound
    )


@dataclass(frozen=True)
class LymResult:
    antichain: bool
    lym_sum: Fraction
    size_ok: bool


def lym_check(family: Sequence[Iterable[int]], m: int) -> LymResult:
    """Antichain status, the exact LYM sum over subsets of an m-element
    ground set, and whether |family| <= m^s for s the largest set size."""
    sets = [frozenset(a) for a in family]
    for a in sets:
        if any(not 0 <= x for x in a) or len(a) > m:
            raise DomainError(f"set {sorted(a)} cannot live in a {m}-element ground set")
    antichain = not any(
        i != j and a <= b for i, a in enumerate(sets) for j, b in enumerate(sets)
    )
    total = sum((Fraction(1, comb(m, len(a))) for a in sets), Fraction(0))
    s = max((len(a) for a in sets), default=0)
    size_ok = len(sets) <= m ** s
    return LymResult(antichain=antichain, lym_sum=total, size_ok=size_ok)
