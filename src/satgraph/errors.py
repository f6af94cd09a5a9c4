"""Exception types shared across the package, and the parameter checks.

The paper defines sat_t(n, p) for a clique order p >= 3 and a degree
t >= 0, and its r-graph analogue for a uniformity r >= 2 and p >= r + 1;
the closure argument and the codegree construction need t >= 1.  Every
entry point states these ranges with `_check_p` and `_need`, so each has
one message.
"""
from __future__ import annotations

from typing import Optional


class DomainError(ValueError):
    """A parameter lies outside an operation's valid range."""


class LabelingLimitError(DomainError):
    """Canonical labeling hit its branch guard.  A search reports this as
    a resource limit, like a spent node or time budget."""


class Graph6Error(ValueError):
    """Malformed graph6 input.  `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        # both in args, so that pickling (a process pool) rebuilds the error
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (offset {self.offset})"


class ParseError(ValueError):
    """Malformed structured input: hypergraph text, or certificate JSON
    with a missing key or a value of the wrong shape."""


class VerificationError(ValueError):
    """An input failed a stated precondition check (for example, a graph
    handed to the certificate engine turned out not to be saturated)."""


class IntegrityError(RuntimeError):
    """An engine invariant failed, which means the input violated a
    precondition (for example minimum degree below t)."""


class FatalInconsistencyError(RuntimeError):
    """A verified-saturated subject violated a proven lower bound.

    This cannot happen for correct code on correct inputs; if it fires,
    either the verifier or the bound evaluator is wrong.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class BudgetExceededError(RuntimeError):
    """Internal signal: a search ran out of its node or time budget."""


def _need(name: str, value: Optional[int], least: int) -> None:
    """Refuse a vertex count n, degree t or uniformity r below `least`;
    None (no degree given) passes."""
    if value is not None and value < least:
        raise DomainError(f"need {name} >= {least}, got {value}")


def _check_p(p: int, t: Optional[int] = None, r: Optional[int] = None) -> None:
    """Refuse a clique order below 3, or below r + 1 in an r-graph; then a
    degree t below 0."""
    least = 3 if r is None else r + 1
    if p < least:
        floor = least if r is None else f"r+1 = {least}"
        raise DomainError(f"clique order must be >= {floor}, got {p}")
    if t is not None and t < 0:  # `_need` only on failure: bounds call this per graph
        _need("t", t, 0)
