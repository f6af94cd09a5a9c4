"""Exception types shared across the package."""
from __future__ import annotations


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
