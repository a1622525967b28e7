"""Exception types shared across the toolkit."""


class CotreeParseError(ValueError):
    """Malformed cotree expression. ``offset`` is the byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class UnknownLeafError(KeyError):
    """A leaf label was looked up that does not occur in the tree."""


class NotAJoinError(ValueError):
    """A join-only predicate was asked about a node that is not a join."""


class NotNormalizedError(ValueError):
    """An operation that requires a normalized cotree received an unnormalized one."""


class BudgetExceededError(RuntimeError):
    """An exponential oracle was asked about a graph above its vertex cap.

    Deliberately distinct from a ``False`` answer: oracles never silently
    degrade to heuristics.
    """

    def __init__(self, check: str, needed: int, cap: int):
        super().__init__(
            f"{check} oracle budget exceeded: graph has {needed} vertices, cap is {cap}"
        )
        self.check = check
        self.needed = needed
        self.cap = cap
