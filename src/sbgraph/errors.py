"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all sbgraph errors."""


class VertexRangeError(GraphError):
    """A vertex id falls outside [0, n)."""


class SelfLoopError(GraphError):
    """An edge with tail == head was supplied."""


class DuplicateEdgeError(GraphError):
    """The same ordered pair appears more than once."""


class MissingEdgeError(GraphError):
    """An edge scheduled for removal is not present."""


class NotStronglyConnectedError(GraphError):
    """Operation requires a strongly connected input graph."""


class NotStronglyBiconnectedError(GraphError):
    """Operation requires a strongly biconnected input graph."""


class GuardError(GraphError):
    """An operation was asked to exceed a size guard: an exhaustive oracle,
    or an input or generated graph larger than the fixed limits."""


class GenerationBudgetError(GraphError):
    """Rejection sampling exhausted its retry budget."""


class EdgeListParseError(GraphError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
