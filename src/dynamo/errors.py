"""Exception hierarchy shared by all dynamo modules."""


class DynamoError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertexError(DynamoError):
    """An operation referenced a vertex that is not in the graph."""


class DuplicateVertexError(DynamoError):
    """A vertex addition used an id that already exists."""


class SelfLoopError(DynamoError):
    """Self-loop edges are not accepted on input graphs."""


class NegativeWeightError(DynamoError):
    """An edge weight was non-positive or non-finite, or a decrease exceeded the stored weight.

    Weights that sum past the largest float count as non-finite.
    """


class EmptyGraphError(DynamoError):
    """Modularity (and detection) is undefined on a graph with zero total weight."""


class SameCommunityError(DynamoError):
    """The merge threshold requires the two endpoints in distinct communities."""


class InconsistentSnapshotsError(DynamoError):
    """The new snapshot is not the step that apply_delta recorded from the old one and the delta."""


class VertexSetMismatchError(DynamoError):
    """Two partitions being compared do not cover the same vertex set."""


class ParseError(DynamoError):
    """An input file line could not be parsed; message carries the line number."""


class ConflictingDeltaError(DynamoError):
    """A delta file both adds and deletes the same vertex."""


class EmptyStreamError(DynamoError):
    """An event stream contained no events."""


class InfeasibleChurnError(DynamoError):
    """The generator could not draw the requested number of changes."""
