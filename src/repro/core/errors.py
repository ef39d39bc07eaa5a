"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. More specific subclasses are raised close to the point of
failure with actionable messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TreeError(ReproError):
    """Base class for structural errors on ordered trees."""


class UnknownNodeError(TreeError):
    """A node identifier does not exist in the tree."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"unknown node id: {node_id!r}")
        self.node_id = node_id


class DuplicateNodeError(TreeError):
    """A node identifier is already present in the tree."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"duplicate node id: {node_id!r}")
        self.node_id = node_id


class InvalidPositionError(TreeError):
    """A child position is out of the legal 1..m+1 range."""

    def __init__(self, position: int, limit: int) -> None:
        super().__init__(
            f"invalid child position {position}; must be between 1 and {limit}"
        )
        self.position = position
        self.limit = limit


class NotALeafError(TreeError):
    """An operation that requires a leaf was applied to an interior node."""

    def __init__(self, node_id: object) -> None:
        super().__init__(
            f"node {node_id!r} has children; the paper's DEL operation only "
            f"deletes leaves (move or delete its descendants first)"
        )
        self.node_id = node_id


class CyclicMoveError(TreeError):
    """A move would make a node a descendant of itself."""

    def __init__(self, node_id: object, target_id: object) -> None:
        super().__init__(
            f"cannot move node {node_id!r} under {target_id!r}: the target is "
            f"inside the moved subtree"
        )
        self.node_id = node_id
        self.target_id = target_id


class RootOperationError(TreeError):
    """An operation (delete/move) was attempted on the root node."""

    def __init__(self, operation: str, node_id: object) -> None:
        super().__init__(f"cannot {operation} the root node {node_id!r}")
        self.operation = operation
        self.node_id = node_id


class ConfigError(ReproError, ValueError):
    """A diff configuration is invalid (unknown algorithm, bad threshold...).

    Raised eagerly at configuration-construction time so every front end
    (library, CLI, service) rejects bad inputs before any work is done.
    Subclasses :class:`ValueError` so callers that predate the typed error
    keep working.
    """


class EditScriptError(ReproError):
    """An edit script is malformed or cannot be applied."""


class MatchingError(ReproError):
    """A matching is malformed (not one-to-one, unknown nodes, ...)."""


class ParseError(ReproError):
    """A document could not be parsed into a tree."""

    def __init__(self, message: str, line: int = 0) -> None:
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
