"""Core substrate: ordered labeled-value trees and their invariants."""

from .arena import (
    ArenaBuilder,
    TreeArena,
    arenas_isomorphic,
    flatten_root,
)
from .errors import (
    CyclicMoveError,
    DuplicateNodeError,
    EditScriptError,
    InvalidPositionError,
    MatchingError,
    NotALeafError,
    ParseError,
    ReproError,
    RootOperationError,
    SchemaError,
    TreeError,
    UnknownNodeError,
)
from .isomorphism import (
    canonical_form,
    first_difference,
    isomorphism_mapping,
    trees_isomorphic,
)
from .node import Node
from .serialization import (
    tree_from_dict,
    tree_from_sexpr,
    tree_to_dict,
    tree_to_sexpr,
)
from .tree import Tree, map_tree

__all__ = [
    "ArenaBuilder",
    "TreeArena",
    "CyclicMoveError",
    "DuplicateNodeError",
    "EditScriptError",
    "InvalidPositionError",
    "MatchingError",
    "Node",
    "NotALeafError",
    "ParseError",
    "ReproError",
    "RootOperationError",
    "SchemaError",
    "Tree",
    "TreeError",
    "UnknownNodeError",
    "arenas_isomorphic",
    "canonical_form",
    "first_difference",
    "flatten_root",
    "isomorphism_mapping",
    "map_tree",
    "tree_from_dict",
    "tree_from_sexpr",
    "tree_to_dict",
    "tree_to_sexpr",
    "trees_isomorphic",
]
