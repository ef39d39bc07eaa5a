"""The Good Matching problem: criteria, schemas, and matching algorithms."""

from .criteria import (
    CriteriaContext,
    MatchConfig,
    MatchingStats,
    criterion3_holds,
    criterion3_violations,
)
from .fastmatch import fast_match
from .keyed import match_by_keys, match_with_keys_then_values
from .matching import Matching
from .postprocess import postprocess_matching
from .schema import DOCUMENT_SCHEMA, LabelSchema
from .simple import match

__all__ = [
    "CriteriaContext",
    "DOCUMENT_SCHEMA",
    "LabelSchema",
    "MatchConfig",
    "Matching",
    "MatchingStats",
    "criterion3_holds",
    "criterion3_violations",
    "fast_match",
    "match",
    "match_by_keys",
    "match_with_keys_then_values",
    "postprocess_matching",
]
