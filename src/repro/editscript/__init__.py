"""Edit operations, scripts, cost model, and Algorithm EditScript."""

from .cost import DEFAULT_COST_MODEL, CostModel
from .generator import EditScriptResult, GenerationStats, generate_edit_script
from .invert import invert_script
from .normalize import concatenate, normalize_script
from .operations import Delete, EditOperation, Insert, Move, Update
from .script import DUMMY_ROOT_LABEL, EditScript

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DUMMY_ROOT_LABEL",
    "Delete",
    "EditOperation",
    "EditScript",
    "EditScriptResult",
    "GenerationStats",
    "Insert",
    "Move",
    "Update",
    "concatenate",
    "generate_edit_script",
    "invert_script",
    "normalize_script",
]
