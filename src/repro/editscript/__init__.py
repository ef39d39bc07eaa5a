"""Edit operations, scripts, costs, and Algorithm EditScript."""

from ..core.tree import DUMMY_ROOT_LABEL
from .cost import operation_cost, script_cost
from .generator import EditScriptResult, GenerationStats, generate_edit_script
from .invert import invert_script
from .operations import Delete, EditOperation, Insert, Move, Update
from .script import EditScript

__all__ = [
    "DUMMY_ROOT_LABEL",
    "Delete",
    "EditOperation",
    "EditScript",
    "EditScriptResult",
    "GenerationStats",
    "Insert",
    "Move",
    "Update",
    "generate_edit_script",
    "invert_script",
    "operation_cost",
    "script_cost",
]
