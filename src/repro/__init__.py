"""repro — change detection in hierarchically structured information.

A faithful, production-quality reproduction of:

    S. Chawathe, A. Rajaraman, H. Garcia-Molina, J. Widom.
    "Change Detection in Hierarchically Structured Information."
    SIGMOD 1996.

Quickstart::

    from repro import Tree, tree_diff

    old = Tree.from_obj(("D", None, [("P", None, [("S", "hello world")])]))
    new = Tree.from_obj(("D", None, [("P", None, [("S", "hello there world")])]))
    result = tree_diff(old, new)
    print(result.script)          # UPD(...)
    assert result.verify(old, new)

Public surface:

* :class:`Tree`, :class:`Node` — ordered labeled-value trees.
* :func:`tree_diff` — end-to-end matching + edit-script generation.
* :mod:`repro.matching` — Match / FastMatch / criteria / schemas.
* :mod:`repro.editscript` — operations, scripts, Algorithm EditScript.
* :mod:`repro.deltatree` — annotated delta trees and renderers.
* :mod:`repro.ladiff` — the LaDiff structured-document differ.
* :mod:`repro.baselines` — Zhang–Shasha and flat line diff comparators.
* :mod:`repro.workload` — synthetic trees/documents and mutation engines.
* :mod:`repro.analysis` — edit-distance metrics and the §8 instrumentation.
* :mod:`repro.service` — concurrent diff engine with Merkle digests,
  result caching, and service metrics (the §1 warehouse serving layer).
* :mod:`repro.verify` — conformance oracles, differential checks against
  the baselines, and the seeded fuzzing harness.
"""

from .core.errors import ConfigError
from .core.node import Node
from .core.tree import Tree
from .core.isomorphism import trees_isomorphic
from .diff import DiffResult, tree_diff
from .editscript.generator import generate_edit_script
from .editscript.script import EditScript
from .matching.criteria import MatchConfig
from .matching.fastmatch import fast_match
from .matching.matching import Matching
from .matching.simple import match
from .merge import MergeResult, three_way_merge
from .pipeline import DiffConfig, DiffPipeline, Trace
from .service.engine import DiffEngine
from .service.digest import tree_fingerprint
from .store import VersionStore
from .verify import (
    FuzzConfig,
    FuzzReport,
    VerifyReport,
    Violation,
    differential_check,
    run_fuzz,
    verify_result,
)

__version__ = "1.1.0"

__all__ = [
    "ConfigError",
    "DiffConfig",
    "DiffEngine",
    "DiffPipeline",
    "DiffResult",
    "EditScript",
    "FuzzConfig",
    "FuzzReport",
    "MatchConfig",
    "Matching",
    "MergeResult",
    "Node",
    "Trace",
    "Tree",
    "VerifyReport",
    "VersionStore",
    "Violation",
    "__version__",
    "differential_check",
    "fast_match",
    "generate_edit_script",
    "match",
    "run_fuzz",
    "three_way_merge",
    "tree_diff",
    "tree_fingerprint",
    "trees_isomorphic",
    "verify_result",
]
