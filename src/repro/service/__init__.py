"""Serving layer: concurrent diffing with Merkle digests, caching, metrics.

The algorithms under :mod:`repro.matching` and :mod:`repro.editscript`
reproduce the paper; this package makes them servable at warehouse scale
(the §1 scenario): :class:`DiffEngine` fans snapshot pairs over a worker
pool, short-circuits identical content via Merkle fingerprints, memoizes
edit scripts by content digest, and exports service metrics.

Quickstart::

    from repro.service import DiffEngine

    engine = DiffEngine(workers=4)
    results = engine.map_pairs([(old_a, new_a), (old_b, new_b)])
    for r in results:
        print(r.job_id, r.status, r.source, r.operations, f"{r.wall_ms:.1f}ms")
    print(engine.metrics.snapshot())
"""

from .cache import ScriptCache, canonicalize_script, instantiate_script
from .digest import (
    DigestIndex,
    cached_digests,
    compute_digests,
    tree_fingerprint,
)
from .engine import DiffEngine, JobResult, config_key
from .metrics import LatencyHistogram, ServiceMetrics

__all__ = [
    "DiffEngine",
    "DigestIndex",
    "JobResult",
    "LatencyHistogram",
    "ScriptCache",
    "ServiceMetrics",
    "cached_digests",
    "canonicalize_script",
    "compute_digests",
    "config_key",
    "instantiate_script",
    "tree_fingerprint",
]
