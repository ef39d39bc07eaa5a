"""repro.serve: the diff service on the network.

The paper's setting is change detection for *autonomous* data sources —
snapshots arrive from elsewhere, deltas are computed centrally (§1). This
package is that boundary: a stdlib-only asyncio HTTP/1.1 JSON service
wrapping :class:`repro.service.DiffEngine`, with explicit overload
behavior (admission control, backpressure, deadlines), graceful drain on
SIGTERM, and a blocking client that retries transient failures with
capped jittered backoff.

Quickstart::

    from repro.serve import DiffServer, DiffServiceClient, ServeConfig, ServerThread

    with ServerThread(DiffServer(ServeConfig(port=0, workers=2))) as handle:
        client = DiffServiceClient(port=handle.port)
        out = client.diff(old_tree, new_tree)
        print(out["operations"], out["source"])
    # leaving the block drains in-flight work and stops the server

From the shell: ``repro-diff serve --port 8765`` (SIGTERM drains and
prints a final deterministic ``METRICS {json}`` line).

Scaling out: ``repro-diff serve --workers 4`` forks four single-process
workers behind a cache-affinity consistent-hash router with failover and
rolling restarts — see :mod:`repro.serve.cluster`. Either front runs
through :func:`run_server` (foreground) or :class:`ServerThread`, e.g.
``ServerThread(ClusterServer(ClusterConfig(port=0, workers=2)))``.
"""

from .admission import AdmissionController, Deadline, Decision, RateLimiter, TokenBucket
from .app import DiffServer, ServeConfig
from .client import DiffServiceClient, ServiceError
from .cluster import ClusterConfig, ClusterServer
from .lifecycle import Lifecycle, ServerThread, dump_final_metrics, run_server
from .protocol import PROTOCOL, HttpError, job_result_to_dict
from .router import HashRing, Router, affinity_key
from .supervisor import Supervisor, WorkerHandle, WorkerStartupError

__all__ = [
    "PROTOCOL",
    "AdmissionController",
    "ClusterConfig",
    "ClusterServer",
    "Deadline",
    "Decision",
    "DiffServer",
    "DiffServiceClient",
    "HashRing",
    "HttpError",
    "Lifecycle",
    "RateLimiter",
    "Router",
    "ServeConfig",
    "ServerThread",
    "ServiceError",
    "Supervisor",
    "TokenBucket",
    "WorkerHandle",
    "WorkerStartupError",
    "affinity_key",
    "dump_final_metrics",
    "job_result_to_dict",
    "run_server",
]
