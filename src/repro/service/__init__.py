"""Fleet-scale optimization as a persistent service.

``BatchOptimizer`` runs the trace→analyze→optimize loop for a fleet of
named pipelines across a worker pool, deduplicating structurally
identical jobs through a signature-keyed result store and aggregating a
:class:`FleetOptimizationReport` (per-job speedup, bottleneck histogram,
cache hit rate). Around it:

* :mod:`repro.service.store` — pluggable result stores; ``DiskStore``
  persists a batch's entries as fsync'd JSON files of up to 8 entries,
  each hard-linked under its keys, so the cache survives process
  restarts; both stores
  garbage-collect by provenance age
  (``compact``).
* :mod:`repro.service.daemon` — a long-running HTTP front-end
  (``POST /optimize``, ``GET /jobs/<id>``, ``GET /report/<id>``,
  ``GET /stats``, ``POST /compact``) with per-lane admission control.
* :mod:`repro.service.client` — a stdlib-``urllib``
  ``OptimizationClient`` wrapping those endpoints (429 retry, polling
  backoff, report rehydration) and a ``RemoteShard`` adapter binding a
  client to one daemon URL.
* :mod:`repro.service.shard` — deterministic signature-hash sharding of
  job batches across logical hosts (in-process optimizers or remote
  daemons over HTTP), dispatched concurrently, with per-shard reports
  merged into one.
* :mod:`repro.service.ring` — the consistent-hash ring under the
  sharder: virtual-node placement keyed by host id, so membership
  changes move only ~K/N signatures instead of reshuffling everything.
* :mod:`repro.service.errors` — the typed failure taxonomy
  (``ShardUnreachable`` / ``ShardTimeout`` / ``ShardSaturated``,
  retryable vs give-up) that drives ``ShardedOptimizer``'s failover.
"""

from repro.core.spec import OptimizeSpec
from repro.service.batch import (
    BatchOptimizer,
    FleetOptimizationReport,
    JobResult,
    OptimizationJob,
)
from repro.service.client import (
    BatchFailedError,
    ClientError,
    ClientTimeout,
    OptimizationClient,
    RemoteShard,
)
from repro.service.daemon import (
    AdmissionController,
    OptimizationDaemon,
    job_lane,
)
from repro.service.errors import (
    ShardDispatchError,
    ShardFailure,
    ShardSaturated,
    ShardTimeout,
    ShardUnreachable,
)
from repro.service.ring import HashRing, default_host_ids
from repro.service.shard import ShardedOptimizer, shard_fleet
from repro.service.store import DiskStore, InMemoryStore, ResultStore

__all__ = [
    "AdmissionController",
    "BatchFailedError",
    "BatchOptimizer",
    "ClientError",
    "ClientTimeout",
    "DiskStore",
    "FleetOptimizationReport",
    "HashRing",
    "InMemoryStore",
    "JobResult",
    "OptimizationClient",
    "OptimizationDaemon",
    "OptimizationJob",
    "OptimizeSpec",
    "RemoteShard",
    "ResultStore",
    "ShardDispatchError",
    "ShardFailure",
    "ShardSaturated",
    "ShardTimeout",
    "ShardUnreachable",
    "ShardedOptimizer",
    "default_host_ids",
    "job_lane",
    "shard_fleet",
]
